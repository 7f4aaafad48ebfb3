#ifndef PERFBENCH_LAYER_STATS_H_
#define PERFBENCH_LAYER_STATS_H_

// Per-layer numbers, read from what the program already records (the
// metrics registry, DeviceStats, BlockCache, Link and TaskPool
// accessors, trace spans) plus the benchmark's own wall timers, and the
// process-level clocks the end-to-end metrics use.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fabric.h"
#include "minos/runtime/task_pool.h"
#include "timed_store.h"
#include "workloads.h"

namespace perfbench {

/// Every per-layer metric the traced run prints, in order, with its unit.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

/// Orders `values` by LayerMetricUnits(); a metric a workload did not
/// exercise prints as 0.
std::vector<Metric> LayerMetrics(const std::map<std::string, double>& values);

/// Registry counters with digits stripped from their names (link0.x and
/// link1.x both count as link.x), summed.
std::map<std::string, int64_t> NormalizedCounters();
std::map<std::string, int64_t> CounterDelta(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after);
int64_t CounterOf(const std::map<std::string, int64_t>& counters,
                  const std::string& name);

double WallSeconds();
/// User plus system CPU of the whole process (all threads).
double ProcessCpuSeconds();
double PeakRssMb();

/// Everything per-layer that can be read at one instant.
struct LayerProbe {
  std::map<std::string, int64_t> counters;
  FabricTotals fabric;
  uint64_t pool_tasks = 0;
  uint64_t pool_epochs = 0;
  uint64_t pool_steals = 0;
  StoreCallTotals store;
};
/// `pool` and `store` may be null.
LayerProbe Probe(const Fabric& fabric, const minos::runtime::TaskPool* pool,
                 const TimedStore* store);

/// Fills the storage, link, router, query, prefetch-counter, runtime and
/// store-call metrics from two probes around the timed phase.
/// `events` is the attempted event count, `appends` the attempted appends.
void FillProbeMetrics(const LayerProbe& before, const LayerProbe& after,
                      uint64_t events, uint64_t appends,
                      std::map<std::string, double>& values);

/// Fills the sim.* metrics from exclusive span time.
void FillSpanMetrics(const std::map<std::string, minos::Micros>& exclusive,
                     std::map<std::string, double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_STATS_H_
