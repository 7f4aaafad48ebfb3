#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four workloads. Each builds its own fabric and catalog from the
// seed (Setup, which the benchmark times), then plays its event stream
// once (Run). Everything a run does in simulated time is a pure function
// of the seed and the size, so two runs of the same options agree on the
// outcome digest at any worker count, traced or not.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "minos/util/clock.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Wall seconds one timed phase should take on a 4-thread host: its
  /// input size is this times the workload's rate constant, so a run's
  /// simulated results depend only on (seed, phase_seconds).
  double phase_seconds = 10;
  /// TaskPool workers; 0 runs every fan-out inline without a pool. The
  /// library's TaskPool can deadlock with two or more workers (a worker
  /// can claim a task index of the next epoch against the finished
  /// one), which the benchmark's many small epochs hit within minutes,
  /// so runs use one worker until that is fixed.
  int workers = 1;
  /// Attach an obs::Tracer that keeps every span.
  bool traced = false;
  /// Wrap the store in the timing decorator and collect per-layer data.
  bool instrument = false;
  /// A small variant of the same workload, for the worker-count check.
  bool reduced = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Simulated latencies of one event kind, in milliseconds.
using LatencyMap = std::map<std::string, std::vector<double>>;

struct PhaseResult {
  uint64_t digest = 0;
  uint64_t attempted = 0;
  uint64_t completed = 0;  ///< Events that finally succeeded.
  uint64_t failed = 0;     ///< Events that finally failed.
  /// "errors.<kind>.<status code name>" -> count of final failures.
  std::map<std::string, uint64_t> errors;
  /// Output checks that did not hold (empty = correct).
  std::vector<std::string> check_failures;
  double wall_s = 0;
  double cpu_s = 0;
  minos::Micros sim_elapsed_us = 0;
  LatencyMap latency_ms;
  /// Device bytes written / content bytes stored or appended (setup
  /// included: every byte the user handed the archive).
  double write_amp = 0;
  /// Catalog size against the cache: content bytes stored at setup,
  /// device bytes that took (replicas and framing included), and the
  /// BlockCache capacity of all shards.
  uint64_t content_bytes = 0;
  uint64_t stored_bytes = 0;
  uint64_t cache_bytes = 0;
  /// Instance-normalized registry counter deltas over setup and run.
  std::map<std::string, int64_t> counter_deltas;
  /// Per-layer metrics (instrumented runs only).
  std::vector<Metric> layers;
  uint64_t dropped_spans = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the fabric and the catalog up to the first due event.
  virtual void Setup() = 0;
  /// Plays the timed phase on the built world. Call once. The reference
  /// data the output checks need is derived first, outside the timing.
  virtual PhaseResult Run() = 0;
};

/// The workload named `name` (browse, search, write_mix, present), or
/// null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       const RunOptions& options);
/// The present workload (present.cc), which MakeWorkload dispatches to.
std::unique_ptr<Workload> MakePresentWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
