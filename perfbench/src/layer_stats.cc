#include "layer_stats.h"

#include <sys/resource.h>

#include <chrono>

#include "minos/obs/metrics.h"

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The store calls whose count and wall time the traced run reports.
constexpr StoreCall kReportedCalls[] = {
    StoreCall::kQueryRanked,    StoreCall::kFetch,
    StoreCall::kPartLength,     StoreCall::kStagePartRange,
    StoreCall::kFetchMiniature, StoreCall::kGatherCardsRanked,
};

/// Span name -> the sim.* metric its exclusive time reports as.
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"router.ranked_scatter", "sim.router.ranked_scatter_ms"},
    {"router.stage", "sim.router.stage_ms"},
    {"server.score", "sim.server.score_ms"},
    {"server.fetch", "sim.server.fetch_ms"},
    {"link.transfer", "sim.link.transfer_ms"},
    {"ws.transfer", "sim.ws.transfer_ms"},
};

std::vector<std::pair<std::string, std::string>> BuildUnits() {
  std::vector<std::pair<std::string, std::string>> u = {
      {"session.pump_wall_ms", "ms"},
      {"session.self_wall_ms", "ms"},
      {"session.deferred_ratio", "ratio"},
      {"session.link_waits", "count"},
      {"session.budget_deferred", "count"},
      {"session.plan_invalidations", "count"},
      {"driver.lag_p99_ms", "ms"},
      {"prefetch.hit_ratio", "ratio"},
      {"prefetch.waste_ratio", "ratio"},
      {"prefetch.wait_p99_ms", "ms"},
      {"prefetch.queue_depth_max", "count"},
  };
  for (StoreCall call : kReportedCalls) {
    const std::string stem = std::string("store.") + StoreCallName(call);
    u.emplace_back(stem + ".calls", "count");
    u.emplace_back(stem + ".busy_ms", "ms");
  }
  for (const auto& [span, metric] : kSpanMetrics) {
    (void)span;
    u.emplace_back(metric, "ms");
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"server.append.busy_ms", "ms"},
      {"router.replica_store_errors", "count"},
      {"router.degraded_stores", "count"},
      {"router.stats_delta_applies", "count"},
      {"link.bytes_per_event", "B"},
      {"link.busy_ms", "ms"},
      {"query.visit_fraction", "ratio"},
      {"query.postings_per_search", "count"},
      {"query.merge_depth_p99", "count"},
      {"query.heap_evictions", "count"},
      {"block_cache.hit_ratio", "ratio"},
      {"block_cache.evictions", "count"},
      {"device.blocks_read_per_event", "count"},
      {"device.seeks", "count"},
      {"device.busy_ms", "ms"},
      {"device.bytes_written_per_append", "B"},
      {"device.used_fraction", "ratio"},
      {"pool.tasks_per_epoch", "count"},
      {"pool.steals", "count"},
      {"ws.present.busy_ms", "ms"},
      {"ws.page_cmd.busy_us", "us"},
      {"ws.query_ranked.busy_ms", "ms"},
      {"ws.ranked_cache.hit_ratio", "ratio"},
      {"obs.trace_overhead", "ratio"},
      {"obs.dropped_spans", "count"},
  };
  u.insert(u.end(), rest.begin(), rest.end());
  return u;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const auto* units =
      new std::vector<std::pair<std::string, std::string>>(BuildUnits());
  return *units;
}

std::vector<Metric> LayerMetrics(const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : LayerMetricUnits()) {
    const auto it = values.find(name);
    out.push_back(Metric{name, it != values.end() ? it->second : 0.0, unit});
  }
  return out;
}

std::map<std::string, int64_t> NormalizedCounters() {
  std::map<std::string, int64_t> values;
  for (const auto& [name, value] :
       minos::obs::MetricsRegistry::Default().Snapshot().counters) {
    std::string normalized;
    for (const char c : name) {
      if (c < '0' || c > '9') normalized += c;
    }
    values[normalized] += value;
  }
  return values;
}

std::map<std::string, int64_t> CounterDelta(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after) {
  std::map<std::string, int64_t> delta;
  for (const auto& [name, value] : after) {
    const int64_t d = value - CounterOf(before, name);
    if (d != 0) delta[name] = d;
  }
  return delta;
}

int64_t CounterOf(const std::map<std::string, int64_t>& counters,
                  const std::string& name) {
  const auto it = counters.find(name);
  return it != counters.end() ? it->second : 0;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

LayerProbe Probe(const Fabric& fabric, const minos::runtime::TaskPool* pool,
                 const TimedStore* store) {
  LayerProbe p;
  p.counters = NormalizedCounters();
  p.fabric = fabric.Totals();
  if (pool != nullptr) {
    p.pool_tasks = pool->tasks_run();
    p.pool_epochs = pool->epochs_run();
    p.pool_steals = pool->steals();
  }
  if (store != nullptr) p.store = store->Totals();
  return p;
}

void FillProbeMetrics(const LayerProbe& before, const LayerProbe& after,
                      uint64_t events, uint64_t appends,
                      std::map<std::string, double>& v) {
  const std::map<std::string, int64_t> d =
      CounterDelta(before.counters, after.counters);
  auto c = [&d](const char* name) {
    return static_cast<double>(CounterOf(d, name));
  };
  const double ev = static_cast<double>(events);

  v["session.link_waits"] = c("session.link_waits_total");
  v["session.budget_deferred"] = c("session.budget_deferred_total");
  v["session.plan_invalidations"] = c("session.plan_invalidations_total");

  const double takes = c("prefetch.hits") + c("prefetch.partial_hits") +
                       c("prefetch.misses");
  v["prefetch.hit_ratio"] =
      Ratio(c("prefetch.hits") + c("prefetch.partial_hits"), takes);
  v["prefetch.waste_ratio"] =
      Ratio(c("prefetch.wasted"), c("prefetch.issued"));

  for (StoreCall call : kReportedCalls) {
    const std::string stem = std::string("store.") + StoreCallName(call);
    v[stem + ".calls"] = static_cast<double>(after.store.calls_of(call) -
                                             before.store.calls_of(call));
    v[stem + ".busy_ms"] =
        static_cast<double>(after.store.busy_ns_of(call) -
                            before.store.busy_ns_of(call)) / 1e6;
  }

  v["router.replica_store_errors"] = c("router.replica_store_errors_total");
  v["router.degraded_stores"] = c("router.degraded_stores_total");
  v["router.stats_delta_applies"] = c("router.stats_delta_applies_total");

  const FabricTotals& f0 = before.fabric;
  const FabricTotals& f1 = after.fabric;
  v["link.bytes_per_event"] =
      Ratio(static_cast<double>(f1.link_bytes - f0.link_bytes), ev);
  v["link.busy_ms"] =
      static_cast<double>(f1.link_busy_us - f0.link_busy_us) / 1e3;

  const double scanned = c("query.postings_scanned");
  v["query.visit_fraction"] =
      Ratio(scanned, scanned + c("query.postings_skipped"));
  v["query.postings_per_search"] = Ratio(scanned, c("query.ranked_queries"));
  v["query.heap_evictions"] = c("query.heap_evictions");
  v["query.merge_depth_p99"] =
      minos::obs::MetricsRegistry::Default().histogram("query.merge_depth")
          ->Percentile(99);

  const double hits = static_cast<double>(f1.cache_hits - f0.cache_hits);
  const double misses = static_cast<double>(f1.cache_misses - f0.cache_misses);
  v["block_cache.hit_ratio"] = Ratio(hits, hits + misses);
  v["block_cache.evictions"] =
      static_cast<double>(f1.cache_evictions - f0.cache_evictions);
  v["device.blocks_read_per_event"] = Ratio(
      static_cast<double>(f1.device.blocks_read - f0.device.blocks_read), ev);
  v["device.seeks"] = static_cast<double>(f1.device.seeks - f0.device.seeks);
  v["device.busy_ms"] =
      static_cast<double>(f1.device.busy_time - f0.device.busy_time) / 1e3;
  v["device.bytes_written_per_append"] =
      Ratio(static_cast<double>(f1.bytes_written - f0.bytes_written),
            static_cast<double>(appends));
  v["device.used_fraction"] = Ratio(static_cast<double>(f1.blocks_used),
                                    static_cast<double>(f1.blocks_total));

  v["pool.tasks_per_epoch"] =
      Ratio(static_cast<double>(after.pool_tasks - before.pool_tasks),
            static_cast<double>(after.pool_epochs - before.pool_epochs));
  v["pool.steals"] =
      static_cast<double>(after.pool_steals - before.pool_steals);

  const double cache_hits = c("query.cache_hits");
  v["ws.ranked_cache.hit_ratio"] =
      Ratio(cache_hits, cache_hits + c("query.cache_misses"));
  v["prefetch.wait_p99_ms"] =
      minos::obs::MetricsRegistry::Default().histogram("prefetch.wait_us")
          ->Percentile(99) / 1e3;
}

void FillSpanMetrics(const std::map<std::string, minos::Micros>& exclusive,
                     std::map<std::string, double>& values) {
  for (const auto& [span, metric] : kSpanMetrics) {
    const auto it = exclusive.find(span);
    values[metric] =
        it != exclusive.end() ? static_cast<double>(it->second) / 1e3 : 0.0;
  }
}

}  // namespace perfbench
