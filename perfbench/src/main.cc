// minos_perfbench: runs one workload and prints its metrics.
//
//   minos_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   minos_perfbench --list-metrics
//
// --trace 0 measures the end-to-end metrics untraced: three fresh worlds
// are each set up and played once (wall-clock metrics are medians over
// them, and their outcomes must agree), then a reduced copy of the
// workload runs on the pool and inline (no pool) and must agree.
// --trace 1 plays the workload twice with the store decorator and wall
// timers attached, the second time with a tracer that keeps every span,
// checks that both agree, and prints the per-layer metrics.
// Report lines come first; the last line is one JSON object. The exit
// code is non-zero only when an output check fails (a failed operation
// is counted, not fatal) or the arguments are wrong.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "layer_stats.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The end-to-end metrics the result line carries (BENCHMARK.json lists
/// the same names). Every one is defined and non-zero on every workload;
/// the report lines above the result carry the rest.
const std::vector<std::pair<std::string, std::string>>& JsonEndToEnd() {
  static const auto* m = new std::vector<std::pair<std::string, std::string>>{
      {"setup_s", "s"},
      {"events_per_s", "1/s"},
      {"cpu_us_per_event", "us"},
      {"peak_rss_mb", "MB"},
      {"write_amp", "ratio"},
      {"open_p50_ms", "ms"},
  };
  return *m;
}

/// Fresh worlds per untraced run; --seconds is split evenly over them.
constexpr int kRepeats = 3;

struct Args {
  std::string workload;
  RunOptions options;
  int trace = 0;
  bool list = false;
};

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool Parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      a->list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    long long v = 0;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed" && ParseInt(value, 0, 1LL << 62, &v)) {
      a->options.seed = static_cast<uint64_t>(v);
    } else if (flag == "--seconds" && ParseInt(value, 1, 3600, &v)) {
      a->options.phase_seconds = static_cast<double>(v) / kRepeats;
    } else if (flag == "--trace" && ParseInt(value, 0, 1, &v)) {
      a->trace = static_cast<int>(v);
    } else {
      return false;
    }
  }
  return a->list || !a->workload.empty();
}

/// Runs Setup then Run on a fresh workload.
PhaseResult SetupAndRun(const std::string& name, const RunOptions& options) {
  const std::map<std::string, int64_t> c0 = NormalizedCounters();
  std::unique_ptr<Workload> w = MakeWorkload(name, options);
  w->Setup();
  PhaseResult r = w->Run();
  r.counter_deltas = CounterDelta(c0, NormalizedCounters());
  return r;
}

/// Counters that hold measured CPU or wall time, which no two runs share.
bool TimeValued(const std::string& name) {
  return name.find("cpu_us") != std::string::npos ||
         name.find("wall") != std::string::npos;
}

void Print(const Metric& m, size_t samples = 0) {
  std::printf("metric %-34s %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
  if (samples > 0) std::printf(" (n=%zu)", samples);
  std::printf("\n");
}

void PrintResult(bool correct, const PhaseResult& r,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

bool ReportChecks(const char* what, const PhaseResult& r) {
  for (const std::string& f : r.check_failures) {
    std::printf("CHECK FAILED (%s): %s\n", what, f.c_str());
  }
  return r.check_failures.empty();
}

void ReportOutcomes(const PhaseResult& r) {
  std::printf("events attempted=%llu completed=%llu failed=%llu "
              "wall=%.3fs cpu=%.3fs sim=%.3fs\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.failed), r.wall_s, r.cpu_s,
              static_cast<double>(r.sim_elapsed_us) / 1e6);
  std::printf("catalog content=%.2fMB stored=%.2fMB cache=%.2fMB\n",
              static_cast<double>(r.content_bytes) / 1e6,
              static_cast<double>(r.stored_bytes) / 1e6,
              static_cast<double>(r.cache_bytes) / 1e6);
  for (const auto& [name, count] : r.errors) {
    std::printf("%s %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
}

int RunUntraced(const Args& a) {
  // kRepeats fresh worlds, each set up and played once: setup_s and the
  // wall-clock metrics are medians over them, and since a phase is a
  // pure function of the seed, every repeat must reach the same digest.
  std::vector<double> setups, rates, cpu_per_event;
  PhaseResult r;
  bool correct = true;
  for (int k = 0; k < kRepeats; ++k) {
    std::unique_ptr<Workload> w = MakeWorkload(a.workload, a.options);
    const double t = WallSeconds();
    w->Setup();
    setups.push_back(WallSeconds() - t);
    PhaseResult phase = w->Run();
    rates.push_back(static_cast<double>(phase.completed) / phase.wall_s);
    cpu_per_event.push_back(
        phase.cpu_s * 1e6 /
        static_cast<double>(std::max<uint64_t>(1, phase.attempted)));
    if (k == 0) {
      r = std::move(phase);
      correct = ReportChecks("run", r);
      ReportOutcomes(r);
    } else if (phase.digest != r.digest) {
      std::printf("CHECK FAILED: repeat %d digest %016llx differs from "
                  "%016llx\n",
                  k, static_cast<unsigned long long>(phase.digest),
                  static_cast<unsigned long long>(r.digest));
      correct = false;
    }
  }
  if (correct) {
    std::printf("check: %d repeats on fresh fabrics agree (digest %016llx)\n",
                kRepeats, static_cast<unsigned long long>(r.digest));
  }
  std::printf("repeats: setup_s");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf(" events_per_s");
  for (double e : rates) std::printf(" %.1f", e);
  std::printf(" cpu_us_per_event");
  for (double c : cpu_per_event) std::printf(" %.1f", c);
  std::printf("\n");

  // Determinism: a reduced copy on the pool and inline (the serial
  // twin of every pooled fan-out) must agree on the outcome digest, the
  // simulated elapsed time and every counter delta.
  RunOptions small = a.options;
  small.reduced = true;
  PhaseResult pooled = SetupAndRun(a.workload, small);
  small.workers = 0;
  PhaseResult inline_run = SetupAndRun(a.workload, small);
  correct = ReportChecks("reduced, pooled", pooled) && correct;
  correct = ReportChecks("reduced, inline", inline_run) && correct;
  for (PhaseResult* p : {&pooled, &inline_run}) {
    std::erase_if(p->counter_deltas,
                  [](const auto& kv) { return TimeValued(kv.first); });
  }
  if (pooled.digest != inline_run.digest ||
      pooled.sim_elapsed_us != inline_run.sim_elapsed_us ||
      pooled.counter_deltas != inline_run.counter_deltas) {
    std::printf("CHECK FAILED: reduced run differs pooled and inline "
                "(digest %016llx vs %016llx)\n",
                static_cast<unsigned long long>(pooled.digest),
                static_cast<unsigned long long>(inline_run.digest));
    for (const auto& [name, d] : pooled.counter_deltas) {
      const int64_t other = CounterOf(inline_run.counter_deltas, name);
      if (other != d) {
        std::printf("  %s: pooled %lld inline %lld\n", name.c_str(),
                    static_cast<long long>(d), static_cast<long long>(other));
      }
    }
    correct = false;
  } else {
    std::printf("check: reduced run identical pooled and inline "
                "(digest %016llx)\n",
                static_cast<unsigned long long>(pooled.digest));
  }

  std::map<std::string, Metric> all;
  auto add = [&all](const std::string& name, double value,
                    const std::string& unit, size_t samples = 0) {
    all[name] = Metric{name, value, unit};
    Print(all[name], samples);
  };
  add("setup_s", Median(setups), "s", setups.size());
  add("events_per_s", Median(rates), "1/s", rates.size());
  add("cpu_us_per_event", Median(cpu_per_event), "us", cpu_per_event.size());
  add("error_rate",
      static_cast<double>(r.failed) /
          static_cast<double>(std::max<uint64_t>(1, r.attempted)),
      "ratio");
  add("peak_rss_mb", PeakRssMb(), "MB");
  add("write_amp", r.write_amp, "ratio");
  for (const auto& [kind, values] : r.latency_ms) {
    add(kind + "_p50_ms", Percentile(values, 50), "ms", values.size());
    if (values.size() >= kMinSamplesForP99) {
      add(kind + "_p99_ms", Percentile(values, 99), "ms", values.size());
    }
  }
  std::vector<Metric> json;
  for (const auto& [name, unit] : JsonEndToEnd()) {
    const auto it = all.find(name);
    if (it == all.end()) {
      std::printf("CHECK FAILED: workload does not produce %s\n",
                  name.c_str());
      correct = false;
      continue;
    }
    json.push_back(it->second);
  }
  PrintResult(correct, r, json);
  return correct ? 0 : 1;
}

int RunTraced(const Args& a) {
  RunOptions opt = a.options;
  opt.instrument = true;
  const PhaseResult plain = SetupAndRun(a.workload, opt);
  opt.traced = true;
  PhaseResult traced = SetupAndRun(a.workload, opt);
  bool correct = ReportChecks("untraced", plain);
  correct = ReportChecks("traced", traced) && correct;
  ReportOutcomes(traced);
  if (plain.digest != traced.digest) {
    std::printf("CHECK FAILED: traced outcome digest %016llx differs from "
                "untraced %016llx\n",
                static_cast<unsigned long long>(traced.digest),
                static_cast<unsigned long long>(plain.digest));
    correct = false;
  } else {
    std::printf("check: traced and untraced outcome digests agree "
                "(%016llx)\n",
                static_cast<unsigned long long>(plain.digest));
  }
  if (traced.dropped_spans != 0) {
    std::printf("CHECK FAILED: the tracer dropped %llu spans\n",
                static_cast<unsigned long long>(traced.dropped_spans));
    correct = false;
  }
  const double eps_plain = static_cast<double>(plain.completed) / plain.wall_s;
  const double eps_traced =
      static_cast<double>(traced.completed) / traced.wall_s;
  for (Metric& m : traced.layers) {
    if (m.name == "obs.trace_overhead") m.value = eps_plain / eps_traced;
    Print(m);
  }
  PrintResult(correct, traced, traced.layers);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args a;
  if (!Parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: minos_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  if (a.list) {
    for (const auto& [name, unit] : JsonEndToEnd()) {
      std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
    }
    for (const auto& [name, unit] : LayerMetricUnits()) {
      std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
    }
    return 0;
  }
  if (MakeWorkload(a.workload, a.options) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  return a.trace == 0 ? RunUntraced(a) : RunTraced(a);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
