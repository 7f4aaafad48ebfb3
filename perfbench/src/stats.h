#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Small, separately tested pieces of the benchmark's arithmetic:
// nearest-rank percentiles, latency measured from an event's due time,
// the outcome digest, and exclusive (self) time per span name.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "minos/obs/trace.h"
#include "minos/util/clock.h"

namespace perfbench {

/// Nearest-rank percentile (pct in (0, 100]) of `values`: the smallest
/// value with at least pct% of the samples at or below it. 0 when empty.
double Percentile(std::vector<double> values, double pct);

/// Median of `values` (the mean of the two middle values for an even
/// count). 0 when empty.
double Median(std::vector<double> values);

/// A p99 is reported only when at least ten samples lie beyond it.
inline constexpr size_t kMinSamplesForP99 = 1000;

/// What a user waited for an event that was due at `due`, was submitted
/// in the epoch starting at `epoch_start`, and took `service_us` of
/// simulated time once submitted. Lateness of the epoch counts.
inline minos::Micros DueLatency(minos::Micros due, minos::Micros epoch_start,
                                minos::Micros service_us) {
  return (epoch_start - due) + service_us;
}

/// FNV-1a fold of one value into a running digest.
inline uint64_t Mix(uint64_t digest, uint64_t value) {
  return (digest ^ value) * 0x100000001b3ULL;
}
inline constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// Exclusive simulated time per sanitized span name, by the rule of the
/// repository's trace report: within each span's credited window the
/// earliest-started child claims what it covers, a later overlapping
/// child only the remainder, and gaps belong to the span itself. The
/// values of one root's subtree sum to that root's duration.
std::map<std::string, minos::Micros> ExclusiveTime(
    const std::vector<minos::obs::SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
