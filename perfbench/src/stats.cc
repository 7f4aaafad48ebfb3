#include "stats.h"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace perfbench {

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

using minos::Micros;
using minos::obs::SpanRecord;
using Children = std::map<uint64_t, std::vector<const SpanRecord*>>;

void Attribute(const SpanRecord& span, Micros lo, Micros hi,
               const Children& children,
               std::map<std::string, Micros>& exclusive) {
  Micros cursor = lo;
  Micros self = 0;
  const auto it = children.find(span.span_id);
  if (it != children.end()) {
    for (const SpanRecord* child : it->second) {
      const Micros start = std::min(std::max(child->start_us, cursor), hi);
      const Micros end = std::min(std::max(child->end_us, cursor), hi);
      self += start - cursor;
      Attribute(*child, start, end, children, exclusive);
      cursor = end;
    }
  }
  self += hi - cursor;
  exclusive[minos::obs::SanitizeSpanName(span.name)] += self;
}

}  // namespace

std::map<std::string, Micros> ExclusiveTime(
    const std::vector<SpanRecord>& spans) {
  Children children;
  for (const SpanRecord& span : spans) {
    if (span.parent_span_id != 0) {
      children[span.parent_span_id].push_back(&span);
    }
  }
  for (auto& [parent, kids] : children) {
    (void)parent;
    std::sort(kids.begin(), kids.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return std::tie(a->start_us, a->span_id) <
                       std::tie(b->start_us, b->span_id);
              });
  }
  std::map<std::string, Micros> exclusive;
  for (const SpanRecord& span : spans) {
    if (span.parent_span_id == 0) {
      Attribute(span, span.start_us, span.end_us, children, exclusive);
    }
  }
  return exclusive;
}

}  // namespace perfbench
