// Unit tests of the benchmark's own machinery: the timing decorator, the
// percentile and due-time arithmetic, and exclusive-time attribution.

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <thread>

#include "layer_stats.h"
#include "stats.h"
#include "timed_store.h"

namespace perfbench {
namespace {

using minos::Status;
using minos::StatusOr;
using minos::storage::ObjectId;
namespace server = minos::server;

/// An ObjectStore that records which method ran and answers with
/// recognisable values.
class RecordingStore : public server::ObjectStore {
 public:
  mutable std::multiset<std::string> seen;  ///< Read after calls finish.
  server::Link* link = reinterpret_cast<server::Link*>(0x1000);

  StatusOr<minos::storage::ArchiveAddress> Store(
      const minos::object::MultimediaObject&) override {
    Note("store");
    return minos::storage::ArchiveAddress{};
  }
  std::vector<ObjectId> QueryAll(
      const std::vector<std::string>&) const override {
    Note("query_all");
    return {7};
  }
  void SetTracer(minos::obs::Tracer*) override { Note("set_tracer"); }
  void SetTaskPool(minos::runtime::TaskPool*) override {
    Note("set_task_pool");
  }
  uint64_t PrefetchAffinity(ObjectId id) const override {
    Note("prefetch_affinity");
    return id + 1;
  }
  std::vector<minos::query::ScoredHit> QueryRanked(
      const std::vector<std::string>&, size_t k, minos::query::QueryMode,
      const minos::obs::TraceContext&) const override {
    Note("query_ranked");
    return std::vector<minos::query::ScoredHit>(k);
  }
  uint64_t catalog_version() const override {
    Note("catalog_version");
    return 42;
  }
  StatusOr<server::MiniatureCard> FetchMiniature(
      ObjectId id, int, const minos::obs::TraceContext&) override {
    Note("fetch_miniature");
    server::MiniatureCard card;
    card.id = id;
    return card;
  }
  StatusOr<std::vector<server::MiniatureCard>> GatherCards(
      const std::vector<std::string>&, int,
      const minos::obs::TraceContext&) override {
    Note("gather_cards");
    return std::vector<server::MiniatureCard>(2);
  }
  StatusOr<std::vector<server::MiniatureCard>> GatherCardsRanked(
      const std::vector<std::string>&, size_t k, int,
      const minos::obs::TraceContext&) override {
    Note("gather_cards_ranked");
    return std::vector<server::MiniatureCard>(k);
  }
  StatusOr<minos::object::MultimediaObject> Fetch(
      ObjectId id, server::FetchGranularity,
      const minos::obs::TraceContext&) override {
    Note("fetch");
    return minos::object::MultimediaObject(id);
  }
  StatusOr<minos::image::Bitmap> FetchImageRegion(
      ObjectId, uint32_t, const minos::image::Rect& r,
      const minos::obs::TraceContext&) override {
    Note("fetch_image_region");
    return minos::image::Bitmap(r.w, r.h);
  }
  Status StagePartRange(ObjectId, std::string_view, uint64_t, uint64_t,
                        const minos::obs::TraceContext&) override {
    Note("stage_part_range");
    return Status::NotFound("staged");
  }
  StatusOr<uint64_t> PartLength(ObjectId, std::string_view) const override {
    Note("part_length");
    return 99;
  }
  const server::RetryPolicy& retry_policy() const override {
    Note("retry_policy");
    return policy_;
  }
  void SetBackoffSleeper(server::BackoffSleeper) override {
    Note("set_backoff_sleeper");
  }
  server::Link* RouteLink(ObjectId) const override {
    Note("route_link");
    return link;
  }
  std::vector<server::Link*> links() const override {
    Note("links");
    return {link, link};
  }

  server::RetryPolicy policy_;

 private:
  void Note(const char* call) const {
    std::lock_guard<std::mutex> lock(mu_);
    seen.insert(call);
  }
  mutable std::mutex mu_;  ///< Guards seen: calls come from many threads.
};

TEST(TimedStoreTest, ForwardsEveryMethodAndCountsIt) {
  RecordingStore inner;
  TimedStore timed(&inner);
  server::ObjectStore& store = timed;

  EXPECT_TRUE(store.Store(minos::object::MultimediaObject(1)).ok());
  EXPECT_EQ(store.QueryAll({"a"}), std::vector<ObjectId>{7});
  store.SetTracer(nullptr);
  store.SetTaskPool(nullptr);
  EXPECT_EQ(store.PrefetchAffinity(5), 6u);
  EXPECT_EQ(store.QueryRanked({"a"}, 3).size(), 3u);
  EXPECT_EQ(store.catalog_version(), 42u);
  EXPECT_EQ(store.FetchMiniature(9)->id, 9u);
  EXPECT_EQ(store.GatherCards({"a"})->size(), 2u);
  EXPECT_EQ(store.GatherCardsRanked({"a"}, 4)->size(), 4u);
  EXPECT_EQ(store.Fetch(8)->id(), 8u);
  EXPECT_EQ(store.FetchImageRegion(1, 0, minos::image::Rect{0, 0, 3, 2})
                ->width(),
            3);
  EXPECT_EQ(store.StagePartRange(1, "text", 0, 10).code(),
            Status::Code::kNotFound);
  EXPECT_EQ(*store.PartLength(1, "text"), 99u);
  EXPECT_EQ(&store.retry_policy(), &inner.policy_);
  store.SetBackoffSleeper(nullptr);
  EXPECT_EQ(store.RouteLink(1), inner.link);
  EXPECT_EQ(store.links().size(), 2u);

  const StoreCallTotals totals = timed.Totals();
  for (size_t i = 0; i < kStoreCallCount; ++i) {
    const StoreCall call = static_cast<StoreCall>(i);
    SCOPED_TRACE(StoreCallName(call));
    EXPECT_EQ(inner.seen.count(StoreCallName(call)), 1u);
    EXPECT_EQ(totals.calls_of(call), 1u);
    EXPECT_GE(totals.busy_ns_of(call), 0);
  }
  EXPECT_EQ(inner.seen.size(), kStoreCallCount);
}

TEST(TimedStoreTest, AccumulatesPerThread) {
  RecordingStore inner;
  TimedStore timed(&inner);
  auto stage = [&timed] {
    for (int i = 0; i < 100; ++i) timed.StagePartRange(1, "text", 0, 1, {});
  };
  std::thread a(stage);
  std::thread b(stage);
  a.join();
  b.join();
  EXPECT_EQ(timed.Totals().calls_of(StoreCall::kStagePartRange), 200u);
  // This thread made no call, so its own busy time is zero.
  EXPECT_EQ(timed.ThreadBusyNs(), 0);
}

TEST(StatsTest, NearestRankPercentiles) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 1), 1);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
  // 1000 samples: exactly ten lie beyond the p99.
  std::vector<double> w(1000);
  for (size_t i = 0; i < w.size(); ++i) w[i] = static_cast<double>(i);
  const double p99 = Percentile(w, 99);
  EXPECT_EQ(std::count_if(w.begin(), w.end(),
                          [p99](double x) { return x > p99; }),
            10);
  EXPECT_EQ(kMinSamplesForP99, 1000u);
}

TEST(StatsTest, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(StatsTest, LatencyCountsFromTheDueTime) {
  // On time: the user waits only for the service.
  EXPECT_EQ(DueLatency(1000, 1000, 30), 30);
  // The epoch started 50 us late: the wait includes the lateness.
  EXPECT_EQ(DueLatency(100, 150, 30), 80);
  // A deferred event resubmitted two epochs later keeps its due time.
  EXPECT_EQ(DueLatency(0, 2'000'000, 5), 2'000'005);
}

minos::obs::SpanRecord Span(const char* name, uint64_t id, uint64_t parent,
                            minos::Micros start, minos::Micros end) {
  minos::obs::SpanRecord s;
  s.name = name;
  s.trace_id = 1;
  s.span_id = id;
  s.parent_span_id = parent;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(StatsTest, ExclusiveTimeFollowsTheTraceReportRule) {
  // root [0,100]; a [10,40] with child c [15,20]; b [30,70] overlaps a,
  // so b is credited only [40,70].
  const std::vector<minos::obs::SpanRecord> spans = {
      Span("session#12", 1, 0, 0, 100), Span("router.stage", 2, 1, 10, 40),
      Span("link.transfer", 3, 2, 15, 20), Span("router.stage", 4, 1, 30, 70)};
  const std::map<std::string, minos::Micros> ex = ExclusiveTime(spans);
  EXPECT_EQ(ex.at("session#%id"), 40);
  EXPECT_EQ(ex.at("router.stage"), 25 + 30);
  EXPECT_EQ(ex.at("link.transfer"), 5);
  minos::Micros total = 0;
  for (const auto& [name, us] : ex) total += us;
  EXPECT_EQ(total, 100);
}

TEST(LayerStatsTest, EveryMetricIsPrintedOnceWithAUnit) {
  std::set<std::string> names;
  for (const auto& [name, unit] : LayerMetricUnits()) {
    EXPECT_TRUE(names.insert(name).second) << name;
    EXPECT_FALSE(unit.empty()) << name;
  }
  const std::vector<Metric> m = LayerMetrics({{"device.seeks", 5}});
  ASSERT_EQ(m.size(), LayerMetricUnits().size());
  for (const Metric& metric : m) {
    EXPECT_EQ(metric.value, metric.name == "device.seeks" ? 5 : 0);
  }
}

}  // namespace
}  // namespace perfbench
