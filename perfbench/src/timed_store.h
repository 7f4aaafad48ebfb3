#ifndef PERFBENCH_TIMED_STORE_H_
#define PERFBENCH_TIMED_STORE_H_

// A forwarding ObjectStore that counts and wall-times every call into the
// store it wraps. SessionManager and Workstation talk to the archive only
// through the ObjectStore interface, so wrapping the store they are
// handed attributes the wall time of the server layer without touching
// the library. Staging runs on TaskPool workers, so each thread
// accumulates into its own slot; only the outermost call on a thread is
// timed, so a call that re-enters the store is not counted twice.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "minos/server/object_store.h"

namespace perfbench {

enum class StoreCall : int {
  kStore = 0,
  kQueryAll,
  kSetTracer,
  kSetTaskPool,
  kPrefetchAffinity,
  kQueryRanked,
  kCatalogVersion,
  kFetchMiniature,
  kGatherCards,
  kGatherCardsRanked,
  kFetch,
  kFetchImageRegion,
  kStagePartRange,
  kPartLength,
  kRetryPolicy,
  kSetBackoffSleeper,
  kRouteLink,
  kLinks,
  kCount,
};
inline constexpr size_t kStoreCallCount =
    static_cast<size_t>(StoreCall::kCount);

/// Metric-name stem of a call ("query_ranked", "stage_part_range", ...).
const char* StoreCallName(StoreCall call);

struct StoreCallTotals {
  std::array<uint64_t, kStoreCallCount> calls{};
  std::array<int64_t, kStoreCallCount> busy_ns{};
  uint64_t calls_of(StoreCall c) const {
    return calls[static_cast<size_t>(c)];
  }
  int64_t busy_ns_of(StoreCall c) const {
    return busy_ns[static_cast<size_t>(c)];
  }
};

class TimedStore : public minos::server::ObjectStore {
 public:
  /// `inner` is borrowed and must outlive the decorator.
  explicit TimedStore(minos::server::ObjectStore* inner);
  ~TimedStore() override;
  TimedStore(const TimedStore&) = delete;
  TimedStore& operator=(const TimedStore&) = delete;

  /// Sums over every thread that has called in. Read it while no call
  /// is in flight (between epochs).
  StoreCallTotals Totals() const;
  /// Wall nanoseconds the calling thread has spent in outermost calls.
  int64_t ThreadBusyNs() const;

  minos::StatusOr<minos::storage::ArchiveAddress> Store(
      const minos::object::MultimediaObject& obj) override;
  std::vector<minos::storage::ObjectId> QueryAll(
      const std::vector<std::string>& words) const override;
  void SetTracer(minos::obs::Tracer* tracer) override;
  void SetTaskPool(minos::runtime::TaskPool* pool) override;
  uint64_t PrefetchAffinity(minos::storage::ObjectId id) const override;
  std::vector<minos::query::ScoredHit> QueryRanked(
      const std::vector<std::string>& words, size_t k,
      minos::query::QueryMode mode,
      const minos::obs::TraceContext& ctx) const override;
  uint64_t catalog_version() const override;
  minos::StatusOr<minos::server::MiniatureCard> FetchMiniature(
      minos::storage::ObjectId id, int thumb_width,
      const minos::obs::TraceContext& ctx) override;
  minos::StatusOr<std::vector<minos::server::MiniatureCard>> GatherCards(
      const std::vector<std::string>& words, int thumb_width,
      const minos::obs::TraceContext& ctx) override;
  minos::StatusOr<std::vector<minos::server::MiniatureCard>>
  GatherCardsRanked(const std::vector<std::string>& words, size_t k,
                    int thumb_width,
                    const minos::obs::TraceContext& ctx) override;
  minos::StatusOr<minos::object::MultimediaObject> Fetch(
      minos::storage::ObjectId id,
      minos::server::FetchGranularity granularity,
      const minos::obs::TraceContext& ctx) override;
  minos::StatusOr<minos::image::Bitmap> FetchImageRegion(
      minos::storage::ObjectId id, uint32_t image_index,
      const minos::image::Rect& r,
      const minos::obs::TraceContext& ctx) override;
  minos::Status StagePartRange(minos::storage::ObjectId id,
                               std::string_view part_name, uint64_t offset,
                               uint64_t length,
                               const minos::obs::TraceContext& ctx) override;
  minos::StatusOr<uint64_t> PartLength(
      minos::storage::ObjectId id, std::string_view part_name) const override;
  const minos::server::RetryPolicy& retry_policy() const override;
  void SetBackoffSleeper(minos::server::BackoffSleeper sleeper) override;
  minos::server::Link* RouteLink(minos::storage::ObjectId id) const override;
  std::vector<minos::server::Link*> links() const override;

 private:
  struct Slot {
    std::array<std::atomic<uint64_t>, kStoreCallCount> calls{};
    std::array<std::atomic<int64_t>, kStoreCallCount> busy_ns{};
  };
  class Timer;

  Slot& ThreadSlot() const;

  minos::server::ObjectStore* inner_;
  const uint64_t instance_;  ///< Distinguishes decorators in thread caches.
  mutable std::mutex mu_;    ///< Guards slots_ (registration only).
  mutable std::map<std::thread::id, std::unique_ptr<Slot>> slots_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_STORE_H_
