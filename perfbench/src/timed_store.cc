#include "timed_store.h"

#include <chrono>
#include <utility>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_next_instance{1};

/// Depth of timed calls on this thread, across decorators: only depth 0
/// starts a clock.
thread_local int t_depth = 0;

struct ThreadCache {
  uint64_t instance = 0;
  void* slot = nullptr;
};
thread_local ThreadCache t_cache;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* StoreCallName(StoreCall call) {
  switch (call) {
    case StoreCall::kStore: return "store";
    case StoreCall::kQueryAll: return "query_all";
    case StoreCall::kSetTracer: return "set_tracer";
    case StoreCall::kSetTaskPool: return "set_task_pool";
    case StoreCall::kPrefetchAffinity: return "prefetch_affinity";
    case StoreCall::kQueryRanked: return "query_ranked";
    case StoreCall::kCatalogVersion: return "catalog_version";
    case StoreCall::kFetchMiniature: return "fetch_miniature";
    case StoreCall::kGatherCards: return "gather_cards";
    case StoreCall::kGatherCardsRanked: return "gather_cards_ranked";
    case StoreCall::kFetch: return "fetch";
    case StoreCall::kFetchImageRegion: return "fetch_image_region";
    case StoreCall::kStagePartRange: return "stage_part_range";
    case StoreCall::kPartLength: return "part_length";
    case StoreCall::kRetryPolicy: return "retry_policy";
    case StoreCall::kSetBackoffSleeper: return "set_backoff_sleeper";
    case StoreCall::kRouteLink: return "route_link";
    case StoreCall::kLinks: return "links";
    case StoreCall::kCount: break;
  }
  return "unknown";
}

/// Counts one call and, when outermost on its thread, times it.
class TimedStore::Timer {
 public:
  Timer(const TimedStore* store, StoreCall call)
      : slot_(store->ThreadSlot()), index_(static_cast<size_t>(call)),
        outermost_(t_depth++ == 0), start_(outermost_ ? NowNs() : 0) {
    slot_.calls[index_].fetch_add(1, std::memory_order_relaxed);
  }
  ~Timer() {
    --t_depth;
    if (outermost_) {
      slot_.busy_ns[index_].fetch_add(NowNs() - start_,
                                      std::memory_order_relaxed);
    }
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  Slot& slot_;
  size_t index_;
  bool outermost_;
  int64_t start_;
};

TimedStore::TimedStore(minos::server::ObjectStore* inner)
    : inner_(inner), instance_(g_next_instance.fetch_add(1)) {}

TimedStore::~TimedStore() = default;

TimedStore::Slot& TimedStore::ThreadSlot() const {
  if (t_cache.instance == instance_) return *static_cast<Slot*>(t_cache.slot);
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Slot>& slot = slots_[std::this_thread::get_id()];
  if (slot == nullptr) slot = std::make_unique<Slot>();
  t_cache = ThreadCache{instance_, slot.get()};
  return *slot;
}

StoreCallTotals TimedStore::Totals() const {
  StoreCallTotals totals;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [thread, slot] : slots_) {
    (void)thread;
    for (size_t i = 0; i < kStoreCallCount; ++i) {
      totals.calls[i] += slot->calls[i].load(std::memory_order_relaxed);
      totals.busy_ns[i] += slot->busy_ns[i].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

int64_t TimedStore::ThreadBusyNs() const {
  const Slot& slot = ThreadSlot();
  int64_t total = 0;
  for (const auto& ns : slot.busy_ns) {
    total += ns.load(std::memory_order_relaxed);
  }
  return total;
}

minos::StatusOr<minos::storage::ArchiveAddress> TimedStore::Store(
    const minos::object::MultimediaObject& obj) {
  Timer t(this, StoreCall::kStore);
  return inner_->Store(obj);
}

std::vector<minos::storage::ObjectId> TimedStore::QueryAll(
    const std::vector<std::string>& words) const {
  Timer t(this, StoreCall::kQueryAll);
  return inner_->QueryAll(words);
}

void TimedStore::SetTracer(minos::obs::Tracer* tracer) {
  Timer t(this, StoreCall::kSetTracer);
  inner_->SetTracer(tracer);
}

void TimedStore::SetTaskPool(minos::runtime::TaskPool* pool) {
  Timer t(this, StoreCall::kSetTaskPool);
  inner_->SetTaskPool(pool);
}

uint64_t TimedStore::PrefetchAffinity(minos::storage::ObjectId id) const {
  Timer t(this, StoreCall::kPrefetchAffinity);
  return inner_->PrefetchAffinity(id);
}

std::vector<minos::query::ScoredHit> TimedStore::QueryRanked(
    const std::vector<std::string>& words, size_t k,
    minos::query::QueryMode mode, const minos::obs::TraceContext& ctx) const {
  Timer t(this, StoreCall::kQueryRanked);
  return inner_->QueryRanked(words, k, mode, ctx);
}

uint64_t TimedStore::catalog_version() const {
  Timer t(this, StoreCall::kCatalogVersion);
  return inner_->catalog_version();
}

minos::StatusOr<minos::server::MiniatureCard> TimedStore::FetchMiniature(
    minos::storage::ObjectId id, int thumb_width,
    const minos::obs::TraceContext& ctx) {
  Timer t(this, StoreCall::kFetchMiniature);
  return inner_->FetchMiniature(id, thumb_width, ctx);
}

minos::StatusOr<std::vector<minos::server::MiniatureCard>>
TimedStore::GatherCards(const std::vector<std::string>& words,
                        int thumb_width, const minos::obs::TraceContext& ctx) {
  Timer t(this, StoreCall::kGatherCards);
  return inner_->GatherCards(words, thumb_width, ctx);
}

minos::StatusOr<std::vector<minos::server::MiniatureCard>>
TimedStore::GatherCardsRanked(const std::vector<std::string>& words,
                              size_t k, int thumb_width,
                              const minos::obs::TraceContext& ctx) {
  Timer t(this, StoreCall::kGatherCardsRanked);
  return inner_->GatherCardsRanked(words, k, thumb_width, ctx);
}

minos::StatusOr<minos::object::MultimediaObject> TimedStore::Fetch(
    minos::storage::ObjectId id, minos::server::FetchGranularity granularity,
    const minos::obs::TraceContext& ctx) {
  Timer t(this, StoreCall::kFetch);
  return inner_->Fetch(id, granularity, ctx);
}

minos::StatusOr<minos::image::Bitmap> TimedStore::FetchImageRegion(
    minos::storage::ObjectId id, uint32_t image_index,
    const minos::image::Rect& r, const minos::obs::TraceContext& ctx) {
  Timer t(this, StoreCall::kFetchImageRegion);
  return inner_->FetchImageRegion(id, image_index, r, ctx);
}

minos::Status TimedStore::StagePartRange(minos::storage::ObjectId id,
                                         std::string_view part_name,
                                         uint64_t offset, uint64_t length,
                                         const minos::obs::TraceContext& ctx) {
  Timer t(this, StoreCall::kStagePartRange);
  return inner_->StagePartRange(id, part_name, offset, length, ctx);
}

minos::StatusOr<uint64_t> TimedStore::PartLength(
    minos::storage::ObjectId id, std::string_view part_name) const {
  Timer t(this, StoreCall::kPartLength);
  return inner_->PartLength(id, part_name);
}

const minos::server::RetryPolicy& TimedStore::retry_policy() const {
  Timer t(this, StoreCall::kRetryPolicy);
  return inner_->retry_policy();
}

void TimedStore::SetBackoffSleeper(minos::server::BackoffSleeper sleeper) {
  Timer t(this, StoreCall::kSetBackoffSleeper);
  inner_->SetBackoffSleeper(std::move(sleeper));
}

minos::server::Link* TimedStore::RouteLink(minos::storage::ObjectId id) const {
  Timer t(this, StoreCall::kRouteLink);
  return inner_->RouteLink(id);
}

std::vector<minos::server::Link*> TimedStore::links() const {
  Timer t(this, StoreCall::kLinks);
  return inner_->links();
}

}  // namespace perfbench
