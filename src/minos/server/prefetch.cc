#include "minos/server/prefetch.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace minos::server {

namespace {

// Keys order by (kind, object_id, index, owner), so the entries of one
// kind for one object are the contiguous run between these two keys.
PrefetchKey FirstKey(PrefetchKind kind, uint64_t object_id) {
  return PrefetchKey{kind, object_id, std::numeric_limits<int>::min(), 0};
}

PrefetchKey LastKey(PrefetchKind kind, uint64_t object_id) {
  return PrefetchKey{kind, object_id, std::numeric_limits<int>::max(),
                     std::numeric_limits<uint64_t>::max()};
}

}  // namespace

PrefetchQueue::PrefetchQueue(SimClock* clock, Link* link,
                             PrefetchOptions options)
    : PrefetchQueue(clock,
                    link != nullptr ? std::vector<Link*>{link}
                                    : std::vector<Link*>{},
                    options) {}

PrefetchQueue::PrefetchQueue(SimClock* clock, std::vector<Link*> links,
                             PrefetchOptions options)
    : clock_(clock), links_(std::move(links)), options_(options) {
  obs::MetricsRegistry& reg = options_.registry != nullptr
                                  ? *options_.registry
                                  : obs::MetricsRegistry::Default();
  enqueued_ = reg.counter("prefetch.enqueued");
  issued_ = reg.counter("prefetch.issued");
  hits_ = reg.counter("prefetch.hits");
  partial_hits_ = reg.counter("prefetch.partial_hits");
  misses_ = reg.counter("prefetch.misses");
  wasted_ = reg.counter("prefetch.wasted");
  cancelled_ = reg.counter("prefetch.cancelled");
  errors_ = reg.counter("prefetch.errors");
  wait_us_ = reg.histogram("prefetch.wait_us");
  issue_cost_us_ = reg.histogram("prefetch.issue_cost_us");
  queue_depth_ = reg.gauge("prefetch.queue_depth");
}

PrefetchQueue::~PrefetchQueue() {
  wasted_->Increment(static_cast<int64_t>(ready_count_));
}

void PrefetchQueue::UpdateDepth() {
  queue_depth_->Set(static_cast<double>(entries_.size()));
}

void PrefetchQueue::SetTaskPool(runtime::TaskPool* pool,
                                AffinityFn affinity) {
  pool_ = pool;
  // Without a pool, picks stage one after another in pick order.
  affinity_ = pool != nullptr ? std::move(affinity) : nullptr;
}

void PrefetchQueue::Enqueue(const PrefetchKey& key, int distance,
                            PageWork work, uint64_t affinity_object,
                            uint64_t bytes) {
  if (!work || entries_.count(key) > 0) return;
  Entry entry;
  entry.distance = std::abs(distance);
  entry.seq = next_seq_++;
  entry.affinity_object = affinity_object;
  entry.bytes = bytes;
  entry.run = std::move(work);
  const EntryRef it = entries_.emplace(key, std::move(entry)).first;
  pick_.emplace(std::make_pair(it->second.distance, it->second.seq), it);
  OwnerBook& book = owners_[key.owner];
  book.outstanding_bytes += bytes;
  book.live.emplace(it->second.seq, it);
  enqueued_->Increment();
  UpdateDepth();
}

void PrefetchQueue::Unrank(uint64_t owner, const OwnerBook& book) {
  if (book.ready.empty()) return;
  victims_.erase(
      VictimRank{book.ready_bytes, book.ready.begin()->first, owner});
}

void PrefetchQueue::Rank(uint64_t owner, const OwnerBook& book) {
  if (book.ready.empty()) return;
  victims_.insert(
      VictimRank{book.ready_bytes, book.ready.begin()->first, owner});
}

void PrefetchQueue::MarkReady(EntryRef it, Micros ready_at) {
  Entry& entry = it->second;
  pick_.erase(std::make_pair(entry.distance, entry.seq));
  entry.ready = true;
  entry.ready_at = ready_at;
  entry.run = nullptr;
  ++ready_count_;
  const uint64_t owner = it->first.owner;
  OwnerBook& book = owners_.at(owner);
  Unrank(owner, book);
  book.ready_bytes += entry.bytes;
  book.ready.emplace(entry.seq, it);
  Rank(owner, book);
}

void PrefetchQueue::Erase(EntryRef it) {
  const Entry& entry = it->second;
  const uint64_t owner = it->first.owner;
  auto book_it = owners_.find(owner);
  OwnerBook& book = book_it->second;
  if (entry.ready) {
    --ready_count_;
    Unrank(owner, book);
    book.ready_bytes -= entry.bytes;
    book.ready.erase(entry.seq);
    Rank(owner, book);
  } else {
    pick_.erase(std::make_pair(entry.distance, entry.seq));
  }
  book.outstanding_bytes -= entry.bytes;
  book.live.erase(entry.seq);
  if (book.live.empty()) owners_.erase(book_it);
  entries_.erase(it);
}

void PrefetchQueue::Drop(EntryRef it) {
  (it->second.ready ? wasted_ : cancelled_)->Increment();
  Erase(it);
}

void PrefetchQueue::WantPage(const PrefetchKey& key, int distance,
                             PageWork work, uint64_t bytes) {
  Enqueue(key, distance, std::move(work), key.object_id, bytes);
}

void PrefetchQueue::WantObject(uint64_t object_id, int distance,
                               ObjectWork work) {
  if (!work) return;
  PrefetchKey key{PrefetchKind::kObject, object_id, 0};
  auto shared =
      std::make_shared<ObjectWork>(std::move(work));
  WantPage(key, distance,
           [this, key, shared]() -> Status {
             StatusOr<object::MultimediaObject> got = (*shared)();
             if (!got.ok()) return got.status();
             entries_.at(key).object = *std::move(got);
             return Status::OK();
           });
}

void PrefetchQueue::WantMiniature(int position, int distance, CardWork work,
                                  uint64_t affinity_object) {
  if (!work) return;
  PrefetchKey key{PrefetchKind::kMiniature, 0, position};
  auto shared = std::make_shared<CardWork>(std::move(work));
  Enqueue(key, distance,
          [this, key, shared]() -> Status {
            StatusOr<MiniatureCard> got = (*shared)();
            if (!got.ok()) return got.status();
            entries_.at(key).card = *std::move(got);
            return Status::OK();
          },
          affinity_object);
}

void PrefetchQueue::Pump() {
  if (pumping_) return;  // A pumped transfer's retry is pumping us.
  pumping_ = true;
  // Pick phase: the first max_inflight_per_pump queued entries in pick
  // order (nearest cursor distance first, FIFO among equals). Issue
  // outcomes never affect candidacy (issued entries turn ready, failed
  // ones are erased — both leave the pick pool), so picking everything
  // up front is the same sequence the issue-as-you-go loop produced.
  const size_t limit =
      static_cast<size_t>(std::max(options_.max_inflight_per_pump, 0));
  std::vector<EntryRef> picked;
  picked.reserve(std::min(limit, pick_.size()));
  for (const auto& [rank, it] : pick_) {
    if (picked.size() == limit) break;
    picked.push_back(it);
  }
  Issue(picked);
  EvictOverCapacity();
  UpdateDepth();
  pumping_ = false;
}

void PrefetchQueue::Issue(const std::vector<EntryRef>& picked) {
  if (picked.empty()) return;
  // Group the picks by staging affinity: entries bound for different
  // shards ride different arms and may stage concurrently; entries of
  // one group — and every pick when no affinity oracle is installed —
  // run sequentially inside one task. Group membership is a pure
  // function of pick order and affinity, never of worker count.
  std::vector<uint64_t> group_ids;
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < picked.size(); ++i) {
    const uint64_t affinity =
        affinity_ ? affinity_(picked[i]->second.affinity_object) : 0;
    size_t g = 0;
    for (; g < group_ids.size(); ++g) {
      if (group_ids[g] == affinity) break;
    }
    if (g == group_ids.size()) {
      group_ids.push_back(affinity);
      groups.emplace_back();
    }
    groups[g].push_back(i);
  }

  struct IssueOutcome {
    Micros cost = 0;
    Status verdict = Status::OK();
  };
  std::vector<IssueOutcome> outcomes(picked.size());
  {
    // The background scopes span the whole epoch from this thread: the
    // per-link flag is a plain bool, so it must be set before any task
    // runs and cleared after the barrier, never toggled mid-epoch. One
    // scope per link: a sharded fetch may fail over mid-work, and every
    // link it touches must see the access as speculative.
    std::vector<std::unique_ptr<Link::BackgroundScope>> background;
    background.reserve(links_.size());
    for (Link* link : links_) {
      background.push_back(std::make_unique<Link::BackgroundScope>(link));
    }
    std::vector<runtime::TaskPool::Task> tasks;
    tasks.reserve(groups.size());
    for (const std::vector<size_t>& group : groups) {
      tasks.push_back([this, &picked, &outcomes, &group] {
        for (size_t i : group) {
          const Micros start = clock_->Now();
          outcomes[i].verdict = picked[i]->second.run();
          outcomes[i].cost = clock_->Now() - start;
          // The foreground never sees this work: the frame rewinds and
          // the cost is booked on the background channel below.
          clock_->RewindTo(start);
        }
      });
    }
    // A single pick gains nothing from a thread handoff: it runs inline.
    runtime::RunEpoch(picked.size() > 1 ? pool_ : nullptr, clock_,
                      std::move(tasks));
  }

  // Booking pass, in pick order: every issue started at this same
  // virtual instant, and failed speculative work still occupied the
  // channel while it tried.
  const Micros start = clock_->Now();
  for (size_t i = 0; i < picked.size(); ++i) {
    issued_->Increment();
    issue_cost_us_->Record(static_cast<double>(outcomes[i].cost));
    bg_free_at_ = std::max(bg_free_at_, start) + outcomes[i].cost;
    if (!outcomes[i].verdict.ok()) {
      errors_->Increment();
      Erase(picked[i]);
      continue;
    }
    MarkReady(picked[i], bg_free_at_);
  }
}

void PrefetchQueue::EvictOverCapacity() {
  // The victim owner is whoever holds the most ready bytes — it pays for
  // the overflow, so a budget-capped session's staged pages survive a
  // greedy neighbor's flood. Ties (including the all-bytes-untracked
  // legacy case, where every owner holds 0) fall to the owner of the
  // globally stalest ready entry, which with a single owner degenerates
  // to the original evict-stalest rule. Within that owner, its stalest
  // ready entry goes.
  while (ready_count_ > options_.ready_capacity) {
    const OwnerBook& book = owners_.at(victims_.begin()->owner);
    Erase(book.ready.begin()->second);
    wasted_->Increment();
  }
}

bool PrefetchQueue::TakePage(const PrefetchKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_->Increment();
    return false;
  }
  if (!it->second.ready) {
    // Queued but never issued: the foreground fetch supersedes it.
    Erase(it);
    misses_->Increment();
    UpdateDepth();
    return false;
  }
  const Micros now = clock_->Now();
  if (it->second.ready_at > now) {
    // Early consumer: wait out the residual background time only.
    const Micros residual = it->second.ready_at - now;
    if (key.kind != PrefetchKind::kObject &&
        residual > options_.max_page_wait_us) {
      // The channel is backed up behind other speculation; a foreground
      // transfer is cheaper than waiting. The work was done for nothing.
      Erase(it);
      wasted_->Increment();
      misses_->Increment();
      UpdateDepth();
      return false;
    }
    clock_->Advance(residual);
    wait_us_->Record(static_cast<double>(residual));
    partial_hits_->Increment();
  } else {
    wait_us_->Record(0.0);
    hits_->Increment();
  }
  Erase(it);
  UpdateDepth();
  return true;
}

std::optional<object::MultimediaObject> PrefetchQueue::TakeObject(
    uint64_t object_id) {
  PrefetchKey key{PrefetchKind::kObject, object_id, 0};
  auto it = entries_.find(key);
  std::optional<object::MultimediaObject> payload;
  if (it != entries_.end() && it->second.ready) {
    payload = std::move(it->second.object);
  }
  if (!TakePage(key)) return std::nullopt;
  return payload;
}

std::optional<MiniatureCard> PrefetchQueue::TakeMiniature(
    int position, uint64_t expected_id) {
  PrefetchKey key{PrefetchKind::kMiniature, 0, position};
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.ready &&
      it->second.card.has_value() && it->second.card->id != expected_id) {
    // Staged for another query's strip: the same position now names a
    // different object, and its card must never be delivered here.
    Erase(it);
    wasted_->Increment();
    misses_->Increment();
    UpdateDepth();
    return std::nullopt;
  }
  std::optional<MiniatureCard> payload;
  if (it != entries_.end() && it->second.ready) {
    payload = std::move(it->second.card);
  }
  if (!TakePage(key)) return std::nullopt;
  return payload;
}

int PrefetchQueue::KeepRadius(PrefetchKind kind) const {
  if (kind == PrefetchKind::kMiniature) return options_.miniature_radius;
  return std::max(options_.pages_ahead, options_.pages_behind);
}

void PrefetchQueue::DropRange(
    EntryRef first, EntryRef last,
    const std::function<bool(const PrefetchKey&)>& stale) {
  while (first != last) {
    const EntryRef it = first++;
    if (!stale || stale(it->first)) Drop(it);
  }
  UpdateDepth();
}

void PrefetchQueue::DropObject(
    PrefetchKind kind, uint64_t object_id,
    const std::function<bool(const PrefetchKey&)>& stale) {
  DropRange(entries_.lower_bound(FirstKey(kind, object_id)),
            entries_.upper_bound(LastKey(kind, object_id)), stale);
}

void PrefetchQueue::OnJump(PrefetchKind kind, uint64_t object_id,
                           int new_cursor) {
  const int radius = KeepRadius(kind);
  DropObject(kind, object_id, [&](const PrefetchKey& key) {
    return std::abs(key.index - new_cursor) > radius;
  });
}

void PrefetchQueue::Cancel(PrefetchKind kind) {
  DropRange(entries_.lower_bound(FirstKey(kind, 0)),
            entries_.upper_bound(
                LastKey(kind, std::numeric_limits<uint64_t>::max())),
            nullptr);
}

void PrefetchQueue::CancelObject(uint64_t object_id) {
  for (PrefetchKind kind : {PrefetchKind::kObject, PrefetchKind::kVisualPage,
                            PrefetchKind::kAudioPage}) {
    DropObject(kind, object_id, nullptr);
  }
}

void PrefetchQueue::CancelAll() {
  DropRange(entries_.begin(), entries_.end(), nullptr);
}

void PrefetchQueue::CancelOwner(uint64_t owner) {
  CancelOwnerWhere(owner, nullptr);
}

void PrefetchQueue::CancelOwnerWhere(
    uint64_t owner, const std::function<bool(const PrefetchKey&)>& stale) {
  auto book = owners_.find(owner);
  if (book != owners_.end()) {
    // Collect first: dropping the owner's last entry retires its book.
    std::vector<EntryRef> doomed;
    for (const auto& [seq, it] : book->second.live) {
      if (!stale || stale(it->first)) doomed.push_back(it);
    }
    for (EntryRef it : doomed) Drop(it);
  }
  UpdateDepth();
}

BackoffSleeper PrefetchQueue::MakeBackoffSleeper() {
  return [this](Micros delay) {
    // Spend the backoff window starting background transfers, then let
    // the foreground wait out its delay as before. The pumped work books
    // onto the background channel, so the window is not double-charged.
    Pump();
    clock_->Advance(delay);
  };
}

uint64_t PrefetchQueue::OutstandingBytes(uint64_t owner) const {
  auto book = owners_.find(owner);
  return book == owners_.end() ? 0 : book->second.outstanding_bytes;
}

}  // namespace minos::server
