// The asynchronous prefetch pipeline: background-channel time model
// (free hits, residual waits, foreground fallback), jump cancellation,
// fault posture (speculative failures never trip the foreground
// breaker), backoff windows spent pumping, and the end-to-end demand
// paging path through the workstation.

#include "minos/server/prefetch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "minos/core/visual_browser.h"
#include "minos/server/object_server.h"
#include "minos/server/workstation.h"
#include "minos/text/formatter.h"
#include "minos/text/markup.h"

namespace minos::server {
namespace {

using object::MultimediaObject;
using object::VisualPageSpec;

/// A queue over a local registry so counters start from zero.
struct QueueHarness {
  SimClock clock;
  obs::MetricsRegistry registry;
  PrefetchQueue queue;

  explicit QueueHarness(PrefetchOptions options = {})
      : queue(&clock, nullptr, WithRegistry(options, &registry)) {}

  static PrefetchOptions WithRegistry(PrefetchOptions options,
                                      obs::MetricsRegistry* registry) {
    options.registry = registry;
    return options;
  }

  /// Work that models a transfer of `cost` simulated time.
  PrefetchQueue::PageWork Costing(Micros cost) {
    return [this, cost] {
      clock.Advance(cost);
      return Status::OK();
    };
  }

  int64_t Count(const std::string& name) {
    return static_cast<int64_t>(registry.counter("prefetch." + name)->value());
  }
};

constexpr PrefetchKey Page(uint64_t object_id, int index) {
  return PrefetchKey{PrefetchKind::kVisualPage, object_id, index};
}

// --- Background-channel time model ------------------------------------

TEST(PrefetchQueueTest, HitAfterFullOverlapIsFree) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(10)));
  h.queue.Pump();
  // The foreground clock never saw the speculative work.
  EXPECT_EQ(h.clock.Now(), 0);

  h.clock.Advance(MillisToMicros(50));  // The user reads the page.
  EXPECT_TRUE(h.queue.TakePage(Page(1, 2)));
  EXPECT_EQ(h.clock.Now(), MillisToMicros(50));  // No extra wait.
  EXPECT_EQ(h.Count("hits"), 1);
  EXPECT_EQ(h.Count("issued"), 1);
}

TEST(PrefetchQueueTest, EarlyConsumerWaitsOnlyTheResidual) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(10)));
  h.queue.Pump();
  h.clock.Advance(MillisToMicros(4));  // Turn the page early.
  EXPECT_TRUE(h.queue.TakePage(Page(1, 2)));
  // Waited out the remaining 6 ms of background transfer, not all 10.
  EXPECT_EQ(h.clock.Now(), MillisToMicros(10));
  EXPECT_EQ(h.Count("partial_hits"), 1);
}

TEST(PrefetchQueueTest, BackgroundChannelIsSerialized) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(10)));
  h.queue.WantPage(Page(1, 3), 2, h.Costing(MillisToMicros(10)));
  h.queue.Pump();
  // One channel: the second transfer queues behind the first, so its
  // completion is at 20 ms, not 10.
  EXPECT_EQ(h.queue.background_free_at(), MillisToMicros(20));
  h.clock.Advance(MillisToMicros(19));
  EXPECT_TRUE(h.queue.TakePage(Page(1, 3)));
  EXPECT_EQ(h.clock.Now(), MillisToMicros(20));
}

TEST(PrefetchQueueTest, BackedUpChannelFallsBackToForeground) {
  PrefetchOptions options;
  options.max_page_wait_us = MillisToMicros(5);
  QueueHarness h(options);
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(50)));
  h.queue.Pump();
  // Residual would be 50 ms — more than the cap: the entry is dropped
  // and the caller is told to do the (cheap) foreground transfer.
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));
  EXPECT_EQ(h.clock.Now(), 0);  // Never blocked the foreground.
  EXPECT_EQ(h.Count("misses"), 1);
  EXPECT_EQ(h.Count("wasted"), 1);
  // The entry is gone, not retried later.
  EXPECT_EQ(h.queue.ready_count(), 0u);
}

TEST(PrefetchQueueTest, QueuedUnissuedEntryIsSupersededByForeground) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(10)));
  // No Pump: the cursor arrived before any idle window.
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));
  EXPECT_EQ(h.Count("misses"), 1);
  EXPECT_EQ(h.queue.queued_count(), 0u);  // Dropped, not left behind.
}

TEST(PrefetchQueueTest, DuplicateWantsAreIgnored) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(10)));
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(99)));
  EXPECT_EQ(h.Count("enqueued"), 1);
  EXPECT_EQ(h.queue.queued_count(), 1u);
}

TEST(PrefetchQueueTest, PumpIssuesNearestDistanceFirst) {
  PrefetchOptions options;
  options.max_inflight_per_pump = 1;
  QueueHarness h(options);
  h.queue.WantPage(Page(1, 5), 3, h.Costing(MillisToMicros(10)));
  h.queue.WantPage(Page(1, 3), 1, h.Costing(MillisToMicros(10)));
  h.queue.Pump();
  // The nearer page (distance 1) was issued, the farther one is still
  // queued.
  EXPECT_EQ(h.queue.ready_count(), 1u);
  h.clock.Advance(MillisToMicros(10));
  EXPECT_TRUE(h.queue.TakePage(Page(1, 3)));
  EXPECT_EQ(h.Count("hits"), 1);
}

// --- Jump cancellation -------------------------------------------------

TEST(PrefetchQueueTest, JumpCancelsQueuedAndWastesReadyEntries) {
  PrefetchOptions options;
  options.max_inflight_per_pump = 2;
  options.pages_ahead = 2;
  options.pages_behind = 1;
  QueueHarness h(options);
  for (int page = 2; page <= 5; ++page) {
    h.queue.WantPage(Page(1, page), page - 1,
                     h.Costing(MillisToMicros(5)));
  }
  h.queue.Pump();  // Issues pages 2 and 3; pages 4 and 5 stay queued.
  ASSERT_EQ(h.queue.ready_count(), 2u);
  ASSERT_EQ(h.queue.queued_count(), 2u);

  // The user jumps to page 40: everything around the old cursor is
  // stale (radius is max(pages_ahead, pages_behind) = 2).
  h.queue.OnJump(PrefetchKind::kVisualPage, 1, 40);
  EXPECT_EQ(h.Count("wasted"), 2);     // Ready pages 2, 3: work discarded.
  EXPECT_EQ(h.Count("cancelled"), 2);  // Queued pages 4, 5: never ran.

  // A stale ready page can never be delivered after the jump.
  h.clock.Advance(MillisToMicros(100));
  for (int page = 2; page <= 5; ++page) {
    EXPECT_FALSE(h.queue.TakePage(Page(1, page))) << "page " << page;
  }
}

TEST(PrefetchQueueTest, JumpKeepsEntriesInsideTheNewRadius) {
  QueueHarness h;  // pages_ahead 2 -> keep radius 2.
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantPage(Page(1, 41), 39, h.Costing(MillisToMicros(5)));
  h.queue.Pump();
  h.queue.OnJump(PrefetchKind::kVisualPage, 1, 40);
  // Page 41 is within radius of the new cursor: still ready for a hit.
  h.clock.Advance(MillisToMicros(100));
  EXPECT_TRUE(h.queue.TakePage(Page(1, 41)));
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));
}

TEST(PrefetchQueueTest, JumpOnlyDropsTheMatchingObjectAndKind) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantPage(Page(2, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.Pump();
  h.queue.OnJump(PrefetchKind::kVisualPage, 1, 40);
  h.clock.Advance(MillisToMicros(100));
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));  // Stale.
  EXPECT_TRUE(h.queue.TakePage(Page(2, 2)));   // Another object: kept.
}

TEST(PrefetchQueueTest, CancelAllDropsEverything) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantPage(Page(1, 3), 2, h.Costing(MillisToMicros(5)));
  h.queue.Pump();  // Both issue (default max_inflight_per_pump = 2).
  h.queue.WantPage(Page(1, 4), 3, h.Costing(MillisToMicros(5)));
  h.queue.CancelAll();
  EXPECT_EQ(h.Count("wasted"), 2);
  EXPECT_EQ(h.Count("cancelled"), 1);
  EXPECT_EQ(h.queue.queued_count() + h.queue.ready_count(), 0u);
}

TEST(PrefetchQueueTest, EvictionKeepsTheReadySetBounded) {
  PrefetchOptions options;
  options.ready_capacity = 1;
  options.max_inflight_per_pump = 2;
  QueueHarness h(options);
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantPage(Page(1, 3), 2, h.Costing(MillisToMicros(5)));
  h.queue.Pump();
  // Capacity 1: the stalest ready entry was evicted as wasted.
  EXPECT_EQ(h.queue.ready_count(), 1u);
  EXPECT_EQ(h.Count("wasted"), 1);
  h.clock.Advance(MillisToMicros(100));
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));  // The evicted one.
  EXPECT_TRUE(h.queue.TakePage(Page(1, 3)));
}

// --- Failures and the backoff sleeper ----------------------------------

TEST(PrefetchQueueTest, FailedWorkIsDroppedButStillOccupiesTheChannel) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, [&h] {
    h.clock.Advance(MillisToMicros(8));  // Timed out after 8 ms.
    return Status::Unavailable("link drop");
  });
  h.queue.WantPage(Page(1, 3), 2, h.Costing(MillisToMicros(10)));
  h.queue.Pump();
  EXPECT_EQ(h.Count("errors"), 1);
  EXPECT_EQ(h.clock.Now(), 0);  // The foreground never saw the failure.
  // The failed attempt held the channel for 8 ms before the next
  // transfer could start.
  EXPECT_EQ(h.queue.background_free_at(), MillisToMicros(18));
  h.clock.Advance(MillisToMicros(100));
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));  // Dropped, not retried.
  EXPECT_TRUE(h.queue.TakePage(Page(1, 3)));
}

TEST(PrefetchQueueTest, BackoffSleeperPumpsTheQueueThenWaits) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(3)));
  BackoffSleeper sleeper = h.queue.MakeBackoffSleeper();
  // A foreground retry waits out its backoff window; the window is
  // spent starting the queued background transfer.
  sleeper(MillisToMicros(20));
  EXPECT_EQ(h.clock.Now(), MillisToMicros(20));  // The wait happened...
  EXPECT_TRUE(h.queue.TakePage(Page(1, 2)));     // ...and so did the work.
  EXPECT_EQ(h.clock.Now(), MillisToMicros(20));  // Free hit: no recharge.
  EXPECT_EQ(h.Count("hits"), 1);
}

TEST(PrefetchQueueTest, ObjectAndMiniaturePayloadsRoundTrip) {
  QueueHarness h;
  h.queue.WantObject(7, 0, [&h]() -> StatusOr<MultimediaObject> {
    h.clock.Advance(MillisToMicros(5));
    return MultimediaObject(7);
  });
  h.queue.WantMiniature(3, 1, [&h]() -> StatusOr<MiniatureCard> {
    h.clock.Advance(MillisToMicros(2));
    MiniatureCard card;
    card.id = 9;
    return card;
  });
  h.queue.Pump();
  h.clock.Advance(MillisToMicros(20));
  auto object = h.queue.TakeObject(7);
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->id(), 7u);
  auto card = h.queue.TakeMiniature(3, 9);
  ASSERT_TRUE(card.has_value());
  EXPECT_EQ(card->id, 9u);
  EXPECT_EQ(h.Count("hits"), 2);
  // Consumed entries do not linger.
  EXPECT_FALSE(h.queue.TakeObject(7).has_value());
  EXPECT_FALSE(h.queue.TakeMiniature(3, 9).has_value());
}

TEST(PrefetchQueueTest, TakeMiniatureRejectsAnotherObjectsCard) {
  QueueHarness h;
  h.queue.WantMiniature(3, 1, [&h]() -> StatusOr<MiniatureCard> {
    h.clock.Advance(MillisToMicros(2));
    MiniatureCard card;
    card.id = 9;
    return card;
  });
  h.queue.Pump();
  h.clock.Advance(MillisToMicros(20));
  // Position 3 now names object 5 (a new query strip): the staged card
  // of object 9 must be dropped, never delivered.
  EXPECT_FALSE(h.queue.TakeMiniature(3, 5).has_value());
  EXPECT_EQ(h.Count("wasted"), 1);
  EXPECT_EQ(h.Count("misses"), 1);
  EXPECT_EQ(h.Count("hits"), 0);
  EXPECT_EQ(h.queue.ready_count(), 0u);
}

TEST(PrefetchQueueTest, CancelKindDropsOnlyThatKind) {
  QueueHarness h;
  h.queue.WantMiniature(0, 1, []() -> StatusOr<MiniatureCard> {
    return MiniatureCard{};
  });
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.Pump();
  h.queue.Cancel(PrefetchKind::kMiniature);
  h.clock.Advance(MillisToMicros(100));
  EXPECT_FALSE(h.queue.TakeMiniature(0, 0).has_value());
  EXPECT_TRUE(h.queue.TakePage(Page(1, 2)));  // Pages untouched.
}

TEST(PrefetchQueueTest, CancelObjectSparesOtherObjectsAndMiniatures) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantPage(Page(2, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantMiniature(0, 1, []() -> StatusOr<MiniatureCard> {
    MiniatureCard card;
    card.id = 4;
    return card;
  });
  h.queue.Pump();
  h.queue.Pump();  // Default max_inflight_per_pump = 2: issue all three.
  h.queue.CancelObject(1);
  h.clock.Advance(MillisToMicros(100));
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));  // Re-opened: invalidated.
  EXPECT_TRUE(h.queue.TakePage(Page(2, 2)));
  EXPECT_TRUE(h.queue.TakeMiniature(0, 4).has_value());
}

// --- Differential check against a scan-based reference ------------------

/// The queue's contract written the direct way: every operation scans
/// every entry, picks with a nested scan, and rebuilds the owner table
/// for each eviction. The indexed queue must make the same picks, evict
/// the same victims and count the same outcomes.
class ReferenceQueue {
 public:
  /// What one entry's work does when issued.
  struct Work {
    Micros cost = 0;
    bool fails = false;
    uint64_t card_id = 0;  ///< Miniatures: the id of the staged card.
  };

  struct Counts {
    int64_t enqueued = 0, issued = 0, hits = 0, partial_hits = 0,
            misses = 0, wasted = 0, cancelled = 0, errors = 0;
    int64_t waits = 0, costs = 0;
    double wait_sum = 0, cost_sum = 0;
  };

  explicit ReferenceQueue(const PrefetchOptions& options)
      : options_(options) {}

  void Want(const PrefetchKey& key, int distance, uint64_t bytes,
            const Work& work) {
    if (entries_.count(key) > 0) return;
    Entry entry;
    entry.distance = std::abs(distance);
    entry.seq = next_seq_++;
    entry.bytes = bytes;
    entry.work = work;
    entries_.emplace(key, entry);
    ++counts_.enqueued;
  }

  /// Returns the keys issued, in pick order.
  std::vector<PrefetchKey> Pump() {
    std::vector<PrefetchKey> picked;
    for (int slot = 0; slot < options_.max_inflight_per_pump; ++slot) {
      const PrefetchKey* pick = nullptr;
      for (const auto& [key, entry] : entries_) {
        if (entry.ready ||
            std::find(picked.begin(), picked.end(), key) != picked.end()) {
          continue;
        }
        const Entry* best = pick == nullptr ? nullptr : &entries_.at(*pick);
        if (best == nullptr || entry.distance < best->distance ||
            (entry.distance == best->distance && entry.seq < best->seq)) {
          pick = &key;
        }
      }
      if (pick == nullptr) break;
      picked.push_back(*pick);
    }
    for (const PrefetchKey& key : picked) {
      Entry& entry = entries_.at(key);
      ++counts_.issued;
      ++counts_.costs;
      counts_.cost_sum += static_cast<double>(entry.work.cost);
      bg_free_at_ = std::max(bg_free_at_, now_) + entry.work.cost;
      if (entry.work.fails) {
        ++counts_.errors;
        entries_.erase(key);
        continue;
      }
      entry.ready = true;
      entry.ready_at = bg_free_at_;
    }
    while (ready_count() > options_.ready_capacity) {
      struct OwnerStat {
        uint64_t bytes = 0;
        uint64_t stalest_seq = ~0ull;
      };
      std::map<uint64_t, OwnerStat> owners;
      for (const auto& [key, entry] : entries_) {
        if (!entry.ready) continue;
        OwnerStat& stat = owners[key.owner];
        stat.bytes += entry.bytes;
        stat.stalest_seq = std::min(stat.stalest_seq, entry.seq);
      }
      uint64_t victim_owner = 0;
      const OwnerStat* best = nullptr;
      for (const auto& [owner, stat] : owners) {
        if (best == nullptr || stat.bytes > best->bytes ||
            (stat.bytes == best->bytes &&
             stat.stalest_seq < best->stalest_seq)) {
          victim_owner = owner;
          best = &stat;
        }
      }
      const PrefetchKey* victim = nullptr;
      for (const auto& [key, entry] : entries_) {
        if (!entry.ready || key.owner != victim_owner) continue;
        if (victim == nullptr || entry.seq < entries_.at(*victim).seq) {
          victim = &key;
        }
      }
      entries_.erase(*victim);
      ++counts_.wasted;
    }
    return picked;
  }

  bool TakePage(const PrefetchKey& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++counts_.misses;
      return false;
    }
    if (!it->second.ready) {
      entries_.erase(it);
      ++counts_.misses;
      return false;
    }
    if (it->second.ready_at > now_) {
      const Micros residual = it->second.ready_at - now_;
      if (key.kind != PrefetchKind::kObject &&
          residual > options_.max_page_wait_us) {
        entries_.erase(it);
        ++counts_.wasted;
        ++counts_.misses;
        return false;
      }
      now_ += residual;
      ++counts_.waits;
      counts_.wait_sum += static_cast<double>(residual);
      ++counts_.partial_hits;
    } else {
      ++counts_.waits;
      ++counts_.hits;
    }
    entries_.erase(it);
    return true;
  }

  /// The card id delivered, or nullopt on a miss.
  std::optional<uint64_t> TakeMiniature(int position, uint64_t expected_id) {
    const PrefetchKey key{PrefetchKind::kMiniature, 0, position};
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.ready &&
        it->second.work.card_id != expected_id) {
      entries_.erase(it);
      ++counts_.wasted;
      ++counts_.misses;
      return std::nullopt;
    }
    const uint64_t card = it != entries_.end() ? it->second.work.card_id : 0;
    if (!TakePage(key)) return std::nullopt;
    return card;
  }

  void CancelWhere(const std::function<bool(const PrefetchKey&)>& stale) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (!stale(it->first)) {
        ++it;
        continue;
      }
      ++(it->second.ready ? counts_.wasted : counts_.cancelled);
      it = entries_.erase(it);
    }
  }

  void OnJump(PrefetchKind kind, uint64_t object_id, int new_cursor) {
    const int radius = kind == PrefetchKind::kMiniature
                           ? options_.miniature_radius
                           : std::max(options_.pages_ahead,
                                      options_.pages_behind);
    CancelWhere([&](const PrefetchKey& key) {
      return key.kind == kind && key.object_id == object_id &&
             std::abs(key.index - new_cursor) > radius;
    });
  }

  void Advance(Micros delta) { now_ += delta; }
  Micros now() const { return now_; }

  size_t ready_count() const {
    size_t n = 0;
    for (const auto& [key, entry] : entries_) n += entry.ready ? 1 : 0;
    return n;
  }
  size_t size() const { return entries_.size(); }
  uint64_t OutstandingBytes(uint64_t owner) const {
    uint64_t bytes = 0;
    for (const auto& [key, entry] : entries_) {
      if (key.owner == owner) bytes += entry.bytes;
    }
    return bytes;
  }
  const Counts& counts() const { return counts_; }

 private:
  struct Entry {
    int distance = 0;
    uint64_t seq = 0;
    bool ready = false;
    Micros ready_at = 0;
    uint64_t bytes = 0;
    Work work;
  };

  PrefetchOptions options_;
  std::map<PrefetchKey, Entry> entries_;
  uint64_t next_seq_ = 0;
  Micros bg_free_at_ = 0;
  Micros now_ = 0;
  Counts counts_;
};

/// Drives the real queue and the reference with one seeded sequence of
/// operations and compares them after every step. `pooled` stages each
/// pump on a two-worker TaskPool grouped by object, so only the set of
/// keys issued per pump (not their run order) is comparable there.
void RunDifferential(uint64_t seed, bool pooled) {
  SCOPED_TRACE("seed " + std::to_string(seed) +
               (pooled ? " pooled" : " serial"));
  std::mt19937_64 rng(seed);
  auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  constexpr int kObjects = 3;
  constexpr int kPages = 6;
  constexpr int kOwners = 7;
  constexpr int kPositions = 5;

  PrefetchOptions options;
  options.pages_ahead = uniform(0, 3);
  options.pages_behind = uniform(0, 2);
  options.miniature_radius = uniform(0, 2);
  options.max_inflight_per_pump = uniform(1, 5);
  options.ready_capacity = static_cast<size_t>(uniform(0, 5));
  options.max_page_wait_us = uniform(0, 3000);
  SimClock clock;
  obs::MetricsRegistry registry;
  runtime::TaskPool pool(&clock, 2);
  auto queue = std::make_unique<PrefetchQueue>(
      &clock, nullptr, QueueHarness::WithRegistry(options, &registry));
  ReferenceQueue ref(options);
  if (pooled) {
    queue->SetTaskPool(&pool, [](uint64_t object_id) {
      return 1 + object_id % 2;
    });
  }
  auto count = [&registry](const std::string& name) {
    return registry.counter("prefetch." + name)->value();
  };

  std::mutex ran_mu;
  std::vector<PrefetchKey> ran;  // Keys whose work ran, in run order.
  auto record = [&ran_mu, &ran](const PrefetchKey& key) {
    std::lock_guard<std::mutex> lock(ran_mu);
    ran.push_back(key);
  };
  auto random_work = [&] {
    ReferenceQueue::Work work;
    work.cost = uniform(0, 2000);
    work.fails = uniform(0, 9) == 0;
    work.card_id = static_cast<uint64_t>(uniform(1, 3));
    return work;
  };
  auto page_key = [&] {
    return PrefetchKey{uniform(0, 1) == 0 ? PrefetchKind::kVisualPage
                                          : PrefetchKind::kAudioPage,
                       static_cast<uint64_t>(uniform(1, kObjects)),
                       uniform(0, kPages - 1),
                       static_cast<uint64_t>(uniform(0, kOwners - 1))};
  };

  auto want_page = [&](const PrefetchKey& key) {
    const int distance = uniform(-3, 5);
    // Half the entries are untracked (0 bytes), the legacy tie case.
    const uint64_t bytes =
        uniform(0, 1) == 0 ? 0 : static_cast<uint64_t>(uniform(1, 5000));
    const ReferenceQueue::Work work = random_work();
    ref.Want(key, distance, bytes, work);
    queue->WantPage(
        key, distance,
        [&clock, &record, key, work] {
          clock.Advance(work.cost);
          record(key);
          return work.fails ? Status::Unavailable("injected")
                            : Status::OK();
        },
        bytes);
  };
  auto want_object = [&](uint64_t object_id) {
    const int distance = uniform(-3, 5);
    const ReferenceQueue::Work work = random_work();
    const PrefetchKey key{PrefetchKind::kObject, object_id, 0};
    ref.Want(key, distance, 0, work);
    queue->WantObject(
        object_id, distance,
        [&clock, &record, key, work]() -> StatusOr<MultimediaObject> {
          clock.Advance(work.cost);
          record(key);
          if (work.fails) return Status::Unavailable("injected");
          return MultimediaObject(key.object_id);
        });
  };
  auto want_miniature = [&](int position) {
    const int distance = uniform(-3, 5);
    const ReferenceQueue::Work work = random_work();
    const PrefetchKey key{PrefetchKind::kMiniature, 0, position};
    ref.Want(key, distance, 0, work);
    queue->WantMiniature(
        position, distance,
        [&clock, &record, key, work]() -> StatusOr<MiniatureCard> {
          clock.Advance(work.cost);
          record(key);
          if (work.fails) return Status::Unavailable("injected");
          MiniatureCard card;
          card.id = work.card_id;
          return card;
        },
        work.card_id);
  };
  auto take_object = [&](uint64_t object_id) {
    const bool expected =
        ref.TakePage(PrefetchKey{PrefetchKind::kObject, object_id, 0});
    const std::optional<MultimediaObject> got = queue->TakeObject(object_id);
    ASSERT_EQ(got.has_value(), expected) << "object " << object_id;
    if (got.has_value()) {
      EXPECT_EQ(got->id(), object_id);
    }
  };
  auto take_miniature = [&](int position, uint64_t expected_id) {
    const std::optional<uint64_t> expected =
        ref.TakeMiniature(position, expected_id);
    const std::optional<MiniatureCard> got =
        queue->TakeMiniature(position, expected_id);
    ASSERT_EQ(got.has_value(), expected.has_value()) << "pos " << position;
    if (got.has_value()) {
      EXPECT_EQ(got->id, *expected);
    }
  };

  auto check = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const ReferenceQueue::Counts& want = ref.counts();
    ASSERT_EQ(clock.Now(), ref.now());
    ASSERT_EQ(queue->ready_count(), ref.ready_count());
    ASSERT_EQ(queue->queued_count(), ref.size() - ref.ready_count());
    for (uint64_t owner = 0; owner < kOwners; ++owner) {
      ASSERT_EQ(queue->OutstandingBytes(owner), ref.OutstandingBytes(owner))
          << "owner " << owner;
    }
    ASSERT_EQ(count("enqueued"), want.enqueued);
    ASSERT_EQ(count("issued"), want.issued);
    ASSERT_EQ(count("hits"), want.hits);
    ASSERT_EQ(count("partial_hits"), want.partial_hits);
    ASSERT_EQ(count("misses"), want.misses);
    ASSERT_EQ(count("wasted"), want.wasted);
    ASSERT_EQ(count("cancelled"), want.cancelled);
    ASSERT_EQ(count("errors"), want.errors);
    obs::Histogram* wait = registry.histogram("prefetch.wait_us");
    obs::Histogram* cost = registry.histogram("prefetch.issue_cost_us");
    ASSERT_EQ(wait->count(), want.waits);
    ASSERT_EQ(wait->sum(), want.wait_sum);
    ASSERT_EQ(cost->count(), want.costs);
    ASSERT_EQ(cost->sum(), want.cost_sum);
    ASSERT_EQ(registry.gauge("prefetch.queue_depth")->value(),
              static_cast<double>(ref.size()));
  };

  constexpr int kSteps = 600;
  for (int step = 0; step < kSteps; ++step) {
    const int op = uniform(0, 99);
    if (op < 34) {
      want_page(page_key());
    } else if (op < 38) {
      want_object(static_cast<uint64_t>(uniform(1, kObjects)));
    } else if (op < 44) {
      want_miniature(uniform(0, kPositions - 1));
    } else if (op < 56) {
      const PrefetchKey key = page_key();
      const bool expected = ref.TakePage(key);
      ASSERT_EQ(queue->TakePage(key), expected);
    } else if (op < 59) {
      take_object(static_cast<uint64_t>(uniform(1, kObjects)));
    } else if (op < 63) {
      take_miniature(uniform(0, kPositions - 1),
                     static_cast<uint64_t>(uniform(1, 3)));
    } else if (op < 67) {
      const PrefetchKind kind = static_cast<PrefetchKind>(uniform(0, 3));
      const uint64_t object_id =
          kind == PrefetchKind::kMiniature
              ? 0
              : static_cast<uint64_t>(uniform(1, kObjects));
      const int cursor = uniform(0, kPages - 1);
      ref.OnJump(kind, object_id, cursor);
      queue->OnJump(kind, object_id, cursor);
    } else if (op < 69) {
      const PrefetchKind kind = static_cast<PrefetchKind>(uniform(0, 3));
      ref.CancelWhere(
          [kind](const PrefetchKey& key) { return key.kind == kind; });
      queue->Cancel(kind);
    } else if (op < 71) {
      const uint64_t object_id = static_cast<uint64_t>(uniform(1, kObjects));
      ref.CancelWhere([object_id](const PrefetchKey& key) {
        return key.kind != PrefetchKind::kMiniature &&
               key.object_id == object_id;
      });
      queue->CancelObject(object_id);
    } else if (op < 72) {
      ref.CancelWhere([](const PrefetchKey&) { return true; });
      queue->CancelAll();
    } else if (op < 76) {
      const uint64_t owner = static_cast<uint64_t>(uniform(0, kOwners - 1));
      ref.CancelWhere(
          [owner](const PrefetchKey& key) { return key.owner == owner; });
      queue->CancelOwner(owner);
    } else if (op < 80) {
      // A session jump: this owner's pages of one object outside a
      // radius of the new cursor.
      const uint64_t owner = static_cast<uint64_t>(uniform(0, kOwners - 1));
      const uint64_t object_id = static_cast<uint64_t>(uniform(1, kObjects));
      const int cursor = uniform(0, kPages - 1);
      const int radius = uniform(0, 2);
      auto stale = [&](const PrefetchKey& key) {
        return key.kind == PrefetchKind::kVisualPage &&
               key.object_id == object_id &&
               std::abs(key.index - cursor) > radius;
      };
      ref.CancelWhere([&](const PrefetchKey& key) {
        return key.owner == owner && stale(key);
      });
      queue->CancelOwnerWhere(owner, stale);
    } else if (op < 94) {
      ran.clear();
      std::vector<PrefetchKey> expected = ref.Pump();
      queue->Pump();
      if (pooled) {
        std::sort(expected.begin(), expected.end());
        std::sort(ran.begin(), ran.end());
      }
      ASSERT_EQ(ran, expected) << "pick order, step " << step;
    } else if (op < 99) {
      const Micros delta = uniform(0, 2500);
      ref.Advance(delta);
      clock.Advance(delta);
    } else {
      // Probe every key: the live sets of both queues must agree.
      for (int kind = 2; kind <= 3; ++kind) {
        for (uint64_t object_id = 1; object_id <= kObjects; ++object_id) {
          for (int index = 0; index < kPages; ++index) {
            for (uint64_t owner = 0; owner < kOwners; ++owner) {
              const PrefetchKey key{static_cast<PrefetchKind>(kind),
                                    object_id, index, owner};
              const bool expected = ref.TakePage(key);
              ASSERT_EQ(queue->TakePage(key), expected);
            }
          }
        }
      }
      for (uint64_t object_id = 1; object_id <= kObjects; ++object_id) {
        take_object(object_id);
      }
      for (int position = 0; position < kPositions; ++position) {
        take_miniature(position, static_cast<uint64_t>(uniform(1, 3)));
      }
    }
    check(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Unconsumed ready entries die wasted with the queue.
  const int64_t wasted = ref.counts().wasted +
                         static_cast<int64_t>(ref.ready_count());
  queue.reset();
  EXPECT_EQ(count("wasted"), wasted);
}

TEST(PrefetchDifferentialTest, MatchesScanReferenceSerially) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RunDifferential(seed, /*pooled=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PrefetchDifferentialTest, MatchesScanReferenceWhenPooled) {
  for (uint64_t seed = 101; seed <= 130; ++seed) {
    RunDifferential(seed, /*pooled=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- Fault posture: the breaker belongs to the foreground ---------------

TEST(PrefetchBreakerTest, BackgroundFailuresDoNotTripTheForegroundBreaker) {
  SimClock clock;
  obs::MetricsRegistry registry;
  Link link = Link::Ethernet(&clock, &registry);
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  link.ConfigureBreaker(options);
  FaultProfile profile;
  profile.drop_rate = 1.0;
  FaultInjector injector(profile, 11, &clock, &registry);
  link.SetFaultInjector(&injector);

  // A whole burst of failed speculative transfers...
  for (int i = 0; i < 6; ++i) {
    Link::BackgroundScope background(&link);
    EXPECT_FALSE(link.Transfer(4096).ok());
  }
  // ...leaves the breaker closed for the foreground path.
  EXPECT_EQ(link.breaker().state(), CircuitBreaker::State::kClosed);

  // The same failures in the foreground trip it as before.
  EXPECT_FALSE(link.Transfer(4096).ok());
  EXPECT_FALSE(link.Transfer(4096).ok());
  EXPECT_EQ(link.breaker().state(), CircuitBreaker::State::kOpen);
}

TEST(PrefetchBreakerTest, OpenBreakerStillFastFailsBackgroundTransfers) {
  SimClock clock;
  obs::MetricsRegistry registry;
  Link link = Link::Ethernet(&clock, &registry);
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  link.ConfigureBreaker(options);
  FaultProfile profile;
  profile.drop_rate = 1.0;
  FaultInjector injector(profile, 11, &clock, &registry);
  link.SetFaultInjector(&injector);
  EXPECT_FALSE(link.Transfer(4096).ok());
  EXPECT_FALSE(link.Transfer(4096).ok());
  ASSERT_EQ(link.breaker().state(), CircuitBreaker::State::kOpen);

  // Prefetching over a known-dead link is pointless: fast fail, and the
  // injector sees no more traffic.
  const uint64_t faults_before = injector.faults_injected();
  Link::BackgroundScope background(&link);
  EXPECT_TRUE(link.Transfer(4096).status().IsUnavailable());
  EXPECT_EQ(injector.faults_injected(), faults_before);
}

// --- End to end: demand paging through the workstation ------------------

class PrefetchWorkstationTest : public ::testing::Test {
 protected:
  PrefetchWorkstationTest()
      : device_("optical", 65536, 512,
                storage::DeviceCostModel::Instant(), true, &clock_),
        cache_(256),
        archiver_(&device_, &cache_),
        link_(Link::Ethernet(&clock_)),
        server_(&archiver_, &versions_, &clock_, &link_) {}

  /// A multi-page text object (one visual page per formatted text page).
  /// `keyword` makes the object findable by a query no other object
  /// matches.
  MultimediaObject PagedObject(storage::ObjectId id, int paragraphs,
                               const std::string& keyword = "") {
    MultimediaObject obj(id);
    obj.descriptor().layout.width = 48;
    obj.descriptor().layout.height = 12;
    std::string markup;
    for (int i = 0; i < paragraphs; ++i) {
      markup += ".PP\n" + (keyword.empty() ? "" : keyword + " ") +
                "hospital admission record paragraph describing the "
                "fracture treatment and recovery plan in enough words to "
                "spill across formatted pages\n";
    }
    text::MarkupParser parser;
    auto doc = parser.Parse(markup);
    EXPECT_TRUE(doc.ok());
    EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
    text::TextFormatter formatter(obj.descriptor().layout);
    const size_t pages = formatter.Paginate(obj.text_part()).value().size();
    EXPECT_GE(pages, 2u);
    for (size_t i = 0; i < pages; ++i) {
      VisualPageSpec page;
      page.text_page = static_cast<uint32_t>(i + 1);
      obj.descriptor().pages.push_back(page);
    }
    EXPECT_TRUE(obj.Archive().ok());
    return obj;
  }

  static int64_t Count(const std::string& name) {
    return static_cast<int64_t>(
        obs::MetricsRegistry::Default().counter(name)->value());
  }

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BlockCache cache_;
  storage::Archiver archiver_;
  storage::VersionStore versions_;
  Link link_;
  ObjectServer server_;
};

TEST_F(PrefetchWorkstationTest, SkeletonFetchTransfersFewerBytesThanWhole) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 10)).ok());
  const uint64_t before_whole = link_.bytes_transferred();
  ASSERT_TRUE(server_.Fetch(1, ObjectServer::FetchGranularity::kWhole).ok());
  const uint64_t whole = link_.bytes_transferred() - before_whole;
  const uint64_t before_skeleton = link_.bytes_transferred();
  ASSERT_TRUE(
      server_.Fetch(1, ObjectServer::FetchGranularity::kSkeleton).ok());
  const uint64_t skeleton = link_.bytes_transferred() - before_skeleton;
  // The skeleton defers the pageable text: strictly fewer bytes on the
  // wire at open time.
  EXPECT_LT(skeleton, whole);
  EXPECT_GT(skeleton, 0u);
}

TEST_F(PrefetchWorkstationTest, PageTurnsAfterPrefetchAreFreeHits) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 10)).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();
  const int64_t hits_before = Count("prefetch.hits");

  ASSERT_TRUE(workstation.Present(1).ok());
  core::VisualBrowser* browser = workstation.presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  // Read, turn; the background staged the next page during the read.
  for (int turn = 0; turn < 3; ++turn) {
    clock_.Advance(MillisToMicros(200));
    const Micros start = clock_.Now();
    ASSERT_TRUE(browser->NextPage().ok());
    EXPECT_LE(clock_.Now() - start, MillisToMicros(1)) << "turn " << turn;
  }
  EXPECT_GE(Count("prefetch.hits") - hits_before, 3);
}

TEST_F(PrefetchWorkstationTest, DemandPagingChargesEachRangeOnce) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 10)).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();
  ASSERT_TRUE(workstation.Present(1).ok());
  core::VisualBrowser* browser = workstation.presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  while (browser->NextPage().ok()) {
    clock_.Advance(MillisToMicros(50));
  }
  // Every page has been delivered: revisiting transfers nothing new.
  const uint64_t bytes_after_first_pass = link_.bytes_transferred();
  ASSERT_TRUE(browser->GotoPage(1).ok());
  while (browser->NextPage().ok()) {
  }
  EXPECT_EQ(link_.bytes_transferred(), bytes_after_first_pass);
}

// Satellite: a goto-page jump mid-prefetch cancels or demotes the stale
// entries and never delivers a stale page.
TEST_F(PrefetchWorkstationTest, GotoPageMidPrefetchDropsStaleEntries) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 28)).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();
  ASSERT_TRUE(workstation.Present(1).ok());
  core::VisualBrowser* browser = workstation.presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  const int last = browser->page_count();
  ASSERT_GE(last, 6);
  // Settle into forward browsing so pages 2.. are staged ahead.
  clock_.Advance(MillisToMicros(200));
  ASSERT_TRUE(browser->NextPage().ok());
  ASSERT_GT(workstation.prefetch()->ready_count() +
                workstation.prefetch()->queued_count(),
            0u);

  const int64_t dropped_before =
      Count("prefetch.wasted") + Count("prefetch.cancelled");
  ASSERT_TRUE(browser->GotoPage(last).ok());  // Random seek: a jump.
  // The speculative work around the old cursor was discarded...
  EXPECT_GT(Count("prefetch.wasted") + Count("prefetch.cancelled"),
            dropped_before);
  EXPECT_GT(Count("prefetch.wasted"), 0);
  // ...and the landing page is the real one, not a stale delivery.
  EXPECT_EQ(browser->current_page(), last);
  // Stale entries for the abandoned neighbourhood are gone from the
  // queue: nothing can deliver them any more.
  clock_.Advance(MillisToMicros(500));
  EXPECT_FALSE(workstation.prefetch()->TakePage(
      PrefetchKey{PrefetchKind::kVisualPage, 1, 2}));
}

TEST_F(PrefetchWorkstationTest, LazyQueryMaterializesCardsUnderTheCursor) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 4)).ok());
  ASSERT_TRUE(server_.Store(PagedObject(2, 4)).ok());
  ASSERT_TRUE(server_.Store(PagedObject(3, 4)).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();
  auto browser = workstation.Query({"hospital"});
  ASSERT_TRUE(browser.ok());
  ASSERT_EQ(browser->size(), 3u);
  auto current = browser->Current();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ((*current)->id, 1u);
  ASSERT_TRUE(browser->Next().ok());
  current = browser->Current();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ((*current)->id, 2u);
  EXPECT_EQ(browser->Select().value(), 2u);
}

// A card staged for one query's strip must never be delivered as the
// card of whatever object occupies the same position in the next
// query's strip (nor poison the thumb cache with the wrong thumbnail).
TEST_F(PrefetchWorkstationTest, FreshQueryNeverDeliversStaleMiniatures) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 4, "alpha")).ok());
  ASSERT_TRUE(server_.Store(PagedObject(2, 4, "beta")).ok());
  ASSERT_TRUE(server_.Store(PagedObject(3, 4, "gamma")).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();

  auto first = workstation.Query({"hospital"});
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 3u);
  // Walking the strip stages the flanking cards — including object 1's
  // card at position 0.
  ASSERT_TRUE(first->Next().ok());
  clock_.Advance(MillisToMicros(200));

  // The new strip has object 2 at position 0.
  auto second = workstation.Query({"beta"});
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 1u);
  auto card = second->Current();
  ASSERT_TRUE(card.ok());
  EXPECT_EQ((*card)->id, 2u);
}

// Re-opening an object restarts its delivery plan: the fresh skeleton
// fetch discounts the page bytes again, so entries staged during the
// previous open must not satisfy them as free hits — the second
// read-through must charge the link exactly what the first did.
TEST_F(PrefetchWorkstationTest, ReopeningAnObjectChargesItsPagesAgain) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 10)).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();

  const uint64_t before_first = link_.bytes_transferred();
  ASSERT_TRUE(workstation.Present(1).ok());
  core::VisualBrowser* browser = workstation.presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  while (browser->NextPage().ok()) {
    clock_.Advance(MillisToMicros(50));
  }
  const uint64_t first_open = link_.bytes_transferred() - before_first;

  const uint64_t before_second = link_.bytes_transferred();
  ASSERT_TRUE(workstation.Present(1).ok());
  browser = workstation.presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  while (browser->NextPage().ok()) {
    clock_.Advance(MillisToMicros(50));
  }
  EXPECT_EQ(link_.bytes_transferred() - before_second, first_open);
}

// The server outlives the workstation by contract; a retried fetch
// after the session ends must not invoke the dead queue's backoff
// sleeper (caught by ASan as a use-after-free before the fix).
TEST_F(PrefetchWorkstationTest, ServerRetriesSafelyAfterWorkstationDies) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 4)).ok());
  {
    render::Screen screen;
    Workstation workstation(&server_, &screen, &clock_);
    workstation.EnablePrefetch();
    ASSERT_TRUE(workstation.Present(1).ok());
  }
  obs::MetricsRegistry registry;
  FaultProfile profile;
  profile.drop_rate = 0.5;
  FaultInjector injector(profile, 7, &clock_, &registry);
  link_.SetFaultInjector(&injector);
  for (int i = 0; i < 10; ++i) {
    (void)server_.Fetch(1);  // Drops force retries and backoff sleeps.
  }
  link_.SetFaultInjector(nullptr);
}

}  // namespace
}  // namespace minos::server
