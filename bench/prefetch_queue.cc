// PREF-Q: PrefetchQueue bookkeeping cost. Google-benchmark measurement of
// the queue operations a 2,000-session SessionManager leans on every
// epoch: Pump over a deep queue at the pump width the session benches use
// (4096), the per-owner budget read (OutstandingBytes), releasing one
// session's footprint (CancelOwner) and eviction at ready capacity. The
// work items are empty, so only the queue's own bookkeeping is timed.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "minos/obs/metrics.h"
#include "minos/server/prefetch.h"
#include "minos/util/clock.h"

namespace minos {
namespace {

constexpr int kOwners = 2000;
constexpr int kPagesPerOwner = 2;

/// A queue over a private registry, so the process registry stays clean.
struct Fixture {
  SimClock clock;
  obs::MetricsRegistry registry;
  std::unique_ptr<server::PrefetchQueue> queue;

  Fixture(int max_inflight, size_t ready_capacity) {
    server::PrefetchOptions options;
    options.max_inflight_per_pump = max_inflight;
    options.ready_capacity = ready_capacity;
    options.registry = &registry;
    queue =
        std::make_unique<server::PrefetchQueue>(&clock, nullptr, options);
  }

  /// Page `index` of `object`, speculated by session `owner`; distances
  /// repeat so the pick order has ties to break by FIFO.
  void Want(uint64_t owner, uint64_t object, int index) {
    queue->WantPage(
        server::PrefetchKey{server::PrefetchKind::kVisualPage, object, index,
                            owner},
        1 + index % 3, [] { return Status::OK(); }, 4096 + owner % 7);
  }

  /// kPagesPerOwner queued pages for each of kOwners sessions.
  void FillOwners() {
    for (uint64_t owner = 1; owner <= kOwners; ++owner) {
      for (int page = 1; page <= kPagesPerOwner; ++page) {
        Want(owner, owner % 384, page);
      }
    }
  }
};

// Issue every queued entry in one Pump (timed), from a queue refilled
// (untimed) before each iteration.
void BM_PumpQueued(benchmark::State& state) {
  const int entries = static_cast<int>(state.range(0));
  Fixture f(4096, static_cast<size_t>(entries));
  for (auto _ : state) {
    state.PauseTiming();
    f.queue->CancelAll();
    for (int i = 0; i < entries; ++i) {
      f.Want(1 + static_cast<uint64_t>(i) % kOwners,
             static_cast<uint64_t>(i) / 4, i % 4);
    }
    state.ResumeTiming();
    f.queue->Pump();
    benchmark::DoNotOptimize(f.queue->ready_count());
  }
  state.counters["entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_PumpQueued)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// The budget read SessionManager::Speculate makes for every page.
void BM_OutstandingBytes(benchmark::State& state) {
  Fixture f(4096, kOwners * kPagesPerOwner);
  f.FillOwners();
  uint64_t owner = 0;
  for (auto _ : state) {
    owner = owner % kOwners + 1;
    benchmark::DoNotOptimize(f.queue->OutstandingBytes(owner));
  }
  state.counters["owners"] = kOwners;
}
BENCHMARK(BM_OutstandingBytes);

// A session closes (or reopens) and drops its pages; the same pages are
// then speculated again so the queue stays at 2,000 owners. Timed: one
// CancelOwner plus the owner's kPagesPerOwner WantPage calls.
void BM_CancelOwner(benchmark::State& state) {
  Fixture f(4096, kOwners * kPagesPerOwner);
  f.FillOwners();
  uint64_t owner = 0;
  for (auto _ : state) {
    owner = owner % kOwners + 1;
    f.queue->CancelOwner(owner);
    for (int page = 1; page <= kPagesPerOwner; ++page) {
      f.Want(owner, owner % 384, page);
    }
  }
  state.counters["owners"] = kOwners;
}
BENCHMARK(BM_CancelOwner);

// A queue full of ready pages at capacity: each iteration speculates one
// more page and pumps it, which issues it and evicts one victim.
void BM_EvictAtCapacity(benchmark::State& state) {
  const size_t capacity = kOwners * kPagesPerOwner;
  Fixture f(4096, capacity);
  f.FillOwners();
  f.queue->Pump();
  uint64_t next = 0;
  for (auto _ : state) {
    ++next;
    f.Want(1 + next % kOwners, 1000 + next, 1);
    f.queue->Pump();
  }
  state.counters["ready"] = static_cast<double>(f.queue->ready_count());
}
BENCHMARK(BM_EvictAtCapacity);

}  // namespace
}  // namespace minos
