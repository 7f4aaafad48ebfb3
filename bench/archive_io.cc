// ARCH-1: archive I/O wall-clock cost. Google-benchmark measurement of
// the byte path under every Store, Fetch and page stage: Archiver::Append
// of a 64 KiB and a 1 MiB image (plus the Flush that seals it), Archiver
// Read of a 1 MiB image with every block cached and with none, BlockCache
// hits and misses at 1 and 4 threads over 1 and 8 stripes, and
// DeserializeArchived of a visual and an audio object. Devices use the
// zero-cost model: only the C++ is timed.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>

#include "minos/object/multimedia_object.h"
#include "minos/storage/archiver.h"
#include "minos/storage/block_cache.h"
#include "minos/storage/block_device.h"
#include "minos/util/clock.h"
#include "minos/util/random.h"
#include "scenario_lib.h"

namespace minos {
namespace {

using storage::Archiver;
using storage::BlockCache;
using storage::BlockDevice;
using storage::DeviceCostModel;

constexpr uint32_t kBlockSize = 512;  // perfbench's device block.

std::string RandomImage(size_t bytes) {
  Random rng(7);
  std::string out(bytes, '\0');
  for (char& c : out) c = static_cast<char>(rng.Next64());
  return out;
}

std::unique_ptr<BlockDevice> Device(SimClock* clock, size_t image_bytes) {
  return std::make_unique<BlockDevice>(
      "optical", image_bytes / kBlockSize + 2, kBlockSize,
      DeviceCostModel::Instant(), /*write_once=*/true, clock);
}

// Archiving one image: each iteration appends it to a fresh write-once
// device behind perfbench's 1024-block cache, then flushes.
void BM_ArchiverAppend(benchmark::State& state) {
  const std::string image = RandomImage(static_cast<size_t>(state.range(0)));
  SimClock clock;
  BlockCache cache(1024);
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<BlockDevice> device = Device(&clock, image.size());
    cache.Clear();
    Archiver archiver(device.get(), &cache);
    state.ResumeTiming();
    benchmark::DoNotOptimize(archiver.Append(image).ok());
    benchmark::DoNotOptimize(archiver.Flush().ok());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ArchiverAppend)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

// Reading a 1 MiB image back whole. Hits: a 4096-block cache holds every
// block. Misses: sequential whole reads through a 1024-block LRU cache
// evict each block before it is read again.
void BM_ArchiverRead(benchmark::State& state) {
  const bool hits = state.range(0) == 1;
  const std::string image = RandomImage(1 << 20);
  SimClock clock;
  std::unique_ptr<BlockDevice> device = Device(&clock, image.size());
  BlockCache cache(hits ? 4096 : 1024);
  Archiver archiver(device.get(), &cache);
  const storage::ArchiveAddress addr = archiver.Append(image).value();
  (void)archiver.Flush();
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(archiver.Read(addr, &out).ok());
  }
  state.SetBytesProcessed(state.iterations() * (1 << 20));
  state.SetLabel(hits ? "all hits" : "all misses");
}
BENCHMARK(BM_ArchiverRead)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

/// A process-wide cache per stripe count, shared by a benchmark's
/// threads, its 1024 blocks of 512 bytes filled once.
BlockCache& SharedCache(int64_t stripes, bool filled) {
  auto build = [filled](size_t n) {
    auto* cache = new BlockCache(1024, nullptr, n);
    for (uint64_t b = 0; filled && b < 1024; ++b) {
      cache->Insert(b, std::string(kBlockSize, 'x'));
    }
    return cache;
  };
  static BlockCache* const hit1 = build(1);
  static BlockCache* const hit8 = build(8);
  static BlockCache* const miss1 = build(1);
  static BlockCache* const miss8 = build(8);
  if (filled) return stripes == 1 ? *hit1 : *hit8;
  return stripes == 1 ? *miss1 : *miss8;
}

// A hit appends the whole 512-byte block, as a cached archiver read does.
void BM_BlockCacheHit(benchmark::State& state) {
  BlockCache& cache = SharedCache(state.range(0), /*filled=*/true);
  std::string out;
  out.reserve(kBlockSize);
  uint64_t block = static_cast<uint64_t>(state.thread_index()) * 257;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(cache.Lookup(block++ % 1024, 0, kBlockSize,
                                          &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockCacheHit)->Arg(1)->Arg(8)->Threads(1)->Threads(4);

// A miss is what an archiver read pays on a cold block apart from the
// device: the failed lookup, then the insert that evicts the LRU block.
// Each thread walks its own never-repeating block numbers.
void BM_BlockCacheMiss(benchmark::State& state) {
  BlockCache& cache = SharedCache(state.range(0), /*filled=*/false);
  uint64_t block = (static_cast<uint64_t>(state.thread_index()) + 1) << 40;
  for (auto _ : state) {
    if (!cache.Lookup(block, 0, kBlockSize, nullptr)) {
      cache.Insert(block, std::string(kBlockSize, 'x'));
    }
    ++block;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockCacheMiss)->Arg(1)->Arg(8)->Threads(1)->Threads(4);

void RunDeserializeArchived(benchmark::State& state,
                            const object::MultimediaObject& obj) {
  const std::string bytes = obj.SerializeArchived().value();
  for (auto _ : state) {
    auto decoded = object::MultimediaObject::DeserializeArchived(1, bytes);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}

// The Figures 1-2 object: text pages, a subway map and an x-ray bitmap.
void BM_DeserializeArchivedVisual(benchmark::State& state) {
  RunDeserializeArchived(state, bench::BuildVisualPagesObject(1));
}
BENCHMARK(BM_DeserializeArchivedVisual)->Unit(benchmark::kMicrosecond);

// An audio-mode object whose only content part is bench::SpokenReport().
void BM_DeserializeArchivedAudio(benchmark::State& state) {
  object::MultimediaObject obj(1);
  obj.descriptor().driving_mode = object::DrivingMode::kAudio;
  (void)obj.SetVoicePart(bench::SpokenReport());
  (void)obj.Archive();
  RunDeserializeArchived(state, obj);
}
BENCHMARK(BM_DeserializeArchivedAudio)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace minos
