// The archiver: its addressing and read-back contract, a differential
// check of the linear append and one-copy read paths against a verbatim
// copy of the quadratic-append, copy-per-block archiver they replaced
// (device bytes, cache contents and counters, clock and bytes read all
// equal), and its fault behaviour: a device that fills or fails part-way
// through an append, touch reads, poisoned cache blocks and archival
// bytes whose part pointers run past the composition data.

#include "minos/storage/archiver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "minos/format/archive_mailer.h"
#include "minos/object/multimedia_object.h"
#include "minos/server/object_server.h"
#include "minos/storage/version_store.h"
#include "minos/text/markup.h"
#include "minos/util/coding.h"
#include "minos/util/random.h"
#include "minos/voice/synthesizer.h"

namespace minos::storage {
namespace {

class ArchiverTest : public ::testing::Test {
 protected:
  ArchiverTest()
      : device_("optical", 1024, 32, DeviceCostModel::Instant(),
                /*write_once=*/true, &clock_),
        cache_(16),
        archiver_(&device_, &cache_) {}

  SimClock clock_;
  BlockDevice device_;
  BlockCache cache_;
  Archiver archiver_;
};

TEST_F(ArchiverTest, AppendAssignsSequentialAddresses) {
  auto a = archiver_.Append("hello");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->offset, 0u);
  EXPECT_EQ(a->length, 5u);
  auto b = archiver_.Append("world!");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->offset, 5u);
  EXPECT_EQ(b->length, 6u);
  EXPECT_EQ(archiver_.size(), 11u);
}

TEST_F(ArchiverTest, ReadBackBeforeFlush) {
  auto a = archiver_.Append("unflushed tail data");
  ASSERT_TRUE(a.ok());
  std::string out;
  ASSERT_TRUE(archiver_.Read(*a, &out).ok());
  EXPECT_EQ(out, "unflushed tail data");
}

TEST_F(ArchiverTest, ReadBackAfterFlush) {
  auto a = archiver_.Append("persisted");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(archiver_.Flush().ok());
  std::string out;
  ASSERT_TRUE(archiver_.Read(*a, &out).ok());
  EXPECT_EQ(out, "persisted");
}

TEST_F(ArchiverTest, LargeAppendSpansBlocks) {
  const std::string big(200, 'z');  // > 6 blocks of 32.
  auto a = archiver_.Append(big);
  ASSERT_TRUE(a.ok());
  std::string out;
  ASSERT_TRUE(archiver_.Read(*a, &out).ok());
  EXPECT_EQ(out, big);
  EXPECT_GT(device_.blocks_used(), 5u);
}

TEST_F(ArchiverTest, ReadRangeWithinAppend) {
  const std::string payload = "0123456789abcdefghijklmnopqrstuvwxyz";
  auto a = archiver_.Append(payload);
  ASSERT_TRUE(a.ok());
  std::string out;
  ASSERT_TRUE(archiver_.ReadRange(10, 6, &out).ok());
  EXPECT_EQ(out, "abcdef");
}

TEST_F(ArchiverTest, ReadPastEndRejected) {
  archiver_.Append("short");
  std::string out;
  EXPECT_TRUE(archiver_.ReadRange(0, 100, &out).IsOutOfRange());
}

TEST_F(ArchiverTest, EmptyReadIsOk) {
  std::string out = "junk";
  ASSERT_TRUE(archiver_.ReadRange(0, 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(ArchiverTest, FlushAlignsNextAppendToBlock) {
  auto a = archiver_.Append("x");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(archiver_.Flush().ok());
  auto b = archiver_.Append("y");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->offset % 32, 0u);  // Starts on a fresh WORM block.
  std::string out;
  ASSERT_TRUE(archiver_.Read(*b, &out).ok());
  EXPECT_EQ(out, "y");
}

TEST_F(ArchiverTest, DoubleFlushIsIdempotent) {
  archiver_.Append("data");
  ASSERT_TRUE(archiver_.Flush().ok());
  ASSERT_TRUE(archiver_.Flush().ok());  // No tail: no-op.
}

TEST_F(ArchiverTest, CacheAvoidsDeviceReads) {
  const std::string payload(64, 'q');  // Exactly 2 blocks.
  auto a = archiver_.Append(payload);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(archiver_.Flush().ok());
  device_.ResetStats();
  std::string out;
  // Blocks were cached at write time; reads should hit the cache.
  ASSERT_TRUE(archiver_.Read(*a, &out).ok());
  EXPECT_EQ(device_.stats().reads, 0u);
  EXPECT_EQ(out.substr(0, 64), payload);
}

TEST_F(ArchiverTest, WorksWithoutCache) {
  SimClock clock;
  BlockDevice dev("d", 64, 32, DeviceCostModel::Instant(), true, &clock);
  Archiver archiver(&dev, nullptr);
  auto a = archiver.Append("no cache here");
  ASSERT_TRUE(a.ok());
  std::string out;
  ASSERT_TRUE(archiver.Read(*a, &out).ok());
  EXPECT_EQ(out, "no cache here");
}

TEST_F(ArchiverTest, ManySmallAppendsRoundTrip) {
  std::vector<ArchiveAddress> addrs;
  for (int i = 0; i < 50; ++i) {
    auto a = archiver_.Append("item-" + std::to_string(i));
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  for (int i = 0; i < 50; ++i) {
    std::string out;
    ASSERT_TRUE(archiver_.Read(addrs[static_cast<size_t>(i)], &out).ok());
    EXPECT_EQ(out, "item-" + std::to_string(i));
  }
}

// --- The parent archiver, kept verbatim as the reference ---------------

/// Append, Flush and the read path of the archiver that appended through
/// its tail string (erasing each written block from its front) and read
/// every block whole before slicing it. The one edit: the cache's
/// copy-out lookup is written as a whole-payload Lookup into a cleared
/// string, which has the same hit, miss and recency effects.
class ParentArchiver {
 public:
  ParentArchiver(BlockDevice* device, BlockCache* cache)
      : device_(device), cache_(cache) {}

  StatusOr<ArchiveAddress> Append(std::string_view bytes) {
    const uint32_t bs = device_->block_size();
    ArchiveAddress addr{size_, bytes.size()};
    tail_.append(bytes);
    size_ += bytes.size();
    // Write out every full block accumulated in the tail.
    while (tail_.size() >= bs) {
      MINOS_RETURN_IF_ERROR(device_->Write(
          flushed_blocks_, std::string_view(tail_).substr(0, bs)));
      if (cache_ != nullptr) {
        cache_->Insert(flushed_blocks_, tail_.substr(0, bs));
      }
      tail_.erase(0, bs);
      ++flushed_blocks_;
    }
    return addr;
  }

  Status Flush() {
    if (tail_.empty()) return Status::OK();
    const uint32_t bs = device_->block_size();
    std::string padded = tail_;
    padded.resize(bs, '\0');
    MINOS_RETURN_IF_ERROR(device_->Write(flushed_blocks_, padded));
    if (cache_ != nullptr) cache_->Insert(flushed_blocks_, padded);
    size_ = (flushed_blocks_ + 1) * static_cast<uint64_t>(bs);
    ++flushed_blocks_;
    tail_.clear();
    return Status::OK();
  }

  Status ReadRange(uint64_t offset, uint64_t length, std::string* out) const {
    return ReadRangeImpl(offset, length, out, /*use_cache=*/true);
  }

  Status ReadUncached(const ArchiveAddress& address, std::string* out) const {
    return ReadRangeImpl(address.offset, address.length, out,
                         /*use_cache=*/false);
  }

  uint64_t size() const { return size_; }

 private:
  bool CacheLookup(uint64_t block, std::string* out) const {
    out->clear();
    return cache_->Lookup(block, 0, std::string::npos, out);
  }

  Status ReadBlockFromDevice(uint64_t block, std::string* out,
                             bool use_cache) const {
    if (use_cache && cache_ != nullptr && CacheLookup(block, out)) {
      return Status::OK();
    }
    if (block >= flushed_blocks_) {
      // Block only exists in the volatile tail.
      const uint32_t bs = device_->block_size();
      const uint64_t tail_start = flushed_blocks_ * bs;
      const uint64_t rel = block * static_cast<uint64_t>(bs) - tail_start;
      out->assign(bs, '\0');
      if (rel < tail_.size()) {
        const size_t n = std::min<size_t>(bs, tail_.size() - rel);
        out->replace(0, n, tail_, rel, n);
      }
      return Status::OK();
    }
    MINOS_RETURN_IF_ERROR(device_->Read(block, 1, out));
    if (use_cache && cache_ != nullptr) cache_->Insert(block, *out);
    return Status::OK();
  }

  Status ReadRangeImpl(uint64_t offset, uint64_t length, std::string* out,
                       bool use_cache) const {
    out->clear();
    if (length == 0) return Status::OK();
    if (offset + length > size_) {
      return Status::OutOfRange("archiver read past end");
    }
    const uint32_t bs = device_->block_size();
    const uint64_t first = offset / bs;
    const uint64_t last = (offset + length - 1) / bs;
    std::string block;
    for (uint64_t b = first; b <= last; ++b) {
      MINOS_RETURN_IF_ERROR(ReadBlockFromDevice(b, &block, use_cache));
      uint64_t lo = (b == first) ? offset - first * bs : 0;
      uint64_t hi = (b == last) ? offset + length - last * bs : bs;
      out->append(block, lo, hi - lo);
    }
    return Status::OK();
  }

  BlockDevice* device_;
  BlockCache* cache_;
  uint64_t size_ = 0;
  uint64_t flushed_blocks_ = 0;
  std::string tail_;
};

// --- Differential harness ----------------------------------------------

/// A seek-charging write-once device with its own clock, and an optional
/// block cache (none when `cache_blocks` is 0).
struct Rig {
  Rig(uint64_t blocks, uint32_t block_size, size_t cache_blocks)
      : device("optical", blocks, block_size, DeviceCostModel::OpticalDisk(),
               /*write_once=*/true, &clock) {
    if (cache_blocks > 0) cache.emplace(cache_blocks);
  }

  BlockCache* cache_ptr() { return cache.has_value() ? &*cache : nullptr; }

  SimClock clock;
  BlockDevice device;
  std::optional<BlockCache> cache;
};

std::string RandomBytes(Random& rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Next64());
  return out;
}

/// Clock, device statistics and cache counters agree.
void ExpectSameCounters(const Rig& got, const Rig& want) {
  EXPECT_EQ(got.clock.Now(), want.clock.Now());
  const DeviceStats& g = got.device.stats();
  const DeviceStats& w = want.device.stats();
  EXPECT_EQ(g.reads, w.reads);
  EXPECT_EQ(g.writes, w.writes);
  EXPECT_EQ(g.blocks_read, w.blocks_read);
  EXPECT_EQ(g.blocks_written, w.blocks_written);
  EXPECT_EQ(g.busy_time, w.busy_time);
  EXPECT_EQ(g.seeks, w.seeks);
  EXPECT_EQ(got.device.blocks_used(), want.device.blocks_used());
  EXPECT_EQ(got.device.head_position(), want.device.head_position());
  ASSERT_EQ(got.cache.has_value(), want.cache.has_value());
  if (!got.cache.has_value()) return;
  EXPECT_EQ(got.cache->hits(), want.cache->hits());
  EXPECT_EQ(got.cache->misses(), want.cache->misses());
  EXPECT_EQ(got.cache->evictions(), want.cache->evictions());
  EXPECT_EQ(got.cache->size(), want.cache->size());
}

/// Every cached block and every written device block holds the same
/// bytes. Probes both rigs identically, so they stay comparable.
void ExpectSameStoredBlocks(Rig& got, Rig& want) {
  const uint64_t blocks = want.device.blocks_used();
  for (uint64_t b = 0; b <= blocks; ++b) {
    if (got.cache.has_value()) {
      std::string g, w;
      const bool g_hit = got.cache->Lookup(b, 0, std::string::npos, &g);
      const bool w_hit = want.cache->Lookup(b, 0, std::string::npos, &w);
      EXPECT_EQ(g_hit, w_hit) << "cached block " << b;
      EXPECT_EQ(g, w) << "cached block " << b;
    }
    if (b < blocks) {
      std::string g, w;
      ASSERT_TRUE(got.device.Read(b, 1, &g).ok());
      ASSERT_TRUE(want.device.Read(b, 1, &w).ok());
      EXPECT_EQ(g, w) << "device block " << b;
    }
  }
  ExpectSameCounters(got, want);
}

/// An append length from 0 bytes to several blocks, often on or next to
/// a block boundary.
size_t AppendLength(Random& rng, uint32_t bs) {
  switch (rng.Uniform(4)) {
    case 0:
      return rng.Uniform(bs);
    case 1:
      return bs * rng.Uniform(4);
    case 2:
      return bs * (1 + rng.Uniform(3)) + rng.Uniform(3) - 1;
    default:
      return rng.Uniform(5 * bs + 1);
  }
}

TEST(ArchiverDifferentialTest, MatchesTheParentOnSeededAppendsFlushesReads) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    const uint32_t bs = seed % 2 == 0 ? 32 : 512;
    const size_t cache_blocks = seed % 3 == 0 ? 0 : 4 + rng.Uniform(12);
    Rig now(4096, bs, cache_blocks);
    Rig was(4096, bs, cache_blocks);
    Archiver archiver(&now.device, now.cache_ptr());
    ParentArchiver parent(&was.device, was.cache_ptr());
    for (int op = 0; op < 300; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const uint64_t kind = rng.Uniform(10);
      if (kind < 4) {
        const std::string bytes = RandomBytes(rng, AppendLength(rng, bs));
        StatusOr<ArchiveAddress> got = archiver.Append(bytes);
        StatusOr<ArchiveAddress> want = parent.Append(bytes);
        ASSERT_EQ(got.status().ToString(), want.status().ToString());
        if (want.ok()) {
          EXPECT_EQ(*got, *want);
        }
      } else if (kind == 4) {
        ASSERT_EQ(archiver.Flush().ToString(), parent.Flush().ToString());
      } else {
        // A read inside the image, empty, or one byte past its end.
        const uint64_t size = parent.size();
        const uint64_t offset = size == 0 ? 0 : rng.Uniform(size);
        const uint64_t length = rng.Uniform(size - offset + 2);
        std::string got = "stale";
        std::string want = "stale";
        Status got_status;
        Status want_status;
        if (kind == 9) {
          got_status = archiver.ReadUncached({offset, length}, &got);
          want_status = parent.ReadUncached({offset, length}, &want);
        } else {
          got_status = archiver.ReadRange(offset, length, &got);
          want_status = parent.ReadRange(offset, length, &want);
        }
        ASSERT_EQ(got_status.ToString(), want_status.ToString());
        EXPECT_EQ(got, want);
      }
      ASSERT_EQ(archiver.size(), parent.size());
      ExpectSameCounters(now, was);
      if (HasFailure()) return;
    }
    ExpectSameStoredBlocks(now, was);
  }
}

TEST(ArchiverDifferentialTest, TouchMovesTheCountersAReadMoves) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    const uint32_t bs = 32;
    Rig touched(4096, bs, 6);
    Rig copied(4096, bs, 6);
    Archiver toucher(&touched.device, touched.cache_ptr());
    Archiver reader(&copied.device, copied.cache_ptr());
    for (int op = 0; op < 200; ++op) {
      if (rng.Uniform(3) == 0) {
        const std::string bytes = RandomBytes(rng, AppendLength(rng, bs));
        ASSERT_TRUE(toucher.Append(bytes).ok());
        ASSERT_TRUE(reader.Append(bytes).ok());
        if (rng.Bernoulli(0.2)) {
          ASSERT_TRUE(toucher.Flush().ok());
          ASSERT_TRUE(reader.Flush().ok());
        }
        continue;
      }
      const uint64_t size = reader.size();
      const uint64_t offset = size == 0 ? 0 : rng.Uniform(size);
      const uint64_t length = rng.Uniform(size - offset + 2);
      std::string bytes;
      EXPECT_EQ(toucher.TouchRange(offset, length).ToString(),
                reader.ReadRange(offset, length, &bytes).ToString());
      ExpectSameCounters(touched, copied);
      if (HasFailure()) return;
    }
    ExpectSameStoredBlocks(touched, copied);
  }
}

// --- Faults ------------------------------------------------------------

/// Appends `prefix` then `bytes` to both archivers and checks they agree
/// on the outcome, and afterwards on every byte of the image, a further
/// append and a flush.
void AppendBothAndCompare(Archiver& archiver, ParentArchiver& parent,
                          Rig& now, Rig& was, const std::string& prefix,
                          const std::string& bytes) {
  ASSERT_EQ(archiver.Append(prefix).status().ToString(),
            parent.Append(prefix).status().ToString());
  const StatusOr<ArchiveAddress> got = archiver.Append(bytes);
  const StatusOr<ArchiveAddress> want = parent.Append(bytes);
  ASSERT_EQ(got.status().ToString(), want.status().ToString());
  auto same_image = [&] {
    ASSERT_EQ(archiver.size(), parent.size());
    std::string g, w;
    EXPECT_EQ(archiver.ReadRange(0, parent.size(), &g).ToString(),
              parent.ReadRange(0, parent.size(), &w).ToString());
    EXPECT_EQ(g, w);
    ExpectSameCounters(now, was);
  };
  same_image();
  // Later appends retry the unwritten blocks exactly as the parent does.
  ASSERT_EQ(archiver.Append("after").status().ToString(),
            parent.Append("after").status().ToString());
  same_image();
  ASSERT_EQ(archiver.Flush().ToString(), parent.Flush().ToString());
  same_image();
  ExpectSameStoredBlocks(now, was);
}

TEST(ArchiverFaultTest, DeviceFillingPartWayThroughAnAppendEndsAsTheParent) {
  const uint32_t bs = 32;
  Random rng(17);
  int overfull = 0;
  for (uint64_t blocks = 1; blocks <= 6; ++blocks) {
    for (size_t prefix : {0, 1, 17, 31}) {
      for (size_t len : {0, 1, 31, 32, 33, 64, 100, 250}) {
        SCOPED_TRACE(std::to_string(blocks) + " blocks, prefix " +
                     std::to_string(prefix) + ", append " +
                     std::to_string(len));
        Rig now(blocks, bs, 4);
        Rig was(blocks, bs, 4);
        Archiver archiver(&now.device, now.cache_ptr());
        ParentArchiver parent(&was.device, was.cache_ptr());
        AppendBothAndCompare(archiver, parent, now, was,
                             RandomBytes(rng, prefix), RandomBytes(rng, len));
        if (HasFailure()) return;
        if (parent.size() > blocks * bs) ++overfull;
      }
    }
  }
  EXPECT_GT(overfull, 50);  // Most cases do run off the device.
}

TEST(ArchiverFaultTest, FailedWriteKeepsTheParentsTailAndWriteHead) {
  const uint32_t bs = 32;
  Random rng(23);
  for (int fail_at = 0; fail_at < 6; ++fail_at) {
    for (size_t prefix : {0, 5, 31}) {
      SCOPED_TRACE("write " + std::to_string(fail_at) + " fails, prefix " +
                   std::to_string(prefix));
      Rig now(256, bs, 4);
      Rig was(256, bs, 4);
      for (Rig* rig : {&now, &was}) {
        rig->device.SetWriteFaultHook(
            [fail_at, writes = 0](uint64_t, std::string*) mutable {
              // Two failures one write apart: the retrying append writes
              // a left-behind block, then fails on the next.
              const int n = writes++;
              return n == fail_at || n == fail_at + 2
                         ? Status::Internal("injected media error")
                         : Status::OK();
            });
      }
      Archiver archiver(&now.device, now.cache_ptr());
      ParentArchiver parent(&was.device, was.cache_ptr());
      AppendBothAndCompare(archiver, parent, now, was,
                           RandomBytes(rng, prefix), RandomBytes(rng, 200));
      if (HasFailure()) return;
    }
  }
}

TEST(ArchiverFaultTest, CorruptingReadHookPoisonsTheCacheAsAtTheParent) {
  Rig now(64, 32, 8);
  Rig was(64, 32, 8);
  Archiver archiver(&now.device, now.cache_ptr());
  ParentArchiver parent(&was.device, was.cache_ptr());
  Random rng(31);
  const std::string image = RandomBytes(rng, 200);
  ASSERT_TRUE(archiver.Append(image).ok());
  ASSERT_TRUE(parent.Append(image).ok());
  ASSERT_TRUE(archiver.Flush().ok());
  ASSERT_TRUE(parent.Flush().ok());
  for (Rig* rig : {&now, &was}) {
    rig->cache->Clear();
    rig->device.SetReadFaultHook([](uint64_t, uint64_t, std::string* out) {
      (*out)[5] = static_cast<char>((*out)[5] ^ 0x5A);
      return Status::OK();
    });
  }
  std::string got, want;
  ASSERT_TRUE(archiver.ReadRange(10, 150, &got).ok());
  ASSERT_TRUE(parent.ReadRange(10, 150, &want).ok());
  EXPECT_EQ(got, want);
  EXPECT_NE(got, image.substr(10, 150));  // Byte 5 of blocks 1-4 flipped.
  ExpectSameCounters(now, was);

  // With the hook gone the poisoned blocks still come back from the
  // cache, not the device.
  const uint64_t reads = now.device.stats().reads;
  for (Rig* rig : {&now, &was}) rig->device.SetReadFaultHook(nullptr);
  ASSERT_TRUE(archiver.ReadRange(10, 150, &got).ok());
  ASSERT_TRUE(parent.ReadRange(10, 150, &want).ok());
  EXPECT_EQ(got, want);
  EXPECT_EQ(now.device.stats().reads, reads);
  ExpectSameStoredBlocks(now, was);

  // A media error caches nothing, at either.
  for (Rig* rig : {&now, &was}) {
    rig->cache->Clear();
    rig->device.SetReadFaultHook([](uint64_t, uint64_t, std::string*) {
      return Status::Internal("media error");
    });
  }
  EXPECT_EQ(archiver.ReadRange(40, 80, &got).ToString(),
            parent.ReadRange(40, 80, &want).ToString());
  EXPECT_EQ(archiver.TouchRange(40, 80).ToString(),
            parent.ReadRange(40, 80, &want).ToString());
  EXPECT_EQ(now.cache->size(), 0u);
  ExpectSameCounters(now, was);
}

/// An audio-mode object: a text part, a voice part and attributes.
object::MultimediaObject SpokenObject(ObjectId id) {
  object::MultimediaObject obj(id);
  text::MarkupParser parser;
  auto doc = parser.Parse(
      ".TITLE Ward Round\n.PP\nThe patient in bed four was seen today. "
      "Fluids were continued and the dressing was changed.\n");
  EXPECT_TRUE(doc.ok());
  voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
  auto track = synth.Synthesize(*doc);
  EXPECT_TRUE(track.ok());
  EXPECT_TRUE(
      obj.SetVoicePart(voice::VoiceDocument(std::move(track).value())).ok());
  EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  EXPECT_TRUE(obj.SetAttribute("ward", "four").ok());
  obj.descriptor().driving_mode = object::DrivingMode::kAudio;
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

/// The descriptor at the front of archival `bytes`, and the composition
/// file after it.
std::pair<object::ObjectDescriptor, std::string> SplitArchival(
    const std::string& bytes) {
  Decoder dec(bytes);
  std::string desc_bytes;
  EXPECT_TRUE(dec.GetLengthPrefixed(&desc_bytes).ok());
  std::string comp;
  EXPECT_TRUE(dec.GetRaw(dec.remaining(), &comp).ok());
  return {object::ObjectDescriptor::Deserialize(desc_bytes).value(), comp};
}

/// Archive-absolute position of the middle byte of part `name` of an
/// object archived as `bytes` at `addr`.
uint64_t PartMiddle(const std::string& bytes, ArchiveAddress addr,
                    std::string_view name) {
  const auto [desc, comp] = SplitArchival(bytes);
  uint64_t data_len = 0;
  for (const object::PartPointer& p : desc.parts) data_len += p.length;
  const object::PartPointer part = desc.FindPart(name).value();
  return addr.offset + (bytes.size() - data_len) + part.offset +
         part.length / 2;
}

TEST(ArchiverFaultTest, PoisonedCacheBlockFailsOrSalvagesTheNextFetch) {
  // A byte flipped on the first device read of one block lands in the
  // cache; every retry reads the poisoned block back. A bad voice part
  // is salvaged (the object presents without it); a bad text part has
  // no fallback and the fetch reports Corruption.
  for (const char* part : {"voice", "text"}) {
    SCOPED_TRACE(part);
    SimClock clock;
    BlockDevice device("optical", 65536, 512, DeviceCostModel::Instant(),
                       /*write_once=*/true, &clock);
    BlockCache cache(256);
    Archiver archiver(&device, &cache);
    VersionStore versions;
    server::ObjectServer server(&archiver, &versions, &clock, nullptr);
    const object::MultimediaObject obj = SpokenObject(5);
    const std::string bytes = obj.SerializeArchived().value();
    const ArchiveAddress addr = server.Store(obj).value();
    const uint64_t target = PartMiddle(bytes, addr, part);
    cache.Clear();
    int poisoned = 0;
    device.SetReadFaultHook([&](uint64_t block, uint64_t, std::string* out) {
      if (block == target / 512 && poisoned++ == 0) {
        char& c = (*out)[target % 512];
        c = static_cast<char>(c ^ 0x21);
      }
      return Status::OK();
    });
    StatusOr<object::MultimediaObject> fetched = server.Fetch(5);
    EXPECT_EQ(poisoned, 1);  // Read off the device once, then cached.
    if (std::string_view(part) == "voice") {
      ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
      EXPECT_FALSE(fetched->has_voice());
      EXPECT_TRUE(fetched->has_text());
    } else {
      EXPECT_TRUE(fetched.status().IsCorruption())
          << fetched.status().ToString();
    }
    device.SetReadFaultHook(nullptr);
  }
}

TEST(ArchiverTouchTest, StagingAColdPartReadsEachBlockOnceThenHits) {
  SimClock clock;
  BlockDevice device("optical", 65536, 512, DeviceCostModel::Instant(),
                     /*write_once=*/true, &clock);
  BlockCache cache(256);
  Archiver archiver(&device, &cache);
  VersionStore versions;
  server::ObjectServer server(&archiver, &versions, &clock, nullptr);
  ASSERT_TRUE(server.Store(SpokenObject(3)).ok());
  cache.Clear();
  const uint64_t misses = cache.misses();
  const uint64_t read_before = device.stats().blocks_read;
  const uint64_t length = server.PartLength(3, "voice").value();
  ASSERT_TRUE(server.StagePartRange(3, "voice", 0, length).ok());
  const uint64_t staged = device.stats().blocks_read - read_before;
  EXPECT_GE(staged, length / 512);
  EXPECT_EQ(cache.misses() - misses, staged);
  const uint64_t hits = cache.hits();
  ASSERT_TRUE(server.StagePartRange(3, "voice", 0, length).ok());
  EXPECT_EQ(device.stats().blocks_read - read_before, staged);
  EXPECT_EQ(cache.hits() - hits, staged);
}

TEST(ArchiverFaultTest, PartPointerPastTheCompositionDataIsOutOfRange) {
  const object::MultimediaObject obj = SpokenObject(9);
  const std::string bytes = obj.SerializeArchived().value();
  const auto [desc, comp] = SplitArchival(bytes);
  SimClock clock;
  BlockDevice device("optical", 64, 512, DeviceCostModel::Instant(),
                     /*write_once=*/true, &clock);
  Archiver archiver(&device, nullptr);
  VersionStore versions;
  format::ArchiveMailer mailer(&archiver, &versions, &clock);
  for (size_t i = 0; i < desc.parts.size(); ++i) {
    for (bool grow_offset : {false, true}) {
      SCOPED_TRACE(desc.parts[i].name + (grow_offset ? " offset" : " length"));
      object::ObjectDescriptor bad = desc;
      (grow_offset ? bad.parts[i].offset : bad.parts[i].length) +=
          comp.size();
      std::string archival;
      PutLengthPrefixed(&archival, bad.Serialize());
      archival += comp;
      EXPECT_TRUE(object::MultimediaObject::DeserializeArchived(9, archival)
                      .status()
                      .IsOutOfRange());
      object::MultimediaObject::PartSalvageReport report;
      EXPECT_TRUE(object::MultimediaObject::DeserializeArchivedLenient(
                      9, archival, &report)
                      .status()
                      .IsOutOfRange());
      // Without archiver pointers the bytes pass through unresolved.
      StatusOr<std::string> resolved = mailer.ResolvePointers(archival);
      ASSERT_TRUE(resolved.ok());
      EXPECT_EQ(*resolved, archival);
    }
  }
  // The catalog is still validated on the way through: a truncated
  // composition file is Corruption, resolved or decoded.
  const std::string truncated = bytes.substr(0, bytes.size() - 1);
  EXPECT_TRUE(mailer.ResolvePointers(truncated).status().IsCorruption());
  EXPECT_TRUE(object::MultimediaObject::DeserializeArchived(9, truncated)
                  .status()
                  .IsCorruption());
}

}  // namespace
}  // namespace minos::storage

