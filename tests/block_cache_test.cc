#include "minos/storage/block_cache.h"

#include <gtest/gtest.h>

namespace minos::storage {
namespace {

/// The whole cached payload, as a copy-out lookup would return it.
bool LookupAll(BlockCache& cache, uint64_t block, std::string* out) {
  out->clear();
  return cache.Lookup(block, 0, std::string::npos, out);
}

TEST(BlockCacheTest, MissOnEmpty) {
  BlockCache cache(4);
  std::string out;
  EXPECT_FALSE(LookupAll(cache, 1, &out));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(BlockCacheTest, HitAfterInsert) {
  BlockCache cache(4);
  cache.Insert(1, "payload");
  std::string out;
  ASSERT_TRUE(LookupAll(cache, 1, &out));
  EXPECT_EQ(out, "payload");
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  BlockCache cache(2);
  cache.Insert(1, "a");
  cache.Insert(2, "b");
  std::string out;
  ASSERT_TRUE(LookupAll(cache, 1, &out));  // 1 is now MRU.
  cache.Insert(3, "c");                // Evicts 2.
  EXPECT_TRUE(LookupAll(cache, 1, &out));
  EXPECT_FALSE(LookupAll(cache, 2, &out));
  EXPECT_TRUE(LookupAll(cache, 3, &out));
}

TEST(BlockCacheTest, InsertRefreshesExisting) {
  BlockCache cache(2);
  cache.Insert(1, "a");
  cache.Insert(2, "b");
  cache.Insert(1, "a2");  // Refresh 1; 2 becomes LRU.
  cache.Insert(3, "c");   // Evicts 2.
  std::string out;
  ASSERT_TRUE(LookupAll(cache, 1, &out));
  EXPECT_EQ(out, "a2");
  EXPECT_FALSE(LookupAll(cache, 2, &out));
}

TEST(BlockCacheTest, ZeroCapacityNeverStores) {
  BlockCache cache(0);
  cache.Insert(1, "a");
  std::string out;
  EXPECT_FALSE(LookupAll(cache, 1, &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BlockCacheTest, EraseRemoves) {
  BlockCache cache(4);
  cache.Insert(1, "a");
  cache.Erase(1);
  std::string out;
  EXPECT_FALSE(LookupAll(cache, 1, &out));
  cache.Erase(99);  // Erasing a missing key is a no-op.
}

TEST(BlockCacheTest, ClearRemovesEverything) {
  BlockCache cache(4);
  cache.Insert(1, "a");
  cache.Insert(2, "b");
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  std::string out;
  EXPECT_FALSE(LookupAll(cache, 1, &out));
}

TEST(BlockCacheTest, HitRateComputed) {
  BlockCache cache(4);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.0);
  cache.Insert(1, "a");
  std::string out;
  LookupAll(cache, 1, &out);
  LookupAll(cache, 2, &out);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(BlockCacheTest, SizeNeverExceedsCapacity) {
  BlockCache cache(8);
  for (uint64_t i = 0; i < 100; ++i) cache.Insert(i, "x");
  EXPECT_EQ(cache.size(), 8u);
}

TEST(BlockCacheTest, LookupAppendsTheRequestedSlice) {
  BlockCache cache(4);
  cache.Insert(1, "0123456789");
  std::string out = "head:";
  ASSERT_TRUE(cache.Lookup(1, 3, 4, &out));
  EXPECT_EQ(out, "head:3456");
  ASSERT_TRUE(cache.Lookup(1, 8, 100, &out));  // Clamped to the payload.
  EXPECT_EQ(out, "head:345689");
  EXPECT_FALSE(cache.Lookup(2, 0, 4, &out));
  EXPECT_EQ(out, "head:345689");  // A miss appends nothing.
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCacheTest, TouchCountsAndRefreshesLikeACopyingLookup) {
  BlockCache touched(2);
  BlockCache copied(2);
  for (BlockCache* cache : {&touched, &copied}) {
    cache->Insert(1, "a");
    cache->Insert(2, "b");
  }
  std::string out;
  EXPECT_TRUE(touched.Lookup(1, 0, 1, nullptr));  // 1 is now MRU.
  EXPECT_FALSE(touched.Lookup(9, 0, 1, nullptr));
  EXPECT_TRUE(LookupAll(copied, 1, &out));
  EXPECT_FALSE(LookupAll(copied, 9, &out));
  for (BlockCache* cache : {&touched, &copied}) {
    cache->Insert(3, "c");  // Evicts 2 in both.
    EXPECT_EQ(cache->hits(), 1u);
    EXPECT_EQ(cache->misses(), 1u);
    EXPECT_EQ(cache->evictions(), 1u);
    EXPECT_TRUE(LookupAll(*cache, 1, &out));
    EXPECT_FALSE(LookupAll(*cache, 2, &out));
  }
}

}  // namespace
}  // namespace minos::storage
