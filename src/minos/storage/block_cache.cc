#include "minos/storage/block_cache.h"

#include <algorithm>

namespace minos::storage {

BlockCache::BlockCache(size_t capacity_blocks,
                       obs::MetricsRegistry* registry, size_t stripes)
    : capacity_(capacity_blocks),
      shards_(std::max<size_t>(stripes, 1)) {
  // Split the budget evenly; remainder blocks go to the low stripes so
  // the total always equals `capacity_blocks`.
  const size_t n = shards_.size();
  for (size_t i = 0; i < n; ++i) {
    shards_[i].capacity = capacity_blocks / n + (i < capacity_blocks % n);
  }
  obs::MetricsRegistry& reg =
      registry != nullptr ? *registry : obs::MetricsRegistry::Default();
  const std::string scope = reg.MakeScope("block_cache");
  hits_ = reg.counter(scope + ".hits");
  misses_ = reg.counter(scope + ".misses");
  evictions_ = reg.counter(scope + ".evictions");
}

bool BlockCache::Lookup(uint64_t block, size_t offset, size_t length,
                        std::string* out) {
  Shard& s = ShardFor(block);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(block);
  if (it == s.map.end()) {
    misses_->Increment();
    return false;
  }
  hits_->Increment();
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  if (out != nullptr) out->append(it->second->payload, offset, length);
  return true;
}

void BlockCache::Insert(uint64_t block, std::string payload) {
  if (capacity_ == 0) return;
  Shard& s = ShardFor(block);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(block);
  if (it != s.map.end()) {
    it->second->payload = std::move(payload);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.lru.push_front(Entry{block, std::move(payload)});
  s.map[block] = s.lru.begin();
  while (s.map.size() > s.capacity) {
    s.map.erase(s.lru.back().block);
    s.lru.pop_back();
    evictions_->Increment();
  }
}

void BlockCache::Erase(uint64_t block) {
  Shard& s = ShardFor(block);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(block);
  if (it == s.map.end()) return;
  s.lru.erase(it->second);
  s.map.erase(it);
}

void BlockCache::Clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.lru.clear();
    s.map.clear();
  }
}

size_t BlockCache::size() const {
  size_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.map.size();
  }
  return total;
}

double BlockCache::HitRate() const {
  const uint64_t total = hits() + misses();
  return total == 0 ? 0.0 : static_cast<double>(hits()) / total;
}

}  // namespace minos::storage
