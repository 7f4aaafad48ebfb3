#ifndef PERFBENCH_FABRIC_H_
#define PERFBENCH_FABRIC_H_

// The four-shard archive every workload runs against: per shard a
// write-once device, its BlockCache, a version store, a link and an
// ObjectServer, all behind one ShardRouter (replication 2).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "minos/server/link.h"
#include "minos/server/object_server.h"
#include "minos/server/shard_router.h"
#include "minos/storage/archiver.h"
#include "minos/storage/block_cache.h"
#include "minos/storage/block_device.h"
#include "minos/storage/version_store.h"
#include "minos/util/clock.h"

namespace perfbench {

struct FabricSpec {
  uint64_t device_blocks = 65536;  ///< Per shard (32 MiB at 512 B).
  uint32_t block_size = 512;
  minos::storage::DeviceCostModel cost =
      minos::storage::DeviceCostModel::MagneticDisk();
  size_t cache_blocks = 1024;  ///< Per shard.
};

/// Counters summed over every shard, read at one instant.
struct FabricTotals {
  minos::storage::DeviceStats device;
  uint64_t bytes_written = 0;  ///< Device blocks written, in bytes.
  uint64_t blocks_used = 0;
  uint64_t blocks_total = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t link_bytes = 0;
  minos::Micros link_busy_us = 0;
};

class Fabric {
 public:
  static constexpr size_t kShards = 4;

  Fabric(const FabricSpec& spec, minos::SimClock* clock);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  minos::server::ShardRouter& router() { return *router_; }
  FabricTotals Totals() const;
  uint64_t cache_bytes() const {
    return kShards * spec_.cache_blocks * spec_.block_size;
  }

 private:
  struct Shard;
  FabricSpec spec_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<minos::server::ShardRouter> router_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FABRIC_H_
