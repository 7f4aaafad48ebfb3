#include "fabric.h"

namespace perfbench {

struct Fabric::Shard {
  Shard(const FabricSpec& spec, minos::SimClock* clock)
      : device("shard", spec.device_blocks, spec.block_size, spec.cost,
               /*write_once=*/true, clock),
        cache(spec.cache_blocks),
        archiver(&device, &cache),
        link(minos::server::Link::Ethernet(clock)),
        server(&archiver, &versions, clock, &link) {}

  minos::storage::BlockDevice device;
  minos::storage::BlockCache cache;
  minos::storage::Archiver archiver;
  minos::storage::VersionStore versions;
  minos::server::Link link;
  minos::server::ObjectServer server;
};

Fabric::Fabric(const FabricSpec& spec, minos::SimClock* clock) : spec_(spec) {
  std::vector<minos::server::ObjectServer*> servers;
  for (size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>(spec, clock));
    servers.push_back(&shards_.back()->server);
  }
  router_ = std::make_unique<minos::server::ShardRouter>(servers, clock);
}

Fabric::~Fabric() = default;

FabricTotals Fabric::Totals() const {
  FabricTotals t;
  for (const auto& s : shards_) {
    const minos::storage::DeviceStats& d = s->device.stats();
    t.device.reads += d.reads;
    t.device.writes += d.writes;
    t.device.blocks_read += d.blocks_read;
    t.device.blocks_written += d.blocks_written;
    t.device.busy_time += d.busy_time;
    t.device.seeks += d.seeks;
    t.bytes_written += d.blocks_written * s->device.block_size();
    t.blocks_used += s->device.blocks_used();
    t.blocks_total += s->device.num_blocks();
    t.cache_hits += s->cache.hits();
    t.cache_misses += s->cache.misses();
    t.cache_evictions += s->cache.evictions();
    t.link_bytes += s->link.bytes_transferred();
    t.link_busy_us += s->link.busy_time();
  }
  return t;
}

}  // namespace perfbench
