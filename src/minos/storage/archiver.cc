#include "minos/storage/archiver.h"

namespace minos::storage {

Archiver::Archiver(BlockDevice* device, BlockCache* cache)
    : device_(device), cache_(cache) {}

StatusOr<ArchiveAddress> Archiver::Append(std::string_view bytes) {
  const uint32_t bs = device_->block_size();
  ArchiveAddress addr{size_, bytes.size()};
  size_ += bytes.size();
  // Blocks that start in the tail go out first, the partial one topped up
  // from `bytes`. (The tail holds more than one block only after a failed
  // write left its unwritten bytes behind.)
  size_t pos = 0;  // Tail bytes written so far.
  while (pos < tail_.size() && tail_.size() - pos + bytes.size() >= bs) {
    if (tail_.size() - pos < bs) {
      const size_t take = bs - (tail_.size() - pos);
      tail_.append(bytes.substr(0, take));
      bytes.remove_prefix(take);
    }
    if (Status s = WriteBlock(std::string_view(tail_).substr(pos, bs));
        !s.ok()) {
      tail_.erase(0, pos);
      tail_.append(bytes);  // Every unwritten byte stays in the tail.
      return s;
    }
    pos += bs;
  }
  tail_.erase(0, pos);
  // The remaining full blocks go straight from the caller's bytes; the
  // tail is empty here unless `bytes` is down to a partial block.
  for (; bytes.size() >= bs; bytes.remove_prefix(bs)) {
    if (Status s = WriteBlock(bytes.substr(0, bs)); !s.ok()) {
      tail_.append(bytes);
      return s;
    }
  }
  tail_.append(bytes);
  return addr;
}

Status Archiver::WriteBlock(std::string_view block) {
  MINOS_RETURN_IF_ERROR(device_->Write(flushed_blocks_, block));
  if (cache_ != nullptr) cache_->Insert(flushed_blocks_, std::string(block));
  ++flushed_blocks_;
  return Status::OK();
}

Status Archiver::Flush() {
  if (tail_.empty()) return Status::OK();
  const uint32_t bs = device_->block_size();
  std::string padded(bs, '\0');  // Exactly one block: the cache keeps it.
  tail_.copy(padded.data(), bs);
  MINOS_RETURN_IF_ERROR(device_->Write(flushed_blocks_, padded));
  if (cache_ != nullptr) cache_->Insert(flushed_blocks_, std::move(padded));
  // On a WORM device the tail block can never be extended after this, so
  // subsequent appends start on the next block.
  size_ = (flushed_blocks_ + 1) * static_cast<uint64_t>(bs);
  ++flushed_blocks_;
  tail_.clear();
  return Status::OK();
}

Status Archiver::ReadSlice(uint64_t block, uint64_t lo, uint64_t hi,
                           std::string* out, bool use_cache) const {
  const bool cached = use_cache && cache_ != nullptr;
  if (cached && cache_->Lookup(block, lo, hi - lo, out)) return Status::OK();
  if (block >= flushed_blocks_) {
    // Block only exists in the volatile tail. size_ is always
    // flushed_blocks_ * block_size + tail_.size(), so the slice is there.
    if (out != nullptr) {
      const uint64_t rel = (block - flushed_blocks_) * device_->block_size();
      out->append(tail_, rel + lo, hi - lo);
    }
    return Status::OK();
  }
  std::string data;
  MINOS_RETURN_IF_ERROR(device_->Read(block, 1, &data));
  if (out != nullptr) out->append(data, lo, hi - lo);
  if (cached) cache_->Insert(block, std::move(data));
  return Status::OK();
}

Status Archiver::Read(const ArchiveAddress& address, std::string* out) const {
  return ReadRange(address.offset, address.length, out);
}

Status Archiver::ReadUncached(const ArchiveAddress& address,
                              std::string* out) const {
  return ReadRangeImpl(address.offset, address.length, out,
                       /*use_cache=*/false);
}

Status Archiver::ReadRange(uint64_t offset, uint64_t length,
                           std::string* out) const {
  return ReadRangeImpl(offset, length, out, /*use_cache=*/true);
}

Status Archiver::TouchRange(uint64_t offset, uint64_t length) const {
  return ReadRangeImpl(offset, length, nullptr, /*use_cache=*/true);
}

Status Archiver::ReadRangeImpl(uint64_t offset, uint64_t length,
                               std::string* out, bool use_cache) const {
  if (out != nullptr) out->clear();
  if (length == 0) return Status::OK();
  if (offset + length > size_) {
    return Status::OutOfRange("archiver read past end");
  }
  if (out != nullptr) out->reserve(length);
  const uint32_t bs = device_->block_size();
  const uint64_t first = offset / bs;
  const uint64_t last = (offset + length - 1) / bs;
  for (uint64_t b = first; b <= last; ++b) {
    const uint64_t lo = (b == first) ? offset - first * bs : 0;
    const uint64_t hi = (b == last) ? offset + length - last * bs : bs;
    MINOS_RETURN_IF_ERROR(ReadSlice(b, lo, hi, out, use_cache));
  }
  return Status::OK();
}

}  // namespace minos::storage
