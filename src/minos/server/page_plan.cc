#include "minos/server/page_plan.h"

#include <algorithm>
#include <set>

namespace minos::server {

std::pair<uint64_t, uint64_t> ApportionStream(uint64_t total_len, int page,
                                              int page_count) {
  if (total_len == 0 || page < 1 || page > page_count) return {0, 0};
  const uint64_t chunk = total_len / static_cast<uint64_t>(page_count);
  // Fewer bytes than pages: zero-byte chunks would never deliver the
  // stream, so the whole of it rides with the first page visited.
  if (chunk == 0) return {0, total_len};
  const uint64_t offset = static_cast<uint64_t>(page - 1) * chunk;
  const uint64_t length =
      page == page_count ? total_len - offset : chunk;
  return {offset, length};
}

PagePlan::PagePlan(const object::ObjectDescriptor& desc,
                   const PartLengthFn& part_length) {
  uint32_t text_pages = 0;
  for (const object::VisualPageSpec& spec : desc.pages) {
    text_pages = std::max(text_pages, spec.text_page);
  }
  const uint64_t text_len = text_pages > 0 ? part_length("text") : 0;
  std::set<uint32_t> images;  // Distinct placed images: each defers once.
  pages_.reserve(desc.pages.size());
  for (const object::VisualPageSpec& spec : desc.pages) {
    std::vector<PageRange>& ranges = pages_.emplace_back();
    // The text stream apportioned over its formatted pages.
    const auto [offset, length] =
        ApportionStream(text_len, static_cast<int>(spec.text_page),
                        static_cast<int>(text_pages));
    if (length > 0) ranges.push_back(PageRange{"text", offset, length});
    std::set<uint32_t> on_page;  // An image placed twice is listed once.
    for (const object::PlacedImage& placed : spec.images) {
      std::string part = "image:" + std::to_string(placed.image_index);
      const uint64_t image_len = part_length(part);
      if (images.insert(placed.image_index).second) {
        deferred_bytes_ += image_len;
      }
      if (image_len > 0 && on_page.insert(placed.image_index).second) {
        ranges.push_back(PageRange{part, 0, image_len});
      }
    }
  }
  if (desc.driving_mode == object::DrivingMode::kAudio) {
    voice_len_ = part_length("voice");
  }
  deferred_bytes_ += text_len + voice_len_;
}

PagePlan::PagePlan(const object::ObjectDescriptor& desc,
                   const ObjectStore& store, storage::ObjectId id)
    : PagePlan(desc, [&store, id](const std::string& part) -> uint64_t {
        StatusOr<uint64_t> len = store.PartLength(id, part);
        return len.ok() ? *len : 0;
      }) {}

const std::vector<PageRange>& PagePlan::VisualPage(int page) const {
  static const std::vector<PageRange> kNone;
  if (page < 1 || page > page_count()) return kNone;
  return pages_[static_cast<size_t>(page - 1)];
}

uint64_t PagePlan::page_bytes(int page) const {
  uint64_t bytes = 0;
  for (const PageRange& range : VisualPage(page)) bytes += range.length;
  return bytes;
}

std::vector<PageRange> PagePlan::AudioPage(int page, int page_count) const {
  // The voice stream apportioned over the audio pages the pager built.
  const auto [offset, length] = ApportionStream(voice_len_, page, page_count);
  if (length == 0) return {};
  return {PageRange{"voice", offset, length}};
}

StatusOr<uint64_t> StageRanges(ObjectStore* store, storage::ObjectId id,
                               const std::vector<PageRange>& ranges,
                               const obs::TraceContext& ctx) {
  uint64_t bytes = 0;
  for (const PageRange& range : ranges) {
    MINOS_RETURN_IF_ERROR(store->StagePartRange(id, range.part, range.offset,
                                                range.length, ctx));
    bytes += range.length;
  }
  return bytes;
}

}  // namespace minos::server
