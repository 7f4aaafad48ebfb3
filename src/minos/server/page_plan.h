#ifndef MINOS_SERVER_PAGE_PLAN_H_
#define MINOS_SERVER_PAGE_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "minos/server/object_store.h"

namespace minos::server {

/// One contiguous byte range of a part, staged/transferred per page.
struct PageRange {
  std::string part;
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Splits an even apportionment of `total_len` bytes over `page_count`
/// pages and returns the {offset, length} slice that page `page`
/// (1-based) owns. The last page absorbs the rounding remainder; a
/// stream smaller than the page count rides whole with every page
/// (offset 0, full length) so that the first page visited delivers it —
/// delivery bookkeeping keeps later pages from re-transferring it.
/// {0, 0} when the stream is empty or `page` is out of range.
std::pair<uint64_t, uint64_t> ApportionStream(uint64_t total_len, int page,
                                              int page_count);

/// Which bytes of which part each page of one object needs, built once
/// from its skeleton descriptor: the single source of the skeleton
/// transfer discount, workstation demand paging and session staging.
/// A visual page needs its slice of the text stream (apportioned over
/// the highest text page shown) and each distinct image placed on it
/// (an image placed twice on one page is listed once); an audio
/// page needs its slice of the voice stream. Zero-length ranges are
/// never listed.
class PagePlan {
 public:
  /// Byte length of a named part (0 when unknown). The plan asks once
  /// per placed image per page, once for "text" if any page shows text
  /// and once for "voice" if the object is audio-mode.
  using PartLengthFn = std::function<uint64_t(const std::string& part)>;

  PagePlan(const object::ObjectDescriptor& desc,
           const PartLengthFn& part_length);
  /// Over the lengths `store` reports for `id` (a failed lookup is 0).
  PagePlan(const object::ObjectDescriptor& desc, const ObjectStore& store,
           storage::ObjectId id);

  int page_count() const { return static_cast<int>(pages_.size()); }

  /// Ranges visual page `page` (1-based) needs; empty out of range.
  const std::vector<PageRange>& VisualPage(int page) const;
  uint64_t page_bytes(int page) const;

  /// The voice slice audio page `page` of the pager's `page_count` needs.
  std::vector<PageRange> AudioPage(int page, int page_count) const;

  /// Bytes a skeleton fetch defers: each distinct placed image, the
  /// text if any page shows it, the voice of an audio-mode object.
  uint64_t deferred_bytes() const { return deferred_bytes_; }

 private:
  std::vector<std::vector<PageRange>> pages_;
  uint64_t voice_len_ = 0;
  uint64_t deferred_bytes_ = 0;
};

/// Stages each range of `id` through `store->StagePartRange`, in order,
/// and returns their byte total (the link charge the caller owes).
StatusOr<uint64_t> StageRanges(ObjectStore* store, storage::ObjectId id,
                               const std::vector<PageRange>& ranges,
                               const obs::TraceContext& ctx = {});

}  // namespace minos::server

#endif  // MINOS_SERVER_PAGE_PLAN_H_
