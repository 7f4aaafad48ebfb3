// The page planner: PagePlan against verbatim copies of the three
// planners it replaced (workstation demand paging, session staging and
// the skeleton discount) over seeded random descriptors, the stream
// apportionment it is built on, and the end-to-end invariant that a
// skeleton open plus every page moves the bytes of a whole fetch.

#include "minos/server/page_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "minos/core/audio_browser.h"
#include "minos/core/visual_browser.h"
#include "minos/object/descriptor.h"
#include "minos/server/object_server.h"
#include "minos/server/workstation.h"
#include "minos/text/formatter.h"
#include "minos/text/markup.h"
#include "minos/voice/synthesizer.h"

namespace minos::server {
namespace {

using object::DrivingMode;
using object::MultimediaObject;
using object::ObjectDescriptor;
using object::VisualPageSpec;

// --- Reference planners (the code PagePlan replaced, kept verbatim) -----

using PartLengthFn = PagePlan::PartLengthFn;

/// Workstation::BuildPlan's per-object paging info.
struct RefObjectPlan {
  bool audio_mode = false;
  uint64_t text_len = 0;
  uint32_t text_pages = 0;
  uint64_t voice_len = 0;
  std::vector<uint32_t> page_text;
  std::vector<std::vector<std::pair<std::string, uint64_t>>> page_images;
  std::set<std::string> delivered;
};

RefObjectPlan RefBuildPlan(const ObjectDescriptor& desc,
                           const PartLengthFn& part_length) {
  RefObjectPlan plan;
  plan.audio_mode = desc.driving_mode == DrivingMode::kAudio;
  for (const VisualPageSpec& page : desc.pages) {
    plan.page_text.push_back(page.text_page);
    plan.text_pages = std::max(plan.text_pages, page.text_page);
    std::vector<std::pair<std::string, uint64_t>> images;
    for (const object::PlacedImage& placed : page.images) {
      std::string part = "image:" + std::to_string(placed.image_index);
      uint64_t length = part_length(part);
      images.emplace_back(std::move(part), length);
    }
    plan.page_images.push_back(std::move(images));
  }
  if (plan.text_pages > 0) plan.text_len = part_length("text");
  if (plan.audio_mode) plan.voice_len = part_length("voice");
  return plan;
}

/// Workstation::UndeliveredRanges.
std::vector<PageRange> RefUndeliveredRanges(const RefObjectPlan& plan,
                                            bool audio, int page,
                                            int page_count) {
  std::vector<PageRange> out;
  auto want = [&](std::string part, uint64_t offset, uint64_t length) {
    if (length == 0) return;
    if (plan.delivered.count(part + ":" + std::to_string(offset)) > 0) {
      return;
    }
    out.push_back(PageRange{std::move(part), offset, length});
  };
  if (audio) {
    const auto [offset, length] =
        ApportionStream(plan.voice_len, page, page_count);
    want("voice", offset, length);
    return out;
  }
  const size_t index = static_cast<size_t>(page - 1);
  if (index >= plan.page_text.size()) return out;
  const uint32_t text_page = plan.page_text[index];
  if (text_page > 0 && plan.text_pages > 0) {
    const auto [offset, length] =
        ApportionStream(plan.text_len, static_cast<int>(text_page),
                        static_cast<int>(plan.text_pages));
    want("text", offset, length);
  }
  for (const auto& [part, length] : plan.page_images[index]) {
    want(part, 0, length);
  }
  return out;
}

/// SessionManager::EnsurePlan's ranges and page_bytes.
struct RefSessionPlan {
  std::vector<std::vector<PageRange>> pages;
  std::vector<uint64_t> page_bytes;
};

RefSessionPlan RefEnsurePlan(const ObjectDescriptor& desc,
                             const PartLengthFn& part_length) {
  RefSessionPlan plan;
  uint32_t text_pages = 0;
  for (const VisualPageSpec& page : desc.pages) {
    text_pages = std::max(text_pages, page.text_page);
  }
  const uint64_t text_len = text_pages > 0 ? part_length("text") : 0;
  for (const VisualPageSpec& page : desc.pages) {
    std::vector<PageRange> ranges;
    if (page.text_page > 0 && text_pages > 0 && text_len > 0) {
      const auto [offset, length] =
          ApportionStream(text_len, static_cast<int>(page.text_page),
                          static_cast<int>(text_pages));
      if (length > 0) ranges.push_back(PageRange{"text", offset, length});
    }
    for (const object::PlacedImage& placed : page.images) {
      std::string part = "image:" + std::to_string(placed.image_index);
      const uint64_t length = part_length(part);
      if (length > 0) {
        ranges.push_back(PageRange{std::move(part), 0, length});
      }
    }
    uint64_t total = 0;
    for (const PageRange& r : ranges) total += r.length;
    plan.pages.push_back(std::move(ranges));
    plan.page_bytes.push_back(total);
  }
  return plan;
}

/// ObjectServer::DeferredBytesOf.
uint64_t RefDeferredBytesOf(const ObjectDescriptor& desc) {
  std::set<uint32_t> page_images;
  bool pages_show_text = false;
  for (const VisualPageSpec& page : desc.pages) {
    if (page.text_page > 0) pages_show_text = true;
    for (const object::PlacedImage& placed : page.images) {
      page_images.insert(placed.image_index);
    }
  }
  auto part_length = [&](const std::string& name) -> uint64_t {
    for (const object::PartPointer& p : desc.parts) {
      if (p.name == name) return p.length;
    }
    return 0;
  };
  uint64_t deferred = 0;
  for (uint32_t index : page_images) {
    deferred += part_length("image:" + std::to_string(index));
  }
  if (pages_show_text) deferred += part_length("text");
  if (desc.driving_mode == DrivingMode::kAudio) {
    deferred += part_length("voice");
  }
  return deferred;
}

// --- Differential harness ----------------------------------------------

/// The replaced planners listed an image placed twice on one page twice;
/// the plan lists each distinct image once per page. Dropping a page's
/// repeated (part, offset) ranges from a reference leaves everything
/// else to compare.
std::vector<PageRange> OncePerPage(std::vector<PageRange> ranges) {
  std::set<std::pair<std::string, uint64_t>> seen;
  std::erase_if(ranges, [&seen](const PageRange& r) {
    return !seen.emplace(r.part, r.offset).second;
  });
  return ranges;
}

uint64_t TotalBytes(const std::vector<PageRange>& ranges) {
  uint64_t total = 0;
  for (const PageRange& r : ranges) total += r.length;
  return total;
}

std::string Show(const std::vector<PageRange>& ranges) {
  std::string out;
  for (const PageRange& r : ranges) {
    out += r.part + "@" + std::to_string(r.offset) + "+" +
           std::to_string(r.length) + " ";
  }
  return out;
}

/// A descriptor drawn to cover the planner's corners: images shared
/// across and within pages, pages without text, a text part shorter
/// than its page count, zero-length and missing parts, and audio mode.
ObjectDescriptor RandomDescriptor(std::mt19937_64& rng) {
  auto uniform = [&](uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(rng);
  };
  auto stream_len = [&](uint64_t pages) -> uint64_t {
    switch (uniform(0, 3)) {
      case 0: return 0;
      case 1: return uniform(1, std::max<uint64_t>(1, pages));  // Tiny.
      default: return uniform(1, 100000);
    }
  };
  ObjectDescriptor desc;
  desc.driving_mode =
      uniform(0, 2) == 0 ? DrivingMode::kAudio : DrivingMode::kVisual;
  const uint32_t text_pages = static_cast<uint32_t>(uniform(0, 6));
  const uint32_t images = static_cast<uint32_t>(uniform(0, 4));
  const int pages = static_cast<int>(uniform(0, 8));
  for (int p = 0; p < pages; ++p) {
    VisualPageSpec page;
    if (text_pages > 0 && uniform(0, 3) > 0) {
      page.text_page = static_cast<uint32_t>(uniform(1, text_pages));
    }
    const int placed = static_cast<int>(uniform(0, 3));
    for (int i = 0; i < placed; ++i) {
      // Index `images` names a part the object does not have.
      page.images.push_back(
          {static_cast<uint32_t>(uniform(0, images)), image::Rect{}});
    }
    desc.pages.push_back(std::move(page));
  }
  auto add_part = [&](std::string name, uint64_t length) {
    object::PartPointer part;
    part.name = std::move(name);
    part.length = length;
    desc.parts.push_back(std::move(part));
  };
  if (uniform(0, 4) > 0) add_part("text", stream_len(text_pages));
  for (uint32_t i = 0; i < images; ++i) {
    add_part("image:" + std::to_string(i),
             uniform(0, 3) == 0 ? 0 : uniform(1, 50000));
  }
  if (uniform(0, 4) > 0) add_part("voice", stream_len(9));
  return desc;
}

/// Part lengths read off the descriptor, with every call recorded.
struct CountingLengths {
  const ObjectDescriptor* desc;
  std::map<std::string, int> calls;

  PartLengthFn Fn() {
    return [this](const std::string& name) -> uint64_t {
      ++calls[name];
      StatusOr<object::PartPointer> part = desc->FindPart(name);
      return part.ok() ? part->length : 0;
    };
  }
};

TEST(PagePlanDifferentialTest, MatchesEveryParentPlannerOnRandomObjects) {
  std::mt19937_64 rng(0x9A6E9A11);
  for (int round = 0; round < 2000; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const ObjectDescriptor desc = RandomDescriptor(rng);
    CountingLengths plan_lengths{&desc, {}};
    CountingLengths ws_lengths{&desc, {}};
    CountingLengths session_lengths{&desc, {}};
    const PagePlan plan(desc, plan_lengths.Fn());
    const RefObjectPlan ws = RefBuildPlan(desc, ws_lengths.Fn());
    const RefSessionPlan session = RefEnsurePlan(desc, session_lengths.Fn());

    // The same PartLength calls as the workstation made (so routed
    // request counters do not move); visual objects also match the
    // session planner, which never asked for the voice.
    EXPECT_EQ(plan_lengths.calls, ws_lengths.calls);
    if (desc.driving_mode == DrivingMode::kVisual) {
      EXPECT_EQ(plan_lengths.calls, session_lengths.calls);
    }

    EXPECT_EQ(plan.deferred_bytes(), RefDeferredBytesOf(desc));
    ASSERT_EQ(plan.page_count(), static_cast<int>(session.pages.size()));
    for (int page = 0; page <= plan.page_count() + 1; ++page) {
      SCOPED_TRACE("visual page " + std::to_string(page));
      const std::string got = Show(plan.VisualPage(page));
      EXPECT_EQ(got,
                Show(OncePerPage(RefUndeliveredRanges(ws, false, page, 0))));
      const bool in_range = page >= 1 && page <= plan.page_count();
      const std::vector<PageRange> session_page =
          in_range ? OncePerPage(session.pages[page - 1])
                   : std::vector<PageRange>{};
      EXPECT_EQ(got, Show(session_page));
      EXPECT_EQ(plan.page_bytes(page), TotalBytes(session_page));
      if (in_range && session_page.size() == session.pages[page - 1].size()) {
        // No repeats: the session planner's own byte count still holds.
        EXPECT_EQ(plan.page_bytes(page), session.page_bytes[page - 1]);
      }
    }
    for (int count = 1; count <= 9; ++count) {
      for (int page = 0; page <= count + 1; ++page) {
        SCOPED_TRACE("audio page " + std::to_string(page) + "/" +
                     std::to_string(count));
        EXPECT_EQ(Show(plan.AudioPage(page, count)),
                  Show(RefUndeliveredRanges(ws, true, page, count)));
      }
    }
  }
}

// The workstation dedupes delivery by (part, offset): walking pages in a
// random order, the plan's ranges minus those already delivered are
// exactly what the old planner's delivered-set filter left.
TEST(PagePlanDifferentialTest, RangeDeliveryWalkMatchesTheWorkstation) {
  std::mt19937_64 rng(0x5EED0417);
  for (int round = 0; round < 500; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const ObjectDescriptor desc = RandomDescriptor(rng);
    CountingLengths lengths{&desc, {}};
    const PagePlan plan(desc, lengths.Fn());
    RefObjectPlan ws = RefBuildPlan(desc, lengths.Fn());
    std::set<std::pair<std::string, uint64_t>> delivered;
    const bool audio = desc.driving_mode == DrivingMode::kAudio &&
                       std::uniform_int_distribution<int>(0, 1)(rng) == 1;
    const int count =
        audio ? std::uniform_int_distribution<int>(1, 9)(rng)
              : plan.page_count();
    for (int step = 0; step < 12 && count > 0; ++step) {
      const int page = std::uniform_int_distribution<int>(1, count)(rng);
      std::vector<PageRange> want;
      for (const PageRange& r :
           audio ? plan.AudioPage(page, count) : plan.VisualPage(page)) {
        if (delivered.count({r.part, r.offset}) == 0) want.push_back(r);
      }
      const std::vector<PageRange> ref =
          OncePerPage(RefUndeliveredRanges(ws, audio, page, count));
      ASSERT_EQ(Show(want), Show(ref)) << "page " << page;
      for (const PageRange& r : want) delivered.emplace(r.part, r.offset);
      for (const PageRange& r : ref) {
        ws.delivered.insert(r.part + ":" + std::to_string(r.offset));
      }
    }
  }
}

TEST(PagePlanTest, StageRangesStagesInOrderAndSumsTheBytes) {
  SimClock clock;
  storage::BlockDevice device("optical", 65536, 512,
                              storage::DeviceCostModel::Instant(), true,
                              &clock);
  storage::BlockCache cache(64);
  storage::Archiver archiver(&device, &cache);
  storage::VersionStore versions;
  ObjectServer server(&archiver, &versions, &clock, nullptr);
  MultimediaObject obj(1);
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\nstaged text of the object\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  ASSERT_TRUE(obj.Archive().ok());
  ASSERT_TRUE(server.Store(obj).ok());

  const uint64_t text_len = server.PartLength(1, "text").value();
  ASSERT_GT(text_len, 4u);
  auto staged = StageRanges(&server, 1,
                            {PageRange{"text", 0, 4},
                             PageRange{"text", 4, text_len - 4}});
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(*staged, text_len);
  EXPECT_EQ(*StageRanges(&server, 1, {}), 0u);
  // The first failing range stops the walk with its status.
  EXPECT_FALSE(
      StageRanges(&server, 1, {PageRange{"no-such-part", 0, 1}}).ok());
}

// --- Stream apportionment -----------------------------------------------

TEST(ApportionStreamTest, SplitsEvenlyWithRemainderOnTheLastPage) {
  EXPECT_EQ(ApportionStream(100, 1, 4),
            (std::pair<uint64_t, uint64_t>{0, 25}));
  EXPECT_EQ(ApportionStream(10, 3, 3),
            (std::pair<uint64_t, uint64_t>{6, 4}));
  EXPECT_EQ(ApportionStream(0, 1, 4), (std::pair<uint64_t, uint64_t>{0, 0}));
  EXPECT_EQ(ApportionStream(100, 5, 4),
            (std::pair<uint64_t, uint64_t>{0, 0}));
}

// A stream smaller than its page count must still be delivered — the
// whole of it rides with every page (the delivered-set makes the first
// visitor the one that transfers it), not vanish into zero-byte chunks.
TEST(ApportionStreamTest, TinyStreamRidesWholeWithEveryPage) {
  for (int page = 1; page <= 9; ++page) {
    EXPECT_EQ(ApportionStream(5, page, 9),
              (std::pair<uint64_t, uint64_t>{0, 5}))
        << "page " << page;
  }
}

// --- End to end: a skeleton plus every page is the whole object --------

class WholeObjectBytesTest : public ::testing::Test {
 protected:
  WholeObjectBytesTest()
      : device_("optical", 65536, 512,
                storage::DeviceCostModel::Instant(), true, &clock_),
        cache_(256),
        archiver_(&device_, &cache_),
        link_(Link::Ethernet(&clock_)),
        server_(&archiver_, &versions_, &clock_, &link_) {}

  static std::string Body(int paragraphs) {
    std::string markup;
    for (int i = 0; i < paragraphs; ++i) {
      markup += ".PP\nadmission record paragraph " + std::to_string(i) +
                " describing the fracture treatment and recovery plan in "
                "enough words to spill across formatted pages\n";
    }
    return markup;
  }

  static image::Image Picture(int size) {
    image::Bitmap bm(size, size);
    bm.FillRect(image::Rect{1, 1, size / 2, size / 2}, 1);
    return image::Image::FromBitmap(std::move(bm));
  }

  /// A visual object of formatted text pages with two images placed
  /// on them: `placements` lists (0-based page, image index) pairs.
  MultimediaObject VisualObject(
      storage::ObjectId id,
      const std::vector<std::pair<size_t, uint32_t>>& placements) {
    MultimediaObject obj(id);
    obj.descriptor().layout.width = 48;
    obj.descriptor().layout.height = 12;
    text::MarkupParser parser;
    auto doc = parser.Parse(Body(10));
    EXPECT_TRUE(doc.ok());
    EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
    EXPECT_TRUE(obj.AddImage(Picture(24)).ok());
    EXPECT_TRUE(obj.AddImage(Picture(32)).ok());
    text::TextFormatter formatter(obj.descriptor().layout);
    const size_t pages = formatter.Paginate(obj.text_part()).value().size();
    EXPECT_GE(pages, 4u);
    for (size_t i = 0; i < pages; ++i) {
      VisualPageSpec page;
      page.text_page = static_cast<uint32_t>(i + 1);
      obj.descriptor().pages.push_back(page);
    }
    for (const auto& [page, index] : placements) {
      obj.descriptor().pages[page].images.push_back(
          {index, image::Rect{0, 0, 24, 24}});
    }
    EXPECT_TRUE(obj.Archive().ok());
    return obj;
  }

  /// An audio-mode object long enough for several audio pages.
  MultimediaObject AudioObject(storage::ObjectId id) {
    MultimediaObject obj(id);
    text::MarkupParser parser;
    auto doc = parser.Parse(Body(6));
    EXPECT_TRUE(doc.ok());
    voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
    auto track = synth.Synthesize(*doc);
    EXPECT_TRUE(track.ok());
    EXPECT_TRUE(
        obj.SetVoicePart(voice::VoiceDocument(std::move(track).value()))
            .ok());
    EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
    obj.descriptor().driving_mode = DrivingMode::kAudio;
    EXPECT_TRUE(obj.Archive().ok());
    return obj;
  }

  uint64_t WholeFetchBytes(storage::ObjectId id) {
    const uint64_t before = link_.bytes_transferred();
    EXPECT_TRUE(server_.Fetch(id, FetchGranularity::kWhole).ok());
    return link_.bytes_transferred() - before;
  }

  /// Bytes a prefetching workstation moves over the link presenting
  /// `id` and reading every visual page in order, pausing on each.
  uint64_t VisualReadThroughBytes(storage::ObjectId id) {
    render::Screen screen;
    Workstation workstation(&server_, &screen, &clock_);
    workstation.EnablePrefetch();
    const uint64_t before = link_.bytes_transferred();
    EXPECT_TRUE(workstation.Present(id).ok());
    core::VisualBrowser* browser =
        workstation.presentation().visual_browser();
    EXPECT_NE(browser, nullptr);
    if (browser == nullptr) return 0;
    int pages = 1;
    clock_.Advance(MillisToMicros(500));  // The user reads each page.
    while (browser->NextPage().ok()) {
      ++pages;
      clock_.Advance(MillisToMicros(500));
    }
    EXPECT_EQ(pages, browser->page_count());
    return link_.bytes_transferred() - before;
  }

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BlockCache cache_;
  storage::Archiver archiver_;
  storage::VersionStore versions_;
  Link link_;
  ObjectServer server_;
};

// A skeleton open defers exactly the bytes the pages later deliver, and
// delivery is deduped by range: an image shown on pages 1 and 4 crosses
// the link once.
TEST_F(WholeObjectBytesTest, VisualReadThroughMovesTheWholeObject) {
  ASSERT_TRUE(server_.Store(VisualObject(1, {{0, 0}, {3, 0}, {1, 1}})).ok());
  const uint64_t whole = WholeFetchBytes(1);
  EXPECT_EQ(VisualReadThroughBytes(1), whole);
}

// An image placed twice on one page is listed once by the plan, so the
// page charges it once and reading every page moves a whole fetch.
TEST_F(WholeObjectBytesTest, ImagePlacedTwiceOnOnePageIsChargedOnce) {
  ASSERT_TRUE(server_.Store(VisualObject(1, {{0, 0}, {1, 1}, {1, 1}})).ok());
  const uint64_t whole = WholeFetchBytes(1);
  EXPECT_EQ(VisualReadThroughBytes(1), whole);
}

// Known fault, kept as is: speculation resolves a page's undelivered
// ranges when it issues, and delivery is marked only when the page is
// taken. Pages 2 and 3 are staged together from page 1, so an image
// shown on both is transferred twice.
TEST_F(WholeObjectBytesTest, ImageOnTwoPagesStagedTogetherIsChargedTwice) {
  ASSERT_TRUE(server_.Store(VisualObject(1, {{1, 0}, {2, 0}, {3, 1}})).ok());
  const uint64_t whole = WholeFetchBytes(1);
  const uint64_t image = server_.PartLength(1, "image:0").value();
  EXPECT_EQ(VisualReadThroughBytes(1), whole + image);
}

TEST_F(WholeObjectBytesTest, AudioListenThroughMovesTheWholeObject) {
  ASSERT_TRUE(server_.Store(AudioObject(2)).ok());
  const uint64_t whole = WholeFetchBytes(2);
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();
  const uint64_t before = link_.bytes_transferred();
  ASSERT_TRUE(workstation.Present(2).ok());
  core::AudioBrowser* browser = workstation.presentation().audio_browser();
  ASSERT_NE(browser, nullptr);
  ASSERT_GE(browser->page_count(), 3);
  int pages = 1;
  clock_.Advance(MillisToMicros(500));  // The user listens to each page.
  while (browser->NextPage().ok()) {
    ++pages;
    clock_.Advance(MillisToMicros(500));
  }
  EXPECT_EQ(pages, browser->page_count());
  EXPECT_EQ(link_.bytes_transferred() - before, whole);
}

}  // namespace
}  // namespace minos::server
