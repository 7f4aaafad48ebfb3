#include "minos/image/bitmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "minos/image/image.h"
#include "minos/image/miniature.h"
#include "minos/util/random.h"

namespace minos::image {
namespace {

TEST(RectTest, ContainsAndIntersects) {
  Rect r{10, 10, 5, 5};
  EXPECT_TRUE(r.Contains(10, 10));
  EXPECT_TRUE(r.Contains(14, 14));
  EXPECT_FALSE(r.Contains(15, 15));
  EXPECT_TRUE(r.Intersects(Rect{14, 14, 10, 10}));
  EXPECT_FALSE(r.Intersects(Rect{15, 10, 5, 5}));
  EXPECT_EQ(r.area(), 25);
}

TEST(RectTest, Intersection) {
  Rect r{0, 0, 10, 10};
  EXPECT_EQ(r.Intersect(Rect{5, 5, 10, 10}), (Rect{5, 5, 5, 5}));
  EXPECT_EQ(r.Intersect(Rect{20, 20, 5, 5}), (Rect{}));
  EXPECT_EQ(r.Intersect(r), r);
}

TEST(BitmapTest, StartsBlank) {
  Bitmap bm(4, 3);
  EXPECT_EQ(bm.width(), 4);
  EXPECT_EQ(bm.height(), 3);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 4; ++x) EXPECT_EQ(bm.At(x, y), 0);
  }
}

TEST(BitmapTest, OutOfBoundsReadsZeroWritesIgnored) {
  Bitmap bm(2, 2);
  EXPECT_EQ(bm.At(-1, 0), 0);
  EXPECT_EQ(bm.At(5, 5), 0);
  bm.Set(-1, 0, 255);  // No crash, no effect.
  bm.Set(2, 0, 255);
  EXPECT_EQ(bm.At(0, 0), 0);
}

TEST(BitmapTest, BlendTakesMax) {
  Bitmap bm(2, 2);
  bm.Set(0, 0, 100);
  bm.Blend(0, 0, 50);
  EXPECT_EQ(bm.At(0, 0), 100);
  bm.Blend(0, 0, 200);
  EXPECT_EQ(bm.At(0, 0), 200);
}

TEST(BitmapTest, FillRectClips) {
  Bitmap bm(4, 4);
  bm.FillRect(Rect{2, 2, 10, 10}, 7);
  EXPECT_EQ(bm.At(1, 1), 0);
  EXPECT_EQ(bm.At(2, 2), 7);
  EXPECT_EQ(bm.At(3, 3), 7);
}

TEST(BitmapTest, BlitOverwritesIncludingBlanks) {
  Bitmap dst(4, 4);
  dst.Fill(9);
  Bitmap src(2, 2);  // All zeros.
  dst.Blit(src, 1, 1);
  EXPECT_EQ(dst.At(1, 1), 0);  // Blank copied over ink.
  EXPECT_EQ(dst.At(0, 0), 9);
}

TEST(BitmapTest, BlendOverIsTransparencyRule) {
  Bitmap dst(2, 2);
  dst.Set(0, 0, 100);
  Bitmap src(2, 2);
  src.Set(0, 0, 50);
  src.Set(1, 1, 200);
  dst.BlendOver(src, 0, 0);
  EXPECT_EQ(dst.At(0, 0), 100);  // Existing darker ink kept.
  EXPECT_EQ(dst.At(1, 1), 200);  // New ink laid down.
}

TEST(BitmapTest, OverwriteByIsOverwriteRule) {
  Bitmap dst(2, 2);
  dst.Set(0, 0, 100);
  dst.Set(1, 0, 80);
  Bitmap src(2, 2);
  src.Set(0, 0, 30);  // Inked: replaces (even if lighter).
  // (1,0) blank in src: leaves dst intact.
  dst.OverwriteBy(src, 0, 0);
  EXPECT_EQ(dst.At(0, 0), 30);
  EXPECT_EQ(dst.At(1, 0), 80);
}

TEST(BitmapTest, SubBitmapClipsAndPads) {
  Bitmap bm(4, 4);
  bm.Set(3, 3, 77);
  Bitmap sub = bm.SubBitmap(Rect{2, 2, 4, 4});
  EXPECT_EQ(sub.width(), 4);
  EXPECT_EQ(sub.height(), 4);
  EXPECT_EQ(sub.At(1, 1), 77);
  EXPECT_EQ(sub.At(3, 3), 0);  // Outside the source: blank.
}

TEST(BitmapTest, DigestSensitiveToContentAndShape) {
  Bitmap a(4, 4), b(4, 4), c(2, 8);
  EXPECT_EQ(a.Digest(), b.Digest());
  b.Set(1, 1, 1);
  EXPECT_NE(a.Digest(), b.Digest());
  EXPECT_NE(a.Digest(), c.Digest());  // Same pixel count, different shape.
}

TEST(BitmapTest, SerializeRoundTrip) {
  Bitmap bm(3, 2);
  bm.Set(0, 0, 1);
  bm.Set(2, 1, 255);
  auto restored = Bitmap::Deserialize(bm.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, bm);
}

TEST(BitmapTest, DeserializeRejectsTruncation) {
  Bitmap bm(8, 8);
  const std::string bytes = bm.Serialize();
  EXPECT_TRUE(Bitmap::Deserialize(std::string_view(bytes).substr(0, 10))
                  .status()
                  .IsCorruption());
}

TEST(BitmapTest, ByteSize) {
  Bitmap bm(10, 20);
  EXPECT_EQ(bm.ByteSize(), 200u);
}

TEST(BitmapTest, EmptyBitmap) {
  Bitmap bm;
  EXPECT_TRUE(bm.empty());
  EXPECT_EQ(bm.ByteSize(), 0u);
  auto restored = Bitmap::Deserialize(bm.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
}

// ---------------------------------------------------------------------------
// Differential tests: each row-span kernel against a per-pixel reference
// built only from At/Set/Blend, on seeded random bitmaps and rects.

Bitmap RandomBitmap(Random* rng, int w, int h) {
  Bitmap bm(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      // About a third blank, so the overwrite rule sees both cases.
      const uint64_t v = rng->Uniform(384);
      bm.Set(x, y, v < 128 ? 0 : static_cast<uint8_t>(v - 128));
    }
  }
  return bm;
}

void ReferenceFillRect(Bitmap* bm, const Rect& r, uint8_t ink) {
  for (int y = r.y; y < r.y + r.h; ++y) {
    for (int x = r.x; x < r.x + r.w; ++x) bm->Set(x, y, ink);
  }
}

void ReferenceBlit(Bitmap* dst, const Bitmap& src, int x, int y) {
  for (int sy = 0; sy < src.height(); ++sy) {
    for (int sx = 0; sx < src.width(); ++sx) {
      dst->Set(x + sx, y + sy, src.At(sx, sy));
    }
  }
}

void ReferenceBlendOver(Bitmap* dst, const Bitmap& src, int x, int y) {
  for (int sy = 0; sy < src.height(); ++sy) {
    for (int sx = 0; sx < src.width(); ++sx) {
      dst->Blend(x + sx, y + sy, src.At(sx, sy));
    }
  }
}

void ReferenceOverwriteBy(Bitmap* dst, const Bitmap& src, int x, int y) {
  for (int sy = 0; sy < src.height(); ++sy) {
    for (int sx = 0; sx < src.width(); ++sx) {
      const uint8_t ink = src.At(sx, sy);
      if (ink > 0) dst->Set(x + sx, y + sy, ink);
    }
  }
}

Bitmap ReferenceSubBitmap(const Bitmap& bm, const Rect& r) {
  Bitmap out(r.w, r.h);
  for (int y = 0; y < r.h; ++y) {
    for (int x = 0; x < r.w; ++x) out.Set(x, y, bm.At(r.x + x, r.y + y));
  }
  return out;
}

/// Rects to place on a `w` x `h` target: the fixed edge cases (negative
/// origins, larger than the target, 0xN, Nx0, 1x1 at each corner) and
/// then seeded random ones that start anywhere from fully left/above to
/// fully right/below the target.
std::vector<Rect> PlacementRects(Random* rng, int w, int h) {
  std::vector<Rect> rects = {
      {0, 0, w, h},           {-3, -2, w, h},       {2, 1, w + 5, h + 7},
      {-4, -4, w + 8, h + 8}, {0, 0, 0, h},         {1, 1, w, 0},
      {0, 0, 1, 1},           {w - 1, h - 1, 1, 1}, {w, h, 1, 1},
      {-1, -1, 1, 1},         {-w, 0, w, h},        {0, h, w, 3},
  };
  for (int i = 0; i < 40; ++i) {
    const int x = static_cast<int>(rng->UniformRange(-w - 2, w + 2));
    const int y = static_cast<int>(rng->UniformRange(-h - 2, h + 2));
    const int rw = static_cast<int>(rng->UniformRange(0, 2 * w + 3));
    const int rh = static_cast<int>(rng->UniformRange(0, 2 * h + 3));
    rects.push_back(Rect{x, y, rw, rh});
  }
  return rects;
}

std::string Describe(int w, int h, const Rect& r) {
  return "target " + std::to_string(w) + "x" + std::to_string(h) +
         " rect {" + std::to_string(r.x) + "," + std::to_string(r.y) + "," +
         std::to_string(r.w) + "," + std::to_string(r.h) + "}";
}

/// Target sizes, including a 1x1 and a blank 0x0 target.
const std::vector<std::pair<int, int>> kTargetSizes = {
    {0, 0}, {1, 1}, {1, 9}, {9, 1}, {7, 5}, {16, 16}, {33, 21}, {64, 3}};

TEST(BitmapKernelDifferential, FillRectMatchesPerPixelReference) {
  Random rng(41);
  for (const auto& [w, h] : kTargetSizes) {
    for (const Rect& r : PlacementRects(&rng, w, h)) {
      const Bitmap base = RandomBitmap(&rng, w, h);
      const uint8_t ink = static_cast<uint8_t>(rng.Uniform(256));
      Bitmap got = base;
      got.FillRect(r, ink);
      Bitmap want = base;
      ReferenceFillRect(&want, r, ink);
      ASSERT_EQ(got, want) << Describe(w, h, r);
    }
  }
}

TEST(BitmapKernelDifferential, CompositingRulesMatchPerPixelReference) {
  Random rng(42);
  for (const auto& [w, h] : kTargetSizes) {
    for (const Rect& r : PlacementRects(&rng, w, h)) {
      const Bitmap base = RandomBitmap(&rng, w, h);
      const Bitmap src = RandomBitmap(&rng, r.w, r.h);

      Bitmap got = base;
      got.Blit(src, r.x, r.y);
      Bitmap want = base;
      ReferenceBlit(&want, src, r.x, r.y);
      ASSERT_EQ(got, want) << "Blit " << Describe(w, h, r);

      got = base;
      got.BlendOver(src, r.x, r.y);
      want = base;
      ReferenceBlendOver(&want, src, r.x, r.y);
      ASSERT_EQ(got, want) << "BlendOver " << Describe(w, h, r);

      got = base;
      got.OverwriteBy(src, r.x, r.y);
      want = base;
      ReferenceOverwriteBy(&want, src, r.x, r.y);
      ASSERT_EQ(got, want) << "OverwriteBy " << Describe(w, h, r);
    }
  }
}

TEST(BitmapKernelDifferential, SubBitmapMatchesPerPixelReference) {
  Random rng(43);
  for (const auto& [w, h] : kTargetSizes) {
    const Bitmap bm = RandomBitmap(&rng, w, h);
    for (const Rect& r : PlacementRects(&rng, w, h)) {
      ASSERT_EQ(bm.SubBitmap(r), ReferenceSubBitmap(bm, r))
          << Describe(w, h, r);
    }
  }
}

TEST(BitmapKernelDifferential, DeserializeMatchesPerPixelReference) {
  Random rng(44);
  for (const auto& [w, h] : kTargetSizes) {
    const Bitmap bm = RandomBitmap(&rng, w, h);
    const std::string bytes = bm.Serialize();
    auto restored = Bitmap::Deserialize(bytes);
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(restored->width(), w);
    ASSERT_EQ(restored->height(), h);
    // Pixels follow the two varint dimensions row-major.
    const size_t header = bytes.size() - static_cast<size_t>(w) * h;
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        ASSERT_EQ(restored->At(x, y),
                  static_cast<uint8_t>(bytes[header + y * w + x]))
            << "pixel " << x << "," << y << " of " << w << "x" << h;
      }
    }
    // Every truncation of the pixel data is rejected.
    for (size_t cut = header; cut < bytes.size(); ++cut) {
      ASSERT_TRUE(Bitmap::Deserialize(std::string_view(bytes).substr(0, cut))
                      .status()
                      .IsCorruption());
    }
  }
}

/// The box filter as a per-pixel loop over bounds-checked At().
Bitmap ReferenceBoxFilter(const Bitmap& full, int scale) {
  const int mw = std::max(1, full.width() / scale);
  const int mh = std::max(1, full.height() / scale);
  Bitmap small(mw, mh);
  for (int y = 0; y < mh; ++y) {
    for (int x = 0; x < mw; ++x) {
      uint32_t sum = 0;
      int n = 0;
      for (int dy = 0; dy < scale; ++dy) {
        for (int dx = 0; dx < scale; ++dx) {
          const int fx = x * scale + dx;
          const int fy = y * scale + dy;
          if (fx < full.width() && fy < full.height()) {
            sum += full.At(fx, fy);
            ++n;
          }
        }
      }
      small.Set(x, y, n > 0 ? static_cast<uint8_t>(sum / n) : 0);
    }
  }
  return small;
}

TEST(BitmapKernelDifferential, MiniatureBoxFilterMatchesPerPixelReference) {
  Random rng(45);
  // Sizes that are not multiples of the scales, plus ones smaller than
  // the scale (a single clipped cell).
  const std::vector<std::pair<int, int>> sizes = {
      {1, 1}, {2, 3}, {7, 5}, {13, 11}, {31, 17}, {64, 48}, {101, 7}};
  for (const auto& [w, h] : sizes) {
    const Bitmap full = RandomBitmap(&rng, w, h);
    for (int scale = 1; scale <= 5; ++scale) {
      auto mini = Miniature::Build(Image::FromBitmap(full), scale);
      ASSERT_TRUE(mini.ok());
      ASSERT_EQ(mini->raster(), ReferenceBoxFilter(full, scale))
          << w << "x" << h << " at scale " << scale;
    }
  }
}

}  // namespace
}  // namespace minos::image
