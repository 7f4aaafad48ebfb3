#include "minos/image/miniature.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace minos::image {

StatusOr<Miniature> Miniature::Build(const Image& image, int scale) {
  if (scale < 1) {
    return Status::InvalidArgument("miniature scale must be >= 1");
  }
  if (image.width() == 0 || image.height() == 0) {
    return Status::InvalidArgument("cannot miniaturize an empty image");
  }
  Miniature mini;
  mini.scale_ = scale;
  mini.full_width_ = image.width();
  mini.full_height_ = image.height();
  const int mw = std::max(1, image.width() / scale);
  const int mh = std::max(1, image.height() / scale);
  Bitmap small(mw, mh);

  if (image.is_bitmap()) {
    // Box filter over scale x scale cells (clipped at the right and
    // bottom edges). Each band of `scale` source rows is first summed
    // column-wise, then each cell adds its run of column sums.
    const Bitmap full = image.Render();
    const int fw = full.width();
    const int fh = full.height();
    std::vector<uint32_t> column_sums(static_cast<size_t>(fw));
    for (int y = 0; y < mh; ++y) {
      const int y0 = y * scale;
      const int y1 = std::min(y0 + scale, fh);
      std::fill(column_sums.begin(), column_sums.end(), 0);
      for (int fy = y0; fy < y1; ++fy) {
        const uint8_t* row =
            full.pixels().data() + static_cast<size_t>(fy) * fw;
        for (int fx = 0; fx < fw; ++fx) column_sums[fx] += row[fx];
      }
      for (int x = 0; x < mw; ++x) {
        const int x0 = x * scale;
        const int x1 = std::min(x0 + scale, fw);
        uint32_t sum = 0;
        for (int fx = x0; fx < x1; ++fx) sum += column_sums[fx];
        const int n = (y1 - y0) * (x1 - x0);
        small.Set(x, y, n > 0 ? static_cast<uint8_t>(sum / n) : 0);
      }
    }
  } else if (image.is_graphics()) {
    // High-level sketch: each object becomes its scaled bounding box,
    // with a dot at the label anchor for labeled objects.
    MINOS_ASSIGN_OR_RETURN(GraphicsImage g, image.graphics());
    for (const GraphicsObject& o : g.objects()) {
      const Rect bb = o.BoundingBox();
      const Rect s{bb.x / scale, bb.y / scale,
                   std::max(1, bb.w / scale), std::max(1, bb.h / scale)};
      DrawPolygon(&small,
                  {{s.x, s.y},
                   {s.x + s.w - 1, s.y},
                   {s.x + s.w - 1, s.y + s.h - 1},
                   {s.x, s.y + s.h - 1}},
                  160);
      if (o.label.kind != LabelKind::kNone) {
        small.Blend(o.label.anchor.x / scale, o.label.anchor.y / scale, 255);
      }
    }
  }
  mini.raster_ = std::move(small);
  return mini;
}

Rect Miniature::ToFullImage(const Rect& on_miniature) const {
  Rect full{on_miniature.x * scale_, on_miniature.y * scale_,
            on_miniature.w * scale_, on_miniature.h * scale_};
  return full.Intersect(Rect{0, 0, full_width_, full_height_});
}

Rect Miniature::ToMiniature(const Rect& on_full) const {
  return Rect{on_full.x / scale_, on_full.y / scale_,
              std::max(1, on_full.w / scale_),
              std::max(1, on_full.h / scale_)};
}

}  // namespace minos::image
