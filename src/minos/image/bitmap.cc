#include "minos/image/bitmap.h"

#include <algorithm>
#include <cstring>

#include "minos/util/coding.h"
#include "minos/util/string_util.h"

namespace minos::image {

Rect Rect::Intersect(const Rect& o) const {
  const int x0 = std::max(x, o.x);
  const int y0 = std::max(y, o.y);
  const int x1 = std::min(x + w, o.x + o.w);
  const int y1 = std::min(y + h, o.y + o.h);
  if (x1 <= x0 || y1 <= y0) return Rect{};
  return Rect{x0, y0, x1 - x0, y1 - y0};
}

Bitmap::Bitmap(int width, int height)
    : width_(std::max(width, 0)),
      height_(std::max(height, 0)),
      pixels_(static_cast<size_t>(width_) * static_cast<size_t>(height_),
              0) {}

void Bitmap::Fill(uint8_t ink) {
  std::fill(pixels_.begin(), pixels_.end(), ink);
}

namespace {

/// Places `src` with its top-left at (x, y) on a `dw` x `dh` destination
/// raster, clips once, and calls `op(dst_row, src_row, n)` for each of
/// the clipped rows. Rows are row-major, one byte per pixel; `src` must
/// not be the destination.
template <typename RowOp>
void ForEachPlacedRow(uint8_t* dst, int dw, int dh, const Bitmap& src,
                      int x, int y, RowOp op) {
  const int sw = src.width();
  const Rect c = Rect{x, y, sw, src.height()}.Intersect(Rect{0, 0, dw, dh});
  if (c.area() == 0) return;
  const size_t n = static_cast<size_t>(c.w);
  const uint8_t* s =
      src.pixels().data() + static_cast<size_t>(c.y - y) * sw + (c.x - x);
  uint8_t* d = dst + static_cast<size_t>(c.y) * dw + c.x;
  for (int row = 0; row < c.h; ++row, s += sw, d += dw) op(d, s, n);
}

}  // namespace

void Bitmap::FillRect(const Rect& r, uint8_t ink) {
  const Rect c = r.Intersect(Rect{0, 0, width_, height_});
  uint8_t* row = pixels_.data() + static_cast<size_t>(c.y) * width_ + c.x;
  for (int y = 0; y < c.h; ++y, row += width_) std::fill_n(row, c.w, ink);
}

void Bitmap::Blit(const Bitmap& src, int x, int y) {
  ForEachPlacedRow(pixels_.data(), width_, height_, src, x, y,
                   [](uint8_t* d, const uint8_t* s, size_t n) {
                     std::memcpy(d, s, n);
                   });
}

void Bitmap::BlendOver(const Bitmap& src, int x, int y) {
  ForEachPlacedRow(pixels_.data(), width_, height_, src, x, y,
                   [](uint8_t* d, const uint8_t* s, size_t n) {
                     for (size_t i = 0; i < n; ++i) {
                       d[i] = std::max(d[i], s[i]);
                     }
                   });
}

void Bitmap::OverwriteBy(const Bitmap& src, int x, int y) {
  ForEachPlacedRow(pixels_.data(), width_, height_, src, x, y,
                   [](uint8_t* d, const uint8_t* s, size_t n) {
                     for (size_t i = 0; i < n; ++i) {
                       d[i] = s[i] > 0 ? s[i] : d[i];
                     }
                   });
}

Bitmap Bitmap::SubBitmap(const Rect& r) const {
  // The crop is this bitmap blitted onto a blank r.w x r.h canvas at
  // (-r.x, -r.y); whatever falls outside this bitmap stays blank.
  Bitmap out(r.w, r.h);
  out.Blit(*this, -r.x, -r.y);
  return out;
}

uint64_t Bitmap::Digest() const {
  std::string header;
  PutFixed32(&header, static_cast<uint32_t>(width_));
  PutFixed32(&header, static_cast<uint32_t>(height_));
  uint64_t h = Fnv1a64(header);
  // Continue the FNV stream over the pixel data.
  for (uint8_t p : pixels_) {
    h ^= p;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Bitmap::Serialize() const {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(width_));
  PutVarint32(&out, static_cast<uint32_t>(height_));
  out.append(reinterpret_cast<const char*>(pixels_.data()), pixels_.size());
  return out;
}

StatusOr<Bitmap> Bitmap::Deserialize(std::string_view bytes) {
  Decoder dec(bytes);
  uint32_t w = 0, h = 0;
  MINOS_RETURN_IF_ERROR(dec.GetVarint32(&w));
  MINOS_RETURN_IF_ERROR(dec.GetVarint32(&h));
  const uint64_t need = static_cast<uint64_t>(w) * h;
  if (dec.remaining() < need) {
    return Status::Corruption("bitmap pixel data truncated");
  }
  std::string_view pixels;
  MINOS_RETURN_IF_ERROR(dec.GetRaw(static_cast<size_t>(need), &pixels));
  Bitmap bm(static_cast<int>(w), static_cast<int>(h));
  // A dimension above INT_MAX clamps to 0 in the constructor; never copy
  // more pixels than the bitmap holds.
  if (bm.pixels_.size() != pixels.size()) {
    return Status::Corruption("bitmap dimensions out of range");
  }
  std::copy_n(reinterpret_cast<const uint8_t*>(pixels.data()), pixels.size(),
              bm.pixels_.data());
  return bm;
}

}  // namespace minos::image
