#include "minos/render/screen.h"

#include <algorithm>

#include "minos/render/font5x7.h"

namespace minos::render {

using image::Bitmap;
using image::Rect;

Screen::Screen(ScreenLayout layout)
    : layout_(layout), fb_(layout.width, layout.height) {}

void Screen::Clear() { fb_.Fill(0); }

void Screen::ClearRegion(const Rect& region) { fb_.FillRect(region, 0); }

Rect Screen::PageArea() const {
  return Rect{0, 0, layout_.width - layout_.menu_width, layout_.height};
}

Rect Screen::MenuArea() const {
  return Rect{layout_.width - layout_.menu_width, 0, layout_.menu_width,
              layout_.height};
}

Rect Screen::MessageArea() const {
  const Rect page = PageArea();
  return Rect{page.x, page.y, page.w,
              std::min(layout_.message_height, page.h)};
}

Rect Screen::LowerPageArea() const {
  const Rect page = PageArea();
  const int top = std::min(layout_.message_height, page.h);
  return Rect{page.x, page.y + top, page.w, page.h - top};
}

void Screen::DrawTextPage(const text::TextPage& page, const Rect& region) {
  ClearRegion(region);
  const int cw = Font5x7::kCellWidth;
  const int ch = Font5x7::kCellHeight;
  const int max_lines = region.h / ch;
  const int max_cols = region.w / cw;
  for (size_t li = 0;
       li < page.lines.size() && static_cast<int>(li) < max_lines; ++li) {
    std::string_view line = page.lines[li];
    if (static_cast<int>(line.size()) > max_cols) {
      line = line.substr(0, static_cast<size_t>(max_cols));
    }
    const int y = region.y + static_cast<int>(li) * ch;
    // Plain pass first.
    DrawText(region.x, y, line, 255, false, false);
    // Style runs over it.
    for (const text::StyledRun& run : page.styles) {
      if (run.line != static_cast<int>(li)) continue;
      const int from = std::clamp(run.col_begin, 0, max_cols);
      const int to = std::clamp(run.col_end, 0, max_cols);
      if (from >= to) continue;
      const bool bold = run.kind == text::Emphasis::kBold;
      const bool underline = run.kind == text::Emphasis::kUnderline ||
                             run.kind == text::Emphasis::kItalic;
      DrawText(region.x + from * cw, y,
               line.substr(static_cast<size_t>(from),
                           static_cast<size_t>(to - from)),
               255, bold, underline);
    }
  }
}

void Screen::DrawText(int x, int y, std::string_view line, uint8_t ink,
                      bool bold, bool underline) {
  Font5x7::DrawString(&fb_, x, y, line, ink, bold, underline);
}

void Screen::DrawTextScaled(int x, int y, std::string_view line, int scale,
                            uint8_t ink) {
  Font5x7::DrawStringScaled(&fb_, x, y, line, scale, ink);
}

namespace {

/// Composes `bm` onto `fb` at the region's origin with the compositing
/// rule `op`, cropped to the region's size. Only a bitmap larger than the
/// region is copied, and then only its crop.
void ComposeInRegion(Bitmap* fb, void (Bitmap::*op)(const Bitmap&, int, int),
                     const Bitmap& bm, const Rect& region) {
  if (bm.width() > region.w || bm.height() > region.h) {
    (fb->*op)(bm.SubBitmap(Rect{0, 0, region.w, region.h}), region.x,
              region.y);
  } else {
    (fb->*op)(bm, region.x, region.y);
  }
}

}  // namespace

void Screen::DrawBitmap(const Bitmap& bm, const Rect& region) {
  ComposeInRegion(&fb_, &Bitmap::Blit, bm, region);
}

void Screen::BlendBitmap(const Bitmap& bm, const Rect& region) {
  ComposeInRegion(&fb_, &Bitmap::BlendOver, bm, region);
}

void Screen::OverwriteBitmap(const Bitmap& bm, const Rect& region) {
  ComposeInRegion(&fb_, &Bitmap::OverwriteBy, bm, region);
}

void Screen::SetMenu(const std::vector<std::string>& options) {
  const Rect menu = MenuArea();
  ClearRegion(menu);
  // Separator line between page and menu.
  for (int y = 0; y < menu.h; ++y) fb_.Set(menu.x, y, 255);
  const int row_height = Font5x7::kCellHeight + 6;
  int y = menu.y + 4;
  for (const std::string& option : options) {
    if (y + row_height > menu.y + menu.h) break;
    // Option box.
    const Rect box{menu.x + 3, y, menu.w - 6, row_height - 2};
    for (int x = box.x; x < box.x + box.w; ++x) {
      fb_.Blend(x, box.y, 120);
      fb_.Blend(x, box.y + box.h - 1, 120);
    }
    for (int by = box.y; by < box.y + box.h; ++by) {
      fb_.Blend(box.x, by, 120);
      fb_.Blend(box.x + box.w - 1, by, 120);
    }
    const int max_cols = (box.w - 4) / Font5x7::kCellWidth;
    std::string_view label = option;
    if (static_cast<int>(label.size()) > max_cols) {
      label = label.substr(0, static_cast<size_t>(std::max(0, max_cols)));
    }
    DrawText(box.x + 2, box.y + 2, label, 255);
    y += row_height;
  }
}

void Screen::DrawStatusLine(std::string_view status) {
  const Rect page = PageArea();
  const int y = page.y + page.h - Font5x7::kCellHeight;
  ClearRegion(Rect{page.x, y, page.w, Font5x7::kCellHeight});
  DrawText(page.x + 2, y, status, 200);
}

image::Bitmap Screen::PageSnapshot() const {
  return fb_.SubBitmap(PageArea());
}

}  // namespace minos::render
