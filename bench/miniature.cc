// MINI-1: miniature rendering and page-compositing raster cost.
// Google-benchmark measurement of the raster kernels behind miniature
// strips and composed pages: the box-filter miniature of a 320x240
// bitmap at scale 3, a full-screen FillRect (every page clear), and
// laying a page-area bitmap onto the screen under each compositing rule
// (Blit, the transparency BlendOver and the OverwriteBy rule).

#include <benchmark/benchmark.h>

#include <cstdint>

#include "minos/image/bitmap.h"
#include "minos/image/miniature.h"
#include "minos/render/screen.h"
#include "scenario_lib.h"

namespace minos {
namespace {

using image::Bitmap;
using image::Rect;

void BM_MiniatureBuild(benchmark::State& state) {
  const image::Image xray = bench::XrayBitmap(320, 240);
  for (auto _ : state) {
    auto mini = image::Miniature::Build(xray, 3);
    benchmark::DoNotOptimize(mini.ok());
  }
  state.SetItemsProcessed(state.iterations() * 320 * 240);
}
BENCHMARK(BM_MiniatureBuild)->Unit(benchmark::kMicrosecond);

void BM_FillRectFullScreen(benchmark::State& state) {
  const render::ScreenLayout layout;
  Bitmap fb(layout.width, layout.height);
  uint8_t ink = 0;
  for (auto _ : state) {
    fb.FillRect(Rect{0, 0, layout.width, layout.height}, ink++);
    benchmark::DoNotOptimize(fb.pixels().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * layout.width * layout.height);
}
BENCHMARK(BM_FillRectFullScreen)->Unit(benchmark::kMicrosecond);

/// Lays a page-area bitmap onto the screen framebuffer with `op`.
void RunCompose(benchmark::State& state,
                void (Bitmap::*op)(const Bitmap&, int, int)) {
  const render::ScreenLayout layout;
  const Rect page{0, 0, layout.width - layout.menu_width, layout.height};
  const Bitmap ink = bench::XrayBitmap(page.w, page.h).Render();
  Bitmap fb(layout.width, layout.height);
  for (auto _ : state) {
    (fb.*op)(ink, page.x, page.y);
    benchmark::DoNotOptimize(fb.pixels().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * page.area());
}

void BM_BlitPage(benchmark::State& state) {
  RunCompose(state, &Bitmap::Blit);
}
BENCHMARK(BM_BlitPage)->Unit(benchmark::kMicrosecond);

void BM_BlendOverPage(benchmark::State& state) {
  RunCompose(state, &Bitmap::BlendOver);
}
BENCHMARK(BM_BlendOverPage)->Unit(benchmark::kMicrosecond);

void BM_OverwriteByPage(benchmark::State& state) {
  RunCompose(state, &Bitmap::OverwriteBy);
}
BENCHMARK(BM_OverwriteByPage)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace minos
