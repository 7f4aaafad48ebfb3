// The present workload: the paper's own presentation path. A handful of
// Workstations over the four-shard fabric, interleaved closed-loop on
// the main thread. Each cycle a workstation ranks a miniature strip,
// steps along it, presents the selected object, runs a pattern search
// (text for a visual object, spoken for its audio twin) and issues page
// commands. Every command is one event; its simulated latency is the
// clock time the command took, since a closed-loop user issues the next
// command when the previous one returns.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "corpus.h"
#include "fabric.h"
#include "layer_stats.h"
#include "minos/core/audio_browser.h"
#include "minos/core/visual_browser.h"
#include "minos/obs/metrics.h"
#include "minos/obs/trace.h"
#include "minos/render/screen.h"
#include "minos/runtime/task_pool.h"
#include "minos/server/workstation.h"
#include "minos/text/search.h"
#include "minos/voice/recognizer.h"
#include "stats.h"
#include "timed_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using minos::Micros;
using minos::Random;
using minos::Status;

struct Report {
  ObjectId visual = 0;
  ObjectId audio = 0;
  std::vector<std::string> words;     ///< Distinct words of the text.
  std::vector<std::string> patterns;  ///< Words of the closing paragraph.
  int visual_pages = 0;
};

class PresentWorkload : public Workload {
 public:
  explicit PresentWorkload(const RunOptions& options) : options_(options) {}

  void Setup() override;
  PhaseResult Run() override;

 private:
  static constexpr int kReports = 32;
  static constexpr int kWorkstations = 4;
  static constexpr int kQueries = 64;
  /// Timed-phase size: cycles per second of phase_seconds.
  static constexpr double kCyclesPerSecond = 90;

  RunOptions options_;
  minos::SimClock clock_;
  std::unique_ptr<Fabric> fabric_;
  std::vector<Report> reports_;
  std::map<ObjectId, size_t> report_of_;
  std::vector<std::vector<std::string>> queries_;
  /// Recognition index of each audio twin, built at insertion time.
  std::map<ObjectId, minos::text::WordIndex> recognition_;
  uint64_t user_bytes_ = 0;
};

std::vector<std::string> Words(const std::string& text) {
  std::vector<std::string> out;
  std::string w;
  for (const char c : text) {
    if (c >= 'a' && c <= 'z') {
      w += c;
    } else if (c >= 'A' && c <= 'Z') {
      w += static_cast<char>(c - 'A' + 'a');
    } else if (!w.empty()) {
      out.push_back(std::move(w));
      w.clear();
    }
  }
  if (!w.empty()) out.push_back(std::move(w));
  return out;
}

void PresentWorkload::Setup() {
  Random rng(options_.seed * 0x9E3779B97F4A7C15ULL + 29);
  fabric_ = std::make_unique<Fabric>(FabricSpec{}, &clock_);
  const Zipf words(600, 1.0);
  const minos::image::Image art = Illustration(rng, 96, 72);
  for (int r = 0; r < kReports; ++r) {
    const minos::text::Document doc =
        perfbench::Report(rng, words, 4 + static_cast<int>(rng.Uniform(3)),
                          24);
    Report rep;
    rep.visual = static_cast<ObjectId>(2 * r + 1);
    rep.audio = static_cast<ObjectId>(2 * r + 2);
    const minos::object::MultimediaObject visual =
        PagedObject(rep.visual, doc, &art, 2);
    const minos::object::MultimediaObject audio =
        AudioObject(rep.audio, doc, options_.seed + static_cast<uint64_t>(r));
    rep.visual_pages = PageCount(visual);
    for (const auto* obj : {&visual, &audio}) {
      if (!fabric_->router().Store(*obj).ok()) {
        std::fprintf(stderr, "setup: report %d does not fit\n", r);
        std::exit(2);
      }
    }
    user_bytes_ += ContentBytes(visual) + ContentBytes(audio);
    const std::vector<std::string> all = Words(doc.contents());
    std::set<std::string> seen;
    for (const std::string& w : all) {
      if (seen.insert(w).second) rep.words.push_back(w);
    }
    // The closing words always lie past page one.
    for (size_t i = all.size() - std::min<size_t>(all.size(), 6);
         i < all.size(); ++i) {
      rep.patterns.push_back(all[i]);
    }
    minos::voice::RecognizerParams exact;
    exact.hit_rate = 1.0;
    exact.false_alarm_rate = 0.0;
    const minos::voice::Recognizer recognizer(rep.patterns, exact);
    recognition_[rep.audio] = minos::voice::Recognizer::BuildIndex(
        recognizer.Recognize(audio.voice_part().track()).utterances);
    report_of_[rep.visual] = reports_.size();
    report_of_[rep.audio] = reports_.size();
    reports_.push_back(std::move(rep));
  }
  // Users re-run a limited set of queries, one or two words of one
  // report each, so every strip is non-empty and the workstation's
  // ranked-result cache sees repeats.
  for (int q = 0; q < kQueries; ++q) {
    const Report& target = reports_[rng.Uniform(reports_.size())];
    std::vector<std::string> query{
        target.words[rng.Uniform(target.words.size())]};
    if (rng.Bernoulli(0.5)) {
      query.push_back(target.words[rng.Uniform(target.words.size())]);
    }
    queries_.push_back(std::move(query));
  }
}

PhaseResult PresentWorkload::Run() {
  PhaseResult out;
  out.digest = kDigestSeed;
  minos::obs::MetricsRegistry& reg = minos::obs::MetricsRegistry::Default();
  std::unique_ptr<minos::runtime::TaskPool> pool;
  if (options_.workers > 0) {
    pool = std::make_unique<minos::runtime::TaskPool>(&clock_,
                                                      options_.workers);
  }
  std::unique_ptr<TimedStore> timed;
  minos::server::ObjectStore* store = &fabric_->router();
  if (options_.instrument) {
    timed = std::make_unique<TimedStore>(store);
    store = timed.get();
  }
  minos::obs::Tracer tracer(&clock_);
  struct Desk {
    std::unique_ptr<minos::render::Screen> screen;
    std::unique_ptr<minos::server::Workstation> ws;
    Random rng{0};
  };
  std::vector<Desk> desks(kWorkstations);
  for (int i = 0; i < kWorkstations; ++i) {
    Desk& d = desks[static_cast<size_t>(i)];
    d.screen = std::make_unique<minos::render::Screen>();
    d.ws = std::make_unique<minos::server::Workstation>(store, d.screen.get(),
                                                        &clock_);
    d.ws->EnablePrefetch();
    if (options_.traced) d.ws->SetTracer(&tracer);
    d.ws->SetTaskPool(pool.get());
    d.rng = Random(options_.seed * 7919ULL + static_cast<uint64_t>(i));
  }
  const int cycles =
      options_.reduced ? 24
                       : std::max(8, static_cast<int>(options_.phase_seconds *
                                                          kCyclesPerSecond +
                                                      0.5));

  double present_ms = 0, query_ms = 0, page_cmd_ms = 0;
  uint64_t page_cmds = 0;
  size_t depth_max = 0;
  reg.histogram("prefetch.wait_us")->Reset();
  reg.histogram("query.merge_depth")->Reset();
  const LayerProbe before = Probe(*fabric_, pool.get(), timed.get());
  out.content_bytes = user_bytes_;
  out.stored_bytes = before.fabric.bytes_written;
  out.cache_bytes = fabric_->cache_bytes();
  const double wall0 = WallSeconds();
  const double cpu0 = ProcessCpuSeconds();
  const Micros t0 = clock_.Now();

  // One event: runs `op`, books its simulated latency under `kind`, and
  // its wall time into `busy` (milliseconds) when instrumented.
  auto event = [&](const char* kind, double* busy_ms, auto&& op) -> Status {
    const Micros start = clock_.Now();
    const double w = options_.instrument ? WallSeconds() : 0;
    const Status s = op();
    if (busy_ms != nullptr && options_.instrument) {
      *busy_ms += (WallSeconds() - w) * 1e3;
    }
    const Micros waited = DueLatency(start, start, clock_.Now() - start);
    ++out.attempted;
    out.digest = Mix(out.digest, static_cast<uint64_t>(s.code()));
    out.digest = Mix(out.digest, static_cast<uint64_t>(waited));
    out.latency_ms[kind].push_back(static_cast<double>(waited) / 1e3);
    if (s.ok()) {
      ++out.completed;
    } else {
      ++out.failed;
      ++out.errors[std::string("errors.") + kind + "." +
                   std::string(minos::StatusCodeName(s.code()))];
    }
    return s;
  };
  auto check = [&out](bool ok, const std::string& what) {
    if (!ok && out.check_failures.size() < 20) {
      out.check_failures.push_back(what);
    }
  };

  for (int c = 0; c < cycles; ++c) {
    Desk& d = desks[static_cast<size_t>(c % kWorkstations)];
    minos::server::Workstation& ws = *d.ws;
    const std::vector<std::string>& query =
        queries_[d.rng.Uniform(queries_.size())];
    std::optional<minos::server::MiniatureBrowser> strip;
    if (!event("search", &query_ms, [&] {
          auto b = ws.QueryRanked(query, 8);
          if (!b.ok()) return b.status();
          strip = std::move(*b);
          return strip->empty() ? Status::NotFound("empty strip")
                                : Status::OK();
        }).ok()) {
      continue;
    }
    const int steps = static_cast<int>(
        d.rng.Uniform(std::min<uint64_t>(3, strip->size())));
    for (int s = 0; s < steps; ++s) {
      event("strip", nullptr, [&] { return strip->Next(); });
    }
    const minos::StatusOr<ObjectId> selected = strip->Select();
    if (!selected.ok()) continue;
    const ObjectId id = *selected;
    const Report& rep = reports_[report_of_.at(id)];
    const bool audio = id == rep.audio;
    // A voice object moves a whole voice part off the shard's disk before
    // its first page plays, tens of times a visual object's bytes, so the
    // two kinds of open are reported apart.
    if (!event(audio ? "open_voice" : "open", &present_ms,
               [&] { return ws.Present(id); })
             .ok()) {
      continue;
    }
    minos::core::PresentationManager& pm = ws.presentation();
    auto current = pm.CurrentObject();
    check(current.ok() && (*current)->id() == id,
          "Present(" + std::to_string(id) + ") did not open it");
    const std::string& pattern =
        rep.patterns[d.rng.Uniform(rep.patterns.size())];
    minos::core::VisualBrowser* vb = audio ? nullptr : pm.visual_browser();
    minos::core::AudioBrowser* ab = audio ? pm.audio_browser() : nullptr;
    if (vb == nullptr && ab == nullptr) {
      check(false,
            "object " + std::to_string(id) + " opened without a browser");
      continue;
    }
    if (ab != nullptr) ab->SetRecognitionIndex(recognition_.at(id));
    event("pattern", nullptr, [&] {
      return audio ? ab->FindSpokenPattern(pattern) : vb->FindPattern(pattern);
    });
    auto page = [&] {
      return audio ? ab->current_page() : vb->current_page();
    };
    const int count = audio ? ab->page_count() : vb->page_count();
    check(audio || count == rep.visual_pages,
          "object " + std::to_string(id) + " presents " +
              std::to_string(count) + " pages, catalog has " +
              std::to_string(rep.visual_pages));
    const int commands = 3 + static_cast<int>(d.rng.Uniform(6));
    for (int k = 0; k < commands; ++k) {
      const int from = page();
      int expected;
      const bool jump = from >= count || d.rng.Bernoulli(0.25);
      if (jump) {
        expected = 1 + static_cast<int>(d.rng.Uniform(
                           static_cast<uint64_t>(count)));
      } else {
        expected = from + 1;
      }
      event("turn", &page_cmd_ms, [&] {
        if (jump) {
          return audio ? ab->GotoPage(expected) : vb->GotoPage(expected);
        }
        return audio ? ab->NextPage() : vb->NextPage();
      });
      ++page_cmds;
      check(page() == expected,
            "page command on object " + std::to_string(id) + " landed on " +
                std::to_string(page()) + ", expected " +
                std::to_string(expected));
    }
    if (minos::server::PrefetchQueue* q = ws.prefetch()) {
      depth_max = std::max(depth_max, q->queued_count() + q->ready_count());
    }
  }

  out.wall_s = WallSeconds() - wall0;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  out.sim_elapsed_us = clock_.Now() - t0;
  out.digest = Mix(out.digest, static_cast<uint64_t>(out.sim_elapsed_us));
  out.write_amp = static_cast<double>(fabric_->Totals().bytes_written) /
                  static_cast<double>(user_bytes_);
  if (options_.instrument) {
    std::map<std::string, double> v;
    FillProbeMetrics(before, Probe(*fabric_, pool.get(), timed.get()),
                     out.attempted, 0, v);
    v["prefetch.queue_depth_max"] = static_cast<double>(depth_max);
    v["ws.present.busy_ms"] = present_ms;
    v["ws.query_ranked.busy_ms"] = query_ms;
    v["ws.page_cmd.busy_us"] =
        page_cmds > 0 ? page_cmd_ms * 1e3 / static_cast<double>(page_cmds) : 0;
    if (options_.traced) {
      FillSpanMetrics(ExclusiveTime(tracer.spans()), v);
      out.dropped_spans = tracer.dropped_spans();
      v["obs.dropped_spans"] = static_cast<double>(out.dropped_spans);
    }
    out.layers = LayerMetrics(v);
  }
  // The fabric outlives this phase's tracer and pool.
  for (Desk& d : desks) {
    d.ws->SetTracer(nullptr);
    d.ws->SetTaskPool(nullptr);
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakePresentWorkload(const RunOptions& options) {
  return std::make_unique<PresentWorkload>(options);
}

}  // namespace perfbench
