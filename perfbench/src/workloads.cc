// The three SessionManager workloads: browse, search and write_mix.
//
// Load shape. Users are objects driven by one thread; each acts on its
// own cadence (every `cadence` epochs from its arrival epoch). Epoch e is
// due at t0 + e * epoch_us of simulated time: the load generator advances the
// clock to the due time when the fabric kept up and starts late when it
// did not, and every latency counts from the event's due time, so a
// stall shows on every event queued behind it (open loop in simulated
// time). The wall clock runs closed-loop: the next epoch is submitted as
// soon as PumpEpoch returns. An event the manager defers (Unavailable:
// queued for admission, or the shard's link leases exhausted) is
// resubmitted every epoch with its first due time; it fails only if it
// is never served.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "corpus.h"
#include "fabric.h"
#include "layer_stats.h"
#include "minos/obs/metrics.h"
#include "minos/obs/trace.h"
#include "minos/query/query_engine.h"
#include "minos/query/scored_index.h"
#include "minos/runtime/task_pool.h"
#include "minos/session/session_manager.h"
#include "stats.h"
#include "timed_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using minos::Micros;
using minos::Random;
using minos::Status;
using minos::session::SessionEvent;
using minos::session::SessionId;
using minos::session::SessionOutcome;
using minos::session::SessionState;
using Kind = SessionEvent::Kind;

enum class Role : uint8_t {
  kReader,    ///< Opens a popular object, turns one page at a time.
  kSkimmer,   ///< Same, three pages at a time.
  kJumper,    ///< Opens, then jumps to random pages.
  kIdler,     ///< Opens once and goes silent until reaped.
  kSearcher,  ///< Ranked searches only.
  kOpener,    ///< Searches, then opens the top hit's first page.
  kWriter,    ///< Appends text to hot objects.
};

const char* RoleName(Role r) {
  switch (r) {
    case Role::kReader: return "reader";
    case Role::kSkimmer: return "skimmer";
    case Role::kJumper: return "jumper";
    case Role::kIdler: return "idler";
    case Role::kSearcher: return "searcher";
    case Role::kOpener: return "opener";
    case Role::kWriter: return "writer";
  }
  return "unknown";
}

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kSearch: return "search";
    case Kind::kOpen: return "open";
    case Kind::kPageTurn: return "turn";
    case Kind::kJump: return "turn";
    case Kind::kAppend: return "append";
    case Kind::kClose: return "close";
  }
  return "unknown";
}

// Shared by every session workload.
constexpr double kWordZipf = 1.0;        ///< Word popularity skew.
constexpr uint64_t kPrefetchBudget = 64 * 1024;  ///< Per session, bytes.
constexpr size_t kSearchK = 8;           ///< Top-k of every search.
constexpr int kMaxQueryWords = 3;

/// Everything that sizes and shapes one session workload.
struct SessionSpec {
  // Catalog.
  int objects = 0;
  int paragraphs_lo = 0, paragraphs_hi = 0;
  int words_per_para = 0;
  int image_every = 0;  ///< 0 = text only.
  size_t vocabulary = 0;
  double object_zipf = 0;  ///< 0 = uniform object choice.
  FabricSpec fabric;
  // Population and cadence.
  int users = 0;
  size_t max_concurrent = 0;
  std::vector<Role> mix;  ///< Role of user i is mix[i % mix.size()].
  int cadence = 4;
  /// Users arrive spread evenly over this many epochs, so the fabric
  /// sees a ramp instead of one thundering herd of opens.
  int arrival_epochs = 1;
  Micros epoch_us = 0;
  Micros idle_deadline_us = 0;
  int streams_per_shard = 0;
  int turns_lo = 0, turns_hi = 0;  ///< Page actions per opened object.
  // Timed-phase size: epochs per second of phase_seconds (calibrated so
  // a phase takes roughly that wall time on a 4-thread host).
  double epochs_per_second = 1;
  int min_epochs = 4;
  // Searches.
  size_t query_pool = 0;
  // Output checks.
  size_t checked_queries = 0;  ///< Pool queries compared to exhaustive.
};

std::vector<Role> Repeat(std::initializer_list<std::pair<Role, int>> parts) {
  std::vector<Role> mix;
  for (const auto& [role, n] : parts) mix.insert(mix.end(), n, role);
  return mix;
}

SessionSpec BrowseSpec(bool reduced) {
  SessionSpec s;
  // 384 paged reports of 8-16 paragraphs with an illustration every
  // fourth page: ~15 MB on the devices (replicas included) against
  // 2.1 MB of BlockCache across the four shards.
  s.objects = reduced ? 64 : 384;
  s.paragraphs_lo = 8;
  s.paragraphs_hi = 16;
  s.words_per_para = 40;
  s.image_every = 4;
  s.vocabulary = 4000;
  s.object_zipf = 0.9;
  s.users = reduced ? 300 : 2400;
  s.max_concurrent = reduced ? 250 : 2000;
  s.mix = Repeat({{Role::kReader, 9},
                  {Role::kSkimmer, 5},
                  {Role::kJumper, 3},
                  {Role::kIdler, 3}});
  s.cadence = 3;
  s.arrival_epochs = 12;
  s.epoch_us = minos::MillisToMicros(12000);
  s.idle_deadline_us = minos::SecondsToMicros(60);
  s.streams_per_shard = reduced ? 80 : 600;
  s.turns_lo = 2;
  s.turns_hi = 6;
  s.epochs_per_second = 4;
  s.min_epochs = reduced ? 10 : 4;
  return s;
}

SessionSpec SearchSpec(bool reduced) {
  SessionSpec s;
  // 10k one-page index cards over a 6000-word Zipf vocabulary: common
  // head words have postings in thousands of cards, the tail in a
  // handful.
  s.objects = reduced ? 1500 : 10000;
  s.paragraphs_lo = 1;
  s.paragraphs_hi = 1;
  s.words_per_para = 32;
  s.vocabulary = 6000;
  s.users = reduced ? 48 : 256;
  s.max_concurrent = 512;
  s.mix = Repeat({{Role::kSearcher, 7}, {Role::kOpener, 1}});
  s.cadence = 2;
  s.arrival_epochs = 2;
  s.epoch_us = minos::MillisToMicros(500);
  s.idle_deadline_us = minos::SecondsToMicros(600);
  s.streams_per_shard = 512;
  s.epochs_per_second = 2.8;
  s.min_epochs = reduced ? 8 : 4;
  s.query_pool = reduced ? 128 : 512;
  s.checked_queries = reduced ? 16 : 48;
  return s;
}

SessionSpec WriteMixSpec(bool reduced) {
  SessionSpec s;
  // A hot set of 8 reports (~0.6 MB on the devices, replicas included)
  // that fits in the 2.1 MB of BlockCache. The devices are the same
  // 32 MiB write-once shards, on the zero-cost model session_storm
  // uses: every append re-archives the whole object image, which on a
  // seek-charging disk costs seconds of simulated time per append in
  // the serial front-end lane, so no open-loop cadence could reach the
  // device-full regime within one run. Append cost shows here in wall
  // and CPU time, write_amp, bytes written per append and error_rate.
  s.objects = 8;
  s.paragraphs_lo = 24;
  s.paragraphs_hi = 32;
  s.words_per_para = 40;
  s.image_every = 4;
  s.vocabulary = 1500;
  s.fabric.cost = minos::storage::DeviceCostModel::Instant();
  s.users = reduced ? 64 : 480;
  s.max_concurrent = 512;
  s.mix = Repeat({{Role::kReader, 9},
                  {Role::kSearcher, 3},
                  {Role::kWriter, 4}});
  s.cadence = 4;
  s.arrival_epochs = 4;
  s.epoch_us = minos::MillisToMicros(1000);
  s.idle_deadline_us = minos::SecondsToMicros(60);
  s.streams_per_shard = 512;
  s.turns_lo = 4;
  s.turns_hi = 16;
  s.epochs_per_second = 20;
  s.min_epochs = reduced ? 12 : 4;
  s.query_pool = 256;
  return s;
}

struct Query {
  std::vector<std::string> words;
  ObjectId top_hit = 0;  ///< Disjunctive reference top-1 (0 = no hit).
  size_t hits = 0;       ///< Disjunctive reference hit count (<= k).
};

struct AppendRecord {
  ObjectId object = 0;
  std::string token;  ///< A word no catalog object contains.
  std::string text;
  bool acked = false;
};

/// One scripted user and the load generator's model of its session.
struct User {
  Role role = Role::kReader;
  Random rng{0};
  int arrival = 0;  ///< Epoch of the first action; then every cadence.
  SessionId sid = 0;  ///< 0 = no live session.
  ObjectId object = 0;
  int page = 0;
  int page_count = 0;
  int actions_left = 0;
  bool idled = false;         ///< Idler has opened; now silent.
  bool closing = false;       ///< Drain: the next action is a close.
  ObjectId next_open = 0;     ///< Opener: top hit of the last search.
  std::deque<Micros> ticks;   ///< Due times of actions not yet built.
  struct Pending {
    SessionEvent ev;
    Micros due = 0;
    int expected_page = 0;
    size_t query = 0;
    size_t append = 0;  ///< Index into the append log (kAppend).
  };
  std::optional<Pending> inflight;
};

class SessionWorkload : public Workload {
 public:
  SessionWorkload(SessionSpec spec, const RunOptions& options)
      : spec_(std::move(spec)), options_(options) {}

  void Setup() override;
  PhaseResult Run() override;

 private:
  /// The checks' reference: the catalog's content index, built by the
  /// benchmark itself, and the query pool with its exhaustive answers.
  void BuildReference();
  ObjectId PickObject(Random& rng) const;
  /// Builds `u`'s next event, due at `due`; false when it has none.
  bool Build(User& u, minos::session::SessionManager& manager, Micros due);
  /// Folds one final (non-deferred) outcome into the model and result.
  void Settle(User& u, const SessionOutcome& o, Micros epoch_start,
              minos::session::SessionManager& manager, PhaseResult& out);
  void CheckSearch(PhaseResult& out);
  void CheckAppends(PhaseResult& out);

  SessionSpec spec_;
  RunOptions options_;

  minos::SimClock clock_;
  std::unique_ptr<Fabric> fabric_;
  std::vector<int> page_counts_;  ///< [id - 1] -> visual pages.
  std::unique_ptr<Zipf> words_;
  std::unique_ptr<Zipf> popularity_;
  uint64_t user_bytes_ = 0;
  std::vector<std::string> texts_;  ///< [id - 1] -> text (query pools).
  minos::query::ScoredIndex reference_;
  std::vector<Query> queries_;
  std::vector<AppendRecord> appends_;
  uint64_t appends_attempted_ = 0;
};

void SessionWorkload::Setup() {
  Random rng(options_.seed * 0x9E3779B97F4A7C15ULL + 17);
  fabric_ = std::make_unique<Fabric>(spec_.fabric, &clock_);
  words_ = std::make_unique<Zipf>(spec_.vocabulary, kWordZipf);
  if (spec_.object_zipf > 0) {
    popularity_ = std::make_unique<Zipf>(static_cast<size_t>(spec_.objects),
                                         spec_.object_zipf);
  }
  std::vector<minos::image::Image> art;
  if (spec_.image_every > 0) {
    for (int i = 0; i < 4; ++i) art.push_back(Illustration(rng, 96, 72));
  }
  for (int i = 1; i <= spec_.objects; ++i) {
    const int paragraphs = static_cast<int>(
        rng.UniformRange(spec_.paragraphs_lo, spec_.paragraphs_hi));
    const minos::image::Image* picture =
        art.empty() ? nullptr : &art[rng.Uniform(art.size())];
    const minos::object::MultimediaObject obj = PagedObject(
        static_cast<ObjectId>(i),
        Report(rng, *words_, paragraphs, spec_.words_per_para), picture,
        spec_.image_every);
    if (!fabric_->router().Store(obj).ok()) {
      std::fprintf(stderr, "setup: catalog object %d does not fit\n", i);
      std::exit(2);
    }
    page_counts_.push_back(PageCount(obj));
    user_bytes_ += ContentBytes(obj);
    if (spec_.query_pool > 0) texts_.push_back(obj.text_part().contents());
  }
}

void SessionWorkload::BuildReference() {
  if (spec_.query_pool == 0) return;
  for (size_t i = 0; i < texts_.size(); ++i) {
    minos::query::AppendedContent content;
    content.text = texts_[i];
    reference_.Append(static_cast<ObjectId>(i + 1), content, 0.0);
  }
  Random rng(options_.seed * 0xD1B54A32D192ED03ULL + 5);
  const minos::query::QueryEngine exhaustive(
      {}, minos::query::ScoringStrategy::kExhaustive);
  for (size_t q = 0; q < spec_.query_pool; ++q) {
    Query query;
    const int n = 1 + static_cast<int>(rng.Uniform(
                          static_cast<uint64_t>(kMaxQueryWords)));
    while (static_cast<int>(query.words.size()) < n) {
      std::string w = VocabWord(words_->Sample(rng));
      if (std::find(query.words.begin(), query.words.end(), w) ==
          query.words.end()) {
        query.words.push_back(std::move(w));
      }
    }
    const minos::query::RankedQuery ref = exhaustive.TopK(
        reference_, reference_, query.words, kSearchK,
        minos::query::QueryMode::kDisjunctive);
    query.hits = ref.hits.size();
    if (!ref.hits.empty()) query.top_hit = ref.hits.front().id;
    queries_.push_back(std::move(query));
  }
}

ObjectId SessionWorkload::PickObject(Random& rng) const {
  const size_t n = static_cast<size_t>(spec_.objects);
  const size_t rank =
      popularity_ != nullptr ? popularity_->Sample(rng) : rng.Uniform(n);
  return static_cast<ObjectId>(rank + 1);
}

bool SessionWorkload::Build(User& u, minos::session::SessionManager& manager,
                            Micros due) {
  if (u.sid != 0 && manager.state(u.sid) == SessionState::kClosed) {
    u.sid = 0;  // Reaped.
    u.object = 0;
    u.idled = false;
  }
  User::Pending p;
  p.due = due;
  SessionEvent& ev = p.ev;
  if (u.closing) {
    if (u.sid == 0) return false;
    ev.kind = Kind::kClose;
  } else {
    if (u.sid == 0) {
      u.sid = manager.Open(RoleName(u.role));
      u.object = 0;
      u.page = 0;
    }
    switch (u.role) {
      case Role::kReader:
      case Role::kSkimmer:
      case Role::kJumper:
      case Role::kIdler:
        if (u.object == 0) {
          ev.kind = Kind::kOpen;
          ev.object = PickObject(u.rng);
          p.expected_page = 1;
        } else if (u.actions_left <= 0 ||
                   (u.role != Role::kJumper && u.page >= u.page_count)) {
          ev.kind = Kind::kClose;
        } else if (u.role == Role::kJumper) {
          ev.kind = Kind::kJump;
          ev.page = 1 + static_cast<int>(u.rng.Uniform(
                            static_cast<uint64_t>(u.page_count)));
          p.expected_page = ev.page;
        } else {
          ev.kind = Kind::kPageTurn;
          ev.delta = u.role == Role::kSkimmer ? 3 : 1;
          p.expected_page = std::min(u.page + ev.delta, u.page_count);
        }
        break;
      case Role::kOpener:
        if (u.next_open != 0) {
          ev.kind = Kind::kOpen;
          ev.object = u.next_open;
          p.expected_page = 1;
          u.next_open = 0;
          break;
        }
        [[fallthrough]];
      case Role::kSearcher:
        ev.kind = Kind::kSearch;
        p.query = u.rng.Uniform(queries_.size());
        ev.words = queries_[p.query].words;
        break;
      case Role::kWriter: {
        ev.kind = Kind::kAppend;
        ev.object = PickObject(u.rng);
        AppendRecord rec;
        rec.object = ev.object;
        // Ranks past the vocabulary never occur in the catalog, so each
        // append's token is unique to it.
        rec.token = VocabWord(spec_.vocabulary + appends_.size());
        rec.text = " Appended finding " + rec.token + " " +
                   VocabWord(words_->Sample(u.rng)) + ".";
        ev.append_text = rec.text;
        p.append = appends_.size();
        appends_.push_back(std::move(rec));
        break;
      }
    }
  }
  ev.session = u.sid;
  u.inflight = std::move(p);
  return true;
}

void SessionWorkload::Settle(User& u, const SessionOutcome& o,
                             Micros epoch_start,
                             minos::session::SessionManager& manager,
                             PhaseResult& out) {
  const User::Pending& p = *u.inflight;
  const char* kind = KindName(p.ev.kind);
  ++out.attempted;
  if (p.ev.kind == Kind::kAppend) ++appends_attempted_;
  const Micros waited = DueLatency(p.due, epoch_start, o.latency_us);
  out.digest = Mix(out.digest, static_cast<uint64_t>(waited));
  if (p.ev.kind != Kind::kClose) {
    out.latency_ms[kind].push_back(static_cast<double>(waited) / 1e3);
  }
  auto check = [&out](bool ok, const std::string& what) {
    if (!ok && out.check_failures.size() < 20) {
      out.check_failures.push_back(what);
    }
  };
  if (!o.status.ok()) {
    ++out.failed;
    ++out.errors[std::string("errors.") + kind + "." +
                 std::string(minos::StatusCodeName(o.status.code()))];
    if (p.ev.kind == Kind::kOpen) u.object = 0;
    if (p.ev.kind == Kind::kClose) {
      u.sid = 0;
      u.closing = false;
    }
    if (p.ev.kind == Kind::kPageTurn || p.ev.kind == Kind::kJump) {
      u.page = manager.page(u.sid);
      --u.actions_left;
    }
    return;
  }
  ++out.completed;
  switch (p.ev.kind) {
    case Kind::kOpen: {
      u.object = p.ev.object;
      u.page = 1;
      u.page_count = page_counts_[p.ev.object - 1];
      u.actions_left = static_cast<int>(
          u.rng.UniformRange(spec_.turns_lo, spec_.turns_hi));
      if (u.role == Role::kIdler) u.idled = true;
      check(manager.page(u.sid) == 1 &&
                manager.page_count(u.sid) == u.page_count,
            "open of object " + std::to_string(p.ev.object) +
                " landed on page " + std::to_string(manager.page(u.sid)) +
                " of " + std::to_string(manager.page_count(u.sid)) +
                ", expected 1 of " + std::to_string(u.page_count));
      break;
    }
    case Kind::kPageTurn:
    case Kind::kJump:
      u.page = p.expected_page;
      --u.actions_left;
      check(manager.page(u.sid) == p.expected_page,
            std::string(kind) + " of session " + std::to_string(u.sid) +
                " landed on page " + std::to_string(manager.page(u.sid)) +
                ", expected " + std::to_string(p.expected_page));
      break;
    case Kind::kSearch: {
      const Query& q = queries_[p.query];
      // Appends change the corpus, so the reference holds only where no
      // user writes.
      const bool writers =
          std::count(spec_.mix.begin(), spec_.mix.end(), Role::kWriter) > 0;
      check(writers || o.results == q.hits,
            "search returned " + std::to_string(o.results) +
                " hits, reference " + std::to_string(q.hits));
      if (u.role == Role::kOpener) u.next_open = q.top_hit;
      break;
    }
    case Kind::kAppend:
      appends_[p.append].acked = true;
      break;
    case Kind::kClose:
      u.sid = 0;
      u.object = 0;
      u.closing = false;
      break;
  }
}

PhaseResult SessionWorkload::Run() {
  PhaseResult out;
  out.digest = kDigestSeed;
  BuildReference();
  minos::obs::MetricsRegistry& reg = minos::obs::MetricsRegistry::Default();
  std::unique_ptr<minos::runtime::TaskPool> pool;
  if (options_.workers > 0) {
    pool = std::make_unique<minos::runtime::TaskPool>(&clock_,
                                                      options_.workers);
  }
  minos::server::ShardRouter& router = fabric_->router();
  std::unique_ptr<TimedStore> timed;
  minos::server::ObjectStore* store = &router;
  if (options_.instrument) {
    timed = std::make_unique<TimedStore>(&router);
    store = timed.get();
  }
  minos::session::SessionOptions so;
  so.max_concurrent = spec_.max_concurrent;
  so.idle_deadline_us = spec_.idle_deadline_us;
  so.prefetch_budget_bytes = kPrefetchBudget;
  so.streams_per_shard = spec_.streams_per_shard;
  so.search_k = kSearchK;
  so.prefetch.max_inflight_per_pump = 4096;
  so.prefetch.ready_capacity = 8192;
  minos::session::SessionManager manager(store, &clock_, so);
  manager.SetTaskPool(pool.get());
  minos::obs::Tracer tracer(&clock_);
  if (options_.traced) {
    manager.SetTracer(&tracer);
    if (pool != nullptr) pool->SetTracer(&tracer);
  }
  int64_t append_ns = 0;
  manager.SetAppendHandler([&](ObjectId id, const std::string& text) {
    const double t = options_.instrument ? WallSeconds() : 0;
    minos::server::ObjectServer::AppendParts parts;
    parts.text = text;
    const Status s = router.Append(id, parts).status();
    if (options_.instrument) {
      append_ns += static_cast<int64_t>((WallSeconds() - t) * 1e9);
    }
    return s;
  });

  std::vector<User> users(static_cast<size_t>(spec_.users));
  for (size_t i = 0; i < users.size(); ++i) {
    users[i].role = spec_.mix[i % spec_.mix.size()];
    users[i].rng = Random(options_.seed * 1000003ULL + i);
    users[i].arrival = static_cast<int>(
        i * static_cast<size_t>(spec_.arrival_epochs) / users.size());
  }
  const int epochs =
      options_.reduced
          ? spec_.min_epochs
          : std::max(spec_.min_epochs,
                     static_cast<int>(options_.phase_seconds *
                                      spec_.epochs_per_second + 0.5));
  constexpr int kDrainEpochs = 6;

  reg.histogram("prefetch.wait_us")->Reset();
  reg.histogram("query.merge_depth")->Reset();
  const LayerProbe before = Probe(*fabric_, pool.get(), timed.get());
  out.content_bytes = user_bytes_;
  out.stored_bytes = before.fabric.bytes_written;
  out.cache_bytes = fabric_->cache_bytes();
  std::vector<double> lags_ms, pump_wall_ms;
  double self_wall_ms = 0;
  uint64_t submissions = 0, deferrals = 0;
  size_t depth_max = 0;

  const double wall0 = WallSeconds();
  const double cpu0 = ProcessCpuSeconds();
  const Micros t0 = clock_.Now();
  // Three modes: actions on cadence; a drain (no new actions, and a user
  // with nothing pending closes its session, so queued sessions are
  // admitted and served); a final epoch that closes every live session.
  enum class Mode { kCadence, kDrain, kFinal };
  int e = 0;
  auto alive = [&manager](const User& u) {
    return u.sid != 0 && manager.state(u.sid) != SessionState::kClosed;
  };
  auto run_epoch = [&](Mode mode) {
    const Micros due = t0 + static_cast<Micros>(e++) * spec_.epoch_us;
    clock_.AdvanceTo(due);
    // The final epoch reaps first, so no close races the idle reaper.
    if (mode == Mode::kFinal) manager.PumpEpoch({});
    const Micros start = clock_.Now();
    lags_ms.push_back(static_cast<double>(start - due) / 1e3);
    out.digest = Mix(out.digest, static_cast<uint64_t>(start - due));
    std::vector<size_t> who;
    std::vector<SessionEvent> batch;
    for (size_t i = 0; i < users.size(); ++i) {
      User& u = users[i];
      const bool idle = !u.inflight && u.ticks.empty();
      const bool waiting_for_reaper =
          u.role == Role::kIdler && u.idled && alive(u);
      if (mode == Mode::kCadence && e - 1 >= u.arrival &&
          (e - 1 - u.arrival) % spec_.cadence == 0 && !waiting_for_reaper) {
        u.ticks.push_back(due);
      } else if (mode != Mode::kCadence && idle && alive(u) &&
                 (mode == Mode::kFinal || !waiting_for_reaper)) {
        u.closing = true;
        u.ticks.push_back(due);
      }
      if (!u.inflight && !u.ticks.empty()) {
        const Micros tick = u.ticks.front();
        u.ticks.pop_front();
        if (!Build(u, manager, tick)) continue;
      }
      if (u.inflight) {
        who.push_back(i);
        batch.push_back(u.inflight->ev);
      }
    }
    if (batch.empty() && mode == Mode::kDrain) return false;
    const double pw0 = options_.instrument ? WallSeconds() : 0;
    const int64_t store0 = timed != nullptr ? timed->ThreadBusyNs() : 0;
    const std::vector<SessionOutcome> outcomes = manager.PumpEpoch(batch);
    if (options_.instrument) {
      const double pump_ms = (WallSeconds() - pw0) * 1e3;
      pump_wall_ms.push_back(pump_ms);
      self_wall_ms +=
          pump_ms - static_cast<double>(timed->ThreadBusyNs() - store0) / 1e6;
    }
    submissions += outcomes.size();
    for (size_t j = 0; j < outcomes.size(); ++j) {
      User& u = users[who[j]];
      const SessionOutcome& o = outcomes[j];
      out.digest = Mix(out.digest, static_cast<uint64_t>(o.status.code()));
      out.digest = Mix(out.digest, static_cast<uint64_t>(o.latency_us));
      out.digest = Mix(out.digest, o.prefetch_hit ? 1 : 0);
      out.digest = Mix(out.digest, o.results);
      if (o.status.code() == Status::Code::kUnavailable) {
        ++deferrals;  // Resubmitted next epoch with its first due time.
        continue;
      }
      Settle(u, o, start, manager, out);
      u.inflight.reset();
    }
    depth_max = std::max(depth_max, manager.prefetch()->queued_count() +
                                        manager.prefetch()->ready_count());
    return true;
  };
  while (e < epochs) run_epoch(Mode::kCadence);
  for (int d = 0; d < kDrainEpochs && run_epoch(Mode::kDrain); ++d) {
  }
  // Whatever is still pending was never served.
  for (User& u : users) {
    const size_t never = u.ticks.size() + (u.inflight ? 1 : 0);
    u.ticks.clear();
    u.inflight.reset();
    if (never == 0) continue;
    out.attempted += never;
    out.failed += never;
    out.errors["errors.never_served.Unavailable"] += never;
  }
  run_epoch(Mode::kFinal);
  out.wall_s = WallSeconds() - wall0;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  out.sim_elapsed_us = clock_.Now() - t0;
  out.digest = Mix(out.digest, static_cast<uint64_t>(out.sim_elapsed_us));

  const FabricTotals totals = fabric_->Totals();
  uint64_t appended = 0;
  for (const AppendRecord& a : appends_) {
    if (a.acked) appended += a.text.size();
  }
  out.write_amp = static_cast<double>(totals.bytes_written) /
                  static_cast<double>(user_bytes_ + appended);

  if (options_.instrument) {
    std::map<std::string, double> v;
    FillProbeMetrics(before, Probe(*fabric_, pool.get(), timed.get()),
                     out.attempted, appends_attempted_, v);
    v["session.pump_wall_ms"] = Median(pump_wall_ms);
    v["session.self_wall_ms"] = self_wall_ms;
    v["session.deferred_ratio"] =
        submissions > 0 ? static_cast<double>(deferrals) /
                              static_cast<double>(submissions)
                        : 0;
    v["driver.lag_p99_ms"] = Percentile(lags_ms, 99);
    v["prefetch.queue_depth_max"] = static_cast<double>(depth_max);
    v["server.append.busy_ms"] = static_cast<double>(append_ns) / 1e6;
    if (options_.traced) {
      FillSpanMetrics(ExclusiveTime(tracer.spans()), v);
      out.dropped_spans = tracer.dropped_spans();
      v["obs.dropped_spans"] = static_cast<double>(out.dropped_spans);
    }
    out.layers = LayerMetrics(v);
  }
  CheckSearch(out);
  CheckAppends(out);
  // The fabric outlives this phase's tracer and pool.
  manager.SetTracer(nullptr);
  manager.SetTaskPool(nullptr);
  return out;
}

void SessionWorkload::CheckSearch(PhaseResult& out) {
  const minos::query::QueryEngine exhaustive(
      {}, minos::query::ScoringStrategy::kExhaustive);
  const size_t n = std::min(spec_.checked_queries, queries_.size());
  size_t differ = 0;
  for (size_t q = 0; q < n; ++q) {
    for (const minos::query::QueryMode mode :
         {minos::query::QueryMode::kDisjunctive,
          minos::query::QueryMode::kConjunctive}) {
      const std::vector<std::string>& words = queries_[q].words;
      const std::vector<minos::query::ScoredHit> got =
          fabric_->router().QueryRanked(words, kSearchK, mode, {});
      const minos::query::RankedQuery want = exhaustive.TopK(
          reference_, reference_, words, kSearchK, mode);
      bool same = got.size() == want.hits.size();
      for (size_t i = 0; same && i < got.size(); ++i) {
        same = got[i].id == want.hits[i].id &&
               got[i].score == want.hits[i].score;
      }
      if (!same) ++differ;
    }
  }
  if (differ > 0) {
    out.check_failures.push_back(
        std::to_string(differ) + " of " + std::to_string(2 * n) +
        " ranked top-k answers differ from exhaustive scoring over the same "
        "corpus");
  }
}

void SessionWorkload::CheckAppends(PhaseResult& out) {
  if (appends_.empty()) return;
  minos::server::ShardRouter& router = fabric_->router();
  std::map<ObjectId, std::string> contents;
  for (const AppendRecord& a : appends_) {
    if (contents.count(a.object) > 0) continue;
    auto obj =
        router.Fetch(a.object, minos::server::FetchGranularity::kWhole, {});
    contents[a.object] =
        obj.ok() && obj->has_text() ? obj->text_part().contents() : "";
  }
  // ShardRouter::Append acknowledges an append that at least one replica
  // took; a replica that missed it lags a version (documented eventual
  // consistency, converged by anti-entropy repair) and the object joins
  // the under-replicated set. Reads of such an object may be stale: they
  // are counted as an error class, not failed as a check. A fully
  // replicated object must show every acknowledged append.
  const std::set<ObjectId>& lagging = router.under_replicated();
  size_t unreadable = 0, stale = 0, unsearchable = 0, leaked = 0;
  for (const AppendRecord& a : appends_) {
    const std::vector<minos::query::ScoredHit> hits = router.QueryRanked(
        {a.token}, 4, minos::query::QueryMode::kDisjunctive, {});
    if (a.acked) {
      if (contents[a.object].find(a.text) == std::string::npos) {
        ++(lagging.count(a.object) > 0 ? stale : unreadable);
      }
      if (hits.size() != 1 || hits[0].id != a.object) ++unsearchable;
    } else if (!hits.empty()) {
      ++leaked;
    }
  }
  if (stale > 0) out.errors["errors.append.stale_read"] += stale;
  if (unreadable > 0) {
    out.check_failures.push_back(
        std::to_string(unreadable) +
        " acknowledged appends to fully replicated objects not readable");
  }
  if (unsearchable > 0) {
    out.check_failures.push_back(
        std::to_string(unsearchable) +
        " acknowledged appends not found by QueryRanked");
  }
  if (leaked > 0) {
    out.check_failures.push_back(std::to_string(leaked) +
                                 " failed appends left index entries behind");
  }
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       const RunOptions& options) {
  if (name == "browse") {
    return std::make_unique<SessionWorkload>(BrowseSpec(options.reduced),
                                             options);
  }
  if (name == "search") {
    return std::make_unique<SessionWorkload>(SearchSpec(options.reduced),
                                             options);
  }
  if (name == "write_mix") {
    return std::make_unique<SessionWorkload>(WriteMixSpec(options.reduced),
                                             options);
  }
  if (name == "present") return MakePresentWorkload(options);
  return nullptr;
}

}  // namespace perfbench
