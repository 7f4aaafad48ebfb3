#include "minos/query/query_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "minos/obs/metrics.h"
#include "minos/util/string_util.h"

namespace minos::query {

namespace {

/// Registry-owned scorer statistics, cached once.
struct EngineMetrics {
  obs::Counter* scored_terms;
  obs::Counter* postings_scanned;
  obs::Counter* postings_skipped;
  obs::Counter* heap_evictions;
};

EngineMetrics& Metrics() {
  static EngineMetrics* m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    return new EngineMetrics{
        reg.counter("query.scored_terms"),
        reg.counter("query.postings_scanned"),
        reg.counter("query.postings_skipped"),
        reg.counter("query.heap_evictions"),
    };
  }();
  return *m;
}

/// Heap comparator: with Outranks as the strict weak order, make_heap
/// keeps the WORST retained hit at the front — the one a better
/// candidate evicts.
bool HeapOrder(const ScoredHit& a, const ScoredHit& b) {
  return Outranks(a, b);
}

}  // namespace

Micros ScoringCost(size_t terms_scored, size_t postings_scanned) {
  // ~5us per inverted-index probe, ~1us per posting scored: in-memory
  // index arithmetic, orders of magnitude under card fetches but not
  // free — a scatter still charges the slowest shard's share.
  return static_cast<Micros>(5 * terms_scored + postings_scanned);
}

namespace {

/// Per-candidate BM25 accumulator. The ordered map keeps accumulation
/// deterministic regardless of posting-list order.
struct Candidate {
  double score = 0;
  size_t terms_matched = 0;
};

/// One query term that survived the probe pass, with its precomputed
/// idf, posting list and max-score ceiling.
struct ScoredTerm {
  const PostingList* list;
  double idf;
  /// Upper bound on this term's BM25 contribution to ANY document:
  /// idf * f(max_tf) with f evaluated at the length norm of the term's
  /// shortest holder (MinDocLen). f is increasing in tf and decreasing
  /// in the norm, so no posting of the term can score above this.
  double upper_bound = 0;
};

/// Accumulates every scored term's postings with ids in [lo, hi) into
/// `candidates`. Each candidate receives its contributions in term
/// order — the same floating-point addition order as a full serial
/// pass — so partitioned accumulation is bit-identical to unpartitioned.
void AccumulateRange(const std::vector<ScoredTerm>& scored,
                     const ScoredIndex& postings, const Bm25Params& params,
                     double avg_len, storage::ObjectId lo,
                     storage::ObjectId hi, bool bounded_hi,
                     std::map<storage::ObjectId, Candidate>* candidates) {
  for (const ScoredTerm& term : scored) {
    const PostingList& list = *term.list;
    const size_t begin = list.Seek(0, lo);
    const size_t end = bounded_hi ? list.Seek(begin, hi) : list.size();
    for (size_t i = begin; i < end; ++i) {
      const Posting& posting = list[i];
      const double tf = posting.weight.tf();
      const double len = postings.SlotLength(posting.slot);
      const double norm =
          params.k1 * (1.0 - params.b +
                       (avg_len > 0 ? params.b * len / avg_len : 0.0));
      Candidate& c = (*candidates)[posting.id];
      c.score += term.idf * (tf * (params.k1 + 1.0)) / (tf + norm);
      ++c.terms_matched;
    }
  }
}

/// Fixed partition fan-out for pooled scoring. Deliberately a constant,
/// not the worker count: the decomposition (and thus every rounding-
/// irrelevant detail of the work) must not depend on pool size.
constexpr size_t kScorePartitions = 4;

/// One partition's share of a max-score pruned disjunctive top-k.
struct MaxScoreShare {
  std::vector<ScoredHit> heap;  ///< HeapOrder heap, at most k entries.
  size_t visited = 0;           ///< Postings actually examined.
  size_t evictions = 0;
};

/// Max-score (WAND-family) disjunctive top-k over ids in [lo, hi):
/// terms are split into an *essential* set (candidate generators) and a
/// *non-essential* set whose summed upper bounds sit strictly below the
/// current k-th score — a document appearing only in non-essential
/// lists cannot enter the heap, so those postings are never visited.
/// The split tightens as the heap threshold rises.
///
/// Exactness: every candidate that survives its bound check is scored
/// over ALL terms in the original probe order — the identical
/// floating-point addition order the exhaustive pass uses — so ids and
/// scores are bit-identical to exhaustive evaluation. Skipping at
/// bound <= threshold is tie-safe here because candidates arrive in
/// ascending id order: every heap entry carries a lower id than the
/// frontier, Outranks breaks score ties toward the lower id, and the
/// threshold never decreases — so a later candidate that at best TIES
/// the k-th score loses that tie and can never enter the final top-k.
MaxScoreShare MaxScoreRange(const std::vector<ScoredTerm>& scored,
                            const ScoredIndex& postings,
                            const Bm25Params& params, double avg_len,
                            storage::ObjectId lo, storage::ObjectId hi,
                            bool bounded_hi, size_t k) {
  MaxScoreShare share;
  const size_t m = scored.size();
  // Term indices ordered by ascending upper bound (ties by probe order
  // — a pure function of the query, never of thread count). The first
  // `non_essential` entries are the skippable generators.
  std::vector<size_t> by_ub(m);
  for (size_t i = 0; i < m; ++i) by_ub[i] = i;
  std::stable_sort(by_ub.begin(), by_ub.end(), [&](size_t a, size_t b) {
    return scored[a].upper_bound < scored[b].upper_bound;
  });
  // prefix_ub[j]: summed ceiling of the j smallest-bound terms.
  std::vector<double> prefix_ub(m + 1, 0.0);
  for (size_t j = 0; j < m; ++j) {
    prefix_ub[j + 1] = prefix_ub[j] + scored[by_ub[j]].upper_bound;
  }
  // Per-term cursors over the partition's slice [pos, end). Candidates
  // arrive in ascending id order, so cursors only ever move forward.
  struct Cursor {
    size_t pos;
    size_t end;
  };
  std::vector<Cursor> cursors(m);
  for (size_t t = 0; t < m; ++t) {
    const PostingList& list = *scored[t].list;
    cursors[t].pos = list.Seek(0, lo);
    cursors[t].end =
        bounded_hi ? list.Seek(cursors[t].pos, hi) : list.size();
  }
  auto at = [&](size_t t) -> const Posting& {
    return (*scored[t].list)[cursors[t].pos];
  };
  auto live = [&](size_t t) { return cursors[t].pos < cursors[t].end; };
  size_t non_essential = 0;
  auto raise_boundary = [&] {
    if (share.heap.size() < k) return;
    const double threshold = share.heap.front().score;
    while (non_essential < m &&
           prefix_ub[non_essential + 1] <= threshold) {
      ++non_essential;
    }
  };
  while (true) {
    // The next candidate: smallest id under any essential cursor.
    storage::ObjectId next =
        std::numeric_limits<storage::ObjectId>::max();
    bool any = false;
    for (size_t j = non_essential; j < m; ++j) {
      if (live(by_ub[j])) {
        any = true;
        next = std::min(next, at(by_ub[j]).id);
      }
    }
    if (!any) break;
    // Second-level bound: the essential postings at `next` (already
    // in hand) plus every non-essential ceiling. At or below the
    // threshold means even a perfect non-essential match cannot beat
    // (or, arriving later in id order, tie into) the current top-k.
    double bound = prefix_ub[non_essential];
    size_t essential_here = 0;
    for (size_t j = non_essential; j < m; ++j) {
      if (live(by_ub[j]) && at(by_ub[j]).id == next) {
        bound += scored[by_ub[j]].upper_bound;
        ++essential_here;
      }
    }
    const bool prune_doc =
        share.heap.size() >= k && bound <= share.heap.front().score;
    if (prune_doc) {
      // The generator postings were examined to compute the bound; the
      // non-essential probes are what pruning saves.
      share.visited += essential_here;
    } else {
      // Full score, all terms, original probe order: bit-identical
      // accumulation to the exhaustive pass. Each cursor gallops forward
      // to `next`; the length norm is computed once, at the first match.
      double score = 0;
      double norm = 0;
      bool normed = false;
      for (size_t t = 0; t < m; ++t) {
        if (!live(t)) continue;
        cursors[t].pos = scored[t].list->Seek(cursors[t].pos, next);
        if (!live(t) || at(t).id != next) continue;
        ++share.visited;
        const Posting& posting = at(t);
        if (!normed) {
          normed = true;
          const double len = postings.SlotLength(posting.slot);
          norm = params.k1 *
                 (1.0 - params.b +
                  (avg_len > 0 ? params.b * len / avg_len : 0.0));
        }
        const double tf = posting.weight.tf();
        score += scored[t].idf * (tf * (params.k1 + 1.0)) / (tf + norm);
      }
      const ScoredHit hit{next, score};
      if (share.heap.size() < k) {
        share.heap.push_back(hit);
        std::push_heap(share.heap.begin(), share.heap.end(), HeapOrder);
        raise_boundary();
      } else if (Outranks(hit, share.heap.front())) {
        std::pop_heap(share.heap.begin(), share.heap.end(), HeapOrder);
        share.heap.back() = hit;
        std::push_heap(share.heap.begin(), share.heap.end(), HeapOrder);
        ++share.evictions;
        raise_boundary();
      }
    }
    for (size_t j = non_essential; j < m; ++j) {
      if (live(by_ub[j]) && at(by_ub[j]).id == next) {
        ++cursors[by_ub[j]].pos;
      }
    }
  }
  return share;
}

}  // namespace

RankedQuery QueryEngine::TopK(const ScoredIndex& postings,
                              const ScoredIndex& global,
                              const std::vector<std::string>& words,
                              size_t k, QueryMode mode,
                              runtime::TaskPool* pool) const {
  RankedQuery result;
  if (k == 0) return result;

  // Fold and deduplicate the query terms with the index's own routine,
  // so "Chapter," probes the posting list "chapter" built.
  std::vector<std::string> terms;
  for (const std::string& word : words) {
    std::string folded = FoldWord(word);
    if (folded.empty()) continue;
    if (std::find(terms.begin(), terms.end(), folded) == terms.end()) {
      terms.push_back(std::move(folded));
    }
  }
  if (terms.empty()) return result;

  // Probe pass (serial): resolve each term's posting list and idf, and
  // tally the work counters, in term order — a conjunctive query with a
  // missing term stops probing there, charging only the terms scored
  // before the abort, exactly like the original single pass.
  std::vector<ScoredTerm> scored;
  scored.reserve(terms.size());
  bool aborted = false;
  const CorpusStats& stats = global.stats();
  const double n = static_cast<double>(stats.doc_count);
  const double avg_len = stats.AvgLength();
  for (const std::string& term : terms) {
    const double df = static_cast<double>(global.DocFreq(term));
    const TermRecord* record = postings.FindTerm(term);
    if (df == 0 || record == nullptr || record->postings.empty()) {
      if (mode == QueryMode::kConjunctive) {
        aborted = true;
        break;
      }
      continue;
    }
    const PostingList& list = record->postings;
    ++result.terms_scored;
    result.postings_scanned += list.size();
    const double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    // Score ceiling for max-score pruning: the BM25 term contribution
    // is increasing in tf and decreasing in the length norm, so the
    // largest posting tf at the shortest holder's norm bounds every
    // posting of the term (a doc can't be shorter than the index's
    // per-term length floor).
    const double max_tf = record->max_tf;
    const double min_len = record->min_len;
    const double bound_norm =
        params_.k1 * (1.0 - params_.b +
                      (avg_len > 0 ? params_.b * min_len / avg_len : 0.0));
    const double upper_bound =
        idf * (max_tf * (params_.k1 + 1.0)) / (max_tf + bound_norm);
    scored.push_back(ScoredTerm{&list, idf, upper_bound});
  }

  // Max-score pruned path (disjunctive only — conjunctive filtering
  // needs every candidate's terms_matched tally). Always decomposed
  // into the same fixed partitions as pooled exhaustive scoring, run
  // inline without a pool, so hits, scores, and all work counters are
  // identical on any worker count.
  if (strategy_ == ScoringStrategy::kMaxScore &&
      mode == QueryMode::kDisjunctive && !aborted && !scored.empty()) {
    const size_t probed_total = result.postings_scanned;
    const std::vector<storage::ObjectId> points =
        postings.PartitionPoints(kScorePartitions);
    std::vector<MaxScoreShare> shares(kScorePartitions);
    auto run_partition = [&](size_t p) {
      const storage::ObjectId lo = p == 0 ? 0 : points[p - 1];
      const bool bounded = p + 1 < kScorePartitions;
      const storage::ObjectId hi = bounded ? points[p] : 0;
      shares[p] = MaxScoreRange(scored, postings, params_, avg_len, lo,
                                hi, bounded, k);
    };
    if (pool == nullptr) {
      for (size_t p = 0; p < kScorePartitions; ++p) run_partition(p);
    } else {
      std::vector<runtime::TaskPool::Task> tasks;
      tasks.reserve(kScorePartitions);
      for (size_t p = 0; p < kScorePartitions; ++p) {
        tasks.push_back([&run_partition, p] { run_partition(p); });
      }
      pool->RunEpoch(std::move(tasks));
    }
    // Each partition's local top-k contains that partition's members of
    // the global top-k, so sorting the union and truncating is exact.
    size_t visited = 0;
    std::vector<ScoredHit> merged;
    for (MaxScoreShare& share : shares) {
      visited += share.visited;
      result.heap_evictions += share.evictions;
      merged.insert(merged.end(), share.heap.begin(), share.heap.end());
    }
    std::sort(merged.begin(), merged.end(), Outranks);
    if (merged.size() > k) merged.resize(k);
    result.hits = std::move(merged);
    // The probe pass charged every posting of every probed term; split
    // that figure into the postings actually examined and the ones the
    // bounds proved irrelevant. Callers charge ScoringCost on
    // postings_scanned, so pruning is what makes top-k sublinear.
    result.postings_scanned = visited;
    result.postings_skipped = probed_total - visited;

    EngineMetrics& metrics = Metrics();
    metrics.scored_terms->Increment(
        static_cast<int64_t>(result.terms_scored));
    metrics.postings_scanned->Increment(
        static_cast<int64_t>(result.postings_scanned));
    metrics.postings_skipped->Increment(
        static_cast<int64_t>(result.postings_skipped));
    metrics.heap_evictions->Increment(
        static_cast<int64_t>(result.heap_evictions));
    return result;
  }

  // Accumulation: serial over the whole id space, or fanned out over
  // disjoint id ranges whose per-range maps concatenate back into one
  // ascending candidate sequence.
  std::map<storage::ObjectId, Candidate> candidates;
  if (aborted) {
    // Conjunctive query with a missing term matches nothing.
  } else if (pool == nullptr || scored.empty()) {
    AccumulateRange(scored, postings, params_, avg_len, 0, 0,
                    /*bounded_hi=*/false, &candidates);
  } else {
    const std::vector<storage::ObjectId> points =
        postings.PartitionPoints(kScorePartitions);
    std::vector<std::map<storage::ObjectId, Candidate>> parts(
        kScorePartitions);
    std::vector<runtime::TaskPool::Task> tasks;
    tasks.reserve(kScorePartitions);
    for (size_t p = 0; p < kScorePartitions; ++p) {
      const storage::ObjectId lo = p == 0 ? 0 : points[p - 1];
      const bool bounded = p + 1 < kScorePartitions;
      const storage::ObjectId hi = bounded ? points[p] : 0;
      tasks.push_back([&, p, lo, hi, bounded] {
        AccumulateRange(scored, postings, params_, avg_len, lo, hi,
                        bounded, &parts[p]);
      });
    }
    // Index arithmetic charges no virtual time of its own (callers
    // charge ScoringCost centrally), so the epoch advances the clock
    // by zero; the fan-out only buys wall-clock parallelism.
    pool->RunEpoch(std::move(tasks));
    for (std::map<storage::ObjectId, Candidate>& part : parts) {
      candidates.insert(part.begin(), part.end());
    }
  }

  // Bounded top-k: a size-k heap whose front is the worst retained hit.
  std::vector<ScoredHit> heap;
  heap.reserve(std::min(k, candidates.size()));
  for (const auto& [id, c] : candidates) {
    if (mode == QueryMode::kConjunctive && c.terms_matched < terms.size()) {
      continue;
    }
    const ScoredHit hit{id, c.score};
    if (heap.size() < k) {
      heap.push_back(hit);
      std::push_heap(heap.begin(), heap.end(), HeapOrder);
    } else if (Outranks(hit, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), HeapOrder);
      heap.back() = hit;
      std::push_heap(heap.begin(), heap.end(), HeapOrder);
      ++result.heap_evictions;
    }
  }
  std::sort(heap.begin(), heap.end(), Outranks);
  result.hits = std::move(heap);

  EngineMetrics& metrics = Metrics();
  metrics.scored_terms->Increment(
      static_cast<int64_t>(result.terms_scored));
  metrics.postings_scanned->Increment(
      static_cast<int64_t>(result.postings_scanned));
  metrics.heap_evictions->Increment(
      static_cast<int64_t>(result.heap_evictions));
  return result;
}

}  // namespace minos::query
