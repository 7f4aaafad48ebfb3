// Property test for the max-score pruned top-k scorer: across seeded
// random catalogs, query shapes, conjunctive and disjunctive modes, and
// worker counts 1/2/4, the pruned scorer must return bit-identical ids
// AND bit-identical scores to the exhaustive reference scorer — pruning
// is an optimization, never an approximation — while actually skipping
// postings on selective disjunctive queries.

#include "minos/query/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "minos/object/multimedia_object.h"
#include "minos/query/scored_index.h"
#include "minos/runtime/task_pool.h"
#include "minos/text/document.h"
#include "minos/util/random.h"
#include "minos/util/string_util.h"
#include "minos/voice/voice_document.h"

namespace minos::query {
namespace {

using storage::ObjectId;

/// A seeded random catalog: `docs` documents over a `vocab`-word
/// vocabulary with a skewed word distribution (low word indexes are
/// common, high ones rare — what gives idf and max-score bounds their
/// spread), built through the incremental Append path.
void BuildCatalog(uint64_t seed, size_t docs, size_t vocab,
                  ScoredIndex* index) {
  Random rng(seed);
  for (ObjectId id = 1; id <= docs; ++id) {
    const size_t words = 4 + rng.Uniform(24);
    AppendedContent content;
    for (size_t w = 0; w < words; ++w) {
      // Squared-uniform skew: word 0 is everywhere, the tail is rare.
      const size_t pick = (rng.Uniform(vocab) * rng.Uniform(vocab)) / vocab;
      content.text += "w" + std::to_string(pick) + " ";
    }
    index->Append(id, content, 0.0);
  }
}

std::vector<std::string> RandomQuery(Random* rng, size_t vocab) {
  const size_t terms = 1 + rng->Uniform(4);
  std::vector<std::string> words;
  for (size_t t = 0; t < terms; ++t) {
    words.push_back("w" + std::to_string(rng->Uniform(vocab)));
  }
  return words;
}

void ExpectBitIdentical(const RankedQuery& pruned,
                        const RankedQuery& exact,
                        const std::string& label) {
  ASSERT_EQ(pruned.hits.size(), exact.hits.size()) << label;
  for (size_t i = 0; i < exact.hits.size(); ++i) {
    EXPECT_EQ(pruned.hits[i].id, exact.hits[i].id)
        << label << " rank " << i;
    // EXPECT_EQ on doubles is exact: bit-identical, not within-epsilon.
    EXPECT_EQ(pruned.hits[i].score, exact.hits[i].score)
        << label << " rank " << i;
  }
}

TEST(PrunedTopKProperty, BitIdenticalToExhaustiveAcrossRandomCatalogs) {
  const QueryEngine exhaustive({}, ScoringStrategy::kExhaustive);
  const QueryEngine pruned({}, ScoringStrategy::kMaxScore);
  for (const uint64_t seed : {11u, 42u, 1986u}) {
    const size_t vocab = 40;
    ScoredIndex index;
    BuildCatalog(seed, 300, vocab, &index);
    Random rng(seed ^ 0xABCDEF);
    for (int trial = 0; trial < 40; ++trial) {
      const std::vector<std::string> words = RandomQuery(&rng, vocab);
      const size_t k = 1 + rng.Uniform(12);
      for (const QueryMode mode :
           {QueryMode::kConjunctive, QueryMode::kDisjunctive}) {
        const RankedQuery exact =
            exhaustive.TopK(index, index, words, k, mode);
        const RankedQuery fast = pruned.TopK(index, index, words, k, mode);
        const std::string label =
            "seed=" + std::to_string(seed) + " trial=" +
            std::to_string(trial) + " k=" + std::to_string(k) +
            (mode == QueryMode::kConjunctive ? " conj" : " disj");
        ExpectBitIdentical(fast, exact, label);
        // Work accounting is conserved: the pruned scorer charges
        // exactly the postings it did not skip.
        EXPECT_EQ(fast.postings_scanned + fast.postings_skipped,
                  exact.postings_scanned)
            << label;
        EXPECT_EQ(exact.postings_skipped, 0u) << label;
      }
    }
  }
}

TEST(PrunedTopKProperty, WorkerCountNeverChangesResultsOrCounters) {
  // The fixed-partition decomposition promises: hits, scores, and every
  // work counter are a function of the catalog and the query, never of
  // the pool size (or its absence).
  const QueryEngine engine;  // Default strategy: kMaxScore.
  const size_t vocab = 32;
  ScoredIndex index;
  BuildCatalog(7, 250, vocab, &index);
  Random rng(99);
  for (int trial = 0; trial < 12; ++trial) {
    const std::vector<std::string> words = RandomQuery(&rng, vocab);
    const size_t k = 1 + rng.Uniform(8);
    for (const QueryMode mode :
         {QueryMode::kConjunctive, QueryMode::kDisjunctive}) {
      const RankedQuery serial =
          engine.TopK(index, index, words, k, mode, nullptr);
      for (const int workers : {1, 2, 4}) {
        SimClock clock;
        runtime::TaskPool pool(&clock, workers);
        const RankedQuery pooled =
            engine.TopK(index, index, words, k, mode, &pool);
        const std::string label =
            "trial=" + std::to_string(trial) + " workers=" +
            std::to_string(workers) +
            (mode == QueryMode::kConjunctive ? " conj" : " disj");
        ExpectBitIdentical(pooled, serial, label);
        EXPECT_EQ(pooled.terms_scored, serial.terms_scored) << label;
        EXPECT_EQ(pooled.postings_scanned, serial.postings_scanned)
            << label;
        EXPECT_EQ(pooled.postings_skipped, serial.postings_skipped)
            << label;
        EXPECT_EQ(pooled.heap_evictions, serial.heap_evictions) << label;
      }
    }
  }
}

TEST(PrunedTopKProperty, SelectiveDisjunctionsActuallySkipPostings) {
  // On a catalog where one query term is everywhere and another is
  // rare, a small k lets the rare term's scores saturate the heap and
  // the common list stop generating candidates: skipped must be a
  // substantial share, not a rounding error.
  ScoredIndex index;
  for (ObjectId id = 1; id <= 400; ++id) {
    AppendedContent content;
    content.text = "common ";
    if (id % 40 == 0) content.text += "rare rare rare ";
    index.Append(id, content, 0.0);
  }
  const QueryEngine engine;
  const RankedQuery got = engine.TopK(index, index, {"rare", "common"}, 5,
                                      QueryMode::kDisjunctive);
  ASSERT_EQ(got.hits.size(), 5u);
  EXPECT_GT(got.postings_skipped, 0u);
  // The pruned scan visits under half of what exhaustive scoring would.
  EXPECT_LT(got.postings_scanned * 2,
            got.postings_scanned + got.postings_skipped);
}

TEST(PrunedTopKProperty, AppendBuiltIndexMatchesAddBuiltStatistics) {
  // The incremental Append path and a delta-applied stats mirror must
  // agree with each other: a stats-only index fed only ApplyDelta
  // yields the same df / doc count / lengths the postings index holds,
  // so scoring against either gives identical results.
  ScoredIndex postings;
  ScoredIndex stats(/*stats_only=*/true);
  Random rng(5);
  for (ObjectId id = 1; id <= 120; ++id) {
    AppendedContent content;
    const size_t words = 3 + rng.Uniform(9);
    for (size_t w = 0; w < words; ++w) {
      content.text += "w" + std::to_string(rng.Uniform(20)) + " ";
    }
    const IndexDelta delta = postings.Append(id, content, 0.0);
    stats.ApplyDelta(delta);
  }
  EXPECT_EQ(stats.stats().doc_count, postings.stats().doc_count);
  EXPECT_DOUBLE_EQ(stats.stats().total_length,
                   postings.stats().total_length);
  for (size_t w = 0; w < 20; ++w) {
    const std::string term = "w" + std::to_string(w);
    EXPECT_EQ(stats.DocFreq(term), postings.DocFreq(term)) << term;
  }
  const QueryEngine engine;
  const RankedQuery local =
      engine.TopK(postings, postings, {"w3", "w15"}, 8,
                  QueryMode::kDisjunctive);
  const RankedQuery global =
      engine.TopK(postings, stats, {"w3", "w15"}, 8,
                  QueryMode::kDisjunctive);
  ExpectBitIdentical(global, local, "stats-mirror");
}

/// Reference model for the differential test: the node-map layout the
/// flat index replaced, kept verbatim in spirit — one std::map per
/// statistic, a linear walk for partition points. Every mutation feeds
/// the same weights in the same order, so all figures must match the
/// flat index bit for bit.
class MapIndex {
 public:
  void Add(ObjectId id, const std::vector<std::string>& text,
           const std::vector<std::string>& voice, double confidence) {
    Remove(id);
    ++stats_.doc_count;
    lengths_[id] = 0;
    doc_terms_[id] = {};
    for (const std::string& w : text) AddTerm(id, FoldWord(w), 1.0, 0.0);
    for (const std::string& w : voice) {
      AddTerm(id, FoldWord(w), 0.0, confidence);
    }
    Floor(id, doc_terms_[id]);
  }

  void Append(ObjectId id, const std::vector<std::string>& text,
              const std::vector<std::string>& voice, double confidence) {
    if (lengths_.find(id) == lengths_.end()) {
      ++stats_.doc_count;
      lengths_[id] = 0;
      doc_terms_[id];
    }
    std::vector<std::string> fresh;
    for (const std::string& w : text) {
      AddTerm(id, FoldWord(w), 1.0, 0.0, &fresh);
    }
    for (const std::string& w : voice) {
      AddTerm(id, FoldWord(w), 0.0, confidence, &fresh);
    }
    Floor(id, fresh);
  }

  void Remove(ObjectId id) {
    auto terms = doc_terms_.find(id);
    if (terms == doc_terms_.end()) return;
    for (const std::string& term : terms->second) {
      if (--df_[term] == 0) df_.erase(term);
      std::map<ObjectId, TermPosting>& list = postings_[term];
      list.erase(id);
      if (list.empty()) {
        postings_.erase(term);
        max_tf_.erase(term);
        min_len_.erase(term);
        continue;
      }
      double max_tf = 0;
      double min_len = std::numeric_limits<double>::max();
      for (const auto& [rest, posting] : list) {
        max_tf = std::max(max_tf, posting.tf());
        min_len = std::min(min_len, lengths_[rest]);
      }
      max_tf_[term] = max_tf;
      min_len_[term] = min_len;
    }
    stats_.total_length -= lengths_[id];
    lengths_.erase(id);
    doc_terms_.erase(terms);
    --stats_.doc_count;
  }

  std::vector<ObjectId> PartitionPoints(size_t parts) const {
    std::vector<ObjectId> points;
    if (parts <= 1) return points;
    const size_t n = lengths_.size();
    size_t next = 1;
    size_t i = 0;
    for (const auto& entry : lengths_) {
      while (next < parts && i >= next * n / parts) {
        points.push_back(entry.first);
        ++next;
      }
      if (next >= parts) break;
      ++i;
    }
    while (points.size() < parts - 1) {
      points.push_back(std::numeric_limits<ObjectId>::max());
    }
    return points;
  }

  template <typename Map>
  static auto Get(const Map& map, const std::string& key) {
    auto it = map.find(key);
    return it == map.end() ? typename Map::mapped_type{} : it->second;
  }

  std::map<std::string, std::map<ObjectId, TermPosting>> postings_;
  std::map<std::string, uint64_t> df_;
  std::map<std::string, double> max_tf_;
  std::map<std::string, double> min_len_;
  std::map<ObjectId, double> lengths_;
  std::map<ObjectId, std::vector<std::string>> doc_terms_;
  CorpusStats stats_;

 private:
  void AddTerm(ObjectId id, const std::string& term, double text_weight,
               double voice_weight, std::vector<std::string>* fresh = nullptr) {
    if (term.empty()) return;
    TermPosting& posting = postings_[term][id];
    posting.text_tf += text_weight;
    posting.voice_tf += voice_weight;
    max_tf_[term] = std::max(max_tf_[term], posting.tf());
    std::vector<std::string>& terms = doc_terms_[id];
    if (std::find(terms.begin(), terms.end(), term) == terms.end()) {
      terms.push_back(term);
      ++df_[term];
      if (fresh != nullptr) fresh->push_back(term);
    }
    lengths_[id] += text_weight + voice_weight;
    stats_.total_length += text_weight + voice_weight;
  }

  void Floor(ObjectId id, const std::vector<std::string>& terms) {
    const double len = lengths_[id];
    for (const std::string& term : terms) {
      auto [it, inserted] = min_len_.try_emplace(term, len);
      if (!inserted) it->second = std::min(it->second, len);
    }
  }
};

/// An object whose text part holds `text` and whose voice track speaks
/// `voice` — the two sources ScoredIndex::Add weighs differently.
object::MultimediaObject MixedObject(ObjectId id,
                                     const std::vector<std::string>& text,
                                     const std::vector<std::string>& voice) {
  object::MultimediaObject obj(id);
  if (!text.empty()) {
    text::Document doc;
    for (const std::string& w : text) doc.AppendText(w + " ");
    EXPECT_TRUE(obj.SetTextPart(std::move(doc)).ok());
  }
  if (!voice.empty()) {
    voice::VoiceTrack track;
    for (const std::string& w : voice) {
      voice::WordAlignment word;
      word.word = w;
      track.words.push_back(word);
    }
    EXPECT_TRUE(
        obj.SetVoicePart(voice::VoiceDocument(std::move(track))).ok());
  }
  return obj;
}

std::vector<std::string> RandomWords(Random* rng, size_t vocab,
                                     size_t max_words) {
  std::vector<std::string> words;
  const size_t count = rng->Uniform(max_words + 1);
  for (size_t i = 0; i < count; ++i) {
    // Mixed case and trailing punctuation exercise the fold.
    std::string w = "t" + std::to_string(rng->Uniform(vocab));
    if (rng->Bernoulli(0.2)) w[0] = 'T';
    if (rng->Bernoulli(0.2)) w += ",";
    words.push_back(std::move(w));
  }
  return words;
}

/// Every statistic the flat index exposes equals the reference model's.
void ExpectSameIndex(const ScoredIndex& flat, const MapIndex& ref,
                     size_t vocab, ObjectId max_id,
                     const std::string& label) {
  ASSERT_EQ(flat.stats().doc_count, ref.stats_.doc_count) << label;
  ASSERT_EQ(flat.stats().total_length, ref.stats_.total_length) << label;
  ASSERT_EQ(flat.vocabulary_size(), ref.df_.size()) << label;
  for (size_t t = 0; t <= vocab; ++t) {  // t == vocab: never indexed.
    const std::string term = "t" + std::to_string(t);
    const std::string at = label + " term " + term;
    const PostingList& list = flat.Postings(term);
    const std::map<ObjectId, TermPosting> want =
        MapIndex::Get(ref.postings_, term);
    ASSERT_EQ(list.size(), want.size()) << at;
    auto it = want.begin();
    for (const Posting& posting : list) {
      EXPECT_EQ(posting.id, it->first) << at;
      EXPECT_EQ(posting.weight.text_tf, it->second.text_tf) << at;
      EXPECT_EQ(posting.weight.voice_tf, it->second.voice_tf) << at;
      EXPECT_EQ(flat.SlotLength(posting.slot), flat.DocLength(posting.id))
          << at;
      ++it;
    }
    EXPECT_EQ(flat.DocFreq(term), MapIndex::Get(ref.df_, term)) << at;
    EXPECT_EQ(flat.MaxTf(term), MapIndex::Get(ref.max_tf_, term)) << at;
    EXPECT_EQ(flat.MinDocLen(term), MapIndex::Get(ref.min_len_, term))
        << at;
  }
  for (ObjectId id = 0; id <= max_id + 1; ++id) {
    auto len = ref.lengths_.find(id);
    EXPECT_EQ(flat.DocLength(id),
              len == ref.lengths_.end() ? 0.0 : len->second)
        << label << " id " << id;
  }
  for (size_t parts = 1; parts <= 6; ++parts) {
    EXPECT_EQ(flat.PartitionPoints(parts), ref.PartitionPoints(parts))
        << label << " parts " << parts;
  }
}

TEST(ScoredIndexDifferential, FlatLayoutMatchesMapReferenceStepByStep) {
  // Seeded random Add / re-Add / Append / Remove sequences over ids in
  // random (so out-of-order) order, removals from anywhere in the id
  // space, then a drain back to empty: after every step the flat index
  // must agree with the map reference on every statistic, and the
  // max-score scorer must agree with the exhaustive one bit for bit,
  // pooled or not.
  constexpr size_t kVocab = 24;
  constexpr ObjectId kMaxId = 48;
  constexpr double kConfidence = 0.84;
  const QueryEngine exhaustive({}, ScoringStrategy::kExhaustive);
  const QueryEngine pruned({}, ScoringStrategy::kMaxScore);
  SimClock clock;
  runtime::TaskPool pool(&clock, 2);
  for (const uint64_t seed : {3u, 14u, 159u}) {
    ScoredIndex flat;
    MapIndex ref;
    Random rng(seed);
    ExpectSameIndex(flat, ref, kVocab, kMaxId, "empty");
    std::vector<ObjectId> live;
    for (int step = 0; step < 160; ++step) {
      const bool drain = step >= 120;
      const uint64_t op = drain ? 3 : rng.Uniform(4);
      std::string label = "seed=" + std::to_string(seed) + " step=" +
                          std::to_string(step);
      if (op == 0 || op == 1) {
        // Add, or re-Add of an id that may already be indexed.
        const ObjectId id = 1 + rng.Uniform(kMaxId);
        const std::vector<std::string> text = RandomWords(&rng, kVocab, 8);
        const std::vector<std::string> voice = RandomWords(&rng, kVocab, 4);
        flat.Add(MixedObject(id, text, voice), kConfidence);
        ref.Add(id, text, voice, kConfidence);
        label += " add " + std::to_string(id);
      } else if (op == 2) {
        const ObjectId id = 1 + rng.Uniform(kMaxId);
        AppendedContent content;
        const std::vector<std::string> voice = RandomWords(&rng, kVocab, 3);
        const std::vector<std::string> text = RandomWords(&rng, kVocab, 6);
        for (const std::string& w : text) content.text += w + " ";
        for (const std::string& w : voice) {
          voice::WordAlignment word;
          word.word = w;
          content.voice_words.push_back(word);
        }
        flat.Append(id, content, kConfidence);
        ref.Append(id, SplitWords(content.text), voice, kConfidence);
        label += " append " + std::to_string(id);
      } else {
        // Remove: a live id from anywhere in the list (or, outside the
        // drain, sometimes an id that is not indexed at all).
        ObjectId id = 1 + rng.Uniform(kMaxId);
        if (!ref.lengths_.empty() && (drain || rng.Bernoulli(0.7))) {
          auto it = ref.lengths_.begin();
          std::advance(it, rng.Uniform(ref.lengths_.size()));
          id = it->first;
        }
        flat.Remove(id);
        ref.Remove(id);
        label += " remove " + std::to_string(id);
      }
      ExpectSameIndex(flat, ref, kVocab, kMaxId, label);
      if (HasFatalFailure()) return;
      std::vector<std::string> words = RandomWords(&rng, kVocab, 3);
      words.push_back("t" + std::to_string(rng.Uniform(kVocab)));
      const size_t k = 1 + rng.Uniform(6);
      const RankedQuery exact = exhaustive.TopK(
          flat, flat, words, k, QueryMode::kDisjunctive);
      ExpectBitIdentical(
          pruned.TopK(flat, flat, words, k, QueryMode::kDisjunctive),
          exact, label + " serial");
      ExpectBitIdentical(pruned.TopK(flat, flat, words, k,
                                     QueryMode::kDisjunctive, &pool),
                         exact, label + " 2 workers");
      ExpectBitIdentical(exhaustive.TopK(flat, flat, words, k,
                                         QueryMode::kDisjunctive, &pool),
                         exact, label + " exhaustive 2 workers");
    }
    EXPECT_EQ(flat.stats().doc_count, 0u) << "drain left documents";
  }
}

TEST(PostingListSeek, GallopsForwardToTheFirstIdAtOrAboveTarget) {
  // Even ids 2..40 under one term: every (from, target) pair, including
  // targets below the first id, between ids, on ids and past the last,
  // and `from` at or past the end, against a linear scan.
  ScoredIndex index;
  std::vector<ObjectId> ids;
  for (ObjectId id = 2; id <= 40; id += 2) {
    AppendedContent content;
    content.text = "even";
    index.Append(id, content, 0.0);
    ids.push_back(id);
  }
  const PostingList& list = index.Postings("even");
  ASSERT_EQ(list.size(), ids.size());
  for (size_t from = 0; from <= ids.size() + 1; ++from) {
    for (ObjectId target = 0; target <= 42; ++target) {
      size_t want = from;
      while (want < ids.size() && ids[want] < target) ++want;
      EXPECT_EQ(list.Seek(from, target), want)
          << "from " << from << " target " << target;
    }
  }
  EXPECT_EQ(list.Seek(0, 0), 0u);
  EXPECT_EQ(list.Seek(0, 41), list.size());
  EXPECT_EQ(list.Seek(5, 3), 5u);  // Forward-only: never moves back.
  EXPECT_EQ(list.Seek(0, std::numeric_limits<ObjectId>::max()),
            list.size());
  ASSERT_NE(list.Find(40), nullptr);
  EXPECT_EQ(list.Find(40)->text_tf, 1.0);
  EXPECT_EQ(list.Find(2)->text_tf, 1.0);
  EXPECT_EQ(list.Find(3), nullptr);
  EXPECT_EQ(list.Find(41), nullptr);
  EXPECT_EQ(list.Find(0), nullptr);

  const PostingList& absent = index.Postings("odd");
  EXPECT_TRUE(absent.empty());
  EXPECT_EQ(absent.Seek(0, 7), 0u);
  EXPECT_EQ(absent.Find(7), nullptr);

  ScoredIndex single;
  AppendedContent content;
  content.text = "lone";
  single.Append(9, content, 0.0);
  const PostingList& one = single.Postings("lone");
  EXPECT_EQ(one.Seek(0, 8), 0u);
  EXPECT_EQ(one.Seek(0, 9), 0u);
  EXPECT_EQ(one.Seek(0, 10), 1u);
  EXPECT_EQ(one.Seek(1, 0), 1u);
}

}  // namespace
}  // namespace minos::query
