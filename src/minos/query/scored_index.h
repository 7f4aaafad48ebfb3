#ifndef MINOS_QUERY_SCORED_INDEX_H_
#define MINOS_QUERY_SCORED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "minos/object/multimedia_object.h"
#include "minos/storage/version_store.h"
#include "minos/voice/recognizer.h"

namespace minos::query {

/// One object's accumulated weight for one term, split by medium so the
/// scorer (and the tests) can see where a hit came from. Text and
/// attribute occurrences count 1.0 each; recognized-voice occurrences
/// count the recognizer confidence each, so a false-alarm-prone spotter
/// cannot outrank clean text evidence.
struct TermPosting {
  double text_tf = 0;   ///< Raw text + attribute occurrences.
  double voice_tf = 0;  ///< Confidence-weighted voice occurrences.
  double tf() const { return text_tf + voice_tf; }
};

/// Corpus-level statistics the BM25 scorer needs. For a single server
/// these are the local index's own; for a sharded store the router keeps
/// the catalog-wide figures (each object counted once, not once per
/// replica) and hands them to every shard so per-shard scores agree.
struct CorpusStats {
  uint64_t doc_count = 0;
  double total_length = 0;  ///< Sum of weighted object lengths.
  double AvgLength() const {
    return doc_count > 0 ? total_length / static_cast<double>(doc_count)
                         : 0.0;
  }
};

/// The weight one recognized-voice posting carries under `profile`: the
/// spotter's hit rate discounted by its false-alarm rate. A perfect
/// recognizer weighs voice words like text words (1.0); the default
/// profile (85% hits, 1% false alarms) weighs them ~0.84.
double VoiceConfidence(const voice::RecognizerParams& profile);

/// Content an Append folds into an already-indexed object: raw text
/// (indexed at weight 1.0, like the text part) and recognized-voice
/// words (indexed at the recognizer confidence) — the same two
/// symmetric sources Add indexes at Store time.
struct AppendedContent {
  std::string text;
  std::vector<voice::WordAlignment> voice_words;
};

/// The stats-only footprint of one incremental Append: exactly the
/// document-frequency and length changes a catalog-wide statistics
/// index needs to stay exact, with no posting payload. The ShardRouter
/// applies one of these per logical Append instead of re-adding the
/// whole object — delta sync, not rebuild.
struct IndexDelta {
  storage::ObjectId id = 0;
  /// Terms this object did not contain before the append (df += 1).
  std::vector<std::string> new_terms;
  /// Weighted content length added (text words + confidence-weighted
  /// voice words).
  double length_delta = 0;
  /// True when the append created the document (id was unindexed).
  bool new_doc = false;

  bool empty() const {
    return new_terms.empty() && length_delta == 0 && !new_doc;
  }
};

/// One posting: a document, the stable slot its length lives in, and
/// its weights for the term.
struct Posting {
  storage::ObjectId id = 0;
  uint32_t slot = 0;
  TermPosting weight;
};

/// A term's postings: one contiguous array sorted by ascending id. The
/// scorer walks slices of it and moves per-term cursors forward with
/// galloping seeks, never a tree walk.
class PostingList {
 public:
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Posting& operator[](size_t i) const { return entries_[i]; }
  std::vector<Posting>::const_iterator begin() const {
    return entries_.begin();
  }
  std::vector<Posting>::const_iterator end() const { return entries_.end(); }

  /// Index of the first posting at or after `from` whose id is >=
  /// `target` (size() when none). Forward-only: a posting before `from`
  /// is never examined, and when entries_[from] already qualifies the
  /// answer is `from`. Gallops (1, 2, 4, ... steps) and then binary
  /// searches the last step, so a seek costs O(log distance).
  size_t Seek(size_t from, storage::ObjectId target) const;

  /// The weights `id` holds for this term, or null.
  const TermPosting* Find(storage::ObjectId id) const;

 private:
  friend class ScoredIndex;
  std::vector<Posting> entries_;
};

/// Everything the index knows about one term, behind one lookup.
struct TermRecord {
  PostingList postings;  ///< Empty in a stats-only index.
  uint64_t df = 0;       ///< Objects whose content holds the term.
  /// Largest posting tf() — the max-score ceiling's tf. Maintained by
  /// Add/Append, recomputed on Remove; 0 in a stats-only index.
  double max_tf = 0;
  /// Smallest holder length, snapshotted at posting time. Meaningful
  /// only while `postings` is non-empty.
  double min_len = 0;
};

/// The scored content index built at insertion time (§2: recognition and
/// indexing happen when an object is stored, never at browsing time).
/// It unifies the same two sources text::WordIndex already unifies —
/// text-document words and recognized voice utterances — but keeps term
/// frequencies and media provenance instead of bare positions, which is
/// what turns boolean content queries into ranked ones. It is also the
/// server's one content index: boolean Query/QueryAll read its posting
/// ids.
///
/// Layout: one TermRecord per term; per-document lengths in a flat
/// array addressed by a stable slot (freed slots are reused); and the
/// live ids in one id-ordered array, which makes PartitionPoints
/// O(parts). Every read is a pure const access, so pooled scoring reads
/// the index lock-free.
///
/// A stats-only index (the ShardRouter's) keeps document frequencies and
/// lengths but no postings: enough to serve global BM25 statistics
/// without duplicating every shard's posting lists.
class ScoredIndex {
 public:
  explicit ScoredIndex(bool stats_only = false)
      : stats_only_(stats_only) {}

  /// Indexes the object's text part, attribute values, and voice-track
  /// words (each weighted by `voice_confidence`). Re-adding an id first
  /// removes its previous contribution, so a re-stored version replaces
  /// rather than double-counts.
  void Add(const object::MultimediaObject& obj, double voice_confidence);

  /// Removes every contribution of `id` (no-op when absent).
  void Remove(storage::ObjectId id);

  /// Folds appended content into `id` *incrementally*: existing postings
  /// keep their weight and only the delta's words are walked — never the
  /// whole object. Creates the document when absent. Returns the
  /// stats-only delta a catalog-wide index applies via ApplyDelta so
  /// global statistics stay exact without a rebuild.
  IndexDelta Append(storage::ObjectId id, const AppendedContent& content,
                    double voice_confidence);

  /// Applies an Append's document-frequency and length changes to a
  /// stats-only index (postings are not represented there, so the delta
  /// is the complete update). Calling this on a postings-bearing index
  /// would desynchronize df from the posting lists; use Append instead.
  void ApplyDelta(const IndexDelta& delta);

  /// The record of a folded term, or null when no object holds it.
  const TermRecord* FindTerm(std::string_view term) const;

  /// Postings of a folded term; empty when absent or stats-only.
  const PostingList& Postings(std::string_view term) const;

  /// Number of objects whose content contains the folded term.
  uint64_t DocFreq(std::string_view term) const;

  /// Upper bound on any single posting's tf() for the folded term (0
  /// when absent or stats-only) — what the max-score pruned scorer
  /// turns into a per-term score ceiling.
  double MaxTf(std::string_view term) const;

  /// Lower bound on the weighted length of any document holding the
  /// folded term (0 — the most conservative floor — when absent or
  /// stats-only). Lengths only grow, so the bound snapshots lengths at
  /// posting time and recomputes on Remove. Together with MaxTf this
  /// caps the term's BM25 contribution: tf·(k1+1)/(tf+norm) is
  /// increasing in tf and decreasing in norm, so evaluating it at
  /// (MaxTf, MinDocLen) bounds every real posting.
  double MinDocLen(std::string_view term) const;

  /// Weighted content length of `id` (0 when unknown).
  double DocLength(storage::ObjectId id) const;

  /// Weighted content length stored in `slot` — what a Posting's slot
  /// addresses. The scorer's per-candidate read: one array index.
  double SlotLength(uint32_t slot) const { return lengths_[slot]; }

  const CorpusStats& stats() const { return stats_; }
  size_t vocabulary_size() const { return terms_.size(); }
  bool stats_only() const { return stats_only_; }

  /// Monotonic mutation counter, bumped by every Add/Remove that changes
  /// the index. Concurrent pool tasks read the index lock-free; this
  /// lets callers assert (in debug/tests) that nobody mutated it while
  /// a parallel scoring epoch was in flight.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Splits the indexed object-id space into `parts` contiguous ranges
  /// of roughly equal document count and returns the `parts - 1` first
  /// ids of ranges 1..parts-1: point k is the (k·n/parts)-th live id.
  /// Partition k covers ids in [points[k-1], points[k]) (with
  /// points[-1] = 0 and points[parts-1] = +inf); an empty index pads
  /// with past-the-end sentinels. A pure function of index content —
  /// never of thread count — so partitioned scoring decomposes work
  /// identically on any pool. O(parts): reads the id-ordered array.
  std::vector<storage::ObjectId> PartitionPoints(size_t parts) const;

 private:
  /// Transparent hashing, so string_view probes need no allocation.
  struct TermHash {
    using is_transparent = void;
    size_t operator()(std::string_view term) const {
      return std::hash<std::string_view>()(term);
    }
  };
  using TermMap = std::unordered_map<std::string, TermRecord, TermHash,
                                     std::equal_to<>>;
  /// A term's map entry. Node-based maps never move entries, so a
  /// document's held-terms list can point at them.
  using TermEntry = TermMap::value_type;

  /// A live document in id order, with its slot.
  struct DocRef {
    storage::ObjectId id;
    uint32_t slot;
  };

  /// Slot of `id`, creating an empty document when absent. When
  /// `created` is non-null it reports whether it did.
  uint32_t EnsureDoc(storage::ObjectId id, bool* created = nullptr);

  /// Folds one term occurrence into document `id` (in `slot`). When
  /// `new_terms` is non-null, terms the object did not contain before
  /// are appended to it (the delta an incremental Append reports).
  void AddTerm(storage::ObjectId id, uint32_t slot, const std::string& term,
               double text_weight, double voice_weight,
               std::vector<std::string>* new_terms = nullptr);

  /// Lowers the holder-length floor of the document's held terms from
  /// index `first_held` on to its current (end-of-operation) length.
  void FloorHolderLengths(uint32_t slot, size_t first_held);

  bool stats_only_;
  std::atomic<uint64_t> version_{0};
  CorpusStats stats_;
  TermMap terms_;
  /// Live documents, ascending id: the id -> slot lookup and the array
  /// PartitionPoints reads.
  std::vector<DocRef> docs_;
  /// Per slot: weighted length, and the distinct terms held (what
  /// Remove must unwind). Freed slots are reused.
  std::vector<double> lengths_;
  std::vector<std::vector<TermEntry*>> held_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace minos::query

#endif  // MINOS_QUERY_SCORED_INDEX_H_
