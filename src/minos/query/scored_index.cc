#include "minos/query/scored_index.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>

#include "minos/util/string_util.h"

namespace minos::query {

namespace {

/// First entry of an id-sorted array whose id is >= `id`.
template <typename Docs>
auto LowerBoundId(Docs& docs, storage::ObjectId id) {
  return std::lower_bound(
      docs.begin(), docs.end(), id,
      [](const auto& entry, storage::ObjectId want) {
        return entry.id < want;
      });
}

}  // namespace

double VoiceConfidence(const voice::RecognizerParams& profile) {
  const double confidence =
      profile.hit_rate * (1.0 - profile.false_alarm_rate);
  return std::clamp(confidence, 0.0, 1.0);
}

size_t PostingList::Seek(size_t from, storage::ObjectId target) const {
  const size_t n = entries_.size();
  if (from >= n || entries_[from].id >= target) return from;
  // Gallop: entries_[lo].id < target throughout; widen the step until
  // it overshoots or runs off the end, then binary search (lo, hi].
  size_t lo = from;
  size_t step = 1;
  size_t hi = from + step;
  while (hi < n && entries_[hi].id < target) {
    lo = hi;
    step *= 2;
    hi = lo + step;
  }
  hi = std::min(hi, n);
  const auto it = std::lower_bound(
      entries_.begin() + static_cast<std::ptrdiff_t>(lo + 1),
      entries_.begin() + static_cast<std::ptrdiff_t>(hi), target,
      [](const Posting& p, storage::ObjectId want) { return p.id < want; });
  return static_cast<size_t>(it - entries_.begin());
}

const TermPosting* PostingList::Find(storage::ObjectId id) const {
  const size_t i = Seek(0, id);
  return i < entries_.size() && entries_[i].id == id ? &entries_[i].weight
                                                     : nullptr;
}

uint32_t ScoredIndex::EnsureDoc(storage::ObjectId id, bool* created) {
  const auto it = LowerBoundId(docs_, id);
  const bool found = it != docs_.end() && it->id == id;
  if (created != nullptr) *created = !found;
  if (found) return it->slot;
  uint32_t slot = static_cast<uint32_t>(lengths_.size());
  if (free_slots_.empty()) {
    lengths_.push_back(0);
    held_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    lengths_[slot] = 0;
  }
  docs_.insert(it, DocRef{id, slot});
  ++stats_.doc_count;
  return slot;
}

void ScoredIndex::AddTerm(storage::ObjectId id, uint32_t slot,
                          const std::string& term, double text_weight,
                          double voice_weight,
                          std::vector<std::string>* new_terms) {
  if (term.empty()) return;
  TermEntry& entry = *terms_.try_emplace(term).first;
  TermRecord& record = entry.second;
  std::vector<TermEntry*>& held = held_[slot];
  const bool new_holder =
      std::find(held.begin(), held.end(), &entry) == held.end();
  if (new_holder) {
    held.push_back(&entry);
    ++record.df;
    if (new_terms != nullptr) new_terms->push_back(term);
  }
  if (!stats_only_) {
    std::vector<Posting>& list = record.postings.entries_;
    // Ids mostly arrive ascending, so the posting is usually the last
    // one (or belongs after it).
    size_t at = list.size();
    if (list.empty() || list.back().id < id) {
      list.push_back(Posting{id, slot, {}});
    } else if (list.back().id == id) {
      at = list.size() - 1;
    } else {
      at = record.postings.Seek(0, id);
      if (new_holder) {
        list.insert(list.begin() + static_cast<std::ptrdiff_t>(at),
                    Posting{id, slot, {}});
      }
    }
    TermPosting& posting = list[at].weight;
    posting.text_tf += text_weight;
    posting.voice_tf += voice_weight;
    record.max_tf = std::max(record.max_tf, posting.tf());
  }
  lengths_[slot] += text_weight + voice_weight;
  stats_.total_length += text_weight + voice_weight;
}

void ScoredIndex::FloorHolderLengths(uint32_t slot, size_t first_held) {
  if (stats_only_) return;
  // Snapshot the document's length as of the end of this indexing
  // operation. The document can only grow from here (Append never
  // shrinks), so the floor stays valid without ever being revisited.
  const double len = lengths_[slot];
  const std::vector<TermEntry*>& held = held_[slot];
  for (size_t i = first_held; i < held.size(); ++i) {
    TermRecord& record = held[i]->second;
    // A sole holder sets the floor; later holders can only lower it.
    record.min_len = record.postings.size() == 1
                         ? len
                         : std::min(record.min_len, len);
  }
}

void ScoredIndex::Add(const object::MultimediaObject& obj,
                      double voice_confidence) {
  const storage::ObjectId id = obj.id();
  Remove(id);
  version_.fetch_add(1, std::memory_order_acq_rel);
  const uint32_t slot = EnsureDoc(id);
  if (obj.has_text()) {
    for (const std::string& w : SplitWords(obj.text_part().contents())) {
      AddTerm(id, slot, FoldWord(w), 1.0, 0.0);
    }
  }
  for (const auto& [name, value] : obj.attributes()) {
    for (const std::string& w : SplitWords(value)) {
      AddTerm(id, slot, FoldWord(w), 1.0, 0.0);
    }
  }
  if (obj.has_voice()) {
    for (const voice::WordAlignment& w : obj.voice_part().track().words) {
      AddTerm(id, slot, FoldWord(w.word), 0.0, voice_confidence);
    }
  }
  FloorHolderLengths(slot, 0);
}

IndexDelta ScoredIndex::Append(storage::ObjectId id,
                               const AppendedContent& content,
                               double voice_confidence) {
  IndexDelta delta;
  delta.id = id;
  version_.fetch_add(1, std::memory_order_acq_rel);
  const uint32_t slot = EnsureDoc(id, &delta.new_doc);
  const double length_before = lengths_[slot];
  const size_t held_before = held_[slot].size();
  for (const std::string& w : SplitWords(content.text)) {
    AddTerm(id, slot, FoldWord(w), 1.0, 0.0, &delta.new_terms);
  }
  for (const voice::WordAlignment& w : content.voice_words) {
    AddTerm(id, slot, FoldWord(w.word), 0.0, voice_confidence,
            &delta.new_terms);
  }
  delta.length_delta = lengths_[slot] - length_before;
  // Only terms this append made the document a NEW holder of can lower
  // a holder-length floor; for terms it already held, the floors stay
  // conservative as the document grows.
  FloorHolderLengths(slot, held_before);
  return delta;
}

void ScoredIndex::ApplyDelta(const IndexDelta& delta) {
  version_.fetch_add(1, std::memory_order_acq_rel);
  const uint32_t slot = EnsureDoc(delta.id);
  std::vector<TermEntry*>& held = held_[slot];
  for (const std::string& term : delta.new_terms) {
    TermEntry& entry = *terms_.try_emplace(term).first;
    ++entry.second.df;
    held.push_back(&entry);
  }
  lengths_[slot] += delta.length_delta;
  stats_.total_length += delta.length_delta;
}

void ScoredIndex::Remove(storage::ObjectId id) {
  const auto doc = LowerBoundId(docs_, id);
  if (doc == docs_.end() || doc->id != id) return;
  version_.fetch_add(1, std::memory_order_acq_rel);
  const uint32_t slot = doc->slot;
  for (TermEntry* entry : held_[slot]) {
    TermRecord& record = entry->second;
    std::vector<Posting>& list = record.postings.entries_;
    const size_t at = record.postings.Seek(0, id);
    if (at < list.size() && list[at].id == id) {
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(at));
    }
    if (--record.df == 0) {
      terms_.erase(terms_.find(entry->first));
    } else if (!list.empty()) {
      // The departing posting may have carried either bound:
      // recompute over the survivors (rare path — only re-stores
      // come here).
      double max_tf = 0;
      double min_len = std::numeric_limits<double>::max();
      for (const Posting& rest : list) {
        max_tf = std::max(max_tf, rest.weight.tf());
        min_len = std::min(min_len, lengths_[rest.slot]);
      }
      record.max_tf = max_tf;
      record.min_len = min_len;
    }
  }
  stats_.total_length -= lengths_[slot];
  held_[slot].clear();
  free_slots_.push_back(slot);
  docs_.erase(doc);
  --stats_.doc_count;
}

const TermRecord* ScoredIndex::FindTerm(std::string_view term) const {
  auto it = terms_.find(term);
  return it == terms_.end() ? nullptr : &it->second;
}

const PostingList& ScoredIndex::Postings(std::string_view term) const {
  static const PostingList* empty = new PostingList();
  const TermRecord* record = FindTerm(term);
  return record == nullptr ? *empty : record->postings;
}

uint64_t ScoredIndex::DocFreq(std::string_view term) const {
  const TermRecord* record = FindTerm(term);
  return record == nullptr ? 0 : record->df;
}

double ScoredIndex::MaxTf(std::string_view term) const {
  const TermRecord* record = FindTerm(term);
  return record == nullptr ? 0.0 : record->max_tf;
}

double ScoredIndex::MinDocLen(std::string_view term) const {
  const TermRecord* record = FindTerm(term);
  return record == nullptr || record->postings.empty() ? 0.0
                                                       : record->min_len;
}

double ScoredIndex::DocLength(storage::ObjectId id) const {
  const auto it = LowerBoundId(docs_, id);
  return it != docs_.end() && it->id == id ? lengths_[it->slot] : 0.0;
}

std::vector<storage::ObjectId> ScoredIndex::PartitionPoints(
    size_t parts) const {
  std::vector<storage::ObjectId> points;
  if (parts <= 1) return points;
  points.reserve(parts - 1);
  // docs_ is ordered by id, so the k-th quantile entry starts range k.
  // An empty index pads with past-the-end sentinels so callers always
  // get parts - 1 boundaries (empty tail ranges).
  const size_t n = docs_.size();
  for (size_t k = 1; k < parts; ++k) {
    points.push_back(n == 0 ? std::numeric_limits<storage::ObjectId>::max()
                            : docs_[k * n / parts].id);
  }
  return points;
}

}  // namespace minos::query
