// IDX-1: ScoredIndex and TopK wall-clock cost. Google-benchmark
// measurement of the ranked-retrieval hot path on the `ranked_query`
// gate-6 catalog (10k and 100k objects built through Append): building
// the index, one top-10 disjunctive query under the max-score and the
// exhaustive scorer, and the partition points every pooled or pruned
// TopK call reads.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "minos/query/query_engine.h"
#include "minos/query/scored_index.h"
#include "scenario_lib.h"

namespace minos {
namespace {

using storage::ObjectId;

/// The gate-6 query: a common head term plus two selective tail terms.
const std::vector<std::string>& ScaleQuery() {
  static const std::vector<std::string>* query =
      new std::vector<std::string>{"w2", "w431", "w797"};
  return *query;
}

const std::vector<query::AppendedContent>& ContentsOfSize(size_t docs) {
  static auto* cache =
      new std::map<size_t, std::vector<query::AppendedContent>>();
  auto it = cache->find(docs);
  if (it == cache->end()) {
    it = cache->emplace(docs, bench::ScaleCatalogContents(docs)).first;
  }
  return it->second;
}

void BuildIndex(const std::vector<query::AppendedContent>& contents,
                query::ScoredIndex* index) {
  for (size_t i = 0; i < contents.size(); ++i) {
    index->Append(static_cast<ObjectId>(i + 1), contents[i], 0.0);
  }
}

/// One built index per catalog size, shared by the query benchmarks.
const query::ScoredIndex& IndexOfSize(size_t docs) {
  static auto* cache =
      new std::map<size_t, std::unique_ptr<query::ScoredIndex>>();
  auto it = cache->find(docs);
  if (it == cache->end()) {
    auto index = std::make_unique<query::ScoredIndex>();
    BuildIndex(ContentsOfSize(docs), index.get());
    it = cache->emplace(docs, std::move(index)).first;
  }
  return *it->second;
}

// Building the whole catalog through the incremental Append path (word
// splitting and folding included; the index teardown is not timed).
void BM_BuildAppend(benchmark::State& state) {
  const std::vector<query::AppendedContent>& contents =
      ContentsOfSize(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto index = std::make_unique<query::ScoredIndex>();
    BuildIndex(contents, index.get());
    benchmark::DoNotOptimize(index->vocabulary_size());
    state.PauseTiming();
    index.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildAppend)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// One top-10 disjunctive query, serial (no pool).
void RunTopK(benchmark::State& state, query::ScoringStrategy strategy) {
  const query::ScoredIndex& index =
      IndexOfSize(static_cast<size_t>(state.range(0)));
  const query::QueryEngine engine({}, strategy);
  size_t scanned = 0;
  for (auto _ : state) {
    const query::RankedQuery got = engine.TopK(
        index, index, ScaleQuery(), 10, query::QueryMode::kDisjunctive);
    scanned = got.postings_scanned;
    benchmark::DoNotOptimize(got.hits.data());
  }
  state.counters["postings_scanned"] = static_cast<double>(scanned);
}

void BM_TopKMaxScore(benchmark::State& state) {
  RunTopK(state, query::ScoringStrategy::kMaxScore);
}
BENCHMARK(BM_TopKMaxScore)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_TopKExhaustive(benchmark::State& state) {
  RunTopK(state, query::ScoringStrategy::kExhaustive);
}
BENCHMARK(BM_TopKExhaustive)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// The four-way split every pruned or pooled TopK asks for.
void BM_PartitionPoints(benchmark::State& state) {
  const query::ScoredIndex& index =
      IndexOfSize(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const std::vector<ObjectId> points = index.PartitionPoints(4);
    benchmark::DoNotOptimize(points.data());
  }
}
BENCHMARK(BM_PartitionPoints)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace minos
