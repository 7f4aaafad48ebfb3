// CODEC-1: part codec and CRC-32 wall-clock cost. Google-benchmark
// measurement of the archival decode path that every Fetch and
// FetchMiniature runs: the part checksum at three buffer sizes, and
// encode and decode of a synthesized voice document (bulk PCM codec plus
// its checksum). DeserializeArchived of whole objects is measured in
// archive_io.

#include <benchmark/benchmark.h>

#include <string>

#include "minos/object/part_codec.h"
#include "minos/util/coding.h"
#include "minos/util/random.h"
#include "minos/voice/voice_document.h"
#include "scenario_lib.h"

namespace minos {
namespace {

void BM_Crc32(benchmark::State& state) {
  Random rng(5);
  std::string bytes(static_cast<size_t>(state.range(0)), '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Next64());
  for (auto _ : state) benchmark::DoNotOptimize(Crc32(bytes));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(512)->Arg(64 << 10)->Arg(1 << 20);

void BM_EncodeVoiceDocument(benchmark::State& state) {
  const voice::VoiceDocument& doc = bench::SpokenReport();
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string encoded = object::EncodeVoiceDocument(doc);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["samples"] = static_cast<double>(doc.pcm().size());
}
BENCHMARK(BM_EncodeVoiceDocument)->Unit(benchmark::kMicrosecond);

void BM_DecodeVoiceDocument(benchmark::State& state) {
  const std::string encoded =
      object::EncodeVoiceDocument(bench::SpokenReport());
  for (auto _ : state) {
    auto doc = object::DecodeVoiceDocument(encoded);
    benchmark::DoNotOptimize(doc.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(encoded.size()));
}
BENCHMARK(BM_DecodeVoiceDocument)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace minos
