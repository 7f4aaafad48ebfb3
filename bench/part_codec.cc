// CODEC-1: part codec and CRC-32 wall-clock cost. Google-benchmark
// measurement of the archival decode path that every Fetch and
// FetchMiniature runs: the part checksum at three buffer sizes, encode
// and decode of a synthesized voice document (bulk PCM codec plus its
// checksum), and DeserializeArchived of a visual and an audio object.

#include <benchmark/benchmark.h>

#include <string>

#include "minos/object/multimedia_object.h"
#include "minos/object/part_codec.h"
#include "minos/util/coding.h"
#include "minos/util/random.h"
#include "minos/voice/synthesizer.h"
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

/// A spoken one-paragraph report (about 230k samples, the size of a
/// present-workload audio twin), tagged to full editing level.
const voice::VoiceDocument& SpokenReport() {
  static const voice::VoiceDocument* doc = [] {
    const text::Document text = bench::LongReport(1);
    voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
    auto* vdoc = new voice::VoiceDocument(synth.Synthesize(text).value());
    vdoc->TagFromAlignment(text, voice::EditingLevel::kFull);
    return vdoc;
  }();
  return *doc;
}

void BM_EncodeVoiceDocument(benchmark::State& state) {
  const voice::VoiceDocument& doc = SpokenReport();
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
  const std::string encoded = object::EncodeVoiceDocument(SpokenReport());
  for (auto _ : state) {
    auto doc = object::DecodeVoiceDocument(encoded);
    benchmark::DoNotOptimize(doc.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(encoded.size()));
}
BENCHMARK(BM_DecodeVoiceDocument)->Unit(benchmark::kMicrosecond);

void RunDeserializeArchived(benchmark::State& state,
                            const object::MultimediaObject& obj) {
  const std::string bytes = obj.SerializeArchived().value();
  for (auto _ : state) {
    auto decoded = object::MultimediaObject::DeserializeArchived(1, bytes);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}

// The Figures 1-2 object: text pages, a subway map and an x-ray bitmap.
void BM_DeserializeArchivedVisual(benchmark::State& state) {
  RunDeserializeArchived(state, bench::BuildVisualPagesObject(1));
}
BENCHMARK(BM_DeserializeArchivedVisual)->Unit(benchmark::kMicrosecond);

// An audio-mode object whose only content part is SpokenReport().
void BM_DeserializeArchivedAudio(benchmark::State& state) {
  object::MultimediaObject obj(1);
  obj.descriptor().driving_mode = object::DrivingMode::kAudio;
  (void)obj.SetVoicePart(SpokenReport());
  (void)obj.Archive();
  RunDeserializeArchived(state, obj);
}
BENCHMARK(BM_DeserializeArchivedAudio)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace minos
