#include "minos/voice/voice_document.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "minos/object/part_codec.h"
#include "minos/text/markup.h"
#include "minos/voice/synthesizer.h"

namespace minos::voice {
namespace {

using text::LogicalUnit;

constexpr char kMarkup[] =
    ".CHAPTER First\n.PP\nAlpha beta gamma. Delta epsilon.\n"
    ".SECTION Inner\nZeta eta theta.\n"
    ".CHAPTER Second\n.PP\nIota kappa lambda.\n";

class VoiceDocumentTest : public ::testing::Test {
 protected:
  VoiceDocumentTest() {
    text::MarkupParser parser;
    auto doc = parser.Parse(kMarkup);
    EXPECT_TRUE(doc.ok());
    doc_ = std::move(doc).value();
    SpeechSynthesizer synth{SpeakerParams{}};
    auto track = synth.Synthesize(doc_);
    EXPECT_TRUE(track.ok());
    vdoc_ = std::make_unique<VoiceDocument>(std::move(track).value());
  }

  text::Document doc_;
  std::unique_ptr<VoiceDocument> vdoc_;
};

TEST_F(VoiceDocumentTest, UntaggedHasNoUnits) {
  EXPECT_FALSE(vdoc_->HasUnit(LogicalUnit::kChapter));
  EXPECT_FALSE(vdoc_->HasUnit(LogicalUnit::kParagraph));
}

TEST_F(VoiceDocumentTest, ManualTagging) {
  vdoc_->TagComponent(LogicalUnit::kChapter, SampleSpan{0, 1000}, "Intro");
  ASSERT_TRUE(vdoc_->HasUnit(LogicalUnit::kChapter));
  EXPECT_EQ(vdoc_->Components(LogicalUnit::kChapter)[0].title, "Intro");
}

TEST_F(VoiceDocumentTest, TagFromAlignmentChapterLevel) {
  vdoc_->TagFromAlignment(doc_, EditingLevel::kChapters);
  EXPECT_EQ(vdoc_->Components(LogicalUnit::kChapter).size(), 2u);
  EXPECT_FALSE(vdoc_->HasUnit(LogicalUnit::kSection));
  EXPECT_FALSE(vdoc_->HasUnit(LogicalUnit::kParagraph));
}

TEST_F(VoiceDocumentTest, TagFromAlignmentSectionLevel) {
  vdoc_->TagFromAlignment(doc_, EditingLevel::kSections);
  EXPECT_EQ(vdoc_->Components(LogicalUnit::kChapter).size(), 2u);
  EXPECT_EQ(vdoc_->Components(LogicalUnit::kSection).size(), 1u);
  EXPECT_FALSE(vdoc_->HasUnit(LogicalUnit::kParagraph));
}

TEST_F(VoiceDocumentTest, TagFromAlignmentFull) {
  vdoc_->TagFromAlignment(doc_, EditingLevel::kFull);
  EXPECT_TRUE(vdoc_->HasUnit(LogicalUnit::kParagraph));
  EXPECT_TRUE(vdoc_->HasUnit(LogicalUnit::kSentence));
  EXPECT_FALSE(vdoc_->HasUnit(LogicalUnit::kWord));  // Never tagged.
}

TEST_F(VoiceDocumentTest, TagFromAlignmentNone) {
  vdoc_->TagFromAlignment(doc_, EditingLevel::kNone);
  EXPECT_FALSE(vdoc_->HasUnit(LogicalUnit::kChapter));
}

TEST_F(VoiceDocumentTest, TaggedSpansOrderedAndWithinBuffer) {
  vdoc_->TagFromAlignment(doc_, EditingLevel::kFull);
  for (int u = 0; u < 8; ++u) {
    const auto& cs = vdoc_->Components(static_cast<LogicalUnit>(u));
    for (size_t i = 0; i < cs.size(); ++i) {
      EXPECT_LE(cs[i].span.end, vdoc_->pcm().size());
      EXPECT_LT(cs[i].span.begin, cs[i].span.end);
      if (i > 0) {
        EXPECT_GE(cs[i].span.begin, cs[i - 1].span.begin);
      }
    }
  }
}

TEST_F(VoiceDocumentTest, ChapterTitlesPreserved) {
  vdoc_->TagFromAlignment(doc_, EditingLevel::kChapters);
  const auto& chapters = vdoc_->Components(LogicalUnit::kChapter);
  ASSERT_EQ(chapters.size(), 2u);
  EXPECT_EQ(chapters[0].title, "First");
  EXPECT_EQ(chapters[1].title, "Second");
}

TEST_F(VoiceDocumentTest, NextPreviousUnitNavigation) {
  vdoc_->TagFromAlignment(doc_, EditingLevel::kChapters);
  const auto& chapters = vdoc_->Components(LogicalUnit::kChapter);
  auto next = vdoc_->NextUnitStart(LogicalUnit::kChapter, 0);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, chapters[1].span.begin);
  auto prev = vdoc_->PreviousUnitStart(LogicalUnit::kChapter,
                                       vdoc_->pcm().size());
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(*prev, chapters[1].span.begin);
  EXPECT_TRUE(vdoc_->PreviousUnitStart(LogicalUnit::kChapter, 0)
                  .status()
                  .IsNotFound());
}

TEST_F(VoiceDocumentTest, EnclosingUnit) {
  vdoc_->TagFromAlignment(doc_, EditingLevel::kChapters);
  const auto& chapters = vdoc_->Components(LogicalUnit::kChapter);
  auto enclosing = vdoc_->EnclosingUnit(LogicalUnit::kChapter,
                                        chapters[1].span.begin + 10);
  ASSERT_TRUE(enclosing.ok());
  EXPECT_EQ(enclosing->title, "Second");
}

TEST_F(VoiceDocumentTest, CrossMediaMappingRoundTrips) {
  // Pick the 5th word; its text offset must map to its sample start.
  const auto& words = vdoc_->track().words;
  ASSERT_GT(words.size(), 5u);
  const WordAlignment& w = words[5];
  auto sample = vdoc_->SampleForTextOffset(w.text_offset);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(*sample, w.samples.begin);
  auto offset = vdoc_->TextOffsetForSample(w.samples.begin + 1);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, w.text_offset);
}

TEST_F(VoiceDocumentTest, MappingClampsToNearestWordBefore) {
  const auto& words = vdoc_->track().words;
  // A sample inside the silence after word 2 maps to word 2.
  const size_t in_silence = words[2].samples.end + 10;
  auto offset = vdoc_->TextOffsetForSample(in_silence);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, words[2].text_offset);
}

TEST(VoiceDocumentEmptyTest, EmptyTrackMappingsFail) {
  VoiceDocument vdoc((VoiceTrack()));
  EXPECT_TRUE(vdoc.TextOffsetForSample(0).status().IsNotFound());
  EXPECT_TRUE(vdoc.SampleForTextOffset(0).status().IsNotFound());
}

// Part codec round trips of hand-built tracks at the edges of the bulk
// PCM loops: no samples, an odd count, and the extreme sample values.
VoiceTrack HandBuiltTrack(int rate, std::vector<int16_t> samples) {
  VoiceTrack track;
  track.pcm = PcmBuffer(rate, std::move(samples));
  return track;
}

TEST(VoicePartCodecTest, ZeroSampleTrackRoundTrips) {
  VoiceDocument vdoc(HandBuiltTrack(8000, {}));
  auto restored =
      object::DecodeVoiceDocument(object::EncodeVoiceDocument(vdoc));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->pcm().empty());
  EXPECT_EQ(restored->pcm().sample_rate(), 8000);
}

TEST(VoicePartCodecTest, OddLengthTrackRoundTripsAsLittleEndianPairs) {
  const std::vector<int16_t> samples = {
      0, 1, -1, 32767, -32768, 0x1234, -0x1234, 255, -256};
  VoiceTrack track = HandBuiltTrack(11025, samples);
  track.words.push_back(WordAlignment{"odd", 4, SampleSpan{1, 8}});
  track.silences.push_back(SilenceTruth{SampleSpan{8, 9}, 2});
  VoiceDocument vdoc(std::move(track));
  vdoc.TagComponent(LogicalUnit::kParagraph, SampleSpan{0, 9}, "all");
  const std::string bytes = object::EncodeVoiceDocument(vdoc);

  // Header: varint rate (11025 -> 2 bytes) and varint count (9 -> 1 byte),
  // then each sample low byte first.
  const size_t header = 3;
  ASSERT_GE(bytes.size(), header + 2 * samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto u = static_cast<uint16_t>(samples[i]);
    EXPECT_EQ(static_cast<uint8_t>(bytes[header + 2 * i]), u & 0xFF) << i;
    EXPECT_EQ(static_cast<uint8_t>(bytes[header + 2 * i + 1]), u >> 8) << i;
  }

  auto restored = object::DecodeVoiceDocument(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->pcm().samples(), samples);
  EXPECT_EQ(restored->pcm().sample_rate(), 11025);
  ASSERT_EQ(restored->track().words.size(), 1u);
  EXPECT_EQ(restored->track().words[0].word, "odd");
  EXPECT_EQ(restored->track().words[0].samples, (SampleSpan{1, 8}));
  ASSERT_EQ(restored->track().silences.size(), 1u);
  EXPECT_EQ(restored->track().silences[0].level, 2);
  ASSERT_EQ(restored->Components(LogicalUnit::kParagraph).size(), 1u);
  EXPECT_EQ(restored->Components(LogicalUnit::kParagraph)[0].title, "all");
}

}  // namespace
}  // namespace minos::voice
