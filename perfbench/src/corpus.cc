#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "minos/image/bitmap.h"
#include "minos/text/formatter.h"
#include "minos/text/markup.h"
#include "minos/voice/synthesizer.h"
#include "minos/voice/voice_document.h"

namespace perfbench {

using minos::Random;

std::string VocabWord(size_t rank) {
  static const char kConsonants[] = "bdfghklmnprstvwz";
  static const char kVowels[] = "aeiou";
  constexpr size_t kSyllables = 16 * 5;
  // Bijective base-80 numeral of rank + 1, one syllable per digit: every
  // rank is a distinct word, and common words are short (the 80 most
  // common have one syllable, the next 6400 two).
  std::string word;
  for (size_t r = rank + 1; r > 0; r /= kSyllables) {
    --r;
    const size_t syllable = r % kSyllables;
    word += kConsonants[syllable / 5];
    word += kVowels[syllable % 5];
  }
  return word;
}

Zipf::Zipf(size_t n, double s) {
  cdf_.resize(n);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(Random& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

minos::text::Document Report(Random& rng, const Zipf& words, int paragraphs,
                             int words_per_para) {
  std::string markup = ".TITLE Report " + VocabWord(words.Sample(rng)) + "\n";
  for (int p = 0; p < paragraphs; ++p) {
    if (p % 8 == 0) {
      markup += ".CHAPTER Part " + std::to_string(p / 8 + 1) + "\n";
    }
    markup += ".PP\n";
    for (int w = 0; w < words_per_para; ++w) {
      markup += VocabWord(words.Sample(rng));
      markup += (w % 12 == 11 || w + 1 == words_per_para) ? ". " : " ";
    }
    markup += "\n";
  }
  return std::move(minos::text::MarkupParser().Parse(markup)).value();
}

minos::image::Image Illustration(Random& rng, int width, int height) {
  minos::image::Bitmap bm(width, height);
  const int bands = 6 + static_cast<int>(rng.Uniform(10));
  const int cx = static_cast<int>(rng.Uniform(static_cast<uint64_t>(width)));
  const int cy = static_cast<int>(rng.Uniform(static_cast<uint64_t>(height)));
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const double dx = static_cast<double>(x - cx) / width;
      const double dy = static_cast<double>(y - cy) / height;
      const int band = static_cast<int>((dx * dx + dy * dy) * bands * 4);
      bm.Set(x, y, static_cast<uint8_t>(band % 2 == 0 ? 200 : 60));
    }
  }
  return minos::image::Image::FromBitmap(std::move(bm));
}

minos::object::MultimediaObject PagedObject(
    ObjectId id, minos::text::Document doc,
    const minos::image::Image* illustration, int image_every) {
  minos::object::MultimediaObject obj(id);
  obj.descriptor().layout.width = 48;
  obj.descriptor().layout.height = 12;
  obj.SetTextPart(std::move(doc)).ok();
  minos::text::TextFormatter formatter(obj.descriptor().layout);
  const size_t pages = formatter.Paginate(obj.text_part()).value().size();
  for (size_t i = 0; i < pages; ++i) {
    minos::object::VisualPageSpec page;
    page.text_page = static_cast<uint32_t>(i + 1);
    obj.descriptor().pages.push_back(page);
  }
  if (illustration != nullptr && image_every > 0) {
    for (size_t i = 0; i < pages; i += static_cast<size_t>(image_every)) {
      const uint32_t index = obj.AddImage(*illustration).value();
      minos::object::PlacedImage placed;
      placed.image_index = index;
      placed.placement = minos::image::Rect{180, 20, illustration->width(),
                                            illustration->height()};
      obj.descriptor().pages[i].images.push_back(placed);
    }
  }
  obj.Archive().ok();
  return obj;
}

minos::object::MultimediaObject AudioObject(ObjectId id,
                                            const minos::text::Document& doc,
                                            uint64_t speaker_seed) {
  minos::voice::SpeakerParams speaker;
  speaker.seed = speaker_seed;
  minos::voice::SpeechSynthesizer synth(speaker);
  minos::voice::VoiceDocument vdoc(synth.Synthesize(doc).value());
  vdoc.TagFromAlignment(doc, minos::voice::EditingLevel::kFull);
  minos::object::MultimediaObject obj(id);
  obj.descriptor().driving_mode = minos::object::DrivingMode::kAudio;
  obj.SetVoicePart(std::move(vdoc)).ok();
  obj.Archive().ok();
  return obj;
}

int PageCount(const minos::object::MultimediaObject& obj) {
  return static_cast<int>(obj.descriptor().pages.size());
}

uint64_t ContentBytes(const minos::object::MultimediaObject& obj) {
  uint64_t bytes = obj.has_text() ? obj.text_part().contents().size() : 0;
  for (const minos::image::Image& img : obj.images()) {
    bytes += static_cast<uint64_t>(img.width()) *
             static_cast<uint64_t>(img.height());
  }
  if (obj.has_voice()) {
    bytes += 2 * obj.voice_part().track().pcm.samples().size();
  }
  return bytes;
}

}  // namespace perfbench
