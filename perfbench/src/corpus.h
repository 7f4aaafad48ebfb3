#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

// Seeded content for the benchmark's catalogs: a fixed synthetic
// vocabulary, Zipf sampling over it, and factories for the object shapes
// the workloads archive (paged visual reports, their audio twins, and
// one-page index cards for the large search catalog).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "minos/image/image.h"
#include "minos/object/multimedia_object.h"
#include "minos/text/document.h"
#include "minos/util/random.h"

namespace perfbench {

using minos::storage::ObjectId;

/// The vocabulary word of popularity rank `rank` (0 = most common). The
/// mapping is fixed, so a seed only changes which words are drawn.
std::string VocabWord(size_t rank);

/// Zipf(s) sampler over ranks [0, n), by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(minos::Random& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Markup-free report text: `paragraphs` paragraphs of `words_per_para`
/// Zipf-drawn words, a chapter every eight paragraphs.
minos::text::Document Report(minos::Random& rng, const Zipf& words,
                             int paragraphs, int words_per_para);

/// A seeded grey-level bitmap (the page illustrations).
minos::image::Image Illustration(minos::Random& rng, int width, int height);

/// A visual-mode report paginated for a 48x12 layout, with
/// `illustration` placed on every `image_every`-th page (0 = none).
/// Returned archived, ready to Store.
minos::object::MultimediaObject PagedObject(
    ObjectId id, minos::text::Document doc,
    const minos::image::Image* illustration, int image_every);

/// The audio-mode twin of `doc`: synthesized speech tagged with the
/// document's logical structure. Returned archived.
minos::object::MultimediaObject AudioObject(ObjectId id,
                                            const minos::text::Document& doc,
                                            uint64_t speaker_seed);

/// Number of visual pages of `obj`.
int PageCount(const minos::object::MultimediaObject& obj);

/// Bytes of content the user handed over: text characters, one byte per
/// bitmap pixel, two per voice sample. The base write amplification is
/// measured against.
uint64_t ContentBytes(const minos::object::MultimediaObject& obj);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
