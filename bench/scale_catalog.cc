// The catalog-scale corpus shared by `ranked_query` gate 6 and the
// ScoredIndex micro-suite (declared in scenario_lib.h).

#include <string>
#include <vector>

#include "minos/util/random.h"
#include "scenario_lib.h"

namespace minos::bench {

std::vector<query::AppendedContent> ScaleCatalogContents(size_t docs) {
  Random rng(1986);
  constexpr size_t kVocab = 800;
  std::vector<query::AppendedContent> contents(docs);
  for (query::AppendedContent& content : contents) {
    const size_t words = 6 + rng.Uniform(18);
    for (size_t w = 0; w < words; ++w) {
      const size_t pick = (rng.Uniform(kVocab) * rng.Uniform(kVocab)) / kVocab;
      content.text += "w" + std::to_string(pick) + " ";
    }
  }
  return contents;
}

}  // namespace minos::bench
