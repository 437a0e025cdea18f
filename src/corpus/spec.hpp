// Corpus specs: named points in the synthetic-model design space.
//
// A CorpusSpec pairs a models::SyntheticSpec with a library cost profile and
// owns a stable, compact name grammar under the `sweep/` prefix:
//
//   sweep/i2v4c3-s42        (2 interfaces, 4 variants, clusters of 3, seed 42)
//   sweep/p8i2v3c3m2d1t-s7  (every knob spelled out, tight library profile)
//
// Knob letters, in canonical order: p = shared_processes, i = interfaces,
// v = variants, c = cluster_size, m = modes, d = predicate_depth; then an
// optional profile letter (b/t/r) and the seed as `s<seed>`. format_name
// omits default-valued knobs, so names stay short, and parse_name accepts
// any subset — parse(format(x)) == x for every spec.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "models/synthetic.hpp"

namespace spivar::corpus {

/// How make_synthetic_library is calibrated for a corpus model. Balanced is
/// the repo-wide default regime (single variant slightly overloads the
/// processor); tight forces more repair moves, relaxed makes all-software
/// feasible so strategies can agree on the trivial mapping.
enum class LibraryProfile : char {
  kBalanced = 'b',
  kTight = 't',
  kRelaxed = 'r',
};

[[nodiscard]] std::string_view profile_name(LibraryProfile profile);
[[nodiscard]] std::optional<LibraryProfile> profile_from_letter(char letter);

struct CorpusSpec {
  models::SyntheticSpec spec{};
  LibraryProfile profile = LibraryProfile::kBalanced;

  friend bool operator==(const CorpusSpec&, const CorpusSpec&) = default;
};

inline constexpr std::string_view kCorpusPrefix = "sweep/";

/// True when `name` is in corpus namespace (starts with `sweep/`).
[[nodiscard]] bool is_corpus_name(std::string_view name);

/// Canonical compact name (always carries the seed, omits default knobs).
[[nodiscard]] std::string format_name(const CorpusSpec& spec);

/// Parses a `sweep/...` name; on failure returns nullopt and, when `error`
/// is non-null, stores a human-readable reason mentioning the grammar, or
/// the cap a well-formed name exceeds (`models::size_error`).
[[nodiscard]] std::optional<CorpusSpec> parse_name(std::string_view name,
                                                   std::string* error = nullptr);

/// Library generator options implied by the spec: the profile fixes the cost
/// regime and the library seed is derived from the model seed so distinct
/// corpus points get distinct (but reproducible) libraries.
[[nodiscard]] models::SyntheticLibraryOptions library_options(const CorpusSpec& spec);

}  // namespace spivar::corpus
