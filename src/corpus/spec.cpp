#include "corpus/spec.hpp"

#include <charconv>
#include <cstdint>

#include "support/rng.hpp"

namespace spivar::corpus {

std::string_view profile_name(LibraryProfile profile) {
  switch (profile) {
    case LibraryProfile::kBalanced:
      return "balanced";
    case LibraryProfile::kTight:
      return "tight";
    case LibraryProfile::kRelaxed:
      return "relaxed";
  }
  return "balanced";
}

std::optional<LibraryProfile> profile_from_letter(char letter) {
  switch (letter) {
    case 'b':
      return LibraryProfile::kBalanced;
    case 't':
      return LibraryProfile::kTight;
    case 'r':
      return LibraryProfile::kRelaxed;
    default:
      return std::nullopt;
  }
}

bool is_corpus_name(std::string_view name) {
  return name.substr(0, kCorpusPrefix.size()) == kCorpusPrefix;
}

std::string format_name(const CorpusSpec& spec) {
  const models::SyntheticSpec defaults{};
  const models::SyntheticSpec& s = spec.spec;
  std::string knobs;
  auto knob = [&knobs](char letter, std::size_t value, std::size_t default_value) {
    if (value != default_value) knobs += letter + std::to_string(value);
  };
  knob('p', s.shared_processes, defaults.shared_processes);
  knob('i', s.interfaces, defaults.interfaces);
  knob('v', s.variants, defaults.variants);
  knob('c', s.cluster_size, defaults.cluster_size);
  knob('m', s.modes, defaults.modes);
  knob('d', s.predicate_depth, defaults.predicate_depth);
  if (spec.profile != LibraryProfile::kBalanced) {
    knobs += static_cast<char>(spec.profile);
  }
  std::string name{kCorpusPrefix};
  name += knobs;
  if (!knobs.empty()) name += '-';
  name += 's' + std::to_string(s.seed);
  return name;
}

namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message) +
             " (grammar: sweep/[p<n>][i<n>][v<n>][c<n>][m<n>][d<n>][b|t|r][-s<seed>])";
  }
  return false;
}

/// Consumes the digits following a knob letter; false when none follow.
bool read_number(std::string_view text, std::size_t& pos, std::uint64_t& out) {
  const std::size_t start = pos;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
  if (pos == start) return false;
  const auto [end, ec] = std::from_chars(text.data() + start, text.data() + pos, out);
  return ec == std::errc{} && end == text.data() + pos;
}

}  // namespace

std::optional<CorpusSpec> parse_name(std::string_view name, std::string* error) {
  if (!is_corpus_name(name)) {
    fail(error, std::string{"'"} + std::string{name} + "' is not a corpus name: missing 'sweep/' prefix");
    return std::nullopt;
  }
  const std::string_view body = name.substr(kCorpusPrefix.size());
  CorpusSpec spec;
  bool seen[6] = {};
  bool seen_profile = false;
  bool seen_seed = false;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const char letter = body[pos];
    if (letter == '-') {
      ++pos;
      continue;
    }
    ++pos;
    std::size_t* knob = nullptr;
    std::size_t knob_index = 0;
    switch (letter) {
      case 'p':
        knob = &spec.spec.shared_processes;
        knob_index = 0;
        break;
      case 'i':
        knob = &spec.spec.interfaces;
        knob_index = 1;
        break;
      case 'v':
        knob = &spec.spec.variants;
        knob_index = 2;
        break;
      case 'c':
        knob = &spec.spec.cluster_size;
        knob_index = 3;
        break;
      case 'm':
        knob = &spec.spec.modes;
        knob_index = 4;
        break;
      case 'd':
        knob = &spec.spec.predicate_depth;
        knob_index = 5;
        break;
      default:
        break;
    }
    if (knob != nullptr) {
      std::uint64_t value = 0;
      if (seen[knob_index]) {
        fail(error, std::string{"duplicate knob '"} + std::string(1, letter) + "' in '" + std::string{name} +
                        "'");
        return std::nullopt;
      }
      if (!read_number(body, pos, value)) {
        fail(error, std::string{"knob '"} + std::string(1, letter) + "' needs a number in '" +
                        std::string{name} + "'");
        return std::nullopt;
      }
      seen[knob_index] = true;
      *knob = static_cast<std::size_t>(value);
      continue;
    }
    if (letter == 's') {
      std::uint64_t value = 0;
      if (seen_seed || !read_number(body, pos, value)) {
        fail(error, std::string{"bad seed in '"} + std::string{name} + "'");
        return std::nullopt;
      }
      seen_seed = true;
      spec.spec.seed = value;
      continue;
    }
    if (const auto profile = profile_from_letter(letter)) {
      if (seen_profile) {
        fail(error, std::string{"duplicate library profile in '"} + std::string{name} + "'");
        return std::nullopt;
      }
      seen_profile = true;
      spec.profile = *profile;
      continue;
    }
    fail(error, std::string{"unknown knob '"} + std::string(1, letter) + "' in '" + std::string{name} + "'");
    return std::nullopt;
  }
  if (!seen_seed) {
    fail(error, std::string{"'"} + std::string{name} + "' is missing the mandatory seed suffix");
    return std::nullopt;
  }
  if (spec.spec.variants < 1 || spec.spec.cluster_size < 1 || spec.spec.modes < 1) {
    fail(error, std::string{"'"} + std::string{name} + "' needs variants/cluster_size/modes >= 1");
    return std::nullopt;
  }
  if (const std::string why = models::size_error(spec.spec); !why.empty()) {
    if (error != nullptr) *error = "'" + std::string{name} + "': " + why;
    return std::nullopt;
  }
  return spec;
}

models::SyntheticLibraryOptions library_options(const CorpusSpec& spec) {
  models::SyntheticLibraryOptions options;
  // Decouple the library RNG stream from the model's structural stream while
  // staying a pure function of the corpus point.
  options.seed = support::SplitMix64{spec.spec.seed}.next();
  switch (spec.profile) {
    case LibraryProfile::kBalanced:
      break;
    case LibraryProfile::kTight:
      options.processor_cost = 25.0;
      options.target_single_variant_load = 1.7;
      break;
    case LibraryProfile::kRelaxed:
      options.processor_cost = 10.0;
      options.target_single_variant_load = 0.9;
      break;
  }
  return options;
}

}  // namespace spivar::corpus
