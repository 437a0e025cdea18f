// Scalable synthetic variant systems for the ablation benchmarks.
//
// A chain of shared processes with one or more interfaces spliced in; every
// interface carries a configurable number of cluster variants, each a small
// process chain. The companion library generator draws loads and costs from
// a seeded RNG and scales them so that the all-software mapping of a single
// variant slightly overloads the processor — the regime where the strategies
// of Table 1 genuinely differ.
#pragma once

#include <cstdint>
#include <string>

#include "support/duration.hpp"
#include "synth/target.hpp"
#include "variant/model.hpp"

namespace spivar::models {

struct SyntheticSpec {
  std::size_t shared_processes = 4;  ///< common-part chain length
  std::size_t interfaces = 1;        ///< variant sets spliced into the chain
  std::size_t variants = 2;          ///< clusters per interface
  std::size_t cluster_size = 3;      ///< processes per cluster
  /// Modes per cluster process (>1 adds backlog-sensitive explicit modes
  /// with activation rules; 1 keeps the single-mode shorthand, so default
  /// models — and their fingerprints/spit text — are unchanged).
  std::size_t modes = 1;
  /// Depth of the cluster-selection predicates (>0 adds a control channel
  /// fed by a virtual user process plus run-time selection rules per
  /// interface, nested to this depth; 0 keeps pure production variants).
  std::size_t predicate_depth = 0;
  std::uint64_t seed = 42;

  friend bool operator==(const SyntheticSpec&, const SyntheticSpec&) = default;
};

[[nodiscard]] variant::VariantModel make_synthetic(const SyntheticSpec& spec);

/// Caps on the model a spec parsed from text may describe: a `sweep/` name
/// or the `synthetic` builtin's `--opt` knobs. A model has
/// variants^interfaces applications, so one short name could otherwise ask
/// for millions of them. Every name the corpus, tests and examples use is
/// far below every cap.
inline constexpr std::size_t kMaxSyntheticApplications = 256;
inline constexpr std::size_t kMaxSyntheticProcesses = 256;
inline constexpr std::size_t kMaxSyntheticModes = 16;
inline constexpr std::size_t kMaxSyntheticPredicateDepth = 16;

/// Empty when `spec` is within every cap above; otherwise the first cap it
/// exceeds, with the limit.
[[nodiscard]] std::string size_error(const SyntheticSpec& spec);

struct SyntheticLibraryOptions {
  std::uint64_t seed = 7;
  double processor_cost = 15.0;
  double processor_budget = 1.0;
  /// Target all-software utilization of one variant (values > budget make
  /// repair moves necessary).
  double target_single_variant_load = 1.3;
};

/// Library covering every non-virtual process of the model (process
/// granularity).
[[nodiscard]] synth::ImplLibrary make_synthetic_library(
    const variant::VariantModel& model, const SyntheticLibraryOptions& options = {});

}  // namespace spivar::models
