// Design-space exploration engines.
//
// Searches the HW/SW mapping space for a minimum-cost feasible architecture.
// Three engines: exhaustive (optimal, small problems), greedy (relief-driven
// repair + improvement), simulated annealing (seeded, for the ablation
// study). Every engine counts the elementary *synthesis decisions* it
// examines; strategy-level design time (the paper's Table 1 "Time" column)
// is derived from these counters. The engines search the dense kernel
// (synth/dense.hpp); names come back only in the result, whose cost is one
// call of the name-based `evaluate`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "synth/cost.hpp"
#include "synth/mapping.hpp"
#include "synth/target.hpp"

namespace spivar::synth {

enum class ExploreEngine : std::uint8_t { kExhaustive, kGreedy, kAnnealing };

[[nodiscard]] constexpr const char* to_string(ExploreEngine e) noexcept {
  switch (e) {
    case ExploreEngine::kExhaustive: return "exhaustive";
    case ExploreEngine::kGreedy: return "greedy";
    case ExploreEngine::kAnnealing: return "annealing";
  }
  return "?";
}

struct ExploreOptions {
  ExploreEngine engine = ExploreEngine::kGreedy;
  std::uint64_t seed = 1;

  /// Exhaustive search refuses problems with more free elements than this,
  /// or with 64 or more (falls back to greedy).
  std::size_t exhaustive_limit = 20;

  /// Annealing: trials per free element.
  std::size_t annealing_trials_per_element = 400;
  double annealing_initial_temperature = 20.0;
  double infeasibility_penalty = 1000.0;
};

struct ExploreResult {
  Mapping mapping;
  CostBreakdown cost;
  bool found_feasible = false;
  std::int64_t decisions = 0;    ///< elementary (element, target) decisions examined
  std::int64_t evaluations = 0;  ///< full mapping evaluations
  std::string engine;            ///< engine actually used
};

/// Explores the mapping of all elements of `apps`.
[[nodiscard]] ExploreResult explore(const ImplLibrary& library,
                                    const std::vector<Application>& apps,
                                    const ExploreOptions& options = {});

/// Like `explore`, but elements present in `fixed` keep their target — the
/// incremental-reuse baseline [Kavalade/Subrahmanyam, ICCAD'97] builds on
/// this.
[[nodiscard]] ExploreResult explore_with_fixed(const ImplLibrary& library,
                                               const std::vector<Application>& apps,
                                               const Mapping& fixed,
                                               const ExploreOptions& options = {});

}  // namespace spivar::synth
