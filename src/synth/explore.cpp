#include "synth/explore.hpp"

#include <algorithm>
#include <cmath>

#include "support/rng.hpp"
#include "synth/dense.hpp"

namespace spivar::synth {

namespace {

using Id = DenseProblem::Id;

[[nodiscard]] Target flip(Target t) noexcept {
  return t == Target::kSoftware ? Target::kHardware : Target::kSoftware;
}

double penalized_cost(double budget, const DenseCost& cost, double penalty_weight) {
  if (cost.feasible) return cost.total;
  const double overload = std::max(0.0, cost.worst_utilization - budget);
  return cost.total + penalty_weight * (1.0 + overload);
}

/// One engine's walk over the dense state: where it ended and what it spent.
struct Search {
  DenseState state;
  DenseCost cost;
  std::int64_t decisions = 0;
  std::int64_t evaluations = 0;
};

/// The edge back to names: the final state as a `Mapping` (every fixed entry
/// plus the free elements), priced once by the name-based reference.
ExploreResult finish(const ImplLibrary& library, const std::vector<Application>& apps,
                     const DenseProblem& problem, const Search& search, const char* engine) {
  ExploreResult result;
  result.engine = engine;
  result.mapping = problem.to_mapping(search.state);
  result.cost = evaluate(library, apps, result.mapping);
  result.found_feasible = search.cost.feasible;
  result.decisions = search.decisions;
  result.evaluations = search.evaluations;
  return result;
}

ExploreResult run_exhaustive(const ImplLibrary& library, const std::vector<Application>& apps,
                             const DenseProblem& problem) {
  const std::vector<Id>& free = problem.free();
  const std::size_t n = free.size();
  Search search{problem.initial_state(), {}, 0, 0};
  // Bit i of `bits` is the target of free element i.
  const auto assign = [&](std::uint64_t bits) {
    for (std::size_t i = 0; i < n; ++i) {
      search.state[free[i]] = (bits >> i) & 1 ? Target::kHardware : Target::kSoftware;
    }
  };

  std::optional<DenseCost> best;
  std::uint64_t best_bits = 0;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    assign(bits);
    const DenseCost cost = problem.evaluate(search.state);
    search.decisions += static_cast<std::int64_t>(n);
    search.evaluations += 1;
    if (!cost.feasible) continue;
    if (!best || cost.total < best->total - 1e-12) {
      best = cost;
      best_bits = bits;
    }
  }
  if (best) {
    assign(best_bits);
    search.cost = *best;
  } else {
    // No state is feasible: report the start state, every fixed entry included.
    search.state = problem.initial_state();
    search.cost.feasible = false;
  }
  return finish(library, apps, problem, search, "exhaustive");
}

Search greedy_search(const DenseProblem& problem) {
  const std::vector<Id>& free = problem.free();
  const double budget = problem.processor_budget();
  Search search{problem.initial_state(), {}, 0, 0};
  DenseState& current = search.state;
  search.cost = problem.evaluate(current);
  search.evaluations += 1;

  // --- repair phase: move software elements to hardware until feasible -----
  // Score = hw_cost per unit of overload relief; smaller is better. Every
  // move puts one more free element in hardware, so at most |free| happen.
  std::vector<double> overload(problem.slot_count());
  while (!search.cost.feasible) {
    // Per-app overload under the current mapping.
    for (std::size_t a = 0; a < problem.app_count(); ++a) {
      double load = 0.0;
      for (const Id id : problem.app_elements(a)) load += problem.row(id).load[current[id]];
      overload[problem.app_slot(a)] = std::max(0.0, load - budget);
    }

    std::optional<double> best_score;
    Id best = 0;
    for (const Id id : free) {
      if (current[id] != Target::kSoftware) continue;
      const DenseRow& row = problem.row(id);
      if (!row.allowed[Target::kHardware]) continue;
      search.decisions += 1;

      double relief = 0.0;
      for (const std::uint32_t a : problem.apps_of(id)) {
        const double over = overload[problem.app_slot(a)];
        if (over <= 1e-12) continue;
        relief += std::min(row.load[Target::kSoftware], over);
      }
      if (relief <= 1e-12) {
        // No utilization relief; moving may still fix deadline misses.
        relief = 1e-6;
      }
      const double score = row.asic[Target::kHardware] / relief;
      if (!best_score || score < *best_score - 1e-12) {
        best_score = score;
        best = id;
      }
    }

    if (!best_score) break;  // nothing movable
    current[best] = Target::kHardware;
    search.cost = problem.evaluate(current);
    search.evaluations += 1;
  }

  // --- improvement phase: single moves that keep feasibility, to fixpoint --
  bool improved = search.cost.feasible;
  while (improved) {
    improved = false;
    for (const Id id : free) {
      const Target flipped = flip(current[id]);
      if (!problem.allows(id, flipped)) continue;

      current[id] = flipped;
      const DenseCost candidate = problem.evaluate(current);
      search.decisions += 1;
      search.evaluations += 1;
      if (candidate.feasible && candidate.total < search.cost.total - 1e-12) {
        search.cost = candidate;
        improved = true;
      } else {
        current[id] = flip(flipped);
      }
    }
  }
  return search;
}

Search annealing_search(const DenseProblem& problem, const ExploreOptions& options) {
  // Start from the greedy solution and try to escape its local optimum.
  Search search = greedy_search(problem);
  const std::vector<Id>& free = problem.free();
  if (free.empty()) return search;

  const double budget = problem.processor_budget();
  support::SplitMix64 rng{options.seed};
  DenseState current = search.state;
  DenseCost current_cost = search.cost;
  double current_penalized = penalized_cost(budget, current_cost, options.infeasibility_penalty);

  // `search` keeps the best state; with no feasible one it stays greedy's.
  DenseCost& best_cost = search.cost;

  const std::size_t trials = options.annealing_trials_per_element * free.size();
  double temperature = options.annealing_initial_temperature;
  const double cooling = std::pow(0.01 / temperature, 1.0 / static_cast<double>(trials));

  for (std::size_t trial = 0; trial < trials; ++trial, temperature *= cooling) {
    const Id id = free[rng.next_below(free.size())];
    const Target flipped = flip(current[id]);
    if (!problem.allows(id, flipped)) continue;

    current[id] = flipped;
    const DenseCost candidate = problem.evaluate(current);
    search.decisions += 1;
    search.evaluations += 1;
    const double candidate_penalized =
        penalized_cost(budget, candidate, options.infeasibility_penalty);

    const double delta = candidate_penalized - current_penalized;
    if (delta <= 0.0 || rng.next_double() < std::exp(-delta / std::max(temperature, 1e-9))) {
      current_cost = candidate;
      current_penalized = candidate_penalized;
      if (current_cost.feasible &&
          (!best_cost.feasible || current_cost.total < best_cost.total - 1e-12)) {
        search.state = current;
        best_cost = current_cost;
      }
    } else {
      current[id] = flip(flipped);
    }
  }
  return search;
}

ExploreResult dispatch(const ImplLibrary& library, const std::vector<Application>& apps,
                       const Mapping& fixed, const ExploreOptions& options) {
  const DenseProblem problem{library, apps, fixed};
  // Exhaustive counts 2^n states in 64 bits: n >= 64 goes to greedy like
  // any n above the limit.
  const std::size_t n = problem.free().size();
  const bool exhaustive =
      options.engine == ExploreEngine::kExhaustive && n <= options.exhaustive_limit && n < 64;
  problem.require_library(library, /*free_first=*/!exhaustive);

  if (exhaustive) return run_exhaustive(library, apps, problem);
  if (options.engine == ExploreEngine::kAnnealing) {
    return finish(library, apps, problem, annealing_search(problem, options), "annealing");
  }
  return finish(library, apps, problem, greedy_search(problem), "greedy");
}

}  // namespace

ExploreResult explore(const ImplLibrary& library, const std::vector<Application>& apps,
                      const ExploreOptions& options) {
  return dispatch(library, apps, Mapping{}, options);
}

ExploreResult explore_with_fixed(const ImplLibrary& library,
                                 const std::vector<Application>& apps, const Mapping& fixed,
                                 const ExploreOptions& options) {
  return dispatch(library, apps, fixed, options);
}

}  // namespace spivar::synth
