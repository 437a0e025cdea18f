// Ablation A4 — design-space exploration engine choice.
//
// Compares exhaustive / greedy / simulated annealing on synthetic variant
// problems of growing size: solution quality (gap to the exhaustive optimum
// where computable) and examined decisions. BM_Dense_Evaluate/<target> times
// the one function every engine loops over, on the targets of the
// perfbench `explore` deck.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "api/store.hpp"
#include "models/synthetic.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "synth/dense.hpp"
#include "synth/explore.hpp"
#include "synth/from_model.hpp"

namespace {

using namespace spivar;

struct Problem {
  synth::ImplLibrary lib;
  std::vector<synth::Application> apps;
  std::size_t elements;
};

Problem make_problem(std::size_t cluster_size, std::uint64_t seed) {
  const variant::VariantModel model = models::make_synthetic(
      {.shared_processes = 4, .interfaces = 1, .variants = 2, .cluster_size = cluster_size,
       .seed = seed});
  Problem p{models::make_synthetic_library(model, {.seed = seed + 100}),
            synth::problem_from_model(model,
                                      {.granularity = synth::ElementGranularity::kProcess})
                .apps,
            0};
  synth::SynthesisProblem tmp;
  tmp.apps = p.apps;
  p.elements = tmp.element_union().size();
  return p;
}

void print_report() {
  std::cout << "== A4: exploration engines (quality and effort) ==\n\n";
  support::TextTable table{{"elements", "exhaustive", "greedy", "annealing", "greedy gap",
                            "dec exh", "dec greedy", "dec SA"}};
  for (std::size_t cluster_size : {2u, 3u, 5u}) {
    const Problem p = make_problem(cluster_size, 21);

    synth::ExploreOptions exh;
    exh.engine = synth::ExploreEngine::kExhaustive;
    synth::ExploreOptions greedy;
    greedy.engine = synth::ExploreEngine::kGreedy;
    synth::ExploreOptions sa;
    sa.engine = synth::ExploreEngine::kAnnealing;
    sa.seed = 5;

    const auto e = synth::explore(p.lib, p.apps, exh);
    const auto g = synth::explore(p.lib, p.apps, greedy);
    const auto a = synth::explore(p.lib, p.apps, sa);

    const double gap = (e.found_feasible && g.found_feasible)
                           ? (g.cost.total - e.cost.total) / std::max(e.cost.total, 1e-9)
                           : 0.0;
    table.add_row({std::to_string(p.elements), support::format_double(e.cost.total, 1),
                   support::format_double(g.cost.total, 1),
                   support::format_double(a.cost.total, 1),
                   support::format_double(100.0 * gap, 1) + "%", std::to_string(e.decisions),
                   std::to_string(g.decisions), std::to_string(a.decisions)});
  }
  std::cout << table;
  std::cout << "\ngreedy is near-optimal at a tiny fraction of the exhaustive effort;\n"
               "annealing closes remaining gaps when the greedy local optimum binds.\n\n";
}

void BM_Explore_Engine(benchmark::State& state) {
  const Problem p = make_problem(3, 21);
  synth::ExploreOptions options;
  options.engine = static_cast<synth::ExploreEngine>(state.range(0));
  options.seed = 5;
  for (auto _ : state) {
    auto r = synth::explore(p.lib, p.apps, options);
    benchmark::DoNotOptimize(r.cost.total);
  }
  state.SetLabel(synth::to_string(options.engine));
}
BENCHMARK(BM_Explore_Engine)->Arg(0)->Arg(1)->Arg(2);

void BM_Explore_GreedyLargeProblem(benchmark::State& state) {
  const Problem p = make_problem(static_cast<std::size_t>(state.range(0)), 33);
  synth::ExploreOptions greedy;
  greedy.engine = synth::ExploreEngine::kGreedy;
  for (auto _ : state) {
    auto r = synth::explore(p.lib, p.apps, greedy);
    benchmark::DoNotOptimize(r.cost.total);
  }
}
BENCHMARK(BM_Explore_GreedyLargeProblem)->Arg(5)->Arg(10)->Arg(20);

/// One `DenseProblem::evaluate` per iteration over `target`'s default setup,
/// on a random walk of single flips drawn before timing from a fixed seed:
/// the engines visit data-dependent states, so the walk does too. The walk
/// goes out and back, so every lap visits the same states and the mean does
/// not depend on how many iterations run.
void BM_Dense_Evaluate(benchmark::State& state, const std::string& target) {
  api::ModelStore store;
  const api::Result<api::ModelInfo> info = store.load(api::ModelSpec{target});
  if (!info.ok()) {
    state.SkipWithError(("cannot load " + target).c_str());
    return;
  }
  const auto setup = store.find(info.value().id)->default_setup();
  const synth::DenseProblem problem{setup->library, setup->problem.apps, {}};
  constexpr std::size_t kSteps = 4096;
  support::SplitMix64 rng{7};
  std::vector<synth::DenseProblem::Id> walk(kSteps);
  for (std::size_t i = 0; i < kSteps / 2; ++i) {
    walk[i] = walk[kSteps - 1 - i] = problem.free()[rng.next_below(problem.free().size())];
  }
  synth::DenseState dense = problem.initial_state();
  std::size_t step = 0;
  for (auto _ : state) {
    const synth::DenseProblem::Id id = walk[step++ % kSteps];
    dense[id] = dense[id] == synth::Target::kSoftware ? synth::Target::kHardware
                                                      : synth::Target::kSoftware;
    const synth::DenseCost cost = problem.evaluate(dense);
    benchmark::DoNotOptimize(cost);
  }
  state.SetLabel(std::to_string(problem.free().size()) + " elements, " +
                 std::to_string(problem.app_count()) + " applications");
}

}  // namespace

int main(int argc, char** argv) {
  print_report();
  for (const std::string target :
       {"fig2", "multistandard_tv", "sweep/i2v2c2-s7", "sweep/p2i2v2c2-s7"}) {
    benchmark::RegisterBenchmark(("BM_Dense_Evaluate/" + target).c_str(), BM_Dense_Evaluate,
                                 target);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
