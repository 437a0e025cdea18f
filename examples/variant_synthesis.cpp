// Regenerates Table 1 of the paper ("System Cost") through the api facade:
// one Session::compare() call runs independent synthesis per application,
// superposition, joint variant-aware synthesis, and the two literature
// baselines, and ranks the outcomes.
#include <iostream>

#include "api/api.hpp"

int main() {
  using namespace spivar;

  api::Session session;
  const auto model = session.load(api::ModelSpec{"fig2"});
  if (api::report_failure(model)) return 1;

  api::CompareRequest request{.model = model.value().id};
  request.options.engine = synth::ExploreEngine::kExhaustive;
  const auto compared = session.compare(request);
  if (api::report_failure(compared)) return 1;
  const api::CompareResponse& table = compared.value();

  std::cout << "=== Table 1: System Cost (paper totals: 34 / 38 / 57 / 41) ===\n\n"
            << api::render(table);

  // Design time is measured on the iterative (greedy) flow: exhaustive
  // search over the joint space would trivially dominate the counters.
  api::CompareRequest greedy{.model = model.value().id};
  greedy.options.engine = synth::ExploreEngine::kGreedy;
  greedy.strategies = {synth::StrategyKind::kIndependent, synth::StrategyKind::kSuperposition,
                       synth::StrategyKind::kWithVariants};
  const auto timed = session.compare(greedy);
  if (api::report_failure(timed)) return 1;

  std::cout << "\nDesign time, greedy flow, in examined decisions\n"
            << "(paper: 67 + 73 = 140 for superposition; with variants 118 < 140):\n  ";
  for (const auto& row : timed.value().rows) {
    std::cout << row.strategy << (row.system() ? "" : " '" + row.scope + "'") << ": "
              << row.decisions << "  ";
  }
  std::cout << "\n";

  const auto* superposition = table.find("superposition");
  const auto* with_variants = table.find("with-variants");
  const auto* best = table.best();
  const bool ok = superposition != nullptr && with_variants != nullptr && best != nullptr &&
                  with_variants->outcome.cost.total < superposition->outcome.cost.total &&
                  best->strategy == "with-variants";
  std::cout << (ok ? "\nReproduction check PASSED: variant-aware joint synthesis beats "
                     "superposition.\n"
                   : "\nReproduction check FAILED.\n");
  return ok ? 0 : 1;
}
