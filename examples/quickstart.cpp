// Quickstart: the whole pipeline — validate, analyze, simulate, explore,
// GraphViz — through the api::Session facade.
//
//   $ ./quickstart
#include <cstdlib>
#include <iostream>
#include <vector>

#include "api/api.hpp"

namespace {

// The facade's error-handling pattern: check the Result, render the
// diagnostics on failure — value() is only for results known to be ok.
template <typename T>
const T& unwrap(const spivar::api::Result<T>& result) {
  if (spivar::api::report_failure(result)) std::exit(1);
  return result.value();
}

}  // namespace

int main() {
  using namespace spivar;

  api::Session session;

  // 1. Load a model. A ModelSpec names a registry model or a .spit file;
  //    spit text (api::ModelText) and models built in code
  //    (api::BuiltModel) go through the same session.load.
  //    Every operation returns Result<T>: value or diagnostics, no throw.
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  const api::ModelId model = unwrap(loaded).id;
  std::cout << "== model ==\n" << api::render(loaded.value());

  // 2. Validate: structural problems come back as a diagnostic list.
  const auto findings = session.validate(model);
  std::cout << "\n== validation ==\n" << api::render(unwrap(findings));

  // 3. Analyze: deadlock, buffer flows, analytical timing, structure.
  const auto report = session.analyze({.model = model});
  std::cout << "\n" << api::render(unwrap(report));

  // 4. Simulate and report (name-resolved tables, nothing to look up).
  const auto sim = session.simulate({.model = model});
  std::cout << "\n== simulation ==\n" << api::render(unwrap(sim));

  // 5. Explore the HW/SW mapping space (library derived automatically for
  //    models without a curated one).
  const auto arch = session.explore({.model = model});
  std::cout << "\n== synthesis ==\n" << api::render(unwrap(arch));

  // 6. The v5 envelope: any mix of evaluation kinds travels through one
  //    call_batch — each slot returns exactly what its dedicated endpoint
  //    would, and targets can be named by spec instead of handle (that is
  //    what wire clients of spivar_serve send).
  std::vector<api::AnyRequest> envelope;
  envelope.push_back({.payload = api::SimulateRequest{.model = model},
                      .options = {.priority = api::Priority::kHigh}});
  envelope.push_back({.payload = api::AnalyzeRequest{.model = model}});
  envelope.push_back({.payload = api::ExploreRequest{}, .target = "fig2"});
  std::cout << "\n== envelope batch ==\n";
  for (const auto& slot : session.call_batch(envelope)) {
    std::cout << api::to_string(api::kind_of(slot.value())) << " -> "
              << api::model_of(slot.value()) << "\n";
  }

  // 7. GraphViz export (pipe into `dot -Tsvg`).
  const auto dot = session.dot(model);
  std::cout << "\n== dot ==\n" << unwrap(dot);
  return 0;
}
