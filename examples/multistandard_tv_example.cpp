// Multi-standard TV: two *related* variant sets (video + audio standards)
// selected together at boot — the motivating scenario of the paper's
// introduction ("TV sets which can be adapted to different standards").
//
// Fully on the api facade, sharded over one ModelStore: a loader session
// instantiates the three boot regions as typed builtin requests, a second
// (pooled) session attached to the *same store* simulates them as one
// batch, and the cross-region synthesis comparison is a single
// Session::compare() call.
#include <cstdlib>
#include <iostream>
#include <memory>

#include "api/api.hpp"
#include "models/multistandard_tv.hpp"
#include "support/table.hpp"
#include "variant/flatten.hpp"

namespace {

std::int64_t firings_of(const spivar::api::SimulateResponse& response, const char* process) {
  for (const auto& row : response.processes) {
    if (row.name == process) return row.firings;
  }
  // Fail loudly: a silent 0 would mask a model rename as "no firings".
  std::cerr << "no process named '" << process << "' in model " << response.model << "\n";
  std::exit(1);
}

}  // namespace

int main() {
  using namespace spivar;

  // One store, two sessions: `session` loads models, `pooled` (attached to
  // the same store) evaluates them across two workers. Handles are
  // store-scoped, so they travel freely between the sessions.
  const auto store = std::make_shared<api::ModelStore>();
  api::Session session{store};
  api::Session pooled{store, api::make_executor(2)};
  const auto model = session.load(api::ModelSpec{"multistandard_tv"});
  if (api::report_failure(model)) return 1;
  std::cout << "=== multi-standard TV: " << model.value().interfaces
            << " linked variant sets, " << model.value().clusters << " clusters ===\n\n";

  {
    // Binding enumeration still speaks the variant subsystem's language —
    // builder-level introspection the facade intentionally leaves exposed.
    const variant::VariantModel tv = models::make_multistandard_tv();
    const auto bindings = variant::enumerate_bindings(tv);
    std::cout << "consistent bindings (video/audio linked -> " << bindings.size()
              << ", not 9):\n";
    for (const auto& binding : bindings) {
      std::cout << "  " << variant::binding_name(tv, binding) << "\n";
    }
  }

  // One session model per boot region — typed per-model options through the
  // registry — simulated as a batch.
  std::vector<api::AnyRequest> batch;
  for (int region = 0; region < 3; ++region) {
    const auto loaded = session.load(api::ModelSpec{
        .name = "multistandard_tv",
        .options = models::TvOptions{.region = region, .frames = 25}});
    if (api::report_failure(loaded)) return 1;
    batch.emplace_back(api::SimulateRequest{.model = loaded.value().id});
  }
  // The pooled session evaluates models the loader session put in the
  // shared store — cross-session sharding in two lines.
  const auto results = pooled.call_batch(batch);

  std::cout << "\nboot-time selection per region:\n";
  support::TextTable table{{"region", "video demod firings", "audio firings", "frames shown"}};
  const char* regions[3] = {"PAL", "NTSC", "SECAM"};
  const char* demods[3] = {"PPalDemod", "PNtscDemod", "PSecamDemod"};
  const char* audios[3] = {"PAudioPal", "PAudioNtsc", "PAudioSecam"};
  for (int region = 0; region < 3; ++region) {
    if (api::report_failure(results[region])) return 1;
    const auto& response = std::get<api::SimulateResponse>(results[region].value());
    table.add_row({regions[region], std::to_string(firings_of(response, demods[region])),
                   std::to_string(firings_of(response, audios[region])),
                   std::to_string(firings_of(response, "PDisplay"))});
  }
  std::cout << table;

  // Synthesis across the three regions: one compare() call instead of
  // hand-wired strategy invocations.
  api::CompareRequest request{.model = model.value().id};
  request.options.engine = synth::ExploreEngine::kExhaustive;
  request.strategies = {synth::StrategyKind::kSuperposition, synth::StrategyKind::kWithVariants};
  const auto compared = session.compare(request);
  if (api::report_failure(compared)) return 1;
  const auto* superposition = compared.value().find("superposition");
  const auto* with_variants = compared.value().find("with-variants");
  if (superposition == nullptr || with_variants == nullptr) return 1;

  std::cout << "\nsynthesis across regions:\n"
            << "  superposition of per-region architectures: "
            << superposition->outcome.cost.total << "\n"
            << "  variant-aware joint synthesis:             "
            << with_variants->outcome.cost.total << "\n"
            << "  (mutually exclusive standards share resources -> cheaper or equal)\n";
  return with_variants->outcome.cost.total <= superposition->outcome.cost.total ? 0 : 1;
}
