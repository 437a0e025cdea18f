// Cross-strategy equivalence checker: clean corpus models must pass both
// gates, and injected defects — a diverging behavioral baseline, a mapping
// with a dropped element, a doctored cost — must be caught and reported with
// a reproducer command line.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/api.hpp"
#include "corpus/equivalence.hpp"
#include "corpus/spec.hpp"
#include "corpus/sweep.hpp"
#include "models/synthetic.hpp"
#include "synth/strategies.hpp"

namespace spivar {
namespace {

using corpus::EquivalenceOptions;
using corpus::EquivalenceReport;
using corpus::StrategyResult;

/// The checker's inputs for one corpus entry, built the same way the
/// experiments runner builds them.
struct Fixture {
  variant::VariantModel model;
  synth::ImplLibrary library;
  std::vector<StrategyResult> results;
};

Fixture fixture_for(const corpus::CorpusEntry& entry) {
  Fixture f{models::make_synthetic(entry.spec.spec),
            synth::ImplLibrary{},
            {}};
  f.model.graph().set_name(entry.name);
  f.library = models::make_synthetic_library(f.model, corpus::library_options(entry.spec));

  api::Session session;
  const auto info = session.load(api::ModelSpec{entry.name});
  EXPECT_TRUE(info.ok()) << api::render_diagnostics(info.diagnostics());
  const auto compare = session.compare({.model = info.value().id});
  EXPECT_TRUE(compare.ok()) << api::render_diagnostics(compare.diagnostics());
  for (const api::CompareResponse::Row& row : compare.value().rows) {
    f.results.push_back({row.strategy, row.scope, row.outcome});
  }
  return f;
}

TEST(Equivalence, SmokeCorpusPassesBothGates) {
  for (const corpus::CorpusEntry& entry : corpus::smoke_corpus()) {
    const Fixture f = fixture_for(entry);
    const EquivalenceReport report =
        corpus::check_equivalence(entry.name, f.model, f.library, f.results);
    EXPECT_GT(report.bindings_checked, 0u) << entry.name;
    EXPECT_GT(report.strategy_checks, 0u) << entry.name;
    for (const corpus::Mismatch& mismatch : report.mismatches) {
      ADD_FAILURE() << entry.name << ": " << mismatch.detail;
    }
  }
}

TEST(Equivalence, InjectedBehavioralDivergenceIsCaught) {
  // Baseline built from a different generator seed: the flattened product
  // and the pinned variant model now describe different systems, and the
  // behavioral gate must say so.
  const corpus::CorpusEntry entry = corpus::smoke_corpus().front();
  const Fixture f = fixture_for(entry);

  corpus::CorpusSpec other = entry.spec;
  other.spec.seed += 1;
  variant::VariantModel diverged = models::make_synthetic(other.spec);
  diverged.graph().set_name(entry.name);

  EquivalenceOptions options;
  options.baseline_override = &diverged;
  const EquivalenceReport report =
      corpus::check_equivalence(entry.name, f.model, f.library, {}, options);
  ASSERT_FALSE(report.ok());
  EXPECT_FALSE(report.mismatches.front().binding.empty());
  EXPECT_NE(report.mismatches.front().reproducer.find("spivar_experiments check"),
            std::string::npos);
}

TEST(Equivalence, DroppedMappingElementIsCaught) {
  const corpus::CorpusEntry entry = corpus::smoke_corpus().front();
  Fixture f = fixture_for(entry);

  // Doctor the with-variants outcome: drop one element from its mapping.
  bool doctored = false;
  for (StrategyResult& result : f.results) {
    if (result.strategy != "with-variants") continue;
    const auto& assignments = result.outcome.mapping.assignments();
    ASSERT_FALSE(assignments.empty());
    synth::Mapping pruned;
    for (auto it = std::next(assignments.begin()); it != assignments.end(); ++it) {
      pruned.set(it->first, it->second);
    }
    result.outcome.mapping = pruned;
    doctored = true;
  }
  ASSERT_TRUE(doctored);

  const EquivalenceReport report =
      corpus::check_equivalence(entry.name, f.model, f.library, f.results);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const corpus::Mismatch& mismatch : report.mismatches) {
    if (mismatch.strategy == "with-variants") found = true;
  }
  EXPECT_TRUE(found) << "the coverage gate must name the doctored strategy";
}

TEST(Equivalence, DoctoredCostIsCaught) {
  const corpus::CorpusEntry entry = corpus::smoke_corpus().front();
  Fixture f = fixture_for(entry);

  bool doctored = false;
  for (StrategyResult& result : f.results) {
    if (result.strategy != "with-variants") continue;
    result.outcome.cost.total += 10.0;  // claim a cost the mapping cannot produce
    doctored = true;
  }
  ASSERT_TRUE(doctored);

  const EquivalenceReport report =
      corpus::check_equivalence(entry.name, f.model, f.library, f.results);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const corpus::Mismatch& mismatch : report.mismatches) {
    if (mismatch.strategy == "with-variants" &&
        mismatch.detail.find("cost") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "the cost gate must flag the doctored total";
}

TEST(Equivalence, SerializedCostIsNotRecheckedButCoverageIs) {
  // The serialized baseline's cost is defined over a transformed task chain
  // and is exempt from the cost recheck — but a broken mapping must still
  // fail its coverage check.
  const corpus::CorpusEntry entry = corpus::smoke_corpus().front();
  Fixture f = fixture_for(entry);

  bool doctored_cost = false;
  for (StrategyResult& result : f.results) {
    if (result.strategy != "serialized") continue;
    result.outcome.cost.total += 10.0;
    doctored_cost = true;
  }
  ASSERT_TRUE(doctored_cost);
  EXPECT_TRUE(corpus::check_equivalence(entry.name, f.model, f.library, f.results).ok())
      << "serialized cost must not be re-derived from the published mapping";

  for (StrategyResult& result : f.results) {
    if (result.strategy != "serialized") continue;
    result.outcome.mapping = synth::Mapping{};
  }
  EXPECT_FALSE(corpus::check_equivalence(entry.name, f.model, f.library, f.results).ok())
      << "an empty serialized mapping must fail coverage";
}

TEST(Equivalence, ModesAndPredicateDepthModelsPassBehaviorally) {
  // The new generator knobs take the interface-aware simulator through mode
  // switching and guarded selection; flatten/pin agreement must survive.
  for (const char* name : {"sweep/p3c2m2-s42", "sweep/p2c1d1-s42", "sweep/p2c1d2m2-s42"}) {
    const auto parsed = corpus::parse_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    variant::VariantModel model = models::make_synthetic(parsed->spec);
    model.graph().set_name(name);
    const auto library =
        models::make_synthetic_library(model, corpus::library_options(*parsed));
    const EquivalenceReport report = corpus::check_equivalence(name, model, library, {});
    EXPECT_GT(report.bindings_checked, 0u) << name;
    for (const corpus::Mismatch& mismatch : report.mismatches) {
      ADD_FAILURE() << name << ": " << mismatch.detail;
    }
  }
}

}  // namespace
}  // namespace spivar
