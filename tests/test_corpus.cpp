// The sweep/ corpus: name grammar round-trips, sweep expansion, registry
// loading (including `--opt` on corpus names), generator determinism down to
// byte-identical .spit text, the modes / predicate_depth knobs of the
// synthetic generator, and the content identity the result cache keys on.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "corpus/spec.hpp"
#include "corpus/sweep.hpp"
#include "models/synthetic.hpp"

namespace spivar {
namespace {

using corpus::CorpusSpec;
using corpus::LibraryProfile;

// --- name grammar ------------------------------------------------------------

TEST(CorpusNames, FormatOmitsDefaultsAndAlwaysCarriesSeed) {
  EXPECT_EQ(corpus::format_name(CorpusSpec{}), "sweep/s42");

  CorpusSpec spec;
  spec.spec.interfaces = 2;
  spec.spec.variants = 4;
  spec.spec.cluster_size = 3;  // 3 is the default, so it must be omitted
  EXPECT_EQ(corpus::format_name(spec), "sweep/i2v4-s42");

  spec.spec.cluster_size = 1;
  spec.profile = LibraryProfile::kTight;
  spec.spec.seed = 7;
  EXPECT_EQ(corpus::format_name(spec), "sweep/i2v4c1t-s7");
}

TEST(CorpusNames, ParseAcceptsCompactSubsets) {
  const auto parsed = corpus::parse_name("sweep/i2v4c3-s42");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->spec.interfaces, 2u);
  EXPECT_EQ(parsed->spec.variants, 4u);
  EXPECT_EQ(parsed->spec.cluster_size, 3u);
  EXPECT_EQ(parsed->spec.shared_processes, 4u);  // default
  EXPECT_EQ(parsed->spec.modes, 1u);             // default
  EXPECT_EQ(parsed->spec.seed, 42u);
  EXPECT_EQ(parsed->profile, LibraryProfile::kBalanced);
}

TEST(CorpusNames, ParseFormatRoundTripsEveryCorpusEntry) {
  for (const corpus::CorpusEntry& entry : corpus::default_corpus()) {
    const auto parsed = corpus::parse_name(entry.name);
    ASSERT_TRUE(parsed.has_value()) << entry.name;
    EXPECT_EQ(*parsed, entry.spec) << entry.name;
    EXPECT_EQ(corpus::format_name(*parsed), entry.name);
  }
}

TEST(CorpusNames, MalformedNamesReportTheGrammar) {
  std::string error;
  EXPECT_FALSE(corpus::parse_name("sweep/", &error).has_value());
  EXPECT_NE(error.find("grammar"), std::string::npos);
  EXPECT_FALSE(corpus::parse_name("sweep/x7-s42", &error).has_value());
  EXPECT_FALSE(corpus::parse_name("sweep/i2i3-s42", &error).has_value())
      << "duplicate knobs must be rejected";
  EXPECT_FALSE(corpus::parse_name("sweep/i2v4", &error).has_value())
      << "the seed suffix is mandatory";
  EXPECT_FALSE(corpus::parse_name("fig2", &error).has_value());
}

TEST(CorpusNames, NamesBeyondTheSizeCapsAreRefusedWithTheLimit) {
  // Every spec here is refused while parsing, so none of them mints; each is
  // also small enough that a parser without the caps would not blow up.
  const auto refused = [](const std::string& name, const std::string& limit) {
    std::string error;
    EXPECT_FALSE(corpus::parse_name(name, &error).has_value()) << name;
    EXPECT_NE(error.find(name), std::string::npos) << error;
    EXPECT_NE(error.find("over the limit of " + limit), std::string::npos) << error;
  };
  // variants^interfaces applications: 2^8 = 256 is the cap, 2^9 is over.
  EXPECT_TRUE(corpus::parse_name("sweep/i8v2c1-s1").has_value());
  refused("sweep/i9v2c1-s1", "256");
  refused("sweep/i2v17-s1", "256");
  // Processes: shared + interfaces * variants * cluster_size.
  EXPECT_TRUE(corpus::parse_name("sweep/p250-s1").has_value());  // 250 + 1 * 2 * 3
  refused("sweep/p251-s1", "256");
  refused("sweep/i1v2c200-s1", "256");
  refused("sweep/m17-s1", "16");
  refused("sweep/d17-s1", "16");
  // Huge knobs are refused without overflowing or counting to them.
  refused("sweep/i18446744073709551615-s1", "256");
  refused("sweep/i18446744073709551615v1-s1", "256");
  refused("sweep/v18446744073709551615c18446744073709551615-s1", "256");
  refused("sweep/p18446744073709551615-s1", "256");

  // The `--opt` edge checks the spec the assignments and the name make
  // together, with a typed diagnostic.
  const auto tuned = api::parse_builtin_options("sweep/i8v2c1-s1", {"interfaces=9"});
  ASSERT_FALSE(tuned.ok());
  EXPECT_TRUE(tuned.diagnostics().has_code(api::diag::kBadOption));
  EXPECT_NE(tuned.error_summary().find("over the limit of 256"), std::string::npos)
      << tuned.error_summary();
  const auto synthetic = api::parse_builtin_options("synthetic", {"modes=17"});
  ASSERT_FALSE(synthetic.ok());
  EXPECT_TRUE(synthetic.diagnostics().has_code(api::diag::kBadOption));
  EXPECT_NE(synthetic.error_summary().find("over the limit of 16"), std::string::npos)
      << synthetic.error_summary();
  EXPECT_TRUE(api::parse_builtin_options("synthetic", {"interfaces=8", "cluster_size=1"}).ok());
}

// --- sweep expansion ---------------------------------------------------------

TEST(CorpusSweep, ExpandCrossesAxes) {
  corpus::SweepGrammar grammar;
  grammar.variants = {2, 3};
  grammar.seeds = {1, 2, 3};
  const auto entries = corpus::expand(grammar);
  ASSERT_EQ(entries.size(), 6u);
  // Outermost axis first: variants=2 for the first three seeds.
  EXPECT_EQ(entries[0].spec.spec.variants, 2u);
  EXPECT_EQ(entries[0].spec.spec.seed, 1u);
  EXPECT_EQ(entries[2].spec.spec.seed, 3u);
  EXPECT_EQ(entries[3].spec.spec.variants, 3u);
  // Expansion is pure: a second call yields the same names in order.
  const auto again = corpus::expand(grammar);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].name, again[i].name);
  }
}

TEST(CorpusSweep, DefaultCorpusIsLargeAndUniquelyNamed) {
  const auto entries = corpus::default_corpus();
  EXPECT_GE(entries.size(), 50u);
  std::set<std::string> names;
  for (const auto& entry : entries) names.insert(entry.name);
  EXPECT_EQ(names.size(), entries.size()) << "corpus names must be unique";
}

// --- registry loading --------------------------------------------------------

TEST(CorpusRegistry, SweepNamesLoadAsBuiltins) {
  api::Session session;
  const auto info = session.load(api::ModelSpec{"sweep/i2v4c3-s42"});
  ASSERT_TRUE(info.ok()) << api::render_diagnostics(info.diagnostics());
  EXPECT_EQ(info.value().name, "sweep/i2v4c3-s42");
  EXPECT_EQ(info.value().interfaces, 2u);
  EXPECT_EQ(info.value().origin, "builtin:sweep/i2v4c3-s42");
}

TEST(CorpusRegistry, MalformedSweepNamesFailWithGrammarDiagnostic) {
  api::Session session;
  const auto info = session.load(api::ModelSpec{"sweep/zz"});
  ASSERT_FALSE(info.ok());
  EXPECT_NE(api::render_diagnostics(info.diagnostics()).find("grammar"), std::string::npos);
}

TEST(CorpusRegistry, OptAssignmentsLandOnTopOfTheNameKnobs) {
  api::Session session;
  const auto base = session.resolve("sweep/v3c1-s42");
  const auto seeded = session.resolve("sweep/v3c1-s42", {"seed=7"});
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(seeded.ok()) << api::render_diagnostics(seeded.diagnostics());
  EXPECT_NE(base.value().id, seeded.value().id);

  const auto base_text = session.write_text(base.value().id);
  const auto seeded_text = session.write_text(seeded.value().id);
  ASSERT_TRUE(base_text.ok());
  ASSERT_TRUE(seeded_text.ok());
  EXPECT_NE(base_text.value(), seeded_text.value())
      << "a different generator seed must change the model";
}

TEST(CorpusRegistry, UnknownOptionKeysListKnownKeysAndSuggest) {
  const auto result = api::parse_builtin_options("sweep/v3c1-s42", {"variant=4"});
  ASSERT_FALSE(result.ok());
  const std::string rendered = api::render_diagnostics(result.diagnostics());
  EXPECT_NE(rendered.find("known:"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("shared_processes"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("did you mean 'variants'"), std::string::npos) << rendered;
}

TEST(CorpusRegistry, UnknownOptionKeysRejectedForCuratedBuiltinsToo) {
  const auto result = api::parse_builtin_options("fig2", {"source_period=10"});
  ASSERT_FALSE(result.ok());
  const std::string rendered = api::render_diagnostics(result.diagnostics());
  EXPECT_NE(rendered.find("known:"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("did you mean 'source_period_ms'"), std::string::npos) << rendered;
}

TEST(CorpusRegistry, OptionDefaultsRenderTheNameKnobs) {
  const auto defaults = api::builtin_option_defaults("sweep/i2v4c1-s7");
  ASSERT_FALSE(defaults.empty());
  bool saw_variants = false;
  for (const auto& [key, value] : defaults) {
    if (key == "variants") {
      saw_variants = true;
      EXPECT_EQ(value, "4");
    }
    if (key == "seed") {
      EXPECT_EQ(value, "7");
    }
  }
  EXPECT_TRUE(saw_variants);
}

// --- generator determinism ---------------------------------------------------

TEST(CorpusDeterminism, SameSpecAndSeedYieldByteIdenticalSpit) {
  // Two independent sessions (separate stores, separately minted builtins):
  // the canonical .spit text must agree byte for byte.
  api::Session a;
  api::Session b;
  for (const char* name : {"sweep/p2c1-s42", "sweep/p3c2m2-s42", "sweep/p2c1d1-s42"}) {
    const auto in_a = a.load(api::ModelSpec{name});
    const auto in_b = b.load(api::ModelSpec{name});
    ASSERT_TRUE(in_a.ok() && in_b.ok()) << name;
    const auto text_a = a.write_text(in_a.value().id);
    const auto text_b = b.write_text(in_b.value().id);
    ASSERT_TRUE(text_a.ok() && text_b.ok()) << name;
    EXPECT_EQ(text_a.value(), text_b.value()) << name;
  }
}

TEST(CorpusDeterminism, DistinctSeedsYieldStructurallyDistinctModels) {
  api::Session session;
  const auto s42 = session.load(api::ModelSpec{"sweep/p2c1-s42"});
  const auto s43 = session.load(api::ModelSpec{"sweep/p2c1-s43"});
  ASSERT_TRUE(s42.ok() && s43.ok());
  const auto text42 = session.write_text(s42.value().id);
  const auto text43 = session.write_text(s43.value().id);
  ASSERT_TRUE(text42.ok() && text43.ok());
  EXPECT_NE(text42.value(), text43.value());
}

// --- modes / predicate_depth knobs -------------------------------------------

TEST(SyntheticKnobs, DefaultSpecIsUnchangedByTheNewKnobs) {
  // modes=1 / predicate_depth=0 must reproduce the pre-knob generator
  // exactly; the long-standing "synthetic" builtin is that default.
  const models::SyntheticSpec spec;
  EXPECT_EQ(spec.modes, 1u);
  EXPECT_EQ(spec.predicate_depth, 0u);
}

TEST(SyntheticKnobs, ModesAddRulesAndStillSimulate) {
  models::SyntheticSpec spec;
  spec.shared_processes = 2;
  spec.cluster_size = 2;
  spec.modes = 3;
  const auto model = models::make_synthetic(spec);

  api::Session session;
  const auto info = session.load(api::BuiltModel{variant::VariantModel{model}, "test"});
  ASSERT_TRUE(info.ok());
  const auto sim = session.simulate({.model = info.value().id});
  ASSERT_TRUE(sim.ok()) << api::render_diagnostics(sim.diagnostics());
  EXPECT_GT(sim.value().result.total_firings, 0);
}

TEST(SyntheticKnobs, PredicateDepthAddsSelectionControlAndStillSimulates) {
  models::SyntheticSpec spec;
  spec.shared_processes = 2;
  spec.cluster_size = 1;
  spec.predicate_depth = 2;
  const auto model = models::make_synthetic(spec);

  // Depth adds a control channel and tag-guarded selection rules.
  bool has_control = false;
  for (support::ChannelId cid : model.graph().channel_ids()) {
    if (model.graph().channel(cid).name == "ctl") has_control = true;
  }
  EXPECT_TRUE(has_control);

  api::Session session;
  const auto info = session.load(api::BuiltModel{variant::VariantModel{model}, "test"});
  ASSERT_TRUE(info.ok());
  const auto sim = session.simulate({.model = info.value().id});
  ASSERT_TRUE(sim.ok()) << api::render_diagnostics(sim.diagnostics());
  EXPECT_GT(sim.value().result.total_firings, 0);
}

TEST(SyntheticKnobs, ModesRejectsZero) {
  models::SyntheticSpec spec;
  spec.modes = 0;
  EXPECT_THROW((void)models::make_synthetic(spec), support::ModelError);
}

// --- content identity --------------------------------------------------------
//
// Both result-cache tiers key an evaluation on the model's content, which is
// sound only if a model's text determines its answers: a copy parsed back
// from write_text must fingerprint like the original and answer like it.
// A mismatch here is a defect in the text writer.

TEST(ContentIdentity, TextCopiesFingerprintAndAnswerLikeTheirOriginals) {
  std::vector<std::string> names = api::builtin_names();
  for (const corpus::CorpusEntry& entry : corpus::default_corpus()) names.push_back(entry.name);
  ASSERT_EQ(names.size(), 66u);

  api::Session session;  // uncached: every reply is a fresh evaluation
  const auto reply = [&session](api::ModelId id, api::RequestPayload payload) {
    api::set_model(payload, id);
    return api::wire::encode(session.call({.payload = std::move(payload)}));
  };
  api::ExploreRequest greedy;
  greedy.options.engine = synth::ExploreEngine::kGreedy;
  std::size_t compared = 0;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const auto original = session.load(api::ModelSpec{name});
    ASSERT_TRUE(original.ok());
    const auto text = session.write_text(original.value().id);
    ASSERT_TRUE(text.ok());
    const auto copy = session.load(api::ModelText{text.value()});
    ASSERT_TRUE(copy.ok());
    ASSERT_NE(original.value().content_fingerprint, 0u);
    EXPECT_EQ(copy.value().content_fingerprint, original.value().content_fingerprint);

    // Synthesis answers depend on the library too; they share a key (and
    // must agree) only where the cache content is equal as well — the
    // builtins without a curated library.
    std::vector<api::RequestPayload> payloads{api::SimulateRequest{}, api::AnalyzeRequest{}};
    if (session.store()->find(original.value().id)->cache_content() ==
        session.store()->find(copy.value().id)->cache_content()) {
      payloads.insert(payloads.end(), {greedy, api::CompareRequest{}});
    }
    for (const api::RequestPayload& payload : payloads) {
      EXPECT_EQ(reply(copy.value().id, payload), reply(original.value().id, payload));
      ++compared;
    }
  }
  EXPECT_EQ(compared, 136u);
}

}  // namespace
}  // namespace spivar
