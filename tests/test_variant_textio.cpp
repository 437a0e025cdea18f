// Round-trip fidelity of the variant-aware text format: the `variants v1`
// section must reconstruct clusters, interfaces, ports, selection rules,
// configuration latencies, initial clusters, linked interfaces — and the
// round-tripped model must *behave* identically (simulation, validation,
// mutual exclusion, synthesis comparison). This closes the ROADMAP-named
// bug: saving a VariantModel used to silently drop the variant structure.
#include <gtest/gtest.h>

#include <string>

#include "api/api.hpp"
#include "models/fig2.hpp"
#include "models/multistandard_tv.hpp"
#include "models/synthetic.hpp"
#include "sim/engine.hpp"
#include "spi/textio.hpp"
#include "variant/textio.hpp"

namespace spivar {
namespace {

/// Structural equality of the variant layer (names, membership, rules,
/// latencies, positions) — the graph layer is covered by test_textio.
void expect_variant_equivalent(const variant::VariantModel& a, const variant::VariantModel& b) {
  ASSERT_EQ(a.interface_count(), b.interface_count());
  ASSERT_EQ(a.cluster_count(), b.cluster_count());

  for (support::InterfaceId iid : a.interface_ids()) {
    const variant::Interface& ia = a.interface(iid);
    const auto ib_id = b.find_interface(ia.name);
    ASSERT_TRUE(ib_id.has_value()) << ia.name;
    const variant::Interface& ib = b.interface(*ib_id);
    EXPECT_EQ(ia.consume_selection_token, ib.consume_selection_token) << ia.name;
    ASSERT_EQ(ia.clusters.size(), ib.clusters.size()) << ia.name;

    ASSERT_EQ(ia.ports.size(), ib.ports.size()) << ia.name;
    for (std::size_t p = 0; p < ia.ports.size(); ++p) {
      EXPECT_EQ(ia.ports[p].name, ib.ports[p].name);
      EXPECT_EQ(ia.ports[p].dir, ib.ports[p].dir);
      EXPECT_EQ(a.graph().channel(ia.ports[p].external).name,
                b.graph().channel(ib.ports[p].external).name);
    }

    ASSERT_EQ(ia.selection.size(), ib.selection.size()) << ia.name;
    for (std::size_t r = 0; r < ia.selection.size(); ++r) {
      EXPECT_EQ(ia.selection[r].name, ib.selection[r].name);
      EXPECT_EQ(a.cluster(ia.selection[r].cluster).name, b.cluster(ib.selection[r].cluster).name);
    }

    // Positional cluster lists carry linked-interface exclusivity; compare
    // by position, with per-cluster latency and membership.
    for (std::size_t c = 0; c < ia.clusters.size(); ++c) {
      const variant::Cluster& ca = a.cluster(ia.clusters[c]);
      const variant::Cluster& cb = b.cluster(ib.clusters[c]);
      EXPECT_EQ(ca.name, cb.name) << ia.name << " position " << c;
      EXPECT_EQ(ia.conf_latency(ia.clusters[c]), ib.conf_latency(ib.clusters[c])) << ca.name;
      ASSERT_EQ(ca.processes.size(), cb.processes.size()) << ca.name;
      for (std::size_t p = 0; p < ca.processes.size(); ++p) {
        EXPECT_EQ(a.graph().process(ca.processes[p]).name,
                  b.graph().process(cb.processes[p]).name);
      }
      ASSERT_EQ(ca.channels.size(), cb.channels.size()) << ca.name;
      for (std::size_t ch = 0; ch < ca.channels.size(); ++ch) {
        EXPECT_EQ(a.graph().channel(ca.channels[ch]).name,
                  b.graph().channel(cb.channels[ch]).name);
      }
    }

    const bool a_initial = ia.initial.has_value();
    ASSERT_EQ(a_initial, ib.initial.has_value()) << ia.name;
    if (a_initial) {
      EXPECT_EQ(a.cluster(*ia.initial).name, b.cluster(*ib.initial).name);
    }
  }

  // The exclusivity relation — the paper's whole point — must survive.
  for (support::ProcessId p : a.graph().process_ids()) {
    for (support::ProcessId q : a.graph().process_ids()) {
      const auto bp = b.graph().find_process(a.graph().process(p).name);
      const auto bq = b.graph().find_process(a.graph().process(q).name);
      ASSERT_TRUE(bp && bq);
      EXPECT_EQ(a.mutually_exclusive(p, q), b.mutually_exclusive(*bp, *bq))
          << a.graph().process(p).name << " vs " << a.graph().process(q).name;
    }
  }
}

TEST(VariantTextIo, Fig2RoundTripsClustersAndInterfaces) {
  const variant::VariantModel original = models::make_fig2();
  const std::string text = variant::write_text(original);
  EXPECT_NE(text.find("variants v1"), std::string::npos);
  EXPECT_NE(text.find("cluster cluster1 interface theta"), std::string::npos);
  EXPECT_NE(text.find("member process"), std::string::npos);

  const variant::VariantModel reparsed = variant::parse_text(text);
  expect_variant_equivalent(original, reparsed);
  // And the canonical form is a fixed point.
  EXPECT_EQ(text, variant::write_text(reparsed));
}

TEST(VariantTextIo, Fig3SelectionRulesAndConfLatenciesRoundTrip) {
  const variant::VariantModel original = models::make_fig3();
  const variant::VariantModel reparsed = variant::parse_text(variant::write_text(original));
  expect_variant_equivalent(original, reparsed);

  // Runtime selection must behave identically: same firings, same
  // reconfiguration count under the interface-aware simulator.
  const sim::SimResult a = sim::Simulator{original, {}}.run();
  const sim::SimResult b = sim::Simulator{reparsed, {}}.run();
  EXPECT_EQ(a.total_firings, b.total_firings);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(VariantTextIo, MultistandardTvLinkedInterfacesRoundTrip) {
  const variant::VariantModel original = models::make_multistandard_tv();
  const std::string text = variant::write_text(original);
  const variant::VariantModel reparsed = variant::parse_text(text);
  expect_variant_equivalent(original, reparsed);
  if (!original.links().empty()) {
    EXPECT_NE(text.find("link "), std::string::npos);
    EXPECT_EQ(original.links().size(), reparsed.links().size());
  }
}

TEST(VariantTextIo, FlatModelsStayPlainAndParseBack) {
  // Models without variant structure keep emitting plain graph text — no
  // `variants` section — and graph-only text parses to a flat model, so
  // every pre-existing .spit file stays valid.
  api::Session session;
  const auto flat = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(flat.ok());
  const auto text = session.write_text(flat.value().id);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value().find("variants"), std::string::npos);

  const variant::VariantModel reparsed = variant::parse_text(text.value());
  EXPECT_EQ(reparsed.interface_count(), 0u);
  EXPECT_EQ(reparsed.cluster_count(), 0u);
}

TEST(VariantTextIo, DuplicateNamesAreRefusedAtWriteTime) {
  // The model layer allows two interfaces to own same-named clusters; the
  // text section addresses clusters by name, so write_text must refuse
  // (diagnostic through the session) instead of emitting text its own
  // parser rejects — never a silently lossy or unreadable file.
  variant::VariantModel model{spi::parse_text("model m\nqueue q\n")};
  const auto a = model.add_interface({.name = "ia"});
  const auto b = model.add_interface({.name = "ib"});
  model.add_cluster({.name = "c1", .interface = a});
  model.add_cluster({.name = "c1", .interface = b});
  EXPECT_THROW((void)variant::write_text(model), support::ModelError);

  api::Session session;
  const auto loaded = session.load(api::BuiltModel{std::move(model)});
  ASSERT_TRUE(loaded.ok());
  const auto text = session.write_text(loaded.value().id);
  ASSERT_FALSE(text.ok());
  EXPECT_TRUE(text.diagnostics().has_code(api::diag::kModelError));
}

TEST(VariantTextIo, ErrorsCarryLineNumbersAndVersionIsChecked) {
  EXPECT_THROW((void)variant::parse_text("model m\n\nvariants v2\n"), spi::ParseError);
  EXPECT_THROW((void)variant::parse_text("model m\n\nvariants v1\nbogus x\n"), spi::ParseError);
  EXPECT_THROW((void)variant::parse_text("model m\n\nvariants v1\nmember process p\n"),
               spi::ParseError);
  EXPECT_THROW(
      (void)variant::parse_text("model m\n\nvariants v1\ncluster c interface missing\n"),
      spi::ParseError);
  // Duplicate names are rejected instead of silently shadowing.
  EXPECT_THROW((void)variant::parse_text("model m\n\nvariants v1\ninterface i\ninterface i\n"),
               spi::ParseError);
}

// --- the ROADMAP bug, end to end through the api -----------------------------

TEST(VariantTextIo, OptConfiguredVariantModelRoundTripsThroughTheSession) {
  // An `--opt`-configured synthetic variant model: save to text, load the
  // text back, and require identical structure, validation, simulation and
  // strategy comparison — the exact scenario that used to lose the variant
  // structure silently.
  api::Session session;
  const auto original = session.load(api::ModelSpec{
      .name = "synthetic",
      .options = models::SyntheticSpec{.interfaces = 2, .variants = 3, .cluster_size = 2}});
  ASSERT_TRUE(original.ok());
  ASSERT_GT(original.value().interfaces, 0u);
  ASSERT_GT(original.value().clusters, 0u);

  const auto text = session.write_text(original.value().id);
  ASSERT_TRUE(text.ok());
  const auto reloaded = session.load(api::ModelText{text.value()});
  ASSERT_TRUE(reloaded.ok()) << reloaded.error_summary();

  // Structure survives the save/load cycle.
  EXPECT_EQ(reloaded.value().interfaces, original.value().interfaces);
  EXPECT_EQ(reloaded.value().clusters, original.value().clusters);
  EXPECT_EQ(reloaded.value().processes, original.value().processes);

  const auto validated = session.validate(reloaded.value().id);
  ASSERT_TRUE(validated.ok());
  EXPECT_FALSE(validated.value().has_errors()) << api::render(validated.value());

  // Behavior survives: simulation and the full strategy comparison agree.
  const auto sim_a = session.simulate({.model = original.value().id});
  const auto sim_b = session.simulate({.model = reloaded.value().id});
  ASSERT_TRUE(sim_a.ok() && sim_b.ok());
  EXPECT_EQ(sim_a.value().result.total_firings, sim_b.value().result.total_firings);
  EXPECT_EQ(sim_a.value().result.end_time, sim_b.value().result.end_time);

  api::CompareRequest compare_a{.model = original.value().id};
  compare_a.options.engine = synth::ExploreEngine::kGreedy;
  api::CompareRequest compare_b = compare_a;
  compare_b.model = reloaded.value().id;
  const auto outcome_a = session.compare(compare_a);
  const auto outcome_b = session.compare(compare_b);
  ASSERT_TRUE(outcome_a.ok() && outcome_b.ok());
  ASSERT_EQ(outcome_a.value().rows.size(), outcome_b.value().rows.size());
  for (std::size_t i = 0; i < outcome_a.value().rows.size(); ++i) {
    EXPECT_EQ(outcome_a.value().rows[i].outcome.cost.total,
              outcome_b.value().rows[i].outcome.cost.total)
        << i;
  }
}

}  // namespace
}  // namespace spivar
