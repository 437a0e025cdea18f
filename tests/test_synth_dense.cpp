// Oracle tests for the dense synthesis kernel (synth/dense.hpp): every dense
// cost is checked against the name-based `synth::evaluate` it stands in for,
// bit for bit, over the whole catalog and over hand-built problems that
// reach each list-schedule path; the dense evaluation is allocation-free; and
// the engines' replies over the catalog reproduce a pinned digest taken from
// the name-based engines, so any change in a mapping, cost or counter shows.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "api/wire.hpp"
#include "corpus/sweep.hpp"
#include "models/fig2.hpp"
#include "models/synthetic.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "synth/cost.hpp"
#include "synth/dense.hpp"
#include "synth/explore.hpp"
#include "synth/from_model.hpp"

// Every heap allocation in this binary passes through here, so a test can
// count the allocations a stretch of code makes. All the unaligned forms are
// replaced, so no block is freed by another family than the one that
// allocated it; out of line, so the compiler never pairs an inlined `new`
// with the `free` below.
namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace spivar::synth {
namespace {

using support::Duration;

/// The catalog a server answers for: the curated builtins, then the
/// default `sweep/` corpus.
std::vector<std::string> catalog() {
  std::vector<std::string> names = api::builtin_names();
  for (const corpus::CorpusEntry& entry : corpus::default_corpus()) names.push_back(entry.name);
  return names;
}

/// The default synthesis setup a session explores for catalog `name`.
std::shared_ptr<const api::SynthesisSetup> catalog_setup(const std::string& name) {
  api::ModelStore store;
  const api::Result<api::ModelInfo> info = store.load(api::ModelSpec{name});
  if (!info.ok()) return nullptr;
  return store.find(info.value().id)->default_setup();
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

struct Verdicts {
  int feasible = 0;
  int infeasible = 0;
};

/// Prices the start state, all-software, all-hardware and seeded random
/// states of the free elements both ways: the dense cost must equal the
/// reference's bit for bit.
Verdicts expect_matches_reference(const ImplLibrary& library,
                                  const std::vector<Application>& apps, const Mapping& fixed,
                                  std::uint64_t seed, const std::string& label) {
  const DenseProblem dense{library, apps, fixed};
  support::SplitMix64 rng{seed};
  DenseState state = dense.initial_state();
  Verdicts verdicts;
  for (int draw = 0; draw < 67; ++draw) {
    for (const DenseProblem::Id id : dense.free()) {
      if (draw == 1) state[id] = Target::kSoftware;
      if (draw == 2) state[id] = Target::kHardware;
      if (draw > 2) state[id] = rng.next_below(2) == 0 ? Target::kSoftware : Target::kHardware;
    }
    const DenseCost got = dense.evaluate(state);
    const CostBreakdown want = evaluate(library, apps, dense.to_mapping(state));
    EXPECT_EQ(bits(got.total), bits(want.total)) << label << " draw " << draw;
    EXPECT_EQ(bits(got.worst_utilization), bits(want.worst_utilization))
        << label << " draw " << draw;
    EXPECT_EQ(got.feasible, want.feasible) << label << " draw " << draw;
    ++(want.feasible ? verdicts.feasible : verdicts.infeasible);
  }
  return verdicts;
}

/// A problem reaching every list-schedule path: a chain with independent
/// tasks behind it, a task repeated at one chain position, a broken chain (a
/// chain entry the application lacks, so the tasks chained behind it are
/// never placed), a repeated chain entry (the later position wins), elements
/// that cannot run in software or in hardware, and a load sum that lands
/// within the 1e-12 budget slack. Loads stay small wherever a deadline
/// decides, so the budget never masks a schedule.
struct DeadlineFixture {
  ImplLibrary lib;
  std::vector<Application> apps;

  DeadlineFixture() {
    lib.processor_cost = 10.0;
    lib.processor_budget = 1.0;
    const char* names[] = {"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"};
    for (int i = 0; i < 9; ++i) {
      lib.add(names[i], {.sw_load = 0.01 * (i + 1),
                         .sw_wcet = Duration::millis(2 + i),
                         .hw_cost = 3.0 + i,
                         .hw_wcet = Duration::millis(1 + i % 3)});
    }
    lib.add("hw_only", {.sw_load = 0.2, .hw_cost = 4.0, .can_sw = false});
    lib.add("sw_only", {.sw_load = 0.3, .hw_cost = 2.0, .can_hw = false});
    lib.add("la", {.sw_load = 0.34, .hw_cost = 1.0});
    lib.add("lb", {.sw_load = 0.56, .hw_cost = 1.0});
    lib.add("lc", {.sw_load = 0.1, .hw_cost = 1.0});

    apps.push_back({.name = "chain",
                    .elements = {"t0", "t1", "t2", "t3", "t4"},
                    .chain = {"t0", "t1", "t2"},
                    .deadline = Duration::millis(14)});
    apps.push_back({.name = "broken",
                    .elements = {"t2", "t5", "t6", "t6"},
                    .chain = {"t5", "t7", "t6"},
                    .deadline = Duration::millis(10)});
    apps.push_back({.name = "repeated-entry",
                    .elements = {"t8", "t1", "t8", "t7"},
                    .chain = {"t8", "t1", "t8"},
                    .deadline = Duration::millis(8)});
    apps.push_back({.name = "repeated-task",
                    .elements = {"t3", "t4", "t4", "hw_only"},
                    .chain = {"t3", "t4"},
                    .deadline = Duration::millis(8)});
    apps.push_back({.name = "untimed", .elements = {"t0", "sw_only", "t8", "hw_only"}});
    // 0.34 + 0.56 + 0.1 adds up to 1.0000000000000002: over the budget,
    // inside the slack.
    apps.push_back({.name = "load-slack", .elements = {"la", "lb", "lc", "t4"}});
  }
};

/// Library values that catch pricing which is not bit-identical: -0.0 and
/// subnormal loads and costs (a sum that starts at -0.0, or skips a
/// subnormal, shows in the bits), ASIC costs that overflow to inf in name
/// order but stay finite in application order, loads whose sum rounds
/// differently by order, and elements allowed on one target only.
struct AdversarialFixture {
  ImplLibrary lib;
  std::vector<Application> apps;

  AdversarialFixture() {
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double max = std::numeric_limits<double>::max();
    lib.processor_cost = 5.0;
    lib.processor_budget = 1.0;
    lib.add("neg_zero", {.sw_load = -0.0, .hw_cost = -0.0});
    lib.add("subnormal", {.sw_load = tiny, .hw_cost = 3 * tiny});
    lib.add("max_a", {.sw_load = 0.05, .hw_cost = max});
    lib.add("max_b", {.sw_load = 0.05, .hw_cost = max});
    lib.add("max_c", {.sw_load = 0.05, .hw_cost = -max});
    lib.add("r1", {.sw_load = 0.1, .hw_cost = 1.0});
    lib.add("r2", {.sw_load = 0.2, .hw_cost = 1.0});
    lib.add("r3", {.sw_load = 0.3, .hw_cost = 1.0});
    lib.add("sw_only", {.sw_load = 0.4, .hw_cost = 2.0, .can_hw = false});
    lib.add("hw_only", {.sw_load = 0.4, .hw_cost = 2.0, .can_sw = false});

    apps.push_back({.name = "zeros", .elements = {"neg_zero", "subnormal", "neg_zero"}});
    // (0.1 + 0.2) + 0.3 is 0.6000000000000001, and (0.3 + 0.2) + 0.1 is 0.6.
    apps.push_back({.name = "forward", .elements = {"r1", "r2", "r3", "sw_only"}});
    apps.push_back({.name = "backward", .elements = {"r3", "r2", "r1", "hw_only"}});
    // In name order max + max is inf, and inf - max stays inf; in this
    // order max - max + max is max.
    apps.push_back({.name = "overflow", .elements = {"max_a", "max_c", "max_b", "subnormal"}});
  }
};

// --- dense evaluate vs the reference ----------------------------------------

TEST(DenseKernel, MatchesReferenceOnEveryCatalogProblem) {
  const std::vector<std::string> names = catalog();
  ASSERT_EQ(names.size(), 66u);
  std::uint64_t seed = 1;
  for (const std::string& name : names) {
    const auto setup = catalog_setup(name);
    ASSERT_NE(setup, nullptr) << name;
    expect_matches_reference(setup->library, setup->problem.apps, {}, seed++, name);
  }
}

TEST(DenseKernel, MatchesReferenceOnDeadlinesBrokenChainsAndTargetLimits) {
  DeadlineFixture f;
  expect_matches_reference(f.lib, f.apps, {}, 7, "all applications");

  // Each application alone, where no other one masks its verdict: its
  // states split both ways, so its schedule or load really decides.
  for (const Application& app : f.apps) {
    const Verdicts verdicts = expect_matches_reference(f.lib, {app}, {}, 11, app.name);
    EXPECT_GT(verdicts.feasible, 0) << app.name;
    EXPECT_GT(verdicts.infeasible, 0) << app.name;
  }
}

TEST(DenseKernel, MatchesReferenceOnSignedZerosSubnormalsOverflowAndRounding) {
  AdversarialFixture f;
  const Verdicts verdicts = expect_matches_reference(f.lib, f.apps, {}, 13, "adversarial");
  EXPECT_GT(verdicts.feasible, 0);
  EXPECT_GT(verdicts.infeasible, 0);
  for (const Application& app : f.apps) {
    (void)expect_matches_reference(f.lib, {app}, {}, 17, app.name);
  }
}

TEST(DenseKernel, MatchesReferenceWithFixedEntries) {
  DeadlineFixture f;
  Mapping fixed;
  fixed.set("t1", Target::kHardware).set("t5", Target::kSoftware).set("ghost", Target::kHardware);
  expect_matches_reference(f.lib, f.apps, fixed, 3, "fixed");

  const DenseProblem dense{f.lib, f.apps, fixed};
  const Mapping mapping = dense.to_mapping(dense.initial_state());
  // Every fixed entry (also one no application uses) plus every free element.
  EXPECT_EQ(mapping.size(), dense.free().size() + fixed.size());
  EXPECT_EQ(mapping.at("ghost"), Target::kHardware);
  EXPECT_EQ(mapping.at("t1"), Target::kHardware);
  EXPECT_EQ(mapping.at("hw_only"), Target::kHardware);  // cannot start in software
}

TEST(DenseKernel, MatchesReferenceAboveSixtyFourElements) {
  const variant::VariantModel model = models::make_synthetic(
      {.shared_processes = 40, .variants = 8, .cluster_size = 4});
  const ImplLibrary lib = models::make_synthetic_library(model);
  const SynthesisProblem problem =
      problem_from_model(model, {.granularity = ElementGranularity::kProcess});
  ASSERT_EQ(problem.element_union().size(), 72u);
  expect_matches_reference(lib, problem.apps, {}, 5, "72 elements");
}

TEST(DenseKernel, FreeElementsKeepFirstSeenOrder) {
  // The annealing draw and exhaustive's bit i index the free list, so it
  // must be element_union() order, not the name order of the ids.
  const SynthesisProblem problem = models::table1_problem();
  const DenseProblem dense{models::table1_library(), problem.apps, {}};
  std::vector<std::string> free;
  for (const DenseProblem::Id id : dense.free()) free.push_back(dense.name(id));
  EXPECT_EQ(free, problem.element_union());
}

// --- allocation-free inner loop ---------------------------------------------

TEST(DenseKernel, EvaluateMakesNoHeapAllocation) {
  DeadlineFixture f;
  const auto tv = catalog_setup("multistandard_tv");
  ASSERT_NE(tv, nullptr);
  const DenseProblem problems[] = {DenseProblem{f.lib, f.apps, {}},
                                   DenseProblem{tv->library, tv->problem.apps, {}}};
  for (const DenseProblem& dense : problems) {
    DenseState state = dense.initial_state();
    support::SplitMix64 rng{42};
    double sink = 0.0;
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 10000; ++i) {
      const DenseProblem::Id id = dense.free()[rng.next_below(dense.free().size())];
      state[id] = state[id] == Target::kSoftware ? Target::kHardware : Target::kSoftware;
      sink += dense.evaluate(state).total;
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
    EXPECT_GT(sink, 0.0);
  }
}

// --- the edges keep the reference's behaviour -------------------------------

std::string explore_error(const ImplLibrary& lib, const std::vector<Application>& apps,
                          const Mapping& fixed, ExploreEngine engine) {
  ExploreOptions options;
  options.engine = engine;
  try {
    (void)explore_with_fixed(lib, apps, fixed, options);
  } catch (const support::ModelError& e) {
    return e.what();
  }
  return "no error";
}

TEST(DenseKernel, LibraryMissingAnElementFailsWithTheSameMessage) {
  ImplLibrary lib;
  lib.add("a", {.sw_load = 0.2, .hw_cost = 1.0});
  lib.add("c", {.sw_load = 0.2, .hw_cost = 1.0});
  const std::vector<Application> apps{{.name = "x", .elements = {"a", "f", "b", "c"}}};
  const std::string missing_f = "implementation library has no entry for 'f'";
  const std::string missing_b = "implementation library has no entry for 'b'";

  for (const ExploreEngine engine :
       {ExploreEngine::kExhaustive, ExploreEngine::kGreedy, ExploreEngine::kAnnealing}) {
    EXPECT_EQ(explore_error(lib, apps, {}, engine), missing_f) << to_string(engine);
  }
  // With 'f' fixed, exhaustive's first evaluation still meets it first,
  // while the greedy family resolves the free elements' start targets
  // before it evaluates anything, and so names 'b'.
  Mapping fixed;
  fixed.set("f", Target::kHardware);
  EXPECT_EQ(explore_error(lib, apps, fixed, ExploreEngine::kExhaustive), missing_f);
  EXPECT_EQ(explore_error(lib, apps, fixed, ExploreEngine::kGreedy), missing_b);
  EXPECT_EQ(explore_error(lib, apps, fixed, ExploreEngine::kAnnealing), missing_b);
}

// --- engine replies over the catalog ----------------------------------------

/// FNV-1a over the wire encoding of every reply below, as produced by the
/// name-based engines before the dense kernel replaced them.
constexpr std::uint64_t kCatalogDigest = 0x1d58f963658ce9d7;

TEST(DenseKernel, CatalogExploreAndCompareRepliesMatchThePinnedDigest) {
  api::Session session;  // no cache: every call evaluates
  support::Fnv1aHasher digest;
  std::size_t replies = 0;
  const auto call = [&](api::RequestPayload payload, const std::string& target) {
    api::AnyRequest request;
    request.payload = std::move(payload);
    request.target = target;
    api::Result<api::AnyResponse> result = session.call(request);
    digest.str(api::wire::encode(result));
    ++replies;
    return result;
  };

  for (const std::string& name : catalog()) {
    api::ExploreRequest explore;
    explore.options.engine = ExploreEngine::kGreedy;
    const api::Result<api::AnyResponse> greedy = call(explore, name);
    ASSERT_TRUE(greedy.ok()) << name;
    explore.options.engine = ExploreEngine::kAnnealing;
    for (const std::uint64_t seed : {1u, 2u}) {
      explore.options.seed = seed;
      (void)call(explore, name);
    }
    if (std::get<api::ExploreResponse>(greedy.value()).elements <= 16) {
      explore.options.engine = ExploreEngine::kExhaustive;
      (void)call(explore, name);
    }
    (void)call(api::CompareRequest{}, name);
  }
  std::cout << "catalog digest 0x" << std::hex << digest.digest() << std::dec << " over "
            << replies << " replies\n";
  EXPECT_EQ(digest.digest(), kCatalogDigest);
}

}  // namespace
}  // namespace spivar::synth
