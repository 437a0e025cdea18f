// ModelStore and the envelope batch surface (call_batch / submit):
// cross-session sharding over one store, snapshot isolation against
// concurrent unloads, the tombstone unload contract, cooperative
// cancellation, and streamed delivery landing slots before the batch
// completes. The concurrent cases double as the ThreadSanitizer targets
// (CI runs this binary under -fsanitize=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"

namespace spivar {
namespace {

using api::ModelStore;
using api::Session;
using api::UnloadStatus;

template <typename T>
std::string render_batch(const std::vector<api::Result<T>>& results) {
  std::string out;
  for (const auto& result : results) {
    out += result.ok() ? api::render(result.value())
                       : api::render_diagnostics(result.diagnostics());
    out += "\n---\n";
  }
  return out;
}

api::AnyRequest simulate_on(api::ModelId model) {
  return {.payload = api::SimulateRequest{.model = model}};
}

/// A random-resolution simulate envelope — the shape of every seed sweep.
api::AnyRequest seeded(api::ModelId model, std::uint64_t seed) {
  api::SimulateRequest request{.model = model};
  request.options.resolution = sim::Resolution::kRandom;
  request.options.seed = seed;
  return {.payload = request};
}

// --- sharding: many sessions over one store ----------------------------------

TEST(ModelStoreSharding, ModelsLoadedByOneSessionAreVisibleToAll) {
  auto store = std::make_shared<ModelStore>();
  Session loader{store};
  Session evaluator{store, api::make_executor(2)};

  const auto loaded = loader.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(loaded.ok());

  // The handle is store-scoped: the other session sees the same model.
  const auto info = evaluator.info(loaded.value().id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().name, loaded.value().name);
  ASSERT_EQ(evaluator.models().size(), 1u);
  EXPECT_EQ(store->size(), 1u);

  // And evaluates it identically to the loading session.
  const auto a = loader.simulate({.model = loaded.value().id});
  const auto b = evaluator.simulate({.model = loaded.value().id});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().result.total_firings, b.value().result.total_firings);
}

TEST(ModelStoreSharding, PrivateStoresStayPrivate) {
  Session a;
  Session b;
  const auto loaded = a.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(b.info(loaded.value().id).ok());  // b has its own store
  EXPECT_EQ(b.unload(loaded.value().id), UnloadStatus::kNeverLoaded);
}

TEST(ModelStoreSharding, TwoSessionsRunConcurrentBatchesOverOneStore) {
  auto store = std::make_shared<ModelStore>();
  Session loader{store};
  const auto fig1 = loader.load(api::ModelSpec{"fig1"});
  const auto fig2 = loader.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(fig1.ok() && fig2.ok());

  std::vector<api::AnyRequest> batch;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    batch.push_back(seeded(seed % 2 == 0 ? fig1.value().id : fig2.value().id, seed));
  }
  const std::string expected = render_batch(loader.call_batch(batch));

  // Two pooled sessions shard the same snapshots from two caller threads —
  // the TSAN-audited hot path. Results stay bit-identical to serial.
  Session shard_a{store, api::make_executor(2)};
  Session shard_b{store, api::make_executor(2)};
  std::string observed_a;
  std::string observed_b;
  std::thread caller_a(
      [&] { observed_a = render_batch(shard_a.call_batch(batch)); });
  std::thread caller_b(
      [&] { observed_b = render_batch(shard_b.call_batch(batch)); });
  caller_a.join();
  caller_b.join();
  EXPECT_EQ(observed_a, expected);
  EXPECT_EQ(observed_b, expected);
}

TEST(ModelStoreSharding, DefaultSetupIsMemoizedPerSnapshot) {
  auto store = std::make_shared<ModelStore>();
  Session session{store};
  const auto loaded = session.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(loaded.ok());

  const auto snapshot = store->find(loaded.value().id);
  ASSERT_NE(snapshot, nullptr);
  // One computation, shared by every consumer of the snapshot.
  EXPECT_EQ(snapshot->default_setup().get(), snapshot->default_setup().get());
  EXPECT_EQ(snapshot->default_setup()->library_origin, "curated");

  // Request overrides bypass the memo without touching it.
  const auto overridden = api::resolve_setup(
      *snapshot, synth::ProblemOptions{.granularity = synth::ElementGranularity::kProcess},
      std::nullopt);
  EXPECT_NE(overridden.get(), snapshot->default_setup().get());
  EXPECT_EQ(overridden->library_origin, "derived");
}

// --- snapshot isolation ------------------------------------------------------

TEST(ModelStoreIsolation, InFlightBatchSurvivesConcurrentUnload) {
  auto store = std::make_shared<ModelStore>();
  Session session{store, api::make_executor(2)};
  const auto loaded = session.load(api::ModelSpec{"synthetic"});
  ASSERT_TRUE(loaded.ok());

  std::vector<api::AnyRequest> batch;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) batch.push_back(seeded(loaded.value().id, seed));
  const std::string expected = render_batch(session.call_batch(batch));

  // Snapshots are resolved at submit time: unloading while the batch is in
  // flight must not affect a single slot.
  auto handle = session.submit(batch);
  EXPECT_EQ(session.unload(loaded.value().id), UnloadStatus::kUnloaded);
  EXPECT_EQ(render_batch(handle.wait()), expected);

  // New work, by contrast, sees the tombstone.
  EXPECT_FALSE(session.simulate({.model = loaded.value().id}).ok());
  const auto late = session.submit({batch[0]}).wait();
  ASSERT_EQ(late.size(), 1u);
  EXPECT_TRUE(late[0].diagnostics().has_code(api::diag::kUnknownModel));
}

TEST(ModelStoreIsolation, HandlesOutliveTheSession) {
  api::BatchHandle handle;
  std::string expected;
  {
    Session session{api::make_executor(2)};
    const auto loaded = session.load(api::ModelSpec{"fig1"});
    ASSERT_TRUE(loaded.ok());
    const std::vector<api::AnyRequest> batch(4, simulate_on(loaded.value().id));
    expected = render_batch(session.call_batch(batch));
    handle = session.submit(batch);
    // The session (and its store reference) dies here with the batch
    // possibly still in flight; slots captured their snapshots.
  }
  EXPECT_EQ(render_batch(handle.wait()), expected);
}

// --- streaming delivery ------------------------------------------------------

TEST(StreamingBatch, SlotsLandBeforeTheBatchCompletes) {
  // A real single-worker pool (make_executor(1) would be serial): slots
  // evaluate in batch order, asynchronously to this thread.
  Session session{std::make_shared<api::ThreadPoolExecutor>(1)};
  const auto quick = session.load(api::ModelSpec{"fig1"});
  const auto slow = session.load(api::ModelSpec{
      .name = "synthetic", .options = models::SyntheticSpec{.variants = 6}});
  ASSERT_TRUE(quick.ok() && slow.ok());

  std::atomic<std::size_t> streamed{0};
  auto handle = session.submit(
      {simulate_on(quick.value().id), simulate_on(slow.value().id)},
      [&streamed](std::size_t, const api::Result<api::AnyResponse>& r, std::string_view) {
        EXPECT_TRUE(r.ok());
        ++streamed;
      });

  // The first slot's future becomes ready on its own; its on_slot has
  // already fired by then (delivery order: callback, then future).
  handle.slot(0).wait();
  EXPECT_GE(streamed.load(), 1u);
  EXPECT_TRUE(handle.slot(0).get().ok());

  const auto results = handle.wait();
  EXPECT_EQ(streamed.load(), 2u);
  EXPECT_EQ(handle.landed(), 2u);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[1].ok());
}

// --- cooperative cancellation ------------------------------------------------

TEST(StreamingBatch, CancelMidBatchDiagnosesUntouchedSlots) {
  // One pool worker evaluates the slots in order; slot 0's callback blocks
  // until the handle exists, then cancels the rest of the batch.
  Session session{std::make_shared<api::ThreadPoolExecutor>(1)};
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());

  const std::vector<api::AnyRequest> batch(4, simulate_on(loaded.value().id));
  api::BatchHandle handle;
  std::promise<void> handle_ready;
  std::shared_future<void> ready = handle_ready.get_future().share();
  handle = session.submit(
      batch, [&handle, ready](std::size_t slot, const api::Result<api::AnyResponse>&,
                              std::string_view) {
        if (slot == 0) {
          ready.wait();     // the submitting thread has assigned `handle`
          handle.cancel();  // cancel from inside the stream
        }
      });
  handle_ready.set_value();

  const auto results = handle.wait();
  EXPECT_TRUE(handle.cancel_requested());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());  // already evaluated when cancel hit
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].ok()) << i;
    EXPECT_TRUE(results[i].diagnostics().has_code(api::diag::kCancelled)) << i;
  }
  // Every slot still landed (cancelled ones with diagnostics), so waiters
  // and the landed counter converge.
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.landed(), 4u);
}

TEST(StreamingBatch, ThrowingCallbackStillLandsEverySlot) {
  Session session{api::make_executor(2)};
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());
  const std::vector<api::AnyRequest> batch(4, simulate_on(loaded.value().id));

  // on_slot is a progress stream: a throwing callback must neither escape
  // the session boundary nor leave promises unfulfilled.
  std::atomic<std::size_t> streamed{0};
  auto handle = session.submit(
      batch,
      [&streamed](std::size_t, const api::Result<api::AnyResponse>&, std::string_view) {
        ++streamed;
        throw std::runtime_error("front end hiccup");
      });
  const auto results = handle.wait();
  ASSERT_EQ(results.size(), 4u);
  for (const auto& result : results) EXPECT_TRUE(result.ok());
  EXPECT_EQ(streamed.load(), 4u);
  EXPECT_TRUE(handle.done());
}

TEST(StreamingBatch, BlockingBatchNestedInsideAPoolTaskCompletes) {
  // A blocking call_batch issued from *inside* a pool task (here: an
  // on_slot callback running on the single worker) must make progress — a
  // uniform-options batch participates in its own execution instead of
  // parking the worker on futures nobody will fulfil.
  auto store = std::make_shared<ModelStore>();
  Session session{store, std::make_shared<api::ThreadPoolExecutor>(1)};
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());

  const std::vector<api::AnyRequest> inner(3, simulate_on(loaded.value().id));
  std::atomic<std::size_t> inner_ok{0};
  auto handle = session.submit(
      {simulate_on(loaded.value().id)},
      [&session, &inner, &inner_ok](std::size_t, const api::Result<api::AnyResponse>&,
                                    std::string_view) {
        for (const auto& result : session.call_batch(inner)) {
          if (result.ok()) ++inner_ok;
        }
      });
  const auto results = handle.wait();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(inner_ok.load(), 3u);
}

TEST(StreamingBatch, WaitAfterCancelNeverHangsWhenCancelRacesCompletion) {
  // Stress the cancel/completion race under the pool (and TSAN in CI): a
  // canceller thread fires while workers are mid-batch. Contract: every
  // slot's future becomes ready — a slot either carries its real result or
  // the api-cancelled diagnostics, never a hung future — and wait() after
  // cancel() returns the full vector, repeatably.
  auto store = std::make_shared<ModelStore>();
  Session session{store, api::make_executor(4)};
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());

  std::vector<api::AnyRequest> requests;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    requests.push_back(seeded(loaded.value().id, seed));
  }

  for (int round = 0; round < 16; ++round) {
    auto handle = session.submit(requests);
    std::thread canceller{[&handle] { handle.cancel(); }};

    // Per-slot deadline so a lost slot fails the test instead of freezing
    // the suite: 60s is orders of magnitude above any fig1 simulation.
    for (std::size_t i = 0; i < handle.size(); ++i) {
      ASSERT_EQ(handle.slot(i).wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "round " << round << " slot " << i << " never landed";
    }
    canceller.join();

    const auto results = handle.wait();  // repeatable after cancel
    ASSERT_EQ(results.size(), requests.size());
    std::size_t cancelled = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        EXPECT_GT(std::get<api::SimulateResponse>(results[i].value()).result.total_firings, 0)
            << i;
      } else {
        EXPECT_TRUE(results[i].diagnostics().has_code(api::diag::kCancelled)) << i;
        ++cancelled;
      }
    }
    EXPECT_TRUE(handle.done());
    EXPECT_EQ(handle.landed(), requests.size());
    EXPECT_TRUE(handle.cancel_requested());
    // Both extremes are legal outcomes of the race; the invariant is that
    // all slots landed either way.
    EXPECT_LE(cancelled, requests.size());
  }
}

TEST(StreamingBatch, CancelFromOnSlotRacingManyWorkersLandsEverySlot) {
  // The in-stream variant of the race: slot callbacks themselves request
  // cancellation while sibling workers are evaluating — on_slot still fires
  // exactly once per slot and the landed counter converges.
  Session session{api::make_executor(4)};
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());
  const std::vector<api::AnyRequest> batch(24, simulate_on(loaded.value().id));

  api::BatchHandle handle;
  std::atomic<std::size_t> streamed{0};
  std::promise<void> handle_ready;
  std::shared_future<void> ready = handle_ready.get_future().share();
  handle = session.submit(
      batch, [&handle, &streamed, ready](std::size_t slot, const api::Result<api::AnyResponse>&,
                                         std::string_view) {
        ++streamed;
        if (slot % 5 == 0) {
          ready.wait();
          handle.cancel();
        }
      });
  handle_ready.set_value();

  const auto results = handle.wait();
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(streamed.load(), batch.size());
  EXPECT_TRUE(handle.done());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok() || results[i].diagnostics().has_code(api::diag::kCancelled))
        << i;
  }
}

TEST(StreamingBatch, CancelAfterCompletionIsANoOp) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());
  auto handle = session.submit({simulate_on(loaded.value().id)});
  const auto results = handle.wait();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());
  handle.cancel();
  EXPECT_TRUE(handle.wait()[0].ok());  // wait() is repeatable, result kept
}

// --- unload contract over the store directly ---------------------------------

TEST(ModelStoreContract, TombstonesNeverForgetAndIdsAreNeverReused) {
  ModelStore store;
  const auto first = store.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(store.unload(first.value().id), UnloadStatus::kUnloaded);

  // A later load never resurrects the tombstoned id.
  const auto second = store.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().id.value(), first.value().id.value());
  EXPECT_EQ(store.find(first.value().id), nullptr);
  EXPECT_NE(store.find(second.value().id), nullptr);
  EXPECT_EQ(store.unload(first.value().id), UnloadStatus::kAlreadyUnloaded);
  EXPECT_EQ(store.unload(api::ModelId{1234}), UnloadStatus::kNeverLoaded);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(std::string{api::to_string(UnloadStatus::kAlreadyUnloaded)}, "already-unloaded");
}

TEST(ModelStoreContract, EmptySubmitCompletesImmediately) {
  Session session{api::make_executor(2)};
  auto handle = session.submit({});
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.size(), 0u);
  EXPECT_TRUE(handle.wait().empty());
}

}  // namespace
}  // namespace spivar
