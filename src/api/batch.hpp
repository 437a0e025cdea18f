// Streaming batch evaluation — the async face of the session's batch
// surface.
//
// Session::submit returns a BatchHandle: one future per envelope slot, an
// optional on_slot callback streamed as results land, a blocking wait(),
// and a cooperative cancel(). Slot tasks capture immutable ModelStore
// snapshots (never the session), so a handle stays valid across session
// moves, model unloads, and even the session's destruction.
//
//   auto handle = session.submit(std::move(envelopes),
//       [](std::size_t slot, const api::Result<api::AnyResponse>& r, std::string_view) {
//         std::cout << "slot " << slot << (r.ok() ? " ok" : " failed") << "\n";
//       });
//   handle.slot(0).wait();             // first result, before the batch ends
//   auto results = handle.wait();      // everything, in slot order
//   auto& run = std::get<api::SimulateResponse>(results[0].value());
//
// Ordering contract per slot: the result is computed, on_slot fires, then
// the slot's future becomes ready. A slot the memory tier answers lands
// inside submit, on the submitting thread; every other slot lands on the
// thread that evaluated it. Slot results are bit-identical to
// Session::call_batch (and therefore to serial evaluation) regardless of
// executor or cancellation-free interleaving.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "api/executor.hpp"
#include "api/responses.hpp"
#include "api/result.hpp"

namespace spivar::api {

/// Streamed per-slot delivery: `on_slot(index, result, frame)` runs exactly
/// once per slot, cancelled ones included. A slot answered from the result
/// cache's memory tier is delivered on the thread that called submit, before
/// submit returns — and before the caller holds the BatchHandle — so the
/// callback must not wait on the submitting thread or take a lock the
/// caller holds across submit. Any other slot lands on the thread that
/// evaluated it. `frame`
/// is the cache record's stored `response v1` frame — wire::encode(result),
/// see CachedReply — valid only during the call, and empty when the result
/// was not cached.
using SlotCallback =
    std::function<void(std::size_t, const Result<AnyResponse>&, std::string_view)>;

namespace detail {

/// Canonical diagnostics for a slot that was cancelled before evaluation.
[[nodiscard]] support::DiagnosticList cancelled_diagnostics(std::size_t slot);

/// Shared state behind one BatchHandle: the slot promises, the landed-slot
/// count and the cooperative cancellation flag checked by not-yet-started
/// slot tasks. Slot tasks own a shared_ptr, so the state outlives the handle.
struct BatchState {
  BatchState(std::size_t total, SlotCallback callback)
      : on_slot(std::move(callback)), promises(total) {
    futures.reserve(total);
    for (auto& promise : promises) futures.push_back(promise.get_future().share());
  }

  /// Per-slot delivery pipeline: callback, landed counter, then the future
  /// last — a caller woken by a ready future can rely on its on_slot having
  /// fired, and a wait() over every future implies done(). `frame` is handed
  /// to on_slot as is (see SlotCallback). A throwing callback is contained
  /// here: the slot must still land (its promise set, the counter bumped) or
  /// waiters hang, and nothing may escape into an executor worker.
  void deliver(std::size_t slot, Result<AnyResponse> result, std::string_view frame = {}) {
    if (on_slot) {
      try {
        on_slot(slot, result, frame);
      } catch (...) {
        // Swallowed by contract: on_slot is a progress stream, not a place
        // for control flow — the slot's result is what wait() reports.
      }
    }
    landed.fetch_add(1, std::memory_order_acq_rel);
    promises[slot].set_value(std::move(result));
  }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancelled.load(std::memory_order_acquire);
  }

  SlotCallback on_slot;
  std::vector<std::promise<Result<AnyResponse>>> promises;
  std::vector<std::shared_future<Result<AnyResponse>>> futures;
  std::atomic<std::size_t> landed{0};
  std::atomic<bool> cancelled{false};
};

}  // namespace detail

/// Handle to an in-flight (or finished) batch. Cheap to move; destroying it
/// does NOT cancel or wait — slots keep evaluating and simply become
/// unobservable. Hold the handle (or wait()) when the results matter.
class BatchHandle {
 public:
  BatchHandle() = default;

  [[nodiscard]] std::size_t size() const noexcept { return state_ ? state_->futures.size() : 0; }

  /// Slots that have landed (delivered a result, cancelled included).
  [[nodiscard]] std::size_t landed() const noexcept {
    return state_ ? state_->landed.load(std::memory_order_acquire) : 0;
  }
  [[nodiscard]] bool done() const noexcept { return landed() == size(); }

  /// The future of slot `index`; ready as soon as that slot lands, typically
  /// long before the whole batch does.
  [[nodiscard]] const std::shared_future<Result<AnyResponse>>& slot(std::size_t index) const {
    return state_->futures.at(index);
  }

  /// Blocks until every slot has landed and returns the results in slot
  /// order — bit-identical to Session::call_batch. Callable any number of
  /// times. wait() does not execute tasks itself, so call it from a thread
  /// outside the session's pool (a uniform-options call_batch, which does
  /// participate, is the safe choice inside pool tasks).
  [[nodiscard]] std::vector<Result<AnyResponse>> wait() const {
    std::vector<Result<AnyResponse>> results;
    if (!state_) return results;
    results.reserve(state_->futures.size());
    for (const auto& future : state_->futures) results.push_back(future.get());
    return results;
  }

  /// Cooperative cancellation: slots whose evaluation has not started land
  /// as failures carrying diag::kCancelled (their on_slot still fires);
  /// slots already evaluating or landed keep their results. wait() after
  /// cancel() still returns every slot. Safe from any thread, including
  /// from inside on_slot.
  void cancel() const {
    if (state_) state_->cancelled.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool cancel_requested() const noexcept {
    return state_ && state_->cancel_requested();
  }

 private:
  friend BatchHandle make_batch_handle(std::shared_ptr<detail::BatchState>,
                                       std::shared_ptr<Executor>);

  std::shared_ptr<detail::BatchState> state_;
  std::shared_ptr<Executor> executor_;  ///< keeps the pool alive past the session
};

[[nodiscard]] inline BatchHandle make_batch_handle(std::shared_ptr<detail::BatchState> state,
                                                   std::shared_ptr<Executor> executor) {
  BatchHandle handle;
  handle.state_ = std::move(state);
  handle.executor_ = std::move(executor);
  return handle;
}

}  // namespace spivar::api
