// Streaming batch evaluation — the async face of the session's batch
// surface.
//
// Session::submit returns a BatchHandle<AnyResponse>: one future per
// envelope slot, an optional on_slot callback streamed as results land, a
// blocking wait(), and a cooperative cancel(). Slot tasks capture immutable
// ModelStore snapshots (never the session), so a handle stays valid across
// session moves, model unloads, and even the session's destruction.
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
template <typename Response>
using SlotCallback =
    std::function<void(std::size_t, const Result<Response>&, std::string_view)>;

namespace detail {

/// Canonical diagnostics for a slot that was cancelled before evaluation.
[[nodiscard]] support::DiagnosticList cancelled_diagnostics(std::size_t slot);

/// Response-type-independent batch progress: landed-slot count and the
/// cooperative cancellation flag checked by not-yet-started slot tasks.
class BatchCore {
 public:
  explicit BatchCore(std::size_t total) noexcept : total_(total) {}

  void request_cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  void mark_landed() noexcept { landed_.fetch_add(1, std::memory_order_acq_rel); }
  [[nodiscard]] std::size_t landed() const noexcept {
    return landed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] bool done() const noexcept { return landed() == total_; }

 private:
  const std::size_t total_;
  std::atomic<std::size_t> landed_{0};
  std::atomic<bool> cancelled_{false};
};

/// Shared state behind one BatchHandle: the slot promises plus the core.
/// Slot tasks own a shared_ptr, so the state outlives the handle.
template <typename Response>
struct BatchState {
  explicit BatchState(std::size_t total, SlotCallback<Response> callback)
      : core(total), on_slot(std::move(callback)), promises(total) {
    futures.reserve(total);
    for (auto& promise : promises) futures.push_back(promise.get_future().share());
  }

  /// Per-slot delivery pipeline: callback, landed counter, then the future
  /// last — a caller woken by a ready future can rely on its on_slot having
  /// fired, and a wait() over every future implies done(). `frame` is handed
  /// to on_slot as is (see SlotCallback). A throwing callback is contained
  /// here: the slot must still land (its promise set, the counter bumped) or
  /// waiters hang, and nothing may escape into an executor worker.
  void deliver(std::size_t slot, Result<Response> result, std::string_view frame = {}) {
    if (on_slot) {
      try {
        on_slot(slot, result, frame);
      } catch (...) {
        // Swallowed by contract: on_slot is a progress stream, not a place
        // for control flow — the slot's result is what wait() reports.
      }
    }
    core.mark_landed();
    promises[slot].set_value(std::move(result));
  }

  BatchCore core;
  SlotCallback<Response> on_slot;
  std::vector<std::promise<Result<Response>>> promises;
  std::vector<std::shared_future<Result<Response>>> futures;
};

}  // namespace detail

/// Handle to an in-flight (or finished) batch. Cheap to move; destroying it
/// does NOT cancel or wait — slots keep evaluating and simply become
/// unobservable. Hold the handle (or wait()) when the results matter.
template <typename Response>
class BatchHandle {
 public:
  BatchHandle() = default;

  [[nodiscard]] std::size_t size() const noexcept { return state_ ? state_->core.total() : 0; }

  /// Slots that have landed (delivered a result, cancelled included).
  [[nodiscard]] std::size_t landed() const noexcept { return state_ ? state_->core.landed() : 0; }
  [[nodiscard]] bool done() const noexcept { return !state_ || state_->core.done(); }

  /// The future of slot `index`; ready as soon as that slot lands, typically
  /// long before the whole batch does.
  [[nodiscard]] const std::shared_future<Result<Response>>& slot(std::size_t index) const {
    return state_->futures.at(index);
  }

  /// Blocks until every slot has landed and returns the results in slot
  /// order — bit-identical to Session::call_batch. Callable any number of
  /// times. wait() does not execute tasks itself, so call it from a thread
  /// outside the session's pool (a uniform-options call_batch, which does
  /// participate, is the safe choice inside pool tasks).
  [[nodiscard]] std::vector<Result<Response>> wait() const {
    std::vector<Result<Response>> results;
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
    if (state_) state_->core.request_cancel();
  }
  [[nodiscard]] bool cancel_requested() const noexcept {
    return state_ && state_->core.cancel_requested();
  }

 private:
  template <typename R>
  friend BatchHandle<R> make_batch_handle(std::shared_ptr<detail::BatchState<R>>,
                                          std::shared_ptr<Executor>);

  std::shared_ptr<detail::BatchState<Response>> state_;
  std::shared_ptr<Executor> executor_;  ///< keeps the pool alive past the session
};

template <typename R>
[[nodiscard]] BatchHandle<R> make_batch_handle(std::shared_ptr<detail::BatchState<R>> state,
                                               std::shared_ptr<Executor> executor) {
  BatchHandle<R> handle;
  handle.state_ = std::move(state);
  handle.executor_ = std::move(executor);
  return handle;
}

}  // namespace spivar::api
