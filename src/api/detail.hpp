// Internal helpers shared by the api translation units (store.cpp,
// session.cpp, compare.cpp). Not part of the public api surface — do not
// include from api.hpp or front ends.
#pragma once

#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/cache.hpp"
#include "api/requests.hpp"
#include "api/responses.hpp"
#include "api/result.hpp"
#include "api/store.hpp"
#include "obs/trace.hpp"
#include "spi/textio.hpp"
#include "support/diagnostics.hpp"
#include "synth/target.hpp"

namespace spivar::api {
class Executor;
}  // namespace spivar::api

namespace spivar::api::detail {

/// Shared failure for operations given a handle the session doesn't hold.
template <typename T>
Result<T> unknown_model(ModelId id) {
  return Result<T>::failure(diag::kUnknownModel,
                            id.valid() ? "no model with handle #" + std::to_string(id.value())
                                       : "invalid (default-constructed) model handle");
}

/// Runs `fn` (returning Result<T>) with every exception converted into a
/// failed Result — the session's no-throw boundary.
template <typename T, typename Fn>
Result<T> guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const spi::ParseError& e) {
    return Result<T>::failure(diag::kParseError, e.what());
  } catch (const support::ModelError& e) {
    return Result<T>::failure(diag::kModelError, e.what());
  } catch (const std::exception& e) {
    return Result<T>::failure(diag::kInternalError, e.what());
  }
}

/// Shared guard for the synthesis operations: a problem is explorable iff
/// some application contributes at least one element.
inline bool problem_has_elements(const synth::SynthesisProblem& problem) {
  for (const synth::Application& app : problem.apps) {
    if (!app.elements.empty()) return true;
  }
  return false;
}

inline std::string empty_problem_message(const std::string& model_name) {
  return "model '" + model_name + "' yields no synthesis elements (only virtual processes?)";
}

// --- snapshot evaluation seam ------------------------------------------------

/// Evaluates a compare request against an immutable StoreEntry snapshot
/// (never a Session; the other kinds' evals are local to session.cpp).
/// Compare fans its strategy jobs across `executor` (nested dispatch is safe
/// on the self-scheduling pool).
[[nodiscard]] Result<CompareResponse> eval_compare(const StoreEntry& entry,
                                                   const CompareRequest& request,
                                                   Executor& executor);

// --- result-cache seam -------------------------------------------------------

/// The result-cache key of `payload` over `entry`; nullopt when the
/// evaluation is not cached (no cache, or a model with no content identity:
/// StoreEntry::cache_content() == 0).
inline std::optional<ResultCache::Key> cache_key(const std::shared_ptr<ResultCache>& cache,
                                                 const StoreEntry& entry,
                                                 const RequestPayload& payload) {
  const std::uint64_t content = cache ? entry.cache_content() : 0;
  if (content == 0) return std::nullopt;
  return ResultCache::key_of(content, payload);
}

/// A reply that never went through the cache: the result, no frame.
inline ResultCache::Value uncached(Result<AnyResponse> result) {
  return std::make_shared<const CachedReply>(CachedReply{std::move(result), {}});
}

/// Fronts one evaluation of `payload` over `entry` with the store's result
/// cache and hands out the shared record: a hit returns the memoized
/// CachedReply itself (bit-identical to a cold eval — an evaluation is a
/// function of the model's content and the request); a miss runs `eval`,
/// memoizes the result under the entry's tenant tag, charging it the
/// measured evaluation time — the weight the cache's cost-aware eviction
/// protects — and returns the new record with its frame. Without a cache key
/// (see cache_key) this is a plain eval, handed out uncached().
template <typename Eval>
ResultCache::Value with_cache(const std::shared_ptr<ResultCache>& cache, const StoreEntry& entry,
                              const RequestPayload& payload, Eval&& eval) {
  const std::optional<ResultCache::Key> key = cache_key(cache, entry, payload);
  if (!key) {
    obs::ScopedSpan span{obs::SpanKind::kEval};
    return uncached(eval());
  }
  {
    obs::ScopedSpan probe{obs::SpanKind::kCacheProbe};
    if (ResultCache::Value hit = cache->find(*key, entry.tenant_tag())) return hit;
  }
  const auto started = std::chrono::steady_clock::now();
  Result<AnyResponse> result = eval();
  const auto ended = std::chrono::steady_clock::now();
  if (obs::TraceContext* trace = obs::current_trace()) {
    // Reuse the cost clock readings: the eval span costs no extra clock reads.
    trace->add_span(obs::SpanKind::kEval, started, ended);
  }
  const auto cost_us = std::chrono::duration_cast<std::chrono::microseconds>(ended - started).count();
  return cache->insert(*key, std::move(result), static_cast<std::uint64_t>(cost_us),
                       entry.tenant_tag());
}

}  // namespace spivar::api::detail
