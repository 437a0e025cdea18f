// api::SpecCache — spec-string → model-handle memoization over a ModelStore.
//
// Front ends that chain commands over one store (the CLI's `--then`
// segments) want "load fig2 --opt variants=3" to parse/build once and reuse
// the handle afterwards. The cache is *tombstone-aware*: a handle whose
// model was unloaded in the meantime is dropped and the spec is loaded
// fresh under a new id — a later stage can never resurrect a tombstoned id.
// (The fresh load has the same content, so it re-hits the result cache.)
//
//   api::SpecCache specs{store};
//   auto a = specs.resolve("fig2");                    // loads
//   auto b = specs.resolve("fig2");                    // same handle
//   store->unload(a.value().id);
//   auto c = specs.resolve("fig2");                    // fresh load, new id
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/options.hpp"
#include "api/responses.hpp"
#include "api/result.hpp"
#include "api/store.hpp"

namespace spivar::api {

class StoreView;

class SpecCache {
 public:
  explicit SpecCache(std::shared_ptr<ModelStore> store);

  /// Routes every load (and the liveness check behind handle reuse) through
  /// a tenant's StoreView from now on: resolved handles are tenant-owned,
  /// quota-checked and content-salted. Null unbinds (back to direct store
  /// loads). The view must wrap this cache's store.
  void bind_view(std::shared_ptr<StoreView> view);

  /// Resolves `spec` (builtin name or .spit path) with optional repeatable
  /// "key=value" option assignments. Reuses the handle loaded earlier for
  /// the same (spec, assignments) combination while it is still live;
  /// assignments require `spec` to be a builtin (diag::kBadOption
  /// otherwise).
  Result<ModelInfo> resolve(const std::string& spec,
                            const std::vector<std::string>& assignments = {});

  /// The handle an earlier resolve() issued for this (spec, assignments)
  /// combination — without loading and without the tombstone check, so a
  /// caller can observe the full three-way UnloadStatus contract (the CLI's
  /// `unload` command). nullopt when the combination was never resolved.
  [[nodiscard]] std::optional<ModelId> peek(const std::string& spec,
                                            const std::vector<std::string>& assignments = {}) const;

  /// Every handle resolved for `spec` across all assignments combinations,
  /// in key order — `unload <spec>` without `--opt` targets all of them (a
  /// spec loaded as `--opt variants=3` is still "the same spec").
  [[nodiscard]] std::vector<ModelId> handles(const std::string& spec) const;

  [[nodiscard]] const std::shared_ptr<ModelStore>& store() const noexcept { return store_; }

 private:
  std::shared_ptr<ModelStore> store_;
  std::shared_ptr<StoreView> view_;  ///< tenant routing; null = direct store
  std::map<std::string, ModelId> loaded_;
};

}  // namespace spivar::api
