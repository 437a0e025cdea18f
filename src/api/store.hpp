// api::ModelStore — thread-safe, share-by-snapshot model ownership.
//
// The store owns every loaded model and hands out *immutable snapshots*:
// `shared_ptr<const StoreEntry>` holding the model, its registry entry (when
// loaded from a builtin) and a memoized default SynthesisSetup. Any number
// of sessions attach to one store, so a model is parsed/built once and
// evaluated from many sessions — the cross-session sharding seam. Every
// model source — registry name, .spit file, spit text, a model built in
// code — is one LoadRequest alternative through the one load().
//
//   auto store = std::make_shared<api::ModelStore>();
//   store->load(api::ModelSpec{"fig2"});          // registry name or .spit path
//   api::Session a{store};                        // loads are visible to b
//   api::Session b{store, api::make_executor(4)}; // shards the same models
//
// Concurrency contract:
//   * load/unload/find/models are safe to call from any thread.
//   * Snapshots are immutable; an in-flight batch that captured a snapshot
//     keeps evaluating it even if the model is unloaded concurrently.
//   * unload is tombstone-only: the id is never reused, so a store can tell
//     "was unloaded" apart from "never existed" (see UnloadStatus). Results
//     cached for the model stay: the cache keys on content, not the id, so
//     a re-load of the same content re-hits them.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "api/cache.hpp"
#include "api/options.hpp"
#include "api/registry.hpp"
#include "api/responses.hpp"
#include "api/result.hpp"
#include "api/tenant.hpp"
#include "variant/model.hpp"

namespace spivar::api {

/// Outcome of ModelStore::unload / Session::unload. The store keeps a
/// tombstone per unloaded id (ids are never reused), so the three cases are
/// distinguishable forever.
enum class UnloadStatus : std::uint8_t {
  kUnloaded,         ///< a live model was unloaded by this call
  kAlreadyUnloaded,  ///< the id was loaded once and unloaded earlier
  kNeverLoaded,      ///< the store never issued this id
};

[[nodiscard]] constexpr const char* to_string(UnloadStatus status) noexcept {
  switch (status) {
    case UnloadStatus::kUnloaded: return "unloaded";
    case UnloadStatus::kAlreadyUnloaded: return "already-unloaded";
    case UnloadStatus::kNeverLoaded: return "never-loaded";
  }
  return "?";
}

/// True exactly when the call itself removed a live model.
[[nodiscard]] constexpr bool unloaded(UnloadStatus status) noexcept {
  return status == UnloadStatus::kUnloaded;
}

/// Resolved (library, problem) pair for synthesis over one model: explicit
/// request override > curated registry library > derived synthetic one.
struct SynthesisSetup {
  synth::ImplLibrary library;
  synth::SynthesisProblem problem;
  std::string library_origin;  ///< "curated", "derived", or "request"
};

/// One loaded model, immutable after load. Snapshots of this type are what
/// batch tasks capture — never a Session or the store itself.
class StoreEntry {
 public:
  /// `tenant` is the loading tenant: its content salt scopes the entry's
  /// restart-stable identity and its tag attributes the entry's cache use.
  StoreEntry(ModelId id, std::string origin, variant::VariantModel model,
             const BuiltinModel* builtin, const TenantContext& tenant = {});

  StoreEntry(const StoreEntry&) = delete;
  StoreEntry& operator=(const StoreEntry&) = delete;

  /// The handle the store issued for this entry (never reused).
  [[nodiscard]] ModelId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& origin() const noexcept { return origin_; }
  [[nodiscard]] const variant::VariantModel& model() const noexcept { return model_; }
  /// Registry entry the model was instantiated from, nullptr otherwise.
  [[nodiscard]] const BuiltinModel* builtin() const noexcept { return builtin_; }

  /// The default synthesis setup (no request overrides), memoized on first
  /// use — concurrent callers share one computation and one instance.
  [[nodiscard]] std::shared_ptr<const SynthesisSetup> default_setup() const;

  /// Canonical content fingerprint of the model
  /// (variant::content_fingerprint of its spit text), memoized on first use.
  /// Unlike the id it survives restarts. 0 for the rare model whose text
  /// cannot round-trip.
  /// A nonzero content salt (a tenant's namespace key) is mixed in, so the
  /// same model text loaded by two tenants carries two distinct restart-
  /// stable identities and their cache entries never cross;
  /// salt 0 (the default tenant) keeps the pre-tenancy fingerprint exactly.
  [[nodiscard]] std::uint64_t content_fingerprint() const;

  /// The model half of this entry's result-cache key, in both tiers: the
  /// content fingerprint, with the registry name mixed in when the builtin
  /// supplies a curated library. The synthesis setup then depends on more
  /// than the text — builtin `fig2` explores its curated library, a parsed
  /// copy of its text a derived one — so the two must never share entries.
  /// Memoized together with content_fingerprint(); 0 exactly when that is 0,
  /// and then the entry evaluates uncached.
  [[nodiscard]] std::uint64_t cache_content() const;

  /// The namespace salt this entry was loaded under (0 = unsalted).
  [[nodiscard]] std::uint64_t content_salt() const noexcept { return content_salt_; }
  /// The tag of the tenant that loaded this entry (0 = default tenant):
  /// the row its cache lookups count in and whose entry cap its results
  /// occupy.
  [[nodiscard]] std::uint32_t tenant_tag() const noexcept { return tenant_tag_; }

 private:
  ModelId id_;
  std::string origin_;
  variant::VariantModel model_;
  const BuiltinModel* builtin_ = nullptr;
  std::uint64_t content_salt_ = 0;
  std::uint32_t tenant_tag_ = 0;

  mutable std::once_flag setup_once_;
  mutable std::shared_ptr<const SynthesisSetup> setup_;

  mutable std::once_flag content_once_;
  mutable std::uint64_t content_fingerprint_ = 0;
  mutable std::uint64_t cache_content_ = 0;
};

/// Resolves the synthesis setup for `entry` under optional request
/// overrides; the no-override path returns the entry's memoized default.
[[nodiscard]] std::shared_ptr<const SynthesisSetup> resolve_setup(
    const StoreEntry& entry, const std::optional<synth::ProblemOptions>& problem,
    const std::optional<synth::ImplLibrary>& library);

/// A registry model or a .spit file: a name the registry knows (a curated
/// builtin or a `sweep/` corpus name) instantiates it with `options`,
/// anything else is read as a .spit path. Typed options need a registry
/// name; a malformed `sweep/` name reports the name grammar.
struct ModelSpec {
  std::string name;
  BuiltinOptions options{};  ///< std::monostate = the model's defaults
};

/// A model in "spit" text; a non-empty `name` overrides the parsed one.
struct ModelText {
  std::string text;
  std::string name;
};

/// A model built in code, adopted as is.
struct BuiltModel {
  variant::VariantModel model;
  std::string origin = "adopted";
};

/// Where a load takes its model from — exactly one source per load.
using LoadRequest = std::variant<ModelSpec, ModelText, BuiltModel>;

class ModelStore {
 public:
  using Snapshot = std::shared_ptr<const StoreEntry>;

  ModelStore() = default;
  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  // --- loading (thread-safe) ------------------------------------------------

  /// Loads one model from whichever source `request` names (see
  /// LoadRequest). `tenant` is the loading tenant — what a tenant's
  /// StoreView passes through so the entry's restart-stable content identity
  /// is salted for that tenant and its cache use is attributed to it. The
  /// default tenant is the unsalted, unattributed pre-tenancy identity;
  /// direct callers never need to think about it.
  Result<ModelInfo> load(LoadRequest request, const TenantContext& tenant = {});

  /// Tombstones the model: the snapshot is dropped from the table but the id
  /// stays known, so later calls can distinguish the three UnloadStatus
  /// cases. Snapshots already captured (e.g. by an in-flight batch) stay
  /// valid and immutable.
  UnloadStatus unload(ModelId id);

  // --- result caching --------------------------------------------------------

  /// Attaches a (model content, request)-keyed result cache fronting every
  /// eval path of every session on this store. Idempotent: a second call keeps
  /// the existing cache (and its statistics). Returns the active cache.
  std::shared_ptr<ResultCache> enable_cache(CacheConfig config = {});

  /// The attached cache, or nullptr when caching is off.
  [[nodiscard]] std::shared_ptr<ResultCache> cache() const;

  /// Statistics of the attached cache; nullopt when caching is off.
  [[nodiscard]] std::optional<CacheStats> cache_stats() const;

  // --- lookup ---------------------------------------------------------------

  /// The live snapshot for `id`, or nullptr when unknown or tombstoned.
  [[nodiscard]] Snapshot find(ModelId id) const;

  /// Summaries of every live (non-tombstoned) model, ascending id.
  [[nodiscard]] std::vector<ModelInfo> models() const;

  [[nodiscard]] Result<ModelInfo> info(ModelId id) const;

  /// Live models currently in the table (tombstones excluded).
  [[nodiscard]] std::size_t size() const;

 private:
  Result<ModelInfo> adopt(std::string origin, variant::VariantModel model,
                          const BuiltinModel* builtin, const TenantContext& tenant);

  mutable std::mutex mutex_;  ///< guards entries_ and cache_
  std::map<std::uint32_t, Snapshot> entries_;  ///< tombstone = null snapshot
  std::atomic<std::uint32_t> next_id_{0};
  std::shared_ptr<ResultCache> cache_;  ///< null until enable_cache
};

/// Summary of `entry` under handle `id` (shared by store and session).
[[nodiscard]] ModelInfo describe(ModelId id, const StoreEntry& entry);

}  // namespace spivar::api
