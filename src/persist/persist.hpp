// persist — configuration and key/stat types of the on-disk cache tier.
//
// This header is deliberately light (no api/ or filesystem dependencies):
// api::CacheConfig embeds a PersistConfig, so everything the cache layer
// needs to *describe* a disk tier lives here, while the tier itself (file
// format, index, compaction) lives in disk_tier.{hpp,cpp}.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace spivar::persist {

/// How an on-disk cache tier is provisioned. Passed through
/// api::CacheConfig::persist into ModelStore::enable_cache.
struct PersistConfig {
  /// Directory holding the entry files; created if missing. One live
  /// process per directory — the tier indexes the directory at startup and
  /// assumes it owns it from then on.
  std::string dir;

  /// Total bytes of entry files kept on disk; least-recently-used entries
  /// are deleted to make room. 0 is clamped to one entry.
  std::uint64_t capacity_bytes = 256ull << 20;  // 256 MiB

  /// Durability of each entry write. kNever leaves flushing to the OS (a
  /// crashed *process* loses nothing — entries are written through on
  /// insert — but a crashed machine may); kAlways fsyncs the entry file
  /// and its directory per store.
  enum class FsyncPolicy : std::uint8_t { kNever, kAlways };
  FsyncPolicy fsync_policy = FsyncPolicy::kNever;
};

/// Key of one cached result, in memory and on disk (api::ResultCache::Key
/// is this type). `content` is the model's restart-stable content identity
/// (api::StoreEntry::cache_content) — *not* a store id — so a restarted
/// process with fresh ids re-derives the same keys for the same models.
/// `kind` is the numeric api::RequestKind, `fingerprint` the canonical
/// request digest.
struct DiskKey {
  std::uint64_t content = 0;
  std::uint8_t kind = 0;
  std::uint64_t fingerprint = 0;

  friend bool operator==(const DiskKey&, const DiskKey&) noexcept = default;
};

/// Hash of a DiskKey, for the in-memory indexes of both cache tiers.
struct DiskKeyHash {
  std::size_t operator()(const DiskKey& key) const noexcept;
};

/// Monotonic counters plus the current fill of one disk tier.
struct DiskStats {
  std::uint64_t hits = 0;       ///< probes served from disk
  std::uint64_t misses = 0;     ///< probes with no entry on disk
  std::uint64_t stores = 0;     ///< entries written (spills)
  std::uint64_t skipped = 0;    ///< corrupt/stale entries skipped + compacted
  std::uint64_t evictions = 0;  ///< entries deleted to respect capacity_bytes
  std::size_t entries = 0;      ///< entry files currently indexed
  std::uint64_t bytes = 0;      ///< bytes those files occupy
  std::uint64_t capacity_bytes = 0;
};

/// Where the tier reports skipped entries and I/O trouble (one line per
/// event, no trailing newline). Defaults to stderr with a "spivar-persist:"
/// prefix; tests inject a capturing sink.
using DiagnosticSink = std::function<void(const std::string&)>;

}  // namespace spivar::persist
