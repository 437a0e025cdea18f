// persist::DiskTier — the durable second tier behind api::ResultCache.
//
// Stores serialized Result<AnyResponse> wire frames (the PR 5 codec
// round-trips every response bit-identically, so the disk format is the wire
// format plus a small versioned header) keyed by (content fingerprint,
// request kind, request fingerprint). Because the key is *content*-derived,
// a restarted server that loads the same models re-hits entries written by
// an earlier life of the process despite fresh store ids.
//
// On-disk layout: one file per entry under the configured directory,
//
//   e<content:16hex>-<kind:2hex>-<fingerprint:16hex>.spr
//
//   spivar-disk v1
//   key <content:16hex> <kind> <fingerprint:16hex>
//   kind simulate                (informational; the key line is canonical)
//   cost-us 1234
//   payload-bytes 187
//   payload-crc32 9a0b1c2d
//   end
//   <payload-bytes bytes of wire-encoded response frame>
//
// Robustness contract (the subsystem's, not an afterthought): the header is
// versioned; the payload carries a CRC-32; a truncated, bit-rotted,
// wrong-version or wrong-fingerprint entry is *skipped with a diagnostic and
// deleted* (compacted away) — the lookup falls through to live evaluation
// and the poisoned bytes can never surface as a result. Writes go to a temp
// file and rename into place, so a concurrent reader (or a killed process)
// never observes a half-written entry under a final name.
//
// Concurrency: every method is safe from any thread (one internal mutex —
// the disk tier is the slow path behind the sharded in-memory tier, so
// serializing its I/O is deliberate). Entries are LRU-ordered in memory
// (seeded from file mtimes at startup); eviction is *cost-weighted* the way
// the memory tier's is: among the last kEvictionWindow entries of the LRU
// list, the one whose recorded cost-us is lowest goes first — a cheap
// result the server can recompute in microseconds should never outlive an
// expensive sweep just because it was touched more recently. Entries
// indexed at startup keep their stored cost-us (a bounded header read), so
// eviction weights survive a restart; only files whose header won't parse
// scan as cost 0 and stay the preferred victims.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "persist/persist.hpp"

namespace spivar::persist {

/// One loaded entry: the wire-encoded response frame plus the evaluation
/// cost the in-memory tier charged it (so cost-aware eviction and the
/// saved-cost accounting survive a restart).
struct DiskEntry {
  std::string frame;
  std::uint64_t cost_us = 0;
};

class DiskTier {
 public:
  /// Creates the directory if missing and indexes every `.spr` entry in it
  /// (LRU order seeded from file mtimes). Files with malformed names are
  /// compacted away with a diagnostic; file *contents* are validated lazily
  /// on load. A directory that cannot be created or read leaves the tier
  /// not ready(): every operation degrades to a no-op miss.
  explicit DiskTier(PersistConfig config, DiagnosticSink sink = {});

  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  /// True when the directory is usable; a failed setup is reported through
  /// the sink once and the tier then behaves as permanently empty.
  [[nodiscard]] bool ready() const;

  [[nodiscard]] const std::string& dir() const noexcept { return config_.dir; }

  /// The entry stored under `key`, validated end to end (version, key
  /// echo, payload length, CRC). Validation failures are skipped: one
  /// diagnostic, the file is deleted, and nullopt falls through to live
  /// evaluation. `kind_name` is what the diagnostic calls the kind.
  [[nodiscard]] std::optional<DiskEntry> load(const DiskKey& key, std::string_view kind_name);

  /// Index-only presence probe (no I/O, no stat counters) — what
  /// spill-on-evict uses to skip entries already on disk.
  [[nodiscard]] bool contains(const DiskKey& key) const;

  /// Writes (or replaces) the entry under `key`: temp file + rename, fsync
  /// per FsyncPolicy, then LRU eviction until capacity_bytes holds. An
  /// entry larger than the whole capacity is refused with a diagnostic.
  void store(const DiskKey& key, std::string_view kind_name, std::string_view frame,
             std::uint64_t cost_us);

  /// Deletes the entry under `key` (the caller-side compaction hook for
  /// frames that fail to decode above this layer). Counted as skipped.
  void remove(const DiskKey& key, std::string_view reason);

  /// Flushes directory metadata to stable storage (entry data durability is
  /// governed per write by FsyncPolicy).
  void flush();

  /// Deletes every indexed entry file.
  void clear();

  [[nodiscard]] DiskStats stats() const;

 private:
  struct IndexEntry {
    std::uint64_t bytes = 0;
    std::uint64_t cost_us = 0;  ///< recorded eval cost; 0 = unknown (startup scan)
    std::list<DiskKey>::iterator lru;  ///< position in lru_ (front = MRU)
  };

  [[nodiscard]] std::string path_of(const DiskKey& key) const;
  void diagnose(const std::string& message) const;
  /// Removes `key` from index and disk. Lock held by caller. By value on
  /// purpose: eviction passes `lru_.back()`, which this method erases.
  void drop_locked(DiskKey key, std::uint64_t* counter);
  /// Evicts until `bytes_ <= capacity`: each round drops the cheapest
  /// (lowest cost-us) of the last kEvictionWindow LRU entries, oldest
  /// winning ties. Lock held by caller.
  void evict_to_fit_locked();

  PersistConfig config_;
  DiagnosticSink sink_;
  bool ready_ = false;

  mutable std::mutex mutex_;
  std::unordered_map<DiskKey, IndexEntry, DiskKeyHash> index_;
  std::list<DiskKey> lru_;  ///< front = most recently used
  std::uint64_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace spivar::persist
