//===- persist/Cache.h - Content-addressed artifact cache ------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed cache of analysis artifacts, on disk and optionally
/// in memory. Entries are keyed by a fingerprint of (input file bytes, the
/// AnalysisConfig fields that affect the phase, format version) and stored
/// per phase — "ir", "pts", "sdg" — so a config change that only affects
/// slicing still reuses the points-to/SDG prefix.
///
/// Durability contract: the cache is strictly an accelerator. Every load
/// verifies the record header and checksum; any read error, version or
/// checksum mismatch, or structural restore failure is counted
/// (persist.corrupt), logged to stderr, the entry deleted, and the caller
/// recomputes cold. A cache failure never changes results or exit codes.
///
/// Capacity: stores go through a temp-file + rename (the temp name is
/// pid-unique, so concurrent supervised workers sharing one directory
/// never interleave writes into the same temp file), then the cache
/// LRU-evicts (by file mtime, ties broken by name) until the directory is
/// under the configured byte cap. Loads touch the entry's mtime.
///
/// Concurrent workers: eviction never removes an entry whose mtime is
/// inside the configured grace window — a recently stored or loaded
/// entry is exactly the one another process may be about to read, and a
/// fresh mtime is the only cross-process signal we have. Skipped entries
/// are counted (persist.evict_skipped) and the directory may transiently
/// exceed the cap by the skipped bytes. Stale temp files older than the
/// grace window (a crashed worker's leftovers) are swept during eviction.
///
/// Hot tier: enableHotTier() layers a byte-capped in-memory LRU of
/// verified payloads over the disk. It is probed before the disk on every
/// load (a hit skips the read and the checksum re-verify, and hands out a
/// reference to the entry's immutable bytes instead of a copy), filled on
/// every store, and promoted into on every disk hit. Keys are content
/// addresses, so the two tiers cannot disagree; the only invalidation
/// path, noteRestoreFailure(), drops both. With an empty directory the cache
/// runs from memory only — the analysis-server worker configuration when
/// no --cache-dir is given.
///
/// Counters: counters() snapshots every counter under the one lock, and
/// exportSince() writes what each gained since a snapshot under
/// persist.*: hit, miss, store, evict, evict_skipped, corrupt,
/// version_miss, touch_failed, and mem_{hit,miss,store,evict} once the
/// hot tier is on. A mem hit counts as a persist.hit too, so a window sees
/// warm loads whichever tier served them.
///
/// Thread safety: one mutex guards both tiers and every counter, so one
/// cache may be shared by several threads of an embedding process; an
/// analysis run itself calls it from its one thread.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_PERSIST_CACHE_H
#define TAJ_PERSIST_CACHE_H

#include "persist/Serialize.h"

#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace taj {

class ClassHierarchy;
class Stats;

namespace persist {

/// Immutable bytes shared between the hot tier and the payloads it hands
/// out.
using SharedBytes = std::shared_ptr<const std::vector<uint8_t>>;

/// A verified record payload returned by ArtifactCache::load: a window
/// into bytes it holds a reference to — a disk hit's whole record (the
/// header prefix skipped in place) or a hot-tier entry, shared, never
/// copied. The bytes stay readable for the payload's lifetime, whatever
/// the cache evicts or drops meanwhile.
class LoadedPayload {
public:
  /// \p Data points at the payload's first byte and shares ownership of
  /// the buffer around it.
  LoadedPayload(std::shared_ptr<const uint8_t> Data, size_t Len)
      : Data(std::move(Data)), Len(Len) {}

  const uint8_t *data() const { return Data.get(); }
  size_t size() const { return Len; }

private:
  std::shared_ptr<const uint8_t> Data;
  size_t Len;
};

/// One artifact cache: an optional disk tier rooted at a directory plus an
/// optional in-memory hot tier, behind one lock.
class ArtifactCache {
public:
  /// Every counter the cache keeps, as one value: take a snapshot before
  /// a window and hand it to exportSince() after.
  struct Counters {
    uint64_t Hits = 0, Misses = 0, Stores = 0, Evictions = 0;
    /// Entries an eviction pass spared because they were inside the grace
    /// window.
    uint64_t EvictSkipped = 0;
    uint64_t Corrupt = 0;
    /// Well-formed entries from another format generation: counted as a
    /// clean miss (plus this), never as corruption.
    uint64_t VersionMiss = 0;
    /// Hits whose LRU mtime refresh failed (e.g. a read-only cache dir):
    /// the payload is still served, but eviction order is rotting.
    uint64_t TouchFailed = 0;
    /// Hot tier: probes served, probes missed, payloads admitted and
    /// payloads evicted by the byte cap.
    uint64_t MemHits = 0, MemMisses = 0, MemStores = 0, MemEvictions = 0;
  };

  /// Opens (creating if needed) the cache at \p Dir. \p MaxBytes caps the
  /// total size of stored entries (0 = uncapped). \p EvictGraceMs is the
  /// concurrent-reader grace window: eviction skips entries touched more
  /// recently than this (0 = none; supervised batch workers default it
  /// on). If the directory cannot be created the disk tier is disabled:
  /// loads miss, stores are dropped. An empty \p Dir silently disables the
  /// disk tier (memory-only operation once the hot tier is on).
  explicit ArtifactCache(std::string Dir, uint64_t MaxBytes = 0,
                         uint64_t EvictGraceMs = 0);

  /// Turns the hot tier on, capped at \p MaxBytes of summed payloads
  /// (0 = uncapped). An entry larger than the cap is never admitted.
  void enableHotTier(uint64_t MaxBytes);

  /// True when any tier can serve loads (disk usable or hot tier on).
  bool enabled() const { return Enabled || HotOn; }

  /// Composes the content address for one phase entry:
  /// "<phase>-<hex16(fnv(input fp | config fp | format version))>".
  static std::string makeKey(const char *Phase, const std::string &InputFp,
                             const std::string &ConfigFp);

  /// Loads the record payload stored under \p Key: from the hot tier
  /// as-is, or from disk after verifying the record header (magic,
  /// version, kind, size, checksum). A disk hit is one open, fstat and
  /// read into a buffer that is not zero-filled first. Returns nullopt on
  /// miss or on any read or verification failure (counted, logged, entry
  /// deleted). A hit refreshes the entry's LRU position.
  std::optional<LoadedPayload> load(const std::string &Key, ArtifactKind Kind);

  /// Stores \p Payload under \p Key: into the hot tier, and on disk via an
  /// atomic temp-file + rename followed by LRU eviction down to the cap.
  void store(const std::string &Key, ArtifactKind Kind,
             const std::vector<uint8_t> &Payload);

  /// Reports that a payload passed record verification but failed
  /// structural restoration: counted as corrupt, logged, and the key
  /// dropped from both tiers.
  void noteRestoreFailure(const std::string &Key);

  /// A snapshot of every counter.
  Counters counters() const;

  /// Adds what each counter gained since \p Since to \p S under its
  /// persist.* name; the persist.mem_* rows only when the hot tier is on.
  void exportSince(const Counters &Since, Stats &S) const;

private:
  struct HotEntry {
    std::string Key;
    SharedBytes Payload;
  };

  std::string pathFor(const std::string &Key) const;
  /// Admits (or refreshes) \p Key -> the \p Len bytes at \p Data into the
  /// hot tier, then evicts its LRU tail down to the cap. False when the
  /// entry alone exceeds the cap. Caller holds Mu.
  bool hotPut(const std::string &Key, const uint8_t *Data, size_t Len);
  /// Evicts least-recently-used disk entries down to the byte cap. Caller
  /// holds Mu.
  void evictToCap();

  std::string Dir;
  uint64_t MaxBytes;
  uint64_t EvictGraceMs;
  bool Enabled = false;
  /// Guards both tiers and every member below.
  mutable std::mutex Mu;
  bool HotOn = false;
  uint64_t HotMaxBytes = 0;
  uint64_t HotBytes = 0;
  std::list<HotEntry> HotLru; ///< front = most recently used
  std::unordered_map<std::string, std::list<HotEntry>::iterator> HotIndex;
  Counters N;
};

/// The SDG phase bundle a slicer needs: the graph and (unless the CS
/// channel budget tripped) the materialized heap edges.
struct SdgArtifacts {
  std::unique_ptr<SDG> G;
  std::unique_ptr<HeapEdges> HE;
  bool FromCache = false;
};

/// Phase-boundary load-or-compute hook shared by the three slicers: when
/// \p Cache holds a valid entry for \p Key, restores the SDG + heap edges;
/// otherwise builds them cold (byte-identical to the uncached path) and —
/// if the build completed without a governance stop — stores the result.
/// HE is null exactly when the CS channel budget was exceeded.
SdgArtifacts loadOrBuildSdg(const Program &P, const ClassHierarchy &CHA,
                            const PointsToSolver &Solver, const SDGOptions &SO,
                            uint32_t NestedDepth, ArtifactCache *Cache,
                            const std::string &Key);

} // namespace persist
} // namespace taj

#endif // TAJ_PERSIST_CACHE_H
