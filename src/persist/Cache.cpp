//===- persist/Cache.cpp - Content-addressed artifact cache ----*- C++ -*-===//

#include "persist/Cache.h"

#include "support/RunGuard.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace taj;
using namespace taj::persist;

namespace fs = std::filesystem;

namespace {

constexpr const char *EntrySuffix = ".tajc";

void diag(const std::string &What, const std::string &Why) {
  std::fprintf(stderr, "taj-persist: %s: %s; recomputing cold\n", What.c_str(),
               Why.c_str());
}

/// Reads the rest of \p Fd into the \p Len bytes at \p Buf, retrying
/// reads a signal interrupts. False on a read error or when the file ends
/// early (truncated since its size was taken).
bool readFully(int Fd, uint8_t *Buf, size_t Len) {
  size_t Got = 0;
  while (Got < Len) {
    const ssize_t N = ::read(Fd, Buf + Got, Len - Got);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Got += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

ArtifactCache::ArtifactCache(std::string Dir, uint64_t MaxBytes,
                             uint64_t EvictGraceMs)
    : Dir(std::move(Dir)), MaxBytes(MaxBytes), EvictGraceMs(EvictGraceMs) {
  if (this->Dir.empty())
    return; // memory-only operation: no disk tier, and no diagnostic
  std::error_code Ec;
  fs::create_directories(this->Dir, Ec);
  Enabled = !Ec && fs::is_directory(this->Dir, Ec) && !Ec;
  if (!Enabled)
    diag("cache directory '" + this->Dir + "'",
         Ec ? Ec.message() : "not a directory");
}

void ArtifactCache::enableHotTier(uint64_t MaxBytes) {
  std::lock_guard<std::mutex> Lock(Mu);
  HotOn = true;
  HotMaxBytes = MaxBytes;
}

std::string ArtifactCache::makeKey(const char *Phase,
                                   const std::string &InputFp,
                                   const std::string &ConfigFp) {
  uint64_t H = fnv1a(InputFp.data(), InputFp.size());
  H = fnv1a("|", 1, H);
  H = fnv1a(ConfigFp.data(), ConfigFp.size(), H);
  H = fnv1a("|", 1, H);
  uint32_t V = FormatVersion;
  H = fnv1a(&V, sizeof(V), H);
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(H));
  return std::string(Phase) + "-" + Hex;
}

std::string ArtifactCache::pathFor(const std::string &Key) const {
  return Dir + "/" + Key + EntrySuffix;
}

std::optional<LoadedPayload> ArtifactCache::load(const std::string &Key,
                                                 ArtifactKind Kind) {
  trace::Span TS("cache-load: ", Key, "persist");
  std::lock_guard<std::mutex> Lock(Mu);
  // Hot tier first: the payload was verified when it entered the tier, so
  // a hit skips the disk read and the checksum re-verify entirely.
  if (HotOn) {
    auto It = HotIndex.find(Key);
    if (It != HotIndex.end()) {
      HotLru.splice(HotLru.begin(), HotLru, It->second);
      ++N.MemHits;
      ++N.Hits;
      if (trace::enabled())
        trace::addInstant("cache-hit(mem): " + Key, "persist");
      const SharedBytes &Bytes = It->second->Payload;
      return LoadedPayload(std::shared_ptr<const uint8_t>(Bytes, Bytes->data()),
                           Bytes->size());
    }
    ++N.MemMisses;
  }
  if (!Enabled) {
    ++N.Misses;
    return std::nullopt;
  }
  const std::string Path = pathFor(Key);
  // The record is read straight into a buffer left uninitialized: every
  // byte is overwritten by the read, and a short read fails the load.
  std::shared_ptr<uint8_t[]> Record;
  size_t RecordLen = 0;
  {
    trace::Span RS("cache-read", "persist");
    const int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    if (Fd < 0) {
      ++N.Misses;
      if (trace::enabled())
        trace::addInstant("cache-miss: " + Key, "persist");
      return std::nullopt;
    }
    struct stat Info = {};
    bool Read = ::fstat(Fd, &Info) == 0 && Info.st_size >= 0;
    if (Read) {
      RecordLen = static_cast<size_t>(Info.st_size);
      Record = std::make_shared_for_overwrite<uint8_t[]>(RecordLen);
      Read = readFully(Fd, Record.get(), RecordLen);
    }
    ::close(Fd);
    if (!Read) {
      ++N.Corrupt;
      diag("cache entry " + Key, "read failed");
      std::error_code Ec;
      fs::remove(Path, Ec);
      return std::nullopt;
    }
  }
  const uint8_t *Payload = nullptr;
  size_t PayloadLen = 0;
  std::string Err;
  UnwrapStatus St;
  {
    trace::Span VS("cache-verify", "persist");
    St = unwrapRecord(Record.get(), RecordLen, Kind, Payload, PayloadLen, Err);
  }
  switch (St) {
  case UnwrapStatus::Ok:
    break;
  case UnwrapStatus::VersionMismatch:
    // A well-formed record from another format generation (e.g. a cache
    // dir shared across binary versions): a clean miss, not corruption.
    // The stale entry is removed so the slot is rebuilt at this version.
    ++N.VersionMiss;
    ++N.Misses;
    diag("cache entry " + Key, Err);
    {
      std::error_code Ec;
      fs::remove(Path, Ec);
    }
    return std::nullopt;
  case UnwrapStatus::Corrupt:
    ++N.Corrupt;
    diag("cache entry " + Key, Err);
    {
      std::error_code Ec;
      fs::remove(Path, Ec);
    }
    return std::nullopt;
  }
  ++N.Hits;
  if (trace::enabled())
    trace::addInstant("cache-hit: " + Key, "persist");
  // Promote into the hot tier: the next load of this key (this process's
  // next request over the same app) is served from memory.
  if (HotOn)
    hotPut(Key, Payload, PayloadLen);
  // Refresh the LRU position so a warm working set survives eviction.
  std::error_code Ec;
  fs::last_write_time(Path, fs::file_time_type::clock::now(), Ec);
  if (Ec) {
    // E.g. a read-only cache dir: the payload is still good (the hit
    // stands), but eviction order is rotting — surface it instead of
    // ignoring the error.
    ++N.TouchFailed;
    std::fprintf(stderr,
                 "taj-persist: cache entry %s: LRU touch failed: %s\n",
                 Key.c_str(), Ec.message().c_str());
  }
  return LoadedPayload(std::shared_ptr<const uint8_t>(Record, Payload),
                       PayloadLen);
}

void ArtifactCache::store(const std::string &Key, ArtifactKind Kind,
                          const std::vector<uint8_t> &Payload) {
  trace::Span TS("cache-store: ", Key, "persist");
  std::lock_guard<std::mutex> Lock(Mu);
  // The hot tier takes the raw payload (it never re-verifies); the disk
  // gets the wrapped, checksummed record.
  const bool Admitted = HotOn && hotPut(Key, Payload.data(), Payload.size());
  if (!Enabled) {
    if (Admitted)
      ++N.Stores; // memory-only operation: the store happened in memory
    return;
  }
  std::vector<uint8_t> Record = wrapRecord(Kind, Payload);
  const std::string Path = pathFor(Key);
  // Pid-unique temp name: concurrent supervised workers may store the
  // same key into a shared directory, and two writers interleaving into
  // one ".tmp" file would rename a corrupt record into place.
  const std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out ||
        !Out.write(reinterpret_cast<const char *>(Record.data()),
                   static_cast<std::streamsize>(Record.size()))) {
      diag("cache store " + Key, "write failed");
      std::error_code Ec;
      fs::remove(Tmp, Ec);
      return;
    }
  }
  std::error_code Ec;
  fs::rename(Tmp, Path, Ec);
  if (Ec) {
    diag("cache store " + Key, Ec.message());
    fs::remove(Tmp, Ec);
    return;
  }
  ++N.Stores;
  evictToCap();
}

void ArtifactCache::noteRestoreFailure(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++N.Corrupt;
  diag("cache entry " + Key, "structural restore failed");
  // Both tiers drop the key together.
  auto It = HotIndex.find(Key);
  if (It != HotIndex.end()) {
    HotBytes -= It->second->Payload->size();
    HotLru.erase(It->second);
    HotIndex.erase(It);
  }
  if (Enabled) {
    std::error_code Ec;
    fs::remove(pathFor(Key), Ec);
  }
}

void ArtifactCache::evictToCap() {
  if (MaxBytes == 0)
    return;
  struct Entry {
    fs::path Path;
    uint64_t Size;
    fs::file_time_type MTime;
  };
  const fs::file_time_type Now = fs::file_time_type::clock::now();
  const fs::file_time_type GraceEdge =
      Now - std::chrono::milliseconds(EvictGraceMs);
  std::vector<Entry> Entries;
  uint64_t Total = 0;
  std::error_code Ec;
  for (const auto &DE : fs::directory_iterator(Dir, Ec)) {
    if (Ec)
      break;
    const fs::path &P = DE.path();
    if (P.extension() != EntrySuffix) {
      // Sweep a crashed worker's abandoned temp files ("<key>.tajc.tmp.
      // <pid>") once they are older than the grace window; a younger temp
      // may still be mid-write by a live process.
      if (EvictGraceMs != 0 &&
          P.filename().native().find(".tajc.tmp.") != std::string::npos) {
        std::error_code E2;
        fs::file_time_type MT = fs::last_write_time(P, E2);
        if (!E2 && MT < GraceEdge)
          fs::remove(P, E2);
      }
      continue;
    }
    std::error_code E2;
    uint64_t Size = fs::file_size(P, E2);
    if (E2)
      continue;
    fs::file_time_type MT = fs::last_write_time(P, E2);
    if (E2)
      continue;
    Entries.push_back({P, Size, MT});
    Total += Size;
  }
  if (Total <= MaxBytes)
    return;
  // Oldest first; ties (coarse mtime clocks) broken by name so eviction
  // order is deterministic.
  std::sort(Entries.begin(), Entries.end(), [](const Entry &A, const Entry &B) {
    if (A.MTime != B.MTime)
      return A.MTime < B.MTime;
    return A.Path.native() < B.Path.native();
  });
  for (const Entry &E : Entries) {
    if (Total <= MaxBytes)
      break;
    if (EvictGraceMs != 0 && E.MTime >= GraceEdge) {
      // Recently stored or loaded: a concurrent worker may be mid-read.
      // Entries are sorted oldest-first, so everything from here on is
      // younger and equally protected.
      N.EvictSkipped += static_cast<uint64_t>(&Entries.back() - &E) + 1;
      break;
    }
    std::error_code E2;
    if (fs::remove(E.Path, E2) && !E2) {
      Total -= E.Size;
      ++N.Evictions;
    }
  }
}

bool ArtifactCache::hotPut(const std::string &Key, const uint8_t *Data,
                           size_t Len) {
  if (HotMaxBytes != 0 && Len > HotMaxBytes)
    return false; // would evict the whole tier for one entry
  // Each admission gets fresh immutable bytes: payloads handed out for the
  // old bytes keep them alive and unchanged.
  auto Bytes = std::make_shared<const std::vector<uint8_t>>(Data, Data + Len);
  auto It = HotIndex.find(Key);
  if (It != HotIndex.end()) {
    HotBytes -= It->second->Payload->size();
    It->second->Payload = std::move(Bytes);
    HotLru.splice(HotLru.begin(), HotLru, It->second);
  } else {
    HotLru.push_front(HotEntry{Key, std::move(Bytes)});
    HotIndex.emplace(Key, HotLru.begin());
  }
  HotBytes += Len;
  ++N.MemStores;
  while (HotMaxBytes != 0 && HotBytes > HotMaxBytes) {
    HotEntry &Victim = HotLru.back();
    HotBytes -= Victim.Payload->size();
    HotIndex.erase(Victim.Key);
    HotLru.pop_back();
    ++N.MemEvictions;
  }
  return true;
}

ArtifactCache::Counters ArtifactCache::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return N;
}

void ArtifactCache::exportSince(const Counters &Since, Stats &S) const {
  struct Row {
    const char *Name;
    uint64_t Counters::*Field;
  };
  static constexpr Row DiskRows[] = {
      {"persist.hit", &Counters::Hits},
      {"persist.miss", &Counters::Misses},
      {"persist.store", &Counters::Stores},
      {"persist.evict", &Counters::Evictions},
      {"persist.evict_skipped", &Counters::EvictSkipped},
      {"persist.corrupt", &Counters::Corrupt},
      {"persist.version_miss", &Counters::VersionMiss},
      {"persist.touch_failed", &Counters::TouchFailed},
  };
  static constexpr Row HotRows[] = {
      {"persist.mem_hit", &Counters::MemHits},
      {"persist.mem_miss", &Counters::MemMisses},
      {"persist.mem_store", &Counters::MemStores},
      {"persist.mem_evict", &Counters::MemEvictions},
  };
  std::unique_lock<std::mutex> Lock(Mu);
  const bool WithHot = HotOn;
  const Counters Now = N;
  Lock.unlock();
  auto Write = [&](const auto &Rows) {
    for (const Row &R : Rows)
      S.add(R.Name, Now.*R.Field - Since.*R.Field);
  };
  Write(DiskRows);
  if (WithHot)
    Write(HotRows);
}

//===----------------------------------------------------------------------===//
// Phase-boundary hook: SDG + heap edges
//===----------------------------------------------------------------------===//

SdgArtifacts persist::loadOrBuildSdg(const Program &P,
                                     const ClassHierarchy &CHA,
                                     const PointsToSolver &Solver,
                                     const SDGOptions &SO, uint32_t NestedDepth,
                                     ArtifactCache *Cache,
                                     const std::string &Key) {
  SdgArtifacts A;
  RunGuard *Guard = SO.Guard;
  const bool UseCache = Cache && Cache->enabled() && !Key.empty();

  if (UseCache) {
    PhaseScope PS(SO.Profile, "persist_load");
    if (std::optional<LoadedPayload> Payload =
            Cache->load(Key, ArtifactKind::Sdg)) {
      Reader R(Payload->data(), Payload->size());
      bool Restored;
      {
        trace::Span RS("restore: sdg", "persist");
        Restored = Access::restoreSdg(A.G, A.HE, P, Solver, SO, R);
      }
      if (Restored) {
        A.FromCache = true;
        return A;
      }
      Cache->noteRestoreFailure(Key);
    }
  }

  // Cold path: exactly the construction sequence the slicers always ran.
  A.G = std::make_unique<SDG>(P, CHA, Solver, SO);
  if (!A.G->chanBudgetExceeded())
    A.HE = std::make_unique<HeapEdges>(P, *A.G, Solver, NestedDepth, Guard);

  // Store only artifacts from clean builds: a governance stop (deadline,
  // memory, fault injection) truncates nondeterministically, and a CS
  // channel-budget overflow changes the degraded-run banner's work counts,
  // so neither may be replayed from cache.
  if (UseCache && (!Guard || !Guard->stopped()) && !A.G->chanBudgetExceeded()) {
    PhaseScope PS(SO.Profile, "persist_store");
    Writer W;
    Access::serializeSdg(*A.G, A.HE.get(), W);
    Cache->store(Key, ArtifactKind::Sdg, W.bytes());
  }
  return A;
}
