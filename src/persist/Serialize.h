//===- persist/Serialize.h - Versioned binary artifact encoding -*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization of the expensive analysis artifacts — the
/// post-verify `Program`, the pointer-analysis phase (the string-pool
/// symbols it interned, the string-constant facts, its work units, and
/// the points-to solution: contexts, instance and pointer keys, call
/// graph, points-to sets, intrinsic targets) and the SDG +
/// heap-edge bundle — so a later run can warm-start from a
/// content-addressed on-disk cache (persist/Cache.h) instead of
/// recomputing them.
///
/// Encoding rules:
///  - every scalar is written little-endian, explicitly byte by byte, so
///    artifacts are portable across hosts of either endianness;
///  - every record starts with a fixed header: magic "TAJP", the format
///    version, the artifact kind, the payload size and a checksum of the
///    payload (recordChecksum()). unwrapRecord() verifies all of them
///    before a single payload byte is interpreted;
///  - the Reader is bounds-checked with a sticky failure flag, and every
///    vector count is validated against the remaining payload before
///    allocation, so truncated or bit-flipped records fail cleanly instead
///    of crashing or over-allocating.
///
/// Restoration never trusts partial bytes: each restore*() returns false
/// on any structural inconsistency (id mismatches, out-of-range enum
/// values, dangling indices), and callers fall back to cold computation.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_PERSIST_SERIALIZE_H
#define TAJ_PERSIST_SERIALIZE_H

#include "sdg/SDG.h"
#include "slicer/HeapEdges.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace taj {
namespace persist {

/// Artifact format version; bump on any encoding change so stale cache
/// entries are rejected (and recomputed) instead of misread.
/// v2: points-to sets are stored as sparse-bitmap chunks plus the cycle
/// collapse representative column (was: one sorted u32 vector per key).
/// v3: the representative column is gone; every key stores its own set.
/// v4: a points-to record opens with the rest of its pointer-analysis
/// phase: the string-pool symbols the phase interned, the string-constant
/// facts and the phase's guard work units.
/// v5: the points-to record stores its tables as columns — contexts,
/// instance keys, pointer keys, call-graph nodes and edges, the per-site
/// callee CSR — and the solved sets as the solver's frozen CSR column
/// (chunk offsets, word indices, words), so a restore is bulk copies plus
/// one validation sweep per column.
/// v6: the sdg record stores the graph's columns as they are — CSR edges,
/// call sites with their actual-in ranges, the CS channel plumbing and the
/// per-owner channel signatures as CSRs, and the heap adjacency as two
/// CSRs over the store list — so its restore is bulk copies too.
/// v7: the points-to record holds only what a solved solver's readers
/// use: the call graph's in-edges and the model channels are gone, and the
/// intrinsic call targets are one (site, callee) column pair sorted by
/// site.
/// v8: the header's checksum is recordChecksum(), four xxHash64-style
/// lanes over 32-byte stripes (was: FNV-1a over single words, which a pair
/// of flipped word-top bits left unchanged); every payload is as in v7.
inline constexpr uint32_t FormatVersion = 8;

/// Record magic: "TAJP" little-endian.
inline constexpr uint32_t RecordMagic = 0x504a4154u;

/// What a record contains (part of the header; mismatches are rejected).
enum class ArtifactKind : uint32_t {
  Ir = 1,       ///< Post-parse, post-verify Program.
  PointsTo = 2, ///< Pointer-analysis phase: string facts + solution.
  Sdg = 3,      ///< SDG + heap-edge bundle for one slicer shape.
};

/// FNV-1a over \p N bytes (cache-key fingerprinting; chainable via Seed).
uint64_t fnv1a(const void *Data, size_t N,
               uint64_t Seed = 0xcbf29ce484222325ull);

/// The record content checksum: four independent 64-bit lanes, each
/// folding one little-endian word of every 32-byte stripe with xxHash64's
/// round, merged by rotate-and-add, then the length, the trailing words
/// and bytes, and xxHash64's final avalanche. Every step is a bijection in
/// the running state, so any change confined to one word is caught; the
/// lanes keep verification near memory speed on the warm-load path. The
/// digest is fixed by this definition and part of the on-disk format.
uint64_t recordChecksum(const void *Data, size_t N);

/// Little-endian append-only byte sink.
class Writer {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int K = 0; K < 4; ++K)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * K)));
  }
  void u64(uint64_t V) {
    for (int K = 0; K < 8; ++K)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * K)));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  /// Appends \p N 32-bit words, little-endian. On little-endian hosts this
  /// is one bulk byte copy — the big vectors (points-to sets, edge lists)
  /// dominate artifact size, so the per-word loop would be the hot spot.
  void u32Array(const uint32_t *V, size_t N) {
    if constexpr (std::endian::native == std::endian::little) {
      const uint8_t *B = reinterpret_cast<const uint8_t *>(V);
      Buf.insert(Buf.end(), B, B + N * 4);
    } else {
      for (size_t K = 0; K < N; ++K)
        u32(V[K]);
    }
  }
  /// Appends \p N raw bytes.
  void raw(const uint8_t *V, size_t N) { Buf.insert(Buf.end(), V, V + N); }
  /// Appends \p N 64-bit words, little-endian (bulk copy where possible).
  void u64Array(const uint64_t *V, size_t N) {
    if constexpr (std::endian::native == std::endian::little) {
      const uint8_t *B = reinterpret_cast<const uint8_t *>(V);
      Buf.insert(Buf.end(), B, B + N * 8);
    } else {
      for (size_t K = 0; K < N; ++K)
        u64(V[K]);
    }
  }
  const std::vector<uint8_t> &bytes() const { return Buf; }
  /// Hands the written bytes over, leaving the writer empty.
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  std::vector<uint8_t> Buf;
};

/// Little-endian bounds-checked byte source. Any out-of-range read sets a
/// sticky failure flag and yields zeros; callers check failed() (or the
/// per-step helpers' returns) before trusting anything.
class Reader {
public:
  Reader(const uint8_t *Data, size_t N) : D(Data), N(N) {}

  bool failed() const { return Fail; }
  bool atEnd() const { return Fail || Pos == N; }
  size_t remaining() const { return N - Pos; }
  void fail() { Fail = true; }

  uint8_t u8() {
    if (!take(1))
      return 0;
    return D[Pos++];
  }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int K = 0; K < 4; ++K)
      V |= static_cast<uint32_t>(D[Pos++]) << (8 * K);
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int K = 0; K < 8; ++K)
      V |= static_cast<uint64_t>(D[Pos++]) << (8 * K);
    return V;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string str() {
    uint32_t Len = u32();
    if (!take(Len))
      return {};
    std::string S(reinterpret_cast<const char *>(D + Pos), Len);
    Pos += Len;
    return S;
  }

  /// Claims the next \p Bytes bytes as one bounds-checked block and returns
  /// a pointer to them in place, or null (and fails) on overrun.
  const uint8_t *block(size_t Bytes) {
    if (!take(Bytes))
      return nullptr;
    const uint8_t *B = D + Pos;
    Pos += Bytes;
    return B;
  }

  /// Reads \p N 32-bit little-endian words into \p V (bounds-checked as
  /// one block; bulk byte copy on little-endian hosts).
  bool u32Array(uint32_t *V, size_t N) {
    if (N == 0)
      return true; // V may be a null empty-vector data() pointer
    if (!take(N * 4))
      return false;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(V, D + Pos, N * 4);
      Pos += N * 4;
    } else {
      for (size_t K = 0; K < N; ++K)
        V[K] = u32();
    }
    return true;
  }
  /// Reads \p N raw bytes into \p V (bounds-checked as one block).
  bool raw(uint8_t *V, size_t N) {
    if (N == 0)
      return true; // V may be a null empty-vector data() pointer
    if (!take(N))
      return false;
    std::memcpy(V, D + Pos, N);
    Pos += N;
    return true;
  }
  /// Reads \p N 64-bit little-endian words into \p V.
  bool u64Array(uint64_t *V, size_t N) {
    if (N == 0)
      return true; // V may be a null empty-vector data() pointer
    if (!take(N * 8))
      return false;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(V, D + Pos, N * 8);
      Pos += N * 8;
    } else {
      for (size_t K = 0; K < N; ++K)
        V[K] = u64();
    }
    return true;
  }

  /// Reads a vector length and validates it against the remaining bytes
  /// (each element needs at least \p MinElemBytes), so corrupt counts
  /// cannot trigger huge allocations.
  uint32_t count(size_t MinElemBytes) {
    uint64_t C = u32();
    if (Fail)
      return 0;
    if (MinElemBytes != 0 && C * MinElemBytes > remaining()) {
      Fail = true;
      return 0;
    }
    return static_cast<uint32_t>(C);
  }

private:
  bool take(size_t K) {
    if (Fail || N - Pos < K) {
      Fail = true;
      return false;
    }
    return true;
  }

  const uint8_t *D;
  size_t N;
  size_t Pos = 0;
  bool Fail = false;
};

/// Frames \p Payload as a record: header (magic, version, kind, payload
/// size, recordChecksum()) followed by the payload bytes.
std::vector<uint8_t> wrapRecord(ArtifactKind Kind,
                                const std::vector<uint8_t> &Payload);

/// Outcome of header validation: a version mismatch is an expected event
/// after a format bump (the cache treats it as a clean miss), everything
/// else that fails is corruption.
enum class UnwrapStatus {
  Ok,
  VersionMismatch,
  Corrupt,
};

/// Validates the header of the \p Len-byte record at \p Record and
/// locates the payload inside it. On any mismatch (magic, version, kind,
/// size, checksum) returns the failure class with a human-readable reason
/// in \p Err; no payload byte is interpreted before every check passes.
UnwrapStatus unwrapRecord(const uint8_t *Record, size_t Len,
                          ArtifactKind Expect, const uint8_t *&Payload,
                          size_t &PayloadLen, std::string &Err);

/// Serialization/restoration entry points. A single befriended struct
/// keeps the private-state access of CallGraph / PointsToSolver / SDG /
/// HeapEdges in one audited place.
struct Access {
  /// Encodes a post-verify program (string pool in symbol order, classes,
  /// fields, methods with full bodies).
  static void serializeProgram(const Program &P, Writer &W);
  /// Restores into \p P, which must be default-constructed. On success the
  /// statement index is rebuilt; on failure \p P is unusable and must be
  /// discarded.
  static bool restoreProgram(Program &P, Reader &R);

  /// Encodes the whole pointer-analysis phase behind the solved or
  /// restored \p S: the string-pool symbols it interned (a base id and the
  /// strings), its string-constant facts (mode, degraded flag, per-method
  /// values, conststr.* counters), its guard work units, then the
  /// post-solve query surface as columns: contexts, instance keys,
  /// call-graph nodes, out-edges and per-site callees, pointer keys, the
  /// frozen points-to column, the intrinsic call targets and the budget
  /// flag.
  static void serializeSolver(const PointsToSolver &S, Writer &W);
  /// Restores into \p S, which must be freshly constructed (same program,
  /// same options) and never solved: bulk-copies each column, validates it
  /// in one sweep and rebuilds each intern index in one pass. Rejects
  /// decreasing offsets, unsorted or duplicate chunk indices, zero words,
  /// members at or past the instance-key count, out-of-range ids,
  /// duplicate table rows, and intrinsic-target columns of unequal length
  /// or whose sites decrease. Re-interns the recorded pool symbols, failing
  /// unless each lands on its recorded id; \p S takes the recorded string
  /// facts unless it was built with PointsToOptions::ConstStrings. On
  /// failure \p S may hold partial state and must be discarded; the
  /// string pool is left untouched.
  static bool restoreSolver(PointsToSolver &S, Reader &R);

  /// Encodes the SDG's columns as they are (owners, node fields, CSR
  /// edges, call sites, CS channel plumbing and per-owner channels, the
  /// store/load/sink lists) plus, when \p HE is non-null, the heap
  /// adjacency's two CSRs.
  static void serializeSdg(const SDG &G, const HeapEdges *HE, Writer &W);
  /// Restores an SDG (and heap edges, when the record carries them)
  /// against the live \p P / \p Solver: bulk-copies each column and
  /// validates it in one sweep. Rejects offsets that do not start at 0 or
  /// that decrease, out-of-range ids and enum values, a call-site key that
  /// is not an IsCall statement node or appears twice, an actual-in range
  /// holding anything but actual-ins of its call, and a store list that
  /// does not strictly ascend. \p HE is left null when the record has no
  /// heap edges. On failure both out-params are null.
  static bool restoreSdg(std::unique_ptr<SDG> &G,
                         std::unique_ptr<HeapEdges> &HE, const Program &P,
                         const PointsToSolver &Solver, const SDGOptions &Opts,
                         Reader &R);
};

} // namespace persist
} // namespace taj

#endif // TAJ_PERSIST_SERIALIZE_H
