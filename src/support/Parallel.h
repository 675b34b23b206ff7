//===- support/Parallel.h - Slicing thread pool helpers --------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small threading layer behind the parallel slicing engine: thread
/// count resolution (--threads flag / TAJ_THREADS env / hardware
/// concurrency) and a statically interleaved parallel-for over a fixed
/// work-item range.
///
/// Static interleaving (worker w takes items w, w+T, w+2T, ...) is chosen
/// over dynamic work stealing deliberately: the item -> worker mapping is a
/// pure function of (item index, thread count), so per-worker accumulations
/// (Tabulation summary reuse, path-edge counts) are reproducible run to run
/// at a fixed thread count, not scheduling-dependent.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SUPPORT_PARALLEL_H
#define TAJ_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace taj {

/// Resolves a requested worker count: a positive request wins as-is;
/// 0 means auto — the TAJ_THREADS environment variable if it is a whole
/// positive decimal, otherwise std::thread::hardware_concurrency(). The
/// result is clamped to [1, 256].
unsigned resolveThreadCount(unsigned Requested);

/// Runs Fn(Worker, Item) for every Item in [0, NumItems), fanning the range
/// across \p Threads workers with static interleaving. Threads <= 1 (or
/// fewer than 2 items) runs inline on the calling thread with Worker = 0.
/// The first exception thrown by any worker is rethrown on the calling
/// thread after all workers have joined.
void parallelForInterleaved(unsigned Threads, size_t NumItems,
                            const std::function<void(unsigned, size_t)> &Fn);

} // namespace taj

#endif // TAJ_SUPPORT_PARALLEL_H
