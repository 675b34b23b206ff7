//===- support/Parallel.cpp ------------------------------------*- C++ -*-===//

#include "support/Parallel.h"

#include "support/Trace.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

using namespace taj;

/// TAJ_THREADS read as a whole positive decimal (saturating well above the
/// clamp); 0 when unset or malformed ("-2", "4abc", "junk", "").
static unsigned envThreadCount() {
  const char *E = std::getenv("TAJ_THREADS");
  if (!E || !*E)
    return 0;
  unsigned N = 0;
  for (const char *C = E; *C; ++C) {
    if (*C < '0' || *C > '9')
      return 0;
    N = std::min(N * 10 + static_cast<unsigned>(*C - '0'), 1u << 20);
  }
  return N;
}

unsigned taj::resolveThreadCount(unsigned Requested) {
  unsigned N = Requested;
  if (N == 0) {
    N = envThreadCount();
    if (N == 0)
      N = std::thread::hardware_concurrency();
    if (N == 0)
      N = 1; // hardware_concurrency() may be unknown
  }
  return std::clamp(N, 1u, 256u);
}

void taj::parallelForInterleaved(
    unsigned Threads, size_t NumItems,
    const std::function<void(unsigned, size_t)> &Fn) {
  unsigned W = std::max(1u, Threads);
  if (W > NumItems)
    W = NumItems == 0 ? 1 : static_cast<unsigned>(NumItems);
  if (W == 1) {
    trace::Span S("worker 0 (inline)", "parallel");
    for (size_t I = 0; I < NumItems; ++I)
      Fn(0, I);
    return;
  }

  std::mutex ErrMutex;
  std::exception_ptr FirstError;
  auto Body = [&](unsigned Worker) {
    // One span per worker fan-out (not per item): with tracing disabled
    // this is a single relaxed atomic load, preserving the <1% overhead
    // contract of the parallel slicing engine.
    trace::Span S("worker " + std::to_string(Worker), "parallel");
    try {
      for (size_t I = Worker; I < NumItems; I += W)
        Fn(Worker, I);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(ErrMutex);
      if (!FirstError)
        FirstError = std::current_exception();
    }
  };

  std::vector<std::thread> Pool;
  Pool.reserve(W - 1);
  for (unsigned T = 1; T < W; ++T)
    Pool.emplace_back(Body, T);
  Body(0); // the calling thread is worker 0
  for (std::thread &T : Pool)
    T.join();
  if (FirstError)
    std::rethrow_exception(FirstError);
}
