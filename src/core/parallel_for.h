// Minimal blocking parallel-for over an index range: the one parallel loop
// of the code base. It runs the per-subgraph work of index construction and
// traffic batches, the items of a QueryBatch, and the replica apply fan-out.
// Each call spawns its threads and joins them before returning, which costs
// tens of microseconds per loop: negligible beside the millisecond-scale
// work every caller hands it.
#ifndef KSPDG_CORE_PARALLEL_FOR_H_
#define KSPDG_CORE_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace kspdg {

/// Runs fn(worker, i) for every i in [0, count) using `num_threads` threads
/// (<= 1 means inline execution as worker 0). Indices are claimed in
/// contiguous chunks of `chunk` (0 is treated as 1): larger chunks cut
/// claim contention and keep consecutive items on one worker, so fn may
/// cache per-worker state in an array indexed by `worker`, which is always
/// < num_threads.
template <typename Fn>
void ParallelForChunked(size_t count, size_t chunk, unsigned num_threads,
                        Fn&& fn) {
  if (count == 0) return;
  if (chunk == 0) chunk = 1;
  if (num_threads <= 1 || count <= chunk) {
    for (size_t i = 0; i < count; ++i) fn(0u, i);
    return;
  }
  size_t max_workers = (count + chunk - 1) / chunk;
  if (num_threads > max_workers) {
    num_threads = static_cast<unsigned>(max_workers);
  }
  std::atomic<size_t> next{0};
  auto worker = [&](unsigned id) {
    for (;;) {
      size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      size_t end = std::min(begin + chunk, count);
      for (size_t i = begin; i < end; ++i) fn(id, i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(num_threads - 1);
  for (unsigned t = 1; t < num_threads; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : threads) t.join();
}

/// Runs fn(i) for every i in [0, count) using `num_threads` threads (1 means
/// inline execution). Work is claimed dynamically one index at a time so
/// uneven per-item cost still balances.
template <typename Fn>
void ParallelFor(size_t count, unsigned num_threads, Fn&& fn) {
  ParallelForChunked(count, /*chunk=*/1, num_threads,
                     [&fn](unsigned, size_t i) { fn(i); });
}

}  // namespace kspdg

#endif  // KSPDG_CORE_PARALLEL_FOR_H_
