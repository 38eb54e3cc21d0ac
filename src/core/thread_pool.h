// Persistent worker pool for batch query execution.
//
// A RoutingService owns one ThreadPool and reuses it for every QueryBatch
// instead of spawning threads per call: thread creation costs more than many
// individual solves, and persistent workers give per-worker scratch state a
// stable home (fn receives a worker index usable as an array slot). One
// parallel loop runs at a time — concurrent callers serialise — which
// matches the service's usage and keeps the wake/complete protocol simple.
#ifndef KSPDG_CORE_THREAD_POOL_H_
#define KSPDG_CORE_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace kspdg {

/// Threads one QueryBatch may use when the caller passes 0: one per
/// hardware thread, capped at 16. The policy the service sizes its batch
/// pool with.
inline unsigned DefaultBatchThreads(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return hw < 16u ? hw : 16u;
}

/// Persistent worker pool executing one parallel loop at a time (see file
/// comment). All methods are thread-safe; concurrent ParallelFor callers
/// serialise against each other.
class ThreadPool {
 public:
  /// A pool that executes loops on `num_threads` threads in total. The
  /// caller of ParallelFor participates as worker 0, so num_threads - 1
  /// threads are spawned; num_threads <= 1 means fully inline execution.
  explicit ThreadPool(unsigned num_threads);

  /// Stops and joins the spawned workers. No loop may be in flight (the
  /// owner must outlive every ParallelFor call it issued).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads a loop runs on (spawned workers plus the calling thread).
  unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs fn(worker, i) for every i in [0, count), blocking until every
  /// invocation has finished. Indices are claimed in contiguous chunks of
  /// `chunk` (0 is treated as 1) so consecutive items tend to stay on one
  /// worker and its scratch state stays hot. `worker` < num_threads().
  /// Thread-safe: concurrent ParallelFor calls execute one loop at a time.
  void ParallelFor(size_t count, size_t chunk,
                   const std::function<void(unsigned worker, size_t index)>& fn);

 private:
  /// One published loop. Workers keep a shared_ptr while executing, so the
  /// caller can safely unpublish the job as soon as all items are done.
  struct Job {
    const std::function<void(unsigned, size_t)>* fn = nullptr;
    size_t count = 0;
    size_t chunk = 1;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };

  void WorkerLoop(unsigned worker);
  void RunChunks(Job& job, unsigned worker);

  Mutex mu_{"ThreadPool::mu_"};
  CondVar cv_start_;
  CondVar cv_done_;
  /// Non-null while a loop is being executed.
  std::shared_ptr<Job> job_ GUARDED_BY(mu_);
  /// Bumped per published job; workers join each loop at most once.
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  /// Admits one ParallelFor caller at a time.
  Mutex serialize_mu_{"ThreadPool::serialize_mu_"};
  std::vector<std::thread> workers_;
};

}  // namespace kspdg

#endif  // KSPDG_CORE_THREAD_POOL_H_
