// Unit tests for src/core: Status/Result, Rng, IndexedMinHeap, SmallSortedSet,
// ParallelFor, ThreadPool, EpochLock.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/epoch_lock.h"
#include "core/indexed_heap.h"
#include "core/parallel_for.h"
#include "core/rng.h"
#include "core/small_set.h"
#include "core/status.h"
#include "core/submission_queue.h"
#include "core/thread_pool.h"
#include "core/types.h"

namespace kspdg {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("k must be >= 1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "k must be >= 1");
  EXPECT_EQ(s.ToString(), "InvalidArgument: k must be >= 1");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OutOfRange: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FailedPrecondition: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
  EXPECT_EQ(Status::IOError("x").ToString(), "IOError: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(WeightsTest, EqualityTolerance) {
  EXPECT_TRUE(WeightsEqual(1.0, 1.0));
  EXPECT_TRUE(WeightsEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(WeightsEqual(1.0, 1.001));
  EXPECT_TRUE(WeightLess(1.0, 2.0));
  EXPECT_FALSE(WeightLess(1.0, 1.0 + 1e-12));
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(17), 17u);
}

TEST(RngTest, RangeDouble) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble(-0.3, 0.3);
    EXPECT_GE(d, -0.3);
    EXPECT_LT(d, 0.3);
  }
}

TEST(IndexedHeapTest, PushPopOrdered) {
  IndexedMinHeap heap(10);
  heap.PushOrDecrease(3, 5.0);
  heap.PushOrDecrease(1, 2.0);
  heap.PushOrDecrease(7, 9.0);
  heap.PushOrDecrease(2, 3.0);
  double key;
  EXPECT_EQ(heap.PopMin(&key), 1u);
  EXPECT_DOUBLE_EQ(key, 2.0);
  EXPECT_EQ(heap.PopMin(&key), 2u);
  EXPECT_EQ(heap.PopMin(&key), 3u);
  EXPECT_EQ(heap.PopMin(&key), 7u);
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedHeapTest, DecreaseKeyReordersEntry) {
  IndexedMinHeap heap(10);
  heap.PushOrDecrease(0, 10.0);
  heap.PushOrDecrease(1, 20.0);
  EXPECT_TRUE(heap.PushOrDecrease(1, 5.0));
  EXPECT_EQ(heap.PopMin(), 1u);
  EXPECT_EQ(heap.PopMin(), 0u);
}

TEST(IndexedHeapTest, IncreaseIsIgnored) {
  IndexedMinHeap heap(4);
  heap.PushOrDecrease(0, 1.0);
  EXPECT_FALSE(heap.PushOrDecrease(0, 9.0));
  EXPECT_DOUBLE_EQ(heap.KeyOf(0), 1.0);
}

TEST(IndexedHeapTest, TieBrokenById) {
  IndexedMinHeap heap(10);
  heap.PushOrDecrease(5, 1.0);
  heap.PushOrDecrease(2, 1.0);
  heap.PushOrDecrease(8, 1.0);
  EXPECT_EQ(heap.PopMin(), 2u);
  EXPECT_EQ(heap.PopMin(), 5u);
  EXPECT_EQ(heap.PopMin(), 8u);
}

TEST(IndexedHeapTest, MatchesStdPriorityQueueOnRandomWorkload) {
  Rng rng(11);
  const size_t n = 500;
  IndexedMinHeap heap(n);
  std::vector<double> best(n, kInfiniteWeight);
  for (int round = 0; round < 2000; ++round) {
    uint32_t id = static_cast<uint32_t>(rng.NextBounded(n));
    double key = rng.NextDouble() * 100;
    if (key < best[id]) best[id] = key;
    heap.PushOrDecrease(id, key);
  }
  double prev = -1;
  while (!heap.empty()) {
    double key;
    uint32_t id = heap.PopMin(&key);
    EXPECT_DOUBLE_EQ(key, best[id]);
    EXPECT_GE(key, prev);
    prev = key;
  }
}

TEST(IndexedHeapTest, ClearResets) {
  IndexedMinHeap heap(4);
  heap.PushOrDecrease(1, 1.0);
  heap.PushOrDecrease(2, 2.0);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.Contains(1));
  heap.PushOrDecrease(1, 3.0);
  EXPECT_DOUBLE_EQ(heap.KeyOf(1), 3.0);
}

TEST(SmallSortedSetTest, InsertContainsErase) {
  SmallSortedSet<int> set;
  EXPECT_TRUE(set.Insert(5));
  EXPECT_TRUE(set.Insert(1));
  EXPECT_FALSE(set.Insert(5));
  EXPECT_TRUE(set.Contains(1));
  EXPECT_FALSE(set.Contains(2));
  EXPECT_TRUE(set.Erase(1));
  EXPECT_FALSE(set.Erase(1));
  EXPECT_EQ(set.size(), 1u);
}

TEST(SmallSortedSetTest, IteratesSorted) {
  SmallSortedSet<int> set;
  for (int v : {9, 3, 7, 1}) set.Insert(v);
  std::vector<int> got(set.begin(), set.end());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(got.size(), 4u);
}

TEST(ParallelForTest, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(hits.size(), 4, [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SingleThreadInline) {
  std::vector<int> hits(100, 0);
  ParallelFor(hits.size(), 1, [&](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, MoreThreadsThanItems) {
  std::atomic<int> sum{0};
  ParallelFor(3, 16, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelForTest, ZeroItemsIsNoOp) {
  ParallelFor(0, 4, [](size_t) { FAIL(); });
}

TEST(ParallelForChunkedTest, CoversAllIndicesWithValidWorkerIds) {
  constexpr unsigned kThreads = 4;
  std::vector<std::atomic<int>> hits(1000);
  std::atomic<int> bad_worker{0};
  ParallelForChunked(hits.size(), 16, kThreads, [&](unsigned worker, size_t i) {
    if (worker >= kThreads) bad_worker.fetch_add(1);
    hits[i]++;
  });
  EXPECT_EQ(bad_worker.load(), 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunkedTest, ChunkLargerThanCountRunsInline) {
  std::vector<int> hits(10, 0);
  int workers_seen = 0;
  ParallelForChunked(hits.size(), 64, 4, [&](unsigned worker, size_t i) {
    // Inline fallback: single worker 0, no data race on plain ints.
    workers_seen |= static_cast<int>(worker);
    hits[i]++;
  });
  EXPECT_EQ(workers_seen, 0);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForChunkedTest, ZeroChunkTreatedAsOne) {
  std::vector<std::atomic<int>> hits(64);
  ParallelForChunked(hits.size(), 0, 3, [&](unsigned, size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, CoversAllIndicesAcrossRepeatedLoops) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<int>> hits(500);
    pool.ParallelFor(hits.size(), 8, [&](unsigned worker, size_t i) {
      EXPECT_LT(worker, 4u);
      hits[i]++;
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(hits.size(), 4, [&](unsigned worker, size_t i) {
    EXPECT_EQ(worker, 0u);
    hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ZeroItemsIsNoOp) {
  ThreadPool pool(3);
  pool.ParallelFor(0, 4, [](unsigned, size_t) { FAIL(); });
}

TEST(ThreadPoolTest, WorkerIndexIsStableHomeForScratch) {
  // Per-worker accumulators must never be touched by two threads at once;
  // summing them afterwards has to account for every item exactly once.
  ThreadPool pool(4);
  std::vector<int64_t> per_worker(pool.num_threads(), 0);
  pool.ParallelFor(10000, 32, [&](unsigned worker, size_t i) {
    per_worker[worker] += static_cast<int64_t>(i);
  });
  int64_t total = 0;
  for (int64_t v : per_worker) total += v;
  EXPECT_EQ(total, int64_t{10000} * 9999 / 2);
}

TEST(ThreadPoolTest, ConcurrentCallersSerializeSafely) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        pool.ParallelFor(100, 7, [&](unsigned, size_t) { sum.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(sum.load(), 4 * 10 * 100);
}

TEST(EpochLockTest, ExclusiveAndSharedBasics) {
  EpochLock lock;
  lock.lock_shared();
  EXPECT_TRUE(lock.try_lock_shared());  // readers may share
  EXPECT_FALSE(lock.try_lock());        // writer excluded by readers
  lock.unlock_shared();
  lock.unlock_shared();
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock_shared());  // reader excluded by writer
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
}

// The property std::shared_mutex does not give us: a writer must get in
// even while readers continuously re-acquire the shared lock (this is what
// lets ApplyTrafficBatch drain queries on a saturated service).
TEST(EpochLockTest, WriterIsNotStarvedByReaderChurn) {
  EpochLock lock;
  std::atomic<bool> stop{false};
  std::atomic<int> writes{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        lock.lock_shared();
        lock.unlock_shared();
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 50; ++i) {
      lock.lock();
      writes.fetch_add(1);
      lock.unlock();
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(writes.load(), 50);
}

// ---------------------------------------------------------------------------
// SubmissionQueue.
// ---------------------------------------------------------------------------

TEST(SubmissionQueueTest, RunsEveryAcceptedJobInFifoOrder) {
  std::vector<int> order;
  std::mutex order_mu;
  {
    SubmissionQueue queue(/*capacity=*/4);
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(queue.Submit([i, &order, &order_mu] {
        std::lock_guard<std::mutex> guard(order_mu);
        order.push_back(i);
      }));
    }
  }  // destructor drains and joins
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(SubmissionQueueTest, BoundedCapacityAppliesBackpressure) {
  SubmissionQueue queue(/*capacity=*/2);
  std::mutex gate;
  gate.lock();  // the first job parks the worker until we release it
  std::atomic<int> ran{0};
  std::atomic<bool> started{false};
  ASSERT_TRUE(queue.Submit([&] {
    started.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> guard(gate);
    ran.fetch_add(1);
  }));
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The worker is parked on the gate; fill the queue behind it, then
  // measure that the next Submit really blocks until a slot frees up.
  for (size_t i = 0; i < queue.capacity(); ++i) {
    ASSERT_TRUE(queue.Submit([&] { ran.fetch_add(1); }));
  }
  EXPECT_EQ(queue.pending(), queue.capacity());
  std::atomic<bool> fourth_accepted{false};
  std::thread blocked([&] {
    EXPECT_TRUE(queue.Submit([&] { ran.fetch_add(1); }));
    fourth_accepted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(fourth_accepted.load(std::memory_order_acquire))
      << "Submit must block while the queue is full";
  gate.unlock();  // worker drains; the blocked Submit completes
  blocked.join();
  EXPECT_TRUE(fourth_accepted.load());
  queue.Shutdown();
}

TEST(SubmissionQueueTest, ShutdownDrainsAcceptedAndRefusesNew) {
  std::atomic<int> ran{0};
  SubmissionQueue queue(/*capacity=*/8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.Submit([&] { ran.fetch_add(1); }));
  }
  queue.Shutdown();
  EXPECT_FALSE(queue.Submit([&] { ran.fetch_add(1); }));
  // Destructor joins; all five accepted jobs must have run, the refused
  // one must not.
  while (queue.completed() < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(queue.submitted(), 5u);
}

TEST(SubmissionQueueTest, CountersTrackSubmittedAndCompleted) {
  SubmissionQueue queue(/*capacity=*/4);
  EXPECT_EQ(queue.capacity(), 4u);
  EXPECT_EQ(queue.submitted(), 0u);
  ASSERT_TRUE(queue.Submit([] {}));
  ASSERT_TRUE(queue.Submit([] {}));
  EXPECT_EQ(queue.submitted(), 2u);
  while (queue.completed() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(queue.pending(), 0u);
}

// ---------------------------------------------------------------------------
// SubmissionQueue admission control (QoS submits).
// ---------------------------------------------------------------------------

namespace {

/// Parks the queue's worker on `gate` (held locked by the caller) so tests
/// can stack up pending entries deterministically, then release them all at
/// once by unlocking.
void ParkWorker(SubmissionQueue& queue, std::mutex& gate,
                std::atomic<bool>& started) {
  ASSERT_TRUE(queue.Submit([&gate, &started] {
    started.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> guard(gate);
  }));
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

TEST(SubmissionQueueTest, StrictPriorityDequeueFifoWithinClass) {
  std::mutex gate;
  gate.lock();
  std::atomic<bool> started{false};
  std::vector<std::string> order;
  std::mutex order_mu;
  {
    SubmissionQueue queue(/*capacity=*/16);
    ParkWorker(queue, gate, started);
    // Stack up a deliberately inverted arrival order while the worker is
    // parked: batch first, interactive last. Dequeue must run interactive
    // first, batch last, FIFO within each class.
    auto submit = [&](RequestPriority priority, const std::string& tag) {
      RequestContext ctx;
      ctx.priority = priority;
      EXPECT_EQ(queue.Submit(ctx,
                             [tag, &order, &order_mu](AdmissionOutcome got) {
                               EXPECT_EQ(got, AdmissionOutcome::kServed);
                               std::lock_guard<std::mutex> guard(order_mu);
                               order.push_back(tag);
                             }),
                SubmitOutcome::kAdmitted);
    };
    submit(RequestPriority::kBatch, "b0");
    submit(RequestPriority::kBatch, "b1");
    submit(RequestPriority::kNormal, "n0");
    submit(RequestPriority::kInteractive, "i0");
    submit(RequestPriority::kNormal, "n1");
    submit(RequestPriority::kInteractive, "i1");
    EXPECT_EQ(queue.pending(RequestPriority::kInteractive), 2u);
    EXPECT_EQ(queue.pending(RequestPriority::kNormal), 2u);
    EXPECT_EQ(queue.pending(RequestPriority::kBatch), 2u);
    gate.unlock();
  }  // destructor drains and joins
  std::vector<std::string> want = {"i0", "i1", "n0", "n1", "b0", "b1"};
  EXPECT_EQ(order, want);
}

TEST(SubmissionQueueTest, PerTenantQuotaShedsInsteadOfBlocking) {
  std::mutex gate;
  gate.lock();
  std::atomic<bool> started{false};
  AdmissionOptions admission;
  admission.per_tenant_quota = 2;
  SubmissionQueue queue(/*capacity=*/16, /*num_workers=*/1, {}, admission);
  ParkWorker(queue, gate, started);
  RequestContext tenant_a;
  tenant_a.tenant_id = "a";
  std::atomic<int> shed{0};
  auto tally = [&shed](AdmissionOutcome got) {
    if (got != AdmissionOutcome::kServed) shed.fetch_add(1);
  };
  EXPECT_EQ(queue.Submit(tenant_a, tally), SubmitOutcome::kAdmitted);
  EXPECT_EQ(queue.Submit(tenant_a, tally), SubmitOutcome::kAdmitted);
  // Third pending entry for "a" exceeds the quota: shed immediately (the
  // job hears kShedQuota on this thread), never blocked.
  EXPECT_EQ(queue.Submit(tenant_a, tally), SubmitOutcome::kShedQuota);
  EXPECT_EQ(shed.load(), 1);
  // A different tenant is unaffected, as is the unmetered empty id.
  RequestContext tenant_b;
  tenant_b.tenant_id = "b";
  EXPECT_EQ(queue.Submit(tenant_b, tally), SubmitOutcome::kAdmitted);
  EXPECT_EQ(queue.shed_quota(), 1u);
  gate.unlock();
  // The charge releases at dequeue: once drained, "a" can submit again.
  while (queue.pending() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(queue.Submit(tenant_a, tally), SubmitOutcome::kAdmitted);
  queue.Shutdown();
}

TEST(SubmissionQueueTest, ExpiredSubmitIsAnsweredWithoutRunning) {
  SubmissionQueue queue(/*capacity=*/4);
  RequestContext ctx;
  ctx.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(5);
  std::atomic<bool> answered{false};
  EXPECT_EQ(queue.Submit(ctx,
                         [&answered](AdmissionOutcome got) {
                           EXPECT_EQ(got, AdmissionOutcome::kShedDeadline);
                           answered.store(true, std::memory_order_release);
                         }),
            SubmitOutcome::kShedDeadline);
  // Shed at enqueue: answered synchronously on the submitting thread, never
  // queued, never counted as submitted work.
  EXPECT_TRUE(answered.load(std::memory_order_acquire));
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.submitted(), 0u);
  EXPECT_EQ(queue.shed_deadline(), 1u);
}

TEST(SubmissionQueueTest, DeadlineExpiringInQueueShedsAtDequeue) {
  std::mutex gate;
  gate.lock();
  std::atomic<bool> started{false};
  SubmissionQueue queue(/*capacity=*/4);
  ParkWorker(queue, gate, started);
  RequestContext ctx;
  ctx.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
  std::atomic<bool> served{false};
  std::atomic<bool> shed{false};
  EXPECT_EQ(queue.Submit(ctx,
                         [&](AdmissionOutcome got) {
                           if (got == AdmissionOutcome::kServed) {
                             served.store(true);
                           } else if (got == AdmissionOutcome::kShedDeadline) {
                             shed.store(true);
                           }
                         }),
            SubmitOutcome::kAdmitted);
  // Let the deadline lapse while the entry waits behind the parked worker;
  // the dequeue-time check must answer it instead of solving it.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.unlock();
  while (queue.completed() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(served.load());
  EXPECT_TRUE(shed.load());
  EXPECT_EQ(queue.shed_deadline(), 1u);
  queue.Shutdown();
}

TEST(SubmissionQueueTest, UrgentArrivalDisplacesQueuedBatchWork) {
  std::mutex gate;
  gate.lock();
  std::atomic<bool> started{false};
  SubmissionQueue queue(/*capacity=*/2);
  ParkWorker(queue, gate, started);
  RequestContext batch_ctx;
  batch_ctx.priority = RequestPriority::kBatch;
  std::vector<AdmissionOutcome> batch_outcomes(2, AdmissionOutcome::kServed);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(queue.Submit(batch_ctx,
                           [i, &batch_outcomes](AdmissionOutcome got) {
                             batch_outcomes[i] = got;
                           }),
              SubmitOutcome::kAdmitted);
  }
  EXPECT_EQ(queue.pending(), queue.capacity());
  // A full queue sheds the NEWEST entry of the least-urgent strictly-lower
  // class to admit a more urgent arrival — never blocks it.
  RequestContext interactive_ctx;
  interactive_ctx.priority = RequestPriority::kInteractive;
  std::atomic<bool> interactive_served{false};
  EXPECT_EQ(queue.Submit(interactive_ctx,
                         [&interactive_served](AdmissionOutcome got) {
                           if (got == AdmissionOutcome::kServed) {
                             interactive_served.store(true);
                           }
                         }),
            SubmitOutcome::kAdmitted);
  EXPECT_EQ(queue.pending(), queue.capacity());
  // A batch arrival into the still-full queue has nothing lower to
  // displace: IT is shed.
  std::atomic<bool> late_batch_shed{false};
  EXPECT_EQ(queue.Submit(batch_ctx,
                         [&late_batch_shed](AdmissionOutcome got) {
                           if (got == AdmissionOutcome::kShedQuota) {
                             late_batch_shed.store(true);
                           }
                         }),
            SubmitOutcome::kShedQuota);
  EXPECT_TRUE(late_batch_shed.load());
  gate.unlock();
  // Parked job + served batch + evicted batch + interactive all count as
  // completed admitted work; wait for the drain before reading outcomes.
  while (queue.completed() < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.Shutdown();
  EXPECT_TRUE(interactive_served.load());
  EXPECT_EQ(batch_outcomes[0], AdmissionOutcome::kServed) << "older survives";
  EXPECT_EQ(batch_outcomes[1], AdmissionOutcome::kShedQuota)
      << "newest batch entry is the victim";
  EXPECT_EQ(queue.shed_quota(), 2u);
}

}  // namespace
}  // namespace kspdg
