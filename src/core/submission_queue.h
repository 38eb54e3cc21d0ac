// Admission-controlled job queue backing the asynchronous batch-submission
// APIs.
//
// Two submission contracts share one queue:
//
//   Submit(job)           — the original bounded-FIFO contract. Blocks while
//                           the queue is full (backpressure), so a producer
//                           that outpaces the solver is throttled instead of
//                           buffering an unbounded backlog. Such jobs are
//                           never shed or displaced.
//   Submit(context, job)  — the QoS contract for work carrying a
//                           RequestContext. NEVER blocks: work the queue
//                           cannot take now is shed immediately with an
//                           AdmissionOutcome instead of stalling the caller.
//
// Dequeue order is strict priority (kInteractive > kNormal > kBatch) with
// FIFO within a class. Admission applies three policies to QoS work:
//
//   deadlines  — a job whose deadline has already passed is answered
//                immediately (kShedDeadline) at submit time; a job whose
//                deadline passes while queued is answered the moment the
//                worker dequeues it, without running the solve.
//   quotas     — a tenant with `per_tenant_quota` jobs already pending is
//                shed (kShedQuota) instead of monopolising the queue.
//   eviction   — when the queue is full, a strictly more urgent arrival
//                displaces the newest queued job of the least urgent class
//                (evicted job answered kShedQuota); if nothing less urgent
//                is queued, the arrival itself is shed. Blocking-contract
//                jobs are never displaced.
//
// Every admitted job's callback is invoked exactly once — with kServed when
// it ran, or a shed outcome when admission answered for it. One worker
// thread runs the jobs, so jobs of one class run in submission order.
// Shutdown stops intake, drains what was accepted, and joins the worker.
#ifndef KSPDG_CORE_SUBMISSION_QUEUE_H_
#define KSPDG_CORE_SUBMISSION_QUEUE_H_

#include <array>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <thread>

#include "core/admission.h"
#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "obs/metrics.h"

namespace kspdg {

/// Optional telemetry for one SubmissionQueue (no-op handles by default).
/// Depth is exported by the owning service as a gauge callback over
/// pending(); these cover the events only the queue can see.
struct SubmissionQueueMetrics {
  /// Blocking-contract Submit calls that found the queue full and waited.
  Counter enqueue_blocked_total;
  /// How long each blocked Submit stalled before its job was accepted.
  Histogram enqueue_block_micros;
  /// QoS jobs shed because their deadline expired (at submit or dequeue).
  Counter shed_deadline_total;
  /// QoS jobs shed by load control (tenant quota, full queue, eviction).
  Counter shed_quota_total;
};

/// Admission-policy knobs for the QoS submission contract.
struct AdmissionOptions {
  /// Max jobs one tenant_id may hold pending at once (0 = unlimited).
  /// Jobs with an empty tenant_id are unmetered.
  size_t per_tenant_quota = 0;
};

/// What Submit(context, job) decided. On kAdmitted the job's callback fires
/// later from a worker; on a shed outcome it already fired (on the calling
/// thread) before Submit returned; on kRefused (shutdown) it never fires.
enum class SubmitOutcome : uint8_t {
  kAdmitted = 0,
  kShedDeadline = 1,
  kShedQuota = 2,
  kRefused = 3,
};

/// A QoS job: invoked exactly once with the admission decision. kServed
/// means "run now"; a shed outcome means "answer for yourself without
/// doing the work".
using AdmissionJob = std::function<void(AdmissionOutcome)>;

/// Bounded multi-producer job queue with one owned worker thread (see file
/// comment). All methods are thread-safe.
class SubmissionQueue {
 public:
  /// A queue admitting up to `capacity` pending jobs (0 is treated as 1),
  /// drained by one dedicated thread.
  explicit SubmissionQueue(size_t capacity,
                           SubmissionQueueMetrics metrics = {},
                           AdmissionOptions admission = {});

  /// Shutdown() + join: blocks until every accepted job has run.
  ~SubmissionQueue();

  SubmissionQueue(const SubmissionQueue&) = delete;
  SubmissionQueue& operator=(const SubmissionQueue&) = delete;

  /// Blocking contract: enqueues one job at kNormal priority. Blocks while
  /// the queue is full (backpressure); the job is never shed or displaced.
  /// Returns true if the job was accepted; false if the queue has been shut
  /// down, in which case the job will never run.
  [[nodiscard]] bool Submit(std::function<void()> job);

  /// QoS contract: admission-controlled, never blocks (see file comment).
  [[nodiscard]] SubmitOutcome Submit(const RequestContext& context,
                                     AdmissionJob job);

  /// Stops accepting jobs. Already-accepted jobs still run to completion
  /// (dequeue-time deadline shedding still applies); idempotent. Does not
  /// wait (the destructor joins).
  void Shutdown();

  /// Jobs accepted but not yet started (snapshot), total / per class.
  size_t pending() const;
  size_t pending(RequestPriority priority) const;

  size_t capacity() const { return capacity_; }

  /// Monotone counters for monitoring and tests. `submitted` counts
  /// admitted jobs; `completed` counts admitted jobs whose callback has
  /// been invoked (served or shed after admission), so
  /// pending() == submitted() - completed() - running. Jobs shed at submit
  /// time count only in the shed counters.
  uint64_t submitted() const;
  uint64_t completed() const;
  uint64_t shed_deadline() const;
  uint64_t shed_quota() const;

 private:
  struct Entry {
    AdmissionJob job;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::string tenant;
    /// Blocking-contract jobs are not evictable and never deadline-shed.
    bool evictable = false;
  };

  void WorkerLoop();
  /// Total queued jobs across all classes.
  size_t TotalPendingLocked() const REQUIRES(mu_);
  /// Removes one queued charge for `tenant`.
  void ReleaseTenantLocked(const std::string& tenant) REQUIRES(mu_);

  const size_t capacity_;
  const SubmissionQueueMetrics metrics_;
  const AdmissionOptions admission_;
  mutable Mutex mu_{"SubmissionQueue::mu_"};
  CondVar cv_not_full_;   // blocking producers wait here
  CondVar cv_not_empty_;  // the worker waits here
  /// One FIFO per priority class, indexed by RequestPriority.
  std::array<std::deque<Entry>, kNumPriorities> classes_ GUARDED_BY(mu_);
  std::map<std::string, size_t> tenant_pending_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  uint64_t submitted_ GUARDED_BY(mu_) = 0;
  uint64_t completed_ GUARDED_BY(mu_) = 0;
  uint64_t shed_deadline_ GUARDED_BY(mu_) = 0;
  uint64_t shed_quota_ GUARDED_BY(mu_) = 0;
  std::thread worker_;
};

}  // namespace kspdg

#endif  // KSPDG_CORE_SUBMISSION_QUEUE_H_
