#include "core/submission_queue.h"

#include <algorithm>
#include <utility>

#include "core/timer.h"

namespace kspdg {

SubmissionQueue::SubmissionQueue(size_t capacity,
                                 SubmissionQueueMetrics metrics,
                                 AdmissionOptions admission)
    : capacity_(std::max<size_t>(1, capacity)),
      metrics_(std::move(metrics)),
      admission_(admission),
      worker_([this] { WorkerLoop(); }) {}

SubmissionQueue::~SubmissionQueue() {
  Shutdown();
  worker_.join();
}

bool SubmissionQueue::Submit(std::function<void()> job) {
  {
    MutexLock guard(mu_);
    if (!shutdown_ && TotalPendingLocked() >= capacity_) {
      // Backpressure engaged: count the stall and time it, so queue sizing
      // decisions can be made from exported metrics instead of guesswork.
      metrics_.enqueue_blocked_total.Increment();
      WallTimer stall_timer;
      while (!shutdown_ && TotalPendingLocked() >= capacity_) {
        cv_not_full_.Wait(mu_);
      }
      metrics_.enqueue_block_micros.Observe(stall_timer.ElapsedMicros());
    }
    if (shutdown_) return false;
    Entry entry;
    // The wrapper only ever sees kServed: blocking-contract entries carry
    // no deadline and are not evictable, so admission cannot shed them.
    entry.job = [job = std::move(job)](AdmissionOutcome) { job(); };
    entry.evictable = false;
    classes_[static_cast<size_t>(RequestPriority::kNormal)].push_back(
        std::move(entry));
    ++submitted_;
  }
  cv_not_empty_.NotifyOne();
  return true;
}

SubmitOutcome SubmissionQueue::Submit(const RequestContext& context,
                                      AdmissionJob job) {
  // A job shed at admission is answered on the calling thread, outside the
  // queue mutex (the callback may be arbitrarily heavy).
  AdmissionJob evicted_job;
  {
    MutexLock guard(mu_);
    if (shutdown_) return SubmitOutcome::kRefused;
    if (context.ExpiredAt(std::chrono::steady_clock::now())) {
      ++shed_deadline_;
      metrics_.shed_deadline_total.Increment();
      guard.Unlock();
      job(AdmissionOutcome::kShedDeadline);
      return SubmitOutcome::kShedDeadline;
    }
    if (admission_.per_tenant_quota > 0 && !context.tenant_id.empty()) {
      auto it = tenant_pending_.find(context.tenant_id);
      if (it != tenant_pending_.end() &&
          it->second >= admission_.per_tenant_quota) {
        ++shed_quota_;
        metrics_.shed_quota_total.Increment();
        guard.Unlock();
        job(AdmissionOutcome::kShedQuota);
        return SubmitOutcome::kShedQuota;
      }
    }
    if (TotalPendingLocked() >= capacity_) {
      // Full queue: a strictly more urgent arrival displaces the newest
      // evictable job of the least urgent class behind it; otherwise the
      // arrival itself is shed. Either way some job answers kShedQuota —
      // the queue never blocks a QoS producer.
      for (size_t cls = kNumPriorities; cls-- > 0;) {
        if (cls <= static_cast<size_t>(context.priority)) break;
        std::deque<Entry>& queue = classes_[cls];
        auto victim =
            std::find_if(queue.rbegin(), queue.rend(),
                         [](const Entry& e) { return e.evictable; });
        if (victim != queue.rend()) {
          evicted_job = std::move(victim->job);
          ReleaseTenantLocked(victim->tenant);
          queue.erase(std::next(victim).base());
          break;
        }
      }
      ++shed_quota_;
      metrics_.shed_quota_total.Increment();
      if (evicted_job == nullptr) {
        guard.Unlock();
        job(AdmissionOutcome::kShedQuota);
        return SubmitOutcome::kShedQuota;
      }
      // The victim was admitted once; its displacement completes it.
      ++completed_;
    }
    Entry entry;
    entry.job = std::move(job);
    entry.deadline = context.deadline;
    entry.tenant = context.tenant_id;
    entry.evictable = true;
    if (!entry.tenant.empty()) ++tenant_pending_[entry.tenant];
    classes_[static_cast<size_t>(context.priority)].push_back(
        std::move(entry));
    ++submitted_;
  }
  cv_not_empty_.NotifyOne();
  // Displacement kept the queue at capacity, so no cv_not_full_ signal: the
  // evicted job just answers for itself, on this thread.
  if (evicted_job != nullptr) evicted_job(AdmissionOutcome::kShedQuota);
  return SubmitOutcome::kAdmitted;
}

void SubmissionQueue::Shutdown() {
  {
    MutexLock guard(mu_);
    shutdown_ = true;
  }
  // Wake blocked producers (they return false) and the idle worker (it sees
  // shutdown once the backlog is drained, and exits).
  cv_not_full_.NotifyAll();
  cv_not_empty_.NotifyAll();
}

size_t SubmissionQueue::pending() const {
  MutexLock guard(mu_);
  return TotalPendingLocked();
}

size_t SubmissionQueue::pending(RequestPriority priority) const {
  MutexLock guard(mu_);
  return classes_[static_cast<size_t>(priority)].size();
}

uint64_t SubmissionQueue::submitted() const {
  MutexLock guard(mu_);
  return submitted_;
}

uint64_t SubmissionQueue::completed() const {
  MutexLock guard(mu_);
  return completed_;
}

uint64_t SubmissionQueue::shed_deadline() const {
  MutexLock guard(mu_);
  return shed_deadline_;
}

uint64_t SubmissionQueue::shed_quota() const {
  MutexLock guard(mu_);
  return shed_quota_;
}

size_t SubmissionQueue::TotalPendingLocked() const {
  size_t total = 0;
  for (const std::deque<Entry>& queue : classes_) total += queue.size();
  return total;
}

void SubmissionQueue::ReleaseTenantLocked(const std::string& tenant) {
  if (tenant.empty()) return;
  auto it = tenant_pending_.find(tenant);
  if (it == tenant_pending_.end()) return;
  if (--it->second == 0) tenant_pending_.erase(it);
}

void SubmissionQueue::WorkerLoop() {
  for (;;) {
    Entry entry;
    {
      MutexLock guard(mu_);
      while (!shutdown_ && TotalPendingLocked() == 0) {
        cv_not_empty_.Wait(mu_);
      }
      // Strict priority: drain a more urgent class to empty before
      // touching a less urgent one. FIFO within the class.
      std::deque<Entry>* queue = nullptr;
      for (std::deque<Entry>& cls : classes_) {
        if (!cls.empty()) {
          queue = &cls;
          break;
        }
      }
      if (queue == nullptr) return;  // shutdown with a drained backlog
      entry = std::move(queue->front());
      queue->pop_front();
      ReleaseTenantLocked(entry.tenant);
      if (entry.evictable &&
          entry.deadline.has_value() &&
          *entry.deadline <= std::chrono::steady_clock::now()) {
        // Expired while queued: answer immediately, never solve.
        ++shed_deadline_;
        metrics_.shed_deadline_total.Increment();
        guard.Unlock();
        cv_not_full_.NotifyOne();
        entry.job(AdmissionOutcome::kShedDeadline);
        guard.Lock();
        ++completed_;
        continue;
      }
    }
    cv_not_full_.NotifyOne();
    entry.job(AdmissionOutcome::kServed);
    {
      MutexLock guard(mu_);
      ++completed_;
    }
  }
}

}  // namespace kspdg
