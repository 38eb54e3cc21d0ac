// Write-preferring reader/writer lock for epoch-snapshot services.
//
// std::shared_mutex (pthread rwlock) may starve writers indefinitely under
// continuous reader churn — on a loaded query service the weight-update
// path would never run. EpochLock gives writers strict preference: once a
// writer is waiting, new readers queue behind it, the writer drains the
// active readers, applies its batch, and readers resume. This is the
// "drain readers, apply, bump epoch" discipline RoutingService relies on.
//
// Meets the SharedMutex named requirements, so it drops into
// std::shared_lock / std::unique_lock; first-party code uses the annotated
// EpochWriterLock / EpochReaderLock guards below, which thread-safety
// analysis can follow (the std adapters live in system headers it cannot
// see into).
#ifndef KSPDG_CORE_EPOCH_LOCK_H_
#define KSPDG_CORE_EPOCH_LOCK_H_

#include <cstdint>

#include "core/lock_order.h"
#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "core/timer.h"
#include "obs/metrics.h"

namespace kspdg {

/// Write-preferring shared/exclusive lock (see file comment). Readers hold
/// it shared for the duration of one snapshot read (a query); the writer
/// holds it exclusive while moving the protected state to the next epoch.
/// Not reentrant in either mode.
///
/// The lock is itself a CAPABILITY, so services annotate their snapshot
/// state GUARDED_BY the EpochLock instance; the lock-order checker sees it
/// under the role name passed at construction. The internal mu_ below is a
/// strict leaf: the public capability is reported to the order graph only
/// outside the internal critical section, so "EpochLock::mu_" never gains
/// outgoing edges and cannot fabricate a cycle between its owners.
class CAPABILITY("epoch_lock") EpochLock {
 public:
  EpochLock() = default;
  /// `name` labels this lock's role in lock-order diagnostics, e.g.
  /// "RoutingService::snapshot_lock". Must outlive the lock.
  explicit EpochLock(const char* name) : name_(name) {}

  EpochLock(const EpochLock&) = delete;
  EpochLock& operator=(const EpochLock&) = delete;

  // --- exclusive (writer) ---------------------------------------------------

  /// Wires writer-drain telemetry: `drains` counts exclusive acquisitions
  /// and `wait_micros` records how long each writer waited for the active
  /// readers to drain. Handles are stored under the internal mutex, so
  /// instrumentation may be attached while the lock is in use (services do
  /// it once at Create).
  void InstrumentWriter(Counter drains, Histogram wait_micros) {
    MutexLock guard(mu_);
    writer_drains_ = drains;
    writer_wait_micros_ = wait_micros;
  }

  /// Acquires the lock exclusively: registers as a waiting writer (which
  /// blocks new readers), waits for the active readers to drain, then owns
  /// the state alone until unlock(). Blocking; not reentrant.
  void lock() ACQUIRE() {
    WallTimer drain_timer;
    {
      MutexLock guard(mu_);
      ++waiting_writers_;
      while (writer_active_ || active_readers_ != 0) cv_writers_.Wait(mu_);
      --waiting_writers_;
      writer_active_ = true;
      writer_drains_.Increment();
      writer_wait_micros_.Observe(drain_timer.ElapsedMicros());
    }
    lock_order::OnAcquire(name_);
  }

  /// Acquires exclusively iff no reader or writer currently holds the lock;
  /// never blocks and never queues. Returns true on success.
  bool try_lock() TRY_ACQUIRE(true) {
    {
      MutexLock guard(mu_);
      if (writer_active_ || active_readers_ != 0) return false;
      writer_active_ = true;
    }
    lock_order::OnAcquire(name_);
    return true;
  }

  /// Releases exclusive ownership. A queued writer is woken before any
  /// reader, so back-to-back update batches cannot be interleaved by
  /// queries sneaking in between them.
  void unlock() RELEASE() {
    lock_order::OnRelease(name_);
    MutexLock guard(mu_);
    writer_active_ = false;
    // Wake a queued writer first; readers get the gap only when no writer
    // is waiting.
    if (waiting_writers_ > 0) {
      cv_writers_.NotifyOne();
    } else {
      cv_readers_.NotifyAll();
    }
  }

  // --- shared (readers) -----------------------------------------------------

  /// Acquires the lock shared. Blocks while a writer is active OR waiting —
  /// that queueing-behind-writers rule is what makes the lock
  /// write-preferring. Any number of readers may hold the lock at once.
  void lock_shared() ACQUIRE_SHARED() {
    {
      MutexLock guard(mu_);
      while (writer_active_ || waiting_writers_ != 0) cv_readers_.Wait(mu_);
      ++active_readers_;
    }
    lock_order::OnAcquire(name_);
  }

  /// Acquires shared iff no writer is active or waiting; never blocks.
  /// Returns true on success.
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    {
      MutexLock guard(mu_);
      if (writer_active_ || waiting_writers_ > 0) return false;
      ++active_readers_;
    }
    lock_order::OnAcquire(name_);
    return true;
  }

  /// Releases one shared hold; the last reader out hands the lock to a
  /// waiting writer.
  void unlock_shared() RELEASE_SHARED() {
    lock_order::OnRelease(name_);
    MutexLock guard(mu_);
    if (--active_readers_ == 0 && waiting_writers_ > 0) {
      cv_writers_.NotifyOne();
    }
  }

  const char* name() const { return name_; }

 private:
  Mutex mu_{"EpochLock::mu_"};
  CondVar cv_readers_;
  CondVar cv_writers_;
  uint32_t active_readers_ GUARDED_BY(mu_) = 0;
  uint32_t waiting_writers_ GUARDED_BY(mu_) = 0;
  bool writer_active_ GUARDED_BY(mu_) = false;
  /// Optional telemetry (no-op handles until InstrumentWriter); touched
  /// only under mu_, on the writer path.
  Counter writer_drains_ GUARDED_BY(mu_);
  Histogram writer_wait_micros_ GUARDED_BY(mu_);
  const char* const name_ = "EpochLock";
};

/// RAII exclusive hold on an EpochLock (the annotated std::unique_lock).
/// Unlock() releases early — the update paths publish the new epoch and
/// drop the lock before running completion callbacks.
class SCOPED_CAPABILITY EpochWriterLock {
 public:
  explicit EpochWriterLock(EpochLock& lock) ACQUIRE(lock) : lock_(lock) {
    lock_.lock();
  }

  EpochWriterLock(const EpochWriterLock&) = delete;
  EpochWriterLock& operator=(const EpochWriterLock&) = delete;

  ~EpochWriterLock() RELEASE() {
    if (owned_) lock_.unlock();
  }

  /// Releases before end of scope; the guard must not be reused after.
  void Unlock() RELEASE() {
    owned_ = false;
    lock_.unlock();
  }

  /// True until Unlock() — same accessor std::unique_lock offers.
  bool owns_lock() const { return owned_; }

 private:
  EpochLock& lock_;
  bool owned_ = true;
};

/// RAII shared hold on an EpochLock (the annotated std::shared_lock).
class SCOPED_CAPABILITY EpochReaderLock {
 public:
  explicit EpochReaderLock(EpochLock& lock) ACQUIRE_SHARED(lock)
      : lock_(lock) {
    lock_.lock_shared();
  }

  EpochReaderLock(const EpochReaderLock&) = delete;
  EpochReaderLock& operator=(const EpochReaderLock&) = delete;

  ~EpochReaderLock() RELEASE_GENERIC() {
    if (owned_) lock_.unlock_shared();
  }

  /// Releases before end of scope; the guard must not be reused after.
  void Unlock() RELEASE_GENERIC() {
    owned_ = false;
    lock_.unlock_shared();
  }

  /// True until Unlock() — same accessor std::shared_lock offers.
  bool owns_lock() const { return owned_; }

 private:
  EpochLock& lock_;
  bool owned_ = true;
};

}  // namespace kspdg

#endif  // KSPDG_CORE_EPOCH_LOCK_H_
