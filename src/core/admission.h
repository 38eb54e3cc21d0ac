// Admission-control primitives shared by the QoS request envelope and the
// admission-controlled SubmissionQueue.
//
// Every request may carry a RequestContext: a priority class, an optional
// absolute deadline, and a tenant id. The serving stack uses the three
// fields independently — priorities order the submission queue (strict
// priority, FIFO within a class), deadlines shed expired work at enqueue,
// dequeue, and solve time, and tenant ids bound how much of the queue any
// one caller may hold. An AdmissionOutcome labels what the admission layer
// decided for a piece of work; shedding is reported through statuses
// (kDeadlineExceeded / kResourceExhausted) that never fail a surrounding
// batch.
#ifndef KSPDG_CORE_ADMISSION_H_
#define KSPDG_CORE_ADMISSION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/status.h"

namespace kspdg {

/// Priority classes, most urgent first. The submission queue serves a
/// strictly higher class to exhaustion before touching a lower one.
enum class RequestPriority : uint8_t {
  /// Latency-sensitive foreground traffic; may evict queued batch work.
  kInteractive = 0,
  /// The default class; also the class of requests with no QoS envelope.
  kNormal = 1,
  /// Throughput traffic that yields to everything else under pressure.
  kBatch = 2,
};

inline constexpr size_t kNumPriorities = 3;

/// Stable name for logs, metric labels, and bench reports.
inline const char* PriorityName(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kInteractive:
      return "interactive";
    case RequestPriority::kNormal:
      return "normal";
    case RequestPriority::kBatch:
      return "batch";
  }
  return "unknown";
}

/// What the admission layer decided for one request (or one whole batch).
enum class AdmissionOutcome : uint8_t {
  /// Admitted and answered on a weight snapshot.
  kServed = 0,
  /// Failed for a non-admission reason (validation, solver error).
  kRejected = 1,
  /// Shed because its deadline expired before it could be solved.
  kShedDeadline = 2,
  /// Shed by load control: tenant over quota, or displaced/refused by a
  /// full queue.
  kShedQuota = 3,
};

/// The QoS envelope a request may carry. Default-constructed contexts
/// (normal priority, no deadline, no tenant) opt OUT of admission control:
/// they keep the original blocking-backpressure submission contract.
/// Setting any field opts the request in — submission never blocks, work
/// is shed instead (see SubmissionQueue).
struct RequestContext {
  RequestPriority priority = RequestPriority::kNormal;
  /// Absolute steady-clock point after which the answer is worthless. The
  /// stack sheds expired work instead of solving it: at submit, at dequeue,
  /// and once more when an individual request reaches its solver.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Accounting identity for per-tenant pending quotas ("" = unmetered).
  std::string tenant_id;

  /// True when any envelope field is set, i.e. the request asked for
  /// admission-controlled (shedding, never blocking) submission.
  bool HasQos() const {
    return priority != RequestPriority::kNormal || deadline.has_value() ||
           !tenant_id.empty();
  }

  /// True when a deadline is set and already past at `now`.
  bool ExpiredAt(std::chrono::steady_clock::time_point now) const {
    return deadline.has_value() && *deadline <= now;
  }
};

/// Maps a per-item Status back to the admission decision it encodes:
/// kDeadlineExceeded — shed on deadline, kResourceExhausted — shed by load
/// control, OK — served, anything else — rejected. The one classification
/// every accounting site (batch tallies, admission counters, bench) shares.
inline AdmissionOutcome AdmissionOutcomeFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return AdmissionOutcome::kServed;
    case StatusCode::kDeadlineExceeded:
      return AdmissionOutcome::kShedDeadline;
    case StatusCode::kResourceExhausted:
      return AdmissionOutcome::kShedQuota;
    default:
      return AdmissionOutcome::kRejected;
  }
}

}  // namespace kspdg

#endif  // KSPDG_CORE_ADMISSION_H_
