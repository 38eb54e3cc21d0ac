// BatchTicket: the handle returned by the asynchronous SubmitBatch APIs.
//
// SubmitBatch enqueues a batch of requests on the service's admission-
// controlled submission queue (core/submission_queue.h) and returns
// immediately. The ticket is the future half of that contract: Wait()
// blocks until the batch has completed and yields the same
// Result<RouteBatchResponse> a synchronous QueryBatch call would have
// returned; Ready() polls. An optional BatchCallback passed to SubmitBatch
// fires on the submission worker thread after the ticket is fulfilled, for
// callers that prefer push over pull.
//
// Admission semantics live HERE, once, for every deployment: the first
// request's RequestContext is the batch's queue envelope. A batch with no
// QoS envelope keeps the original blocking-backpressure submission; a batch
// with one never blocks — if admission sheds it (deadline expired at submit
// or dequeue time, tenant over quota, displaced by a more urgent arrival)
// the ticket is still fulfilled with an OK RouteBatchResponse whose every
// item carries the shed status (kDeadlineExceeded / kResourceExhausted) and
// AdmissionOutcome. Shedding never fails the surrounding batch; only a
// shut-down service fails the ticket (FailedPrecondition).
//
// Tickets are cheap shareable handles (shared state under the hood): they
// may be copied, stored, and waited on from any thread, and stay valid
// after the owning service is destroyed (destruction drains the queue, so
// every accepted batch is answered first).
#ifndef KSPDG_API_BATCH_TICKET_H_
#define KSPDG_API_BATCH_TICKET_H_

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/routing_options.h"
#include "api/service_metrics.h"
#include "core/mutex.h"
#include "core/status.h"
#include "core/submission_queue.h"
#include "core/thread_annotations.h"

namespace kspdg {

class RoutingServiceInterface;

/// Completion callback for SubmitBatch: receives the batch outcome on the
/// submission worker thread, after the ticket is fulfilled (so Wait()
/// inside the callback would not deadlock — it returns immediately).
using BatchCallback = std::function<void(const Result<RouteBatchResponse>&)>;

/// The answer a queue-shed batch is fulfilled with: OK envelope, every item
/// carrying the shed status + outcome. `epoch` stays 0 — no snapshot was
/// read.
inline RouteBatchResponse MakeShedBatchResponse(size_t num_items,
                                                AdmissionOutcome outcome) {
  Status status =
      outcome == AdmissionOutcome::kShedDeadline
          ? Status::DeadlineExceeded(
                "deadline expired in the submission queue; shed")
          : Status::ResourceExhausted(
                "shed by admission control (tenant quota or full queue)");
  RouteBatchResponse batch;
  batch.items.resize(num_items);
  for (RouteBatchItem& item : batch.items) {
    item.status = status;
    item.admission = outcome;
  }
  batch.num_shed = num_items;
  return batch;
}

/// Completion handle for one asynchronously submitted batch (see file
/// comment). Default-constructed tickets are invalid placeholders.
class BatchTicket {
 public:
  using Solve =
      std::function<Result<RouteBatchResponse>(std::span<const RouteRequest>)>;

  BatchTicket() = default;

  /// The one SubmitBatch implementation every service shares: enqueues
  /// `solve(requests)` on `queue` under the first request's RequestContext
  /// and returns the ticket for it. The job owns its request list, so the
  /// caller may reuse its buffers the moment this returns. A shed batch
  /// fulfils the ticket with MakeShedBatchResponse (and settles `metrics`);
  /// a refused submission (queue shut down) fulfils it with
  /// FailedPrecondition. Either way the callback still fires (on the
  /// shedding thread), so no waiter can hang on a dropped batch.
  [[nodiscard]] static BatchTicket SubmitTo(
      SubmissionQueue& queue, std::vector<RouteRequest> requests,
      BatchCallback callback, Solve solve,
      const AdmissionMetricsView& metrics = {}) {
    auto state = std::make_shared<State>();
    BatchTicket ticket(state);
    const RequestContext envelope =
        requests.empty() ? RequestContext{} : requests.front().context;
    if (!envelope.HasQos()) {
      // No QoS envelope: the original contract — blocking backpressure,
      // never shed.
      bool accepted = queue.Submit(
          [state, requests = std::move(requests), callback,
           solve = std::move(solve)] {
            state->Fulfill(solve(requests));
            if (callback) callback(state->Get());
          });
      if (!accepted) {
        state->Fulfill(Status::FailedPrecondition(
            "service is shutting down; batch was not accepted"));
        if (callback) callback(state->Get());
      }
      return ticket;
    }
    const size_t num_items = requests.size();
    SubmitOutcome submitted = queue.Submit(
        envelope,
        [state, requests = std::move(requests), callback,
         solve = std::move(solve), metrics,
         num_items](AdmissionOutcome outcome) {
          if (outcome == AdmissionOutcome::kServed) {
            state->Fulfill(solve(requests));
          } else {
            // Shed at the queue: the batch never reached QueryBatch, so its
            // accounting is settled here — same series a solved batch's
            // shed items land in.
            (outcome == AdmissionOutcome::kShedDeadline ? metrics.shed_deadline
                                                        : metrics.shed_quota)
                .Increment(num_items);
            metrics.rejected.Increment(num_items);
            state->Fulfill(MakeShedBatchResponse(num_items, outcome));
          }
          if (callback) callback(state->Get());
        });
    if (submitted == SubmitOutcome::kRefused) {
      state->Fulfill(Status::FailedPrecondition(
          "service is shutting down; batch was not accepted"));
      if (callback) callback(state->Get());
    }
    return ticket;
  }

  /// Interface-typed convenience: enqueues `service.QueryBatch(requests)`.
  /// This is the one SubmitBatch body every implementation shares — the
  /// service passes its own queue, itself, and its admission counter
  /// handles. Defined out of line (in routing_service_interface.cc) because
  /// the interface is incomplete here. `service` must outlive the queue it
  /// hands in, which every implementation guarantees by owning the queue as
  /// its last member.
  [[nodiscard]] static BatchTicket SubmitTo(
      SubmissionQueue& queue, const RoutingServiceInterface& service,
      std::vector<RouteRequest> requests, BatchCallback callback,
      const AdmissionMetricsView& metrics = {});

  /// False only for default-constructed (placeholder) tickets; SubmitBatch
  /// always returns a valid ticket, even when the submission was refused.
  bool valid() const { return state_ != nullptr; }

  /// True once the batch has completed (non-blocking). Invalid tickets are
  /// never ready.
  bool Ready() const {
    if (state_ == nullptr) return false;
    MutexLock guard(state_->mu);
    return state_->outcome.has_value();
  }

  /// Blocks until the batch completes and returns its outcome — exactly
  /// what the equivalent synchronous QueryBatch call would have returned, a
  /// shed response (every item kDeadlineExceeded / kResourceExhausted) if
  /// admission answered without solving, or a FailedPrecondition status if
  /// the service refused the submission (shutting down). The reference
  /// stays valid while any copy of this ticket is alive. May be called
  /// repeatedly and from several threads.
  const Result<RouteBatchResponse>& Wait() const {
    assert(valid() && "Wait() on an invalid BatchTicket");
    MutexLock guard(state_->mu);
    while (!state_->outcome.has_value()) state_->cv.Wait(state_->mu);
    return *state_->outcome;
  }

 private:
  /// Shared promise half; SubmitTo fulfils it exactly once.
  struct State {
    Mutex mu{"BatchTicket::State::mu"};
    CondVar cv;
    std::optional<Result<RouteBatchResponse>> outcome GUARDED_BY(mu);

    void Fulfill(Result<RouteBatchResponse> result) {
      {
        MutexLock guard(mu);
        assert(!outcome.has_value() && "BatchTicket fulfilled twice");
        outcome.emplace(std::move(result));
      }
      cv.NotifyAll();
    }

    /// The fulfilled outcome; callable only after Fulfill (the completion
    /// paths call it on the fulfilling thread). Once set, the outcome is
    /// immutable, so the returned reference outlives the internal lock.
    const Result<RouteBatchResponse>& Get() {
      MutexLock guard(mu);
      assert(outcome.has_value() && "Get() before Fulfill()");
      return *outcome;
    }
  };

  explicit BatchTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

}  // namespace kspdg

#endif  // KSPDG_API_BATCH_TICKET_H_
