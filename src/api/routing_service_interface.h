// RoutingServiceInterface: the one serving contract every implementation
// answers to.
//
// One serving core, RoutingService, answers it for every deployment: any
// number of in-process shards, or the out-of-process replica fleet of
// RemoteShardedRoutingService. Harnesses that only care about the contract
// (the bench, the parity tests, the async ticket plumbing) are written once
// against the abstract type and run unchanged over any deployment or any
// pair of them.
//
// The contract is the serving surface plus observability:
//
//   Query / QueryBatch / SubmitBatch   answer traffic on one epoch snapshot
//   ApplyTrafficBatch                  move every replica of the weights to
//                                      the next epoch atomically
//   CurrentEpoch / BackendNames        introspection used by harnesses
//   Metrics                            a consistent MetricsSnapshot of the
//                                      implementation's registry (for the
//                                      remote service: master + the fleet
//                                      of worker registries, shard-tagged)
//
// Admission control is part of the contract and identical on every
// implementation, because it lives in two shared seams rather than per
// service: requests carry a RequestContext (priority / deadline /
// tenant_id, core/admission.h); expired work is answered with
// kDeadlineExceeded instead of being solved (PrepareRoutingQuery);
// SubmitBatch routes through BatchTicket::SubmitTo, where a QoS envelope
// sheds instead of blocking (see batch_ticket.h). Every implementation
// exports the same admission series — admission_admitted_total,
// admission_shed_deadline_total, admission_shed_quota_total — readable
// from Metrics() via AdmissionCountersFrom (api/service_metrics.h).
#ifndef KSPDG_API_ROUTING_SERVICE_INTERFACE_H_
#define KSPDG_API_ROUTING_SERVICE_INTERFACE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/batch_ticket.h"
#include "api/routing_options.h"
#include "cands/cands.h"
#include "core/status.h"
#include "dtlp/dtlp.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace kspdg {

/// Result of one applied traffic batch (identical across implementations).
struct TrafficBatchResult {
  /// Epoch the service entered by applying this batch; responses computed
  /// after this batch carry an epoch >= this value.
  uint64_t epoch = 0;
  /// Algorithm 2 maintenance counters.
  DtlpUpdateStats dtlp;
  /// CANDS rebuild-on-update maintenance: the expensive side of the
  /// Figures 40-41 contrast.
  CandsUpdateStats cands;
  /// Wall time of the CANDS rebuild within this batch.
  double cands_micros = 0;
};

/// Abstract serving surface (see file comment). All methods are
/// thread-safe on every implementation; queries run concurrently with each
/// other and serialise against ApplyTrafficBatch.
class RoutingServiceInterface {
 public:
  virtual ~RoutingServiceInterface() = default;

  /// Answers q(source, target) — any QueryKind — on the current weight
  /// snapshot.
  virtual Result<RouteResponse> Query(const RouteRequest& request) const = 0;

  /// Answers a whole batch of queries on ONE weight snapshot; invalid
  /// requests receive per-item statuses without failing the batch.
  virtual Result<RouteBatchResponse> QueryBatch(
      std::span<const RouteRequest> requests) const = 0;

  /// Asynchronous QueryBatch: enqueues on the implementation's admission-
  /// controlled submission queue and returns a ticket immediately. The
  /// first request's RequestContext is the batch's queue envelope. A batch
  /// with no QoS envelope keeps the original contract — blocks only when
  /// the queue is full (backpressure), never shed. A batch with one never
  /// blocks: under pressure it is shed instead (ticket fulfilled with an
  /// OK response whose items carry kDeadlineExceeded / kResourceExhausted
  /// statuses and AdmissionOutcomes — shedding never fails the batch).
  /// Identical on every deployment by construction: all route through
  /// BatchTicket::SubmitTo.
  [[nodiscard]] virtual BatchTicket SubmitBatch(
      std::vector<RouteRequest> requests,
      BatchCallback callback = nullptr) const = 0;

  /// Applies one batch of weight updates atomically; validated up front
  /// and rejected as a whole on any bad entry.
  virtual Result<TrafficBatchResult> ApplyTrafficBatch(
      std::span<const WeightUpdate> updates) = 0;

  /// Epoch of the current committed weight snapshot (0 until the first
  /// applied batch).
  virtual uint64_t CurrentEpoch() const = 0;

  /// Registered backend names, sorted.
  virtual std::vector<std::string> BackendNames() const = 0;

  /// Consistent snapshot of the implementation's metrics registry. Safe to
  /// call while serving: scrapes never block queries or updates.
  virtual MetricsSnapshot Metrics() const = 0;
};

}  // namespace kspdg

#endif  // KSPDG_API_ROUTING_SERVICE_INTERFACE_H_
