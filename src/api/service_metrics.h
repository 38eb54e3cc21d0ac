// ServiceMetrics: the serving core's query-path instrumentation bundle —
// accepted/rejected totals, queries_total{kind,backend}, per-kind
// solve-latency histograms, traffic-batch totals. This bundle
// pre-registers every handle at service construction (registration takes
// the registry mutex; the registry is frozen against new backends once the
// first query is served), so the hot path is pure handle increments: no
// lock, no string building, one relaxed fetch_add per counter touched.
// The registry is the single source of truth: read it through Metrics().
#ifndef KSPDG_API_SERVICE_METRICS_H_
#define KSPDG_API_SERVICE_METRICS_H_

#include <array>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/routing_options.h"
#include "obs/metrics.h"

namespace kspdg {

/// Admission-decision totals every RoutingServiceInterface implementation
/// exports under the SAME series names — admission_admitted_total,
/// admission_shed_deadline_total, admission_shed_quota_total — so fleet
/// dashboards and the overload bench read any service identically. The
/// invariant: admitted + shed_deadline + shed_quota + rejected
/// (queries_rejected_total minus the shed counters) accounts for every
/// issued request.
struct AdmissionCounters {
  uint64_t admitted = 0;
  uint64_t shed_deadline = 0;
  uint64_t shed_quota = 0;
};

/// Reads the admission series out of any service's Metrics() snapshot.
AdmissionCounters AdmissionCountersFrom(const MetricsSnapshot& snapshot);

/// The counter-handle subset BatchTicket::SubmitTo needs so batches shed at
/// the queue (never solved) settle the same series as solved batches.
/// Default-constructed handles are no-ops.
struct AdmissionMetricsView {
  Counter shed_deadline;
  Counter shed_quota;
  /// queries_rejected_total: shed items also count here, so the coarse
  /// ok/rejected accounting stays exact ("every issued item is ok or not").
  Counter rejected;
};

struct ServiceMetrics {
  /// Registers the service-wide handles plus a queries_total{kind,backend}
  /// counter matrix for every backend name. Call once at Create, before
  /// any query is served.
  void Init(MetricsRegistry& registry,
            const std::vector<std::string>& backends);

  /// Extends the matrix for a backend registered after Init (custom
  /// solvers). Must be called before the first query, like RegisterSolver.
  void AddBackend(MetricsRegistry& registry, std::string_view backend);

  /// One accepted query: bumps queries_ok_total,
  /// queries_total{kind,backend}, and the kind's latency histogram.
  /// Lock-free; safe from any number of threads.
  void RecordQuery(QueryKind kind, std::string_view backend,
                   double solve_micros) const;

  /// `n` rejected queries (validation or solve failures).
  void RecordRejected(uint64_t n = 1) const { queries_rejected.Increment(n); }

  /// One failed sync Query: bumps queries_rejected_total always, plus the
  /// admission shed counter the status encodes (kDeadlineExceeded /
  /// kResourceExhausted), so shed work is visible as shed, not just failed.
  void RecordQueryFailure(const Status& status) const;

  /// The one post-solve accounting step of QueryBatch: classifies every
  /// item (RouteBatchItem::admission), tallies num_ok / num_rejected /
  /// num_shed, and settles the admission + rejection counters. Served items
  /// were already recorded per solve via RecordQuery.
  void FinalizeBatchAdmission(RouteBatchResponse& batch) const;

  /// Queue-level view for BatchTicket::SubmitTo.
  AdmissionMetricsView admission_view() const {
    AdmissionMetricsView view;
    view.shed_deadline = admission_shed_deadline;
    view.shed_quota = admission_shed_quota;
    view.rejected = queries_rejected;
    return view;
  }

  /// One applied traffic batch of `updates` weight updates.
  void RecordTrafficBatch(uint64_t updates) const {
    traffic_batches.Increment();
    weight_updates.Increment(updates);
  }

  Counter queries_ok;
  Counter queries_rejected;
  Counter traffic_batches;
  Counter weight_updates;
  /// Admission decisions (see AdmissionCounters). admission_admitted tracks
  /// queries_ok one-for-one; the shed counters are a refinement of
  /// queries_rejected by admission reason.
  Counter admission_admitted;
  Counter admission_shed_deadline;
  Counter admission_shed_quota;
  /// Indexed by static_cast<size_t>(QueryKind).
  std::array<Histogram, 3> solve_latency;
  /// queries_total{kind,backend}: one pre-registered counter per cell.
  /// Read-only while serving (std::less<> enables string_view lookups
  /// without a temporary string).
  std::map<std::string, std::array<Counter, 3>, std::less<>> per_backend;
};

}  // namespace kspdg

#endif  // KSPDG_API_SERVICE_METRICS_H_
