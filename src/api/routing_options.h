// Request/response value types and the layered option model of the routing
// API (the only public surface for route queries).
//
// The surface is a typed multi-kind query model: a RouteRequest names a
// QueryKind (k shortest paths, single shortest path, diversity-aware KSP)
// plus kind-specific parameters, and a RouteResponse carries a kind-tagged
// payload — new scenarios plug in as kinds behind this one surface, not as
// parallel APIs beside it.
//
// Options come in two layers: a RoutingService is created with a
// RoutingOptions holding the service-wide defaults, and every RouteRequest
// may override any subset of those knobs through RoutingOverrides. The
// merged result is validated once per request; solver backends receive an
// options struct that is guaranteed well-formed.
#ifndef KSPDG_API_ROUTING_OPTIONS_H_
#define KSPDG_API_ROUTING_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/status.h"
#include "core/types.h"
#include "ksp/path.h"
#include "kspdg/ksp_dg_options.h"
#include "mfp/diversity.h"

namespace kspdg {

/// Well-known backend names registered by SolverRegistry::Default().
inline constexpr const char* kBackendKspDg = "kspdg";
inline constexpr const char* kBackendYen = "yen";
inline constexpr const char* kBackendFindKsp = "findksp";
inline constexpr const char* kBackendDijkstra = "dijkstra";
inline constexpr const char* kBackendCands = "cands";

/// What a RouteRequest asks for. Every kind is answered through the same
/// facade (Query/QueryBatch/SubmitBatch on either service).
enum class QueryKind : uint8_t {
  /// k shortest loopless paths (the paper's KSP-DG workload).
  kKsp = 0,
  /// Single exact shortest path. Forces k = 1; defaults to the "cands"
  /// backend (the CANDS baseline index, Yang et al. VLDB'14 — the paper's
  /// reference [26]) unless the request overrides the backend.
  kShortestPath = 1,
  /// Diversity-aware KSP: over-fetch k' = k * overfetch candidates through
  /// the chosen backend, then keep <= k routes whose pairwise edge-set
  /// similarity stays <= θ (src/mfp/diversity.h).
  kDiverseKsp = 2,
};

/// Stable name for logs and error messages.
const char* QueryKindName(QueryKind kind);

/// Service-level option set; every knob can be overridden per request.
/// Folds the former KspDgOptions engine knobs into the public API surface.
struct RoutingOptions {
  /// Number of shortest loopless paths to return (at most kMaxK).
  uint32_t k = 2;
  /// Solver backend answering the query (a SolverRegistry name).
  std::string backend = kBackendKspDg;
  /// Hard cap on KSP-DG filter/refine iterations (safety valve; §5.5 argues
  /// ~k iterations in practice). Ignored by the baseline backends.
  uint32_t max_iterations = 1000;
  /// kDiverseKsp knobs: θ and the over-fetch factor. Ignored by the other
  /// kinds.
  DiversityOptions diversity;

  /// Checks the invariants every solver relies on.
  Status Validate() const;

  /// Projection onto the internal KSP-DG engine knobs.
  KspDgOptions ToEngineOptions() const;
};

/// Per-request overrides; unset fields fall back to the service defaults.
/// Each field shadows the RoutingOptions knob of the same name.
struct RoutingOverrides {
  std::optional<uint32_t> k;
  std::optional<std::string> backend;
  std::optional<uint32_t> max_iterations;
  /// kDiverseKsp: shadows RoutingOptions::diversity.theta / .overfetch.
  std::optional<double> diversity_theta;
  std::optional<uint32_t> diversity_overfetch;
};

/// Layers `overrides` on top of `defaults` (no validation).
RoutingOptions MergeOptions(const RoutingOptions& defaults,
                            const RoutingOverrides& overrides);

/// One route query q(s, t) of some QueryKind. Endpoints must be distinct,
/// in-range vertex ids; the service rejects anything else with
/// kInvalidArgument before touching a solver.
struct RouteRequest {
  /// What is being asked; kind-specific knobs live in `options`
  /// (diversity_theta / diversity_overfetch for kDiverseKsp).
  QueryKind kind = QueryKind::kKsp;
  VertexId source = kInvalidVertex;
  VertexId target = kInvalidVertex;
  /// Per-request knobs layered over the service defaults.
  RoutingOverrides options;
  /// QoS envelope: priority class, optional absolute deadline, tenant id
  /// (core/admission.h). A request whose deadline has already passed is
  /// answered kDeadlineExceeded without being solved — at submission, at
  /// dequeue, and once more when it reaches its solver. Default-constructed
  /// contexts keep the original behaviour everywhere (including blocking
  /// SubmitBatch backpressure); setting any field opts the request into
  /// admission control, where submission sheds instead of blocking. For
  /// SubmitBatch the first request's context is the batch's queue envelope
  /// (see RoutingServiceInterface::SubmitBatch).
  RequestContext context;
};

/// Per-query measurements, filled by every backend.
struct QueryStats {
  /// Wall time spent inside the solver (excludes lock wait).
  double solve_micros = 0;
  /// KSP-DG internals; zero for the baseline backends.
  KspDgQueryStats engine;
};

/// Kind-tagged answer to one RouteRequest.
struct RouteResponse {
  /// Which kind produced the payload below (mirrors the request's kind).
  QueryKind kind = QueryKind::kKsp;
  /// The route payload of every kind: ascending by distance. kKsp returns
  /// up to k entries (fewer when the graph does not contain k simple s-t
  /// paths), kShortestPath at most one, kDiverseKsp up to k pairwise-
  /// dissimilar routes filtered from the k' candidates.
  std::vector<Path> paths;
  /// Weight-snapshot epoch this answer was computed at. The service bumps
  /// the epoch on every applied traffic batch, so two responses with equal
  /// epochs saw identical weights.
  uint64_t epoch = 0;
  /// Effective k after merging overrides — the *requested* k for
  /// kDiverseKsp (the over-fetched k' is reported in `diverse`).
  uint32_t k = 0;
  /// Name of the backend that produced the answer.
  std::string backend;
  QueryStats stats;
  /// Kind-specific payload: engaged iff kind == kDiverseKsp.
  std::optional<DiverseStats> diverse;
};

/// Outcome of one request inside a batch. A bad or shed request never
/// fails its batch: it gets a non-OK status here while its neighbours are
/// answered.
struct RouteBatchItem {
  Status status;          // OK iff `response` holds an answer
  RouteResponse response; // meaningful only when status.ok()
  /// What admission decided for this item (derived from `status`): served,
  /// rejected (validation/solver error), shed on deadline
  /// (kDeadlineExceeded), or shed by load control (kResourceExhausted).
  AdmissionOutcome admission = AdmissionOutcome::kServed;
};

/// Answer to RoutingService::QueryBatch. Items correspond 1:1 (same order)
/// to the request span.
struct RouteBatchResponse {
  std::vector<RouteBatchItem> items;
  /// Weight-snapshot epoch shared by *every* answered item: the service
  /// holds its reader lock once across the whole batch, so no item can see
  /// a different snapshot than its neighbours.
  uint64_t epoch = 0;
  size_t num_ok = 0;
  /// Items that failed for a non-admission reason (validation or solver
  /// errors). Shed items are tallied separately in num_shed.
  size_t num_rejected = 0;
  /// Items admission answered without solving (deadline expired or load
  /// control) — see RouteBatchItem::admission for the per-item reason.
  size_t num_shed = 0;
  /// Wall time of the snapshot section (validation excluded).
  double batch_micros = 0;
};

}  // namespace kspdg

#endif  // KSPDG_API_ROUTING_OPTIONS_H_
