// The pluggable solver interface behind RoutingService.
//
// A KspSolver answers one query against an immutable weight snapshot: the
// service holds its reader lock for the whole Solve() call, so backends may
// freely read the graph and the DTLP without further synchronisation, and
// must not retain pointers past the call. All backends produce the same
// KspQueryResult shape (paths ascending by distance, plus engine stats), so
// callers can switch backends per request without changing response handling.
#ifndef KSPDG_API_KSP_SOLVER_H_
#define KSPDG_API_KSP_SOLVER_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/routing_options.h"
#include "core/status.h"
#include "core/types.h"
#include "dtlp/dtlp.h"
#include "graph/graph.h"
#include "kspdg/ksp_dg_options.h"

namespace kspdg {

class PartialProvider;
class CandsIndex;

/// Everything a backend may look at while solving. `options` has been merged
/// with the service defaults and validated; `graph` and `dtlp` stay frozen
/// for the duration of Solve().
struct SolverInput {
  const Graph* graph = nullptr;
  const Dtlp* dtlp = nullptr;
  /// Where the KSP-DG refine step computes boundary-pair partial paths.
  /// nullptr (the default) means inline on the calling thread
  /// (LocalPartialProvider); the service injects its provider, which ships
  /// each request to the shard owning the subgraph.
  /// Ignored by backends that do not use the DTLP. Must stay valid for the
  /// duration of Solve().
  PartialProvider* partials = nullptr;
  /// The CANDS baseline index (service-owned, maintained by
  /// ApplyTrafficBatch). Read only by the "cands" backend.
  const CandsIndex* cands = nullptr;
  VertexId source = kInvalidVertex;
  VertexId target = kInvalidVertex;
  RoutingOptions options;
};

/// Opaque per-worker scratch state for a solver backend. The service keeps
/// one scratch per (worker, backend) pair in an arena that outlives any
/// single batch and hands it back on every Solve call that worker makes, so
/// per-query allocations — Yen's ban buffers — are pooled instead of
/// rebuilt per request. A scratch is never used by two threads at once and
/// outlives traffic batches, so it must hold nothing derived from edge
/// weights.
class SolverScratch {
 public:
  virtual ~SolverScratch() = default;
};

class KspSolver {
 public:
  virtual ~KspSolver() = default;

  /// Registry key, e.g. "kspdg". Must be stable for the solver's lifetime.
  virtual std::string_view name() const = 0;

  /// Creates scratch state reusable across consecutive Solve calls on one
  /// worker thread at a fixed weight snapshot. nullptr (the default) means
  /// this backend keeps no reusable state.
  virtual std::unique_ptr<SolverScratch> NewScratch() const { return nullptr; }

  /// Computes up to options.k shortest loopless paths source -> target.
  /// Returning fewer (or zero) paths is not an error; Status is reserved for
  /// requests the backend cannot serve (e.g. unsupported k). `scratch` is
  /// either nullptr or an object this solver returned from NewScratch().
  virtual Result<KspQueryResult> Solve(const SolverInput& input,
                                       SolverScratch* scratch = nullptr)
      const = 0;
};

/// Lazily populated solver scratch, one slot per backend — the per-worker
/// arena the service keeps warm across batches (see SolverScratch for the
/// reuse contract). A handful of backends at most: linear scan beats
/// hashing. Not thread-safe; each pool worker owns one arena.
struct SolverScratchArena {
  std::vector<std::pair<const KspSolver*, std::unique_ptr<SolverScratch>>>
      by_solver;

  SolverScratch* Get(const KspSolver* solver) {
    for (auto& [known, scratch] : by_solver) {
      if (known == solver) return scratch.get();
    }
    by_solver.emplace_back(solver, solver->NewScratch());
    return by_solver.back().second.get();
  }
};

class SolverRegistry;

/// A validated, kind-resolved request ready to hand to a solver: what
/// PrepareRoutingQuery produces and FinishRouteResponse consumes.
struct PreparedRoute {
  QueryKind kind = QueryKind::kKsp;
  /// The k the client asked for (what the response reports). For
  /// kDiverseKsp, `merged.k` has been raised to k' = requested_k *
  /// overfetch; for every other kind the two are equal.
  uint32_t requested_k = 0;
  /// Options the solver sees (merged, kind-adjusted, validated).
  RoutingOptions merged;
  const KspSolver* solver = nullptr;
};

/// Request preparation for every deployment of the service: merges
/// `defaults` with the request's overrides, applies the kind's semantics
/// (kShortestPath forces k = 1 and defaults to the "cands" backend;
/// kDiverseKsp over-fetches k' = k * overfetch), validates the result,
/// resolves the backend in `registry`, and range-checks the endpoints
/// against `graph`.
Status PrepareRoutingQuery(const SolverRegistry& registry,
                           const RoutingOptions& defaults, const Graph& graph,
                           const RouteRequest& request, PreparedRoute* out);

/// Builds the CANDS baseline index the service owns: the
/// partition/build-thread knobs are derived from the DTLP options in ONE
/// place.
Result<std::unique_ptr<CandsIndex>> BuildCandsIndex(const Graph& graph,
                                                    const DtlpOptions& dtlp);

/// Response shaping: turns a solver result into the kind-tagged payload.
/// For kDiverseKsp this runs the diversity filter (src/mfp/diversity.h)
/// over the k' candidates — a pure function of the candidate list, so
/// answers stay byte-identical across deployments. `options` is the merged
/// options the solve ran with (moved into the response; passed explicitly
/// because the solve moves it through SolverInput first); the caller stamps
/// epoch and solve_micros afterwards.
RouteResponse FinishRouteResponse(QueryKind kind, uint32_t requested_k,
                                  RoutingOptions options, bool directed,
                                  KspQueryResult solved);

/// Name -> solver map owned by the service. Not thread-safe for writes;
/// register all backends before serving queries.
class SolverRegistry {
 public:
  /// Registry preloaded with the four standard backends: "kspdg" (DTLP
  /// filter-and-refine), "yen", "findksp", and "dijkstra" (k=1 degenerate
  /// case).
  static SolverRegistry Default();

  /// Fails with kInvalidArgument on empty names and kFailedPrecondition on
  /// duplicates.
  Status Register(std::unique_ptr<KspSolver> solver);

  /// nullptr when no solver has the name.
  const KspSolver* Find(std::string_view name) const;

  /// Registered names, sorted ascending (for error messages and tooling).
  std::vector<std::string> Names() const;

  size_t size() const { return solvers_.size(); }

 private:
  std::vector<std::unique_ptr<KspSolver>> solvers_;
};

}  // namespace kspdg

#endif  // KSPDG_API_KSP_SOLVER_H_
