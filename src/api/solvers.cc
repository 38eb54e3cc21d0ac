// The four standard KspSolver backends and the default registry, plus
// option merging/validation. Everything here is an internal adapter: the
// algorithms themselves live in src/kspdg and src/ksp.
#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "api/ksp_solver.h"
#include "api/routing_options.h"
#include "cands/cands.h"
#include "core/strings.h"
#include "ksp/dijkstra.h"
#include "ksp/findksp.h"
#include "ksp/yen.h"
#include "kspdg/partial_provider.h"
#include "kspdg/query_context.h"
#include "mfp/diversity.h"

namespace kspdg {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kKsp:
      return "ksp";
    case QueryKind::kShortestPath:
      return "shortest_path";
    case QueryKind::kDiverseKsp:
      return "diverse_ksp";
  }
  return "unknown";
}

Status RoutingOptions::Validate() const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (k > kMaxK) {
    return Status::InvalidArgument("k = " + std::to_string(k) +
                                   " exceeds the cap of " +
                                   std::to_string(kMaxK));
  }
  if (backend.empty()) return Status::InvalidArgument("backend must be named");
  if (max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (!(diversity.theta >= 0.0) || !(diversity.theta <= 1.0)) {
    return Status::InvalidArgument("diversity theta must lie in [0, 1]");
  }
  if (diversity.overfetch == 0) {
    return Status::InvalidArgument("diversity overfetch must be >= 1");
  }
  return Status::OK();
}

KspDgOptions RoutingOptions::ToEngineOptions() const {
  KspDgOptions engine;
  engine.k = k;
  engine.max_iterations = max_iterations;
  return engine;
}

Status PrepareRoutingQuery(const SolverRegistry& registry,
                           const RoutingOptions& defaults, const Graph& graph,
                           const RouteRequest& request, PreparedRoute* out) {
  // Admission: expired work is answered, never solved. This is the last of
  // the three deadline checks (submit, dequeue, solve) and the one that
  // covers the sync Query/QueryBatch paths and per-item deadlines inside an
  // admitted batch — every deployment shares this seam.
  if (request.context.ExpiredAt(std::chrono::steady_clock::now())) {
    return Status::DeadlineExceeded("deadline expired before solve; shed");
  }
  out->kind = request.kind;
  out->merged = MergeOptions(defaults, request.options);
  // Kind semantics are applied before validation so kind-driven adjustments
  // (k = 1, k' over-fetch) are themselves validated.
  switch (request.kind) {
    case QueryKind::kKsp:
      break;
    case QueryKind::kShortestPath:
      if (request.options.k.has_value() && *request.options.k != 1) {
        return Status::InvalidArgument(
            std::string(QueryKindName(request.kind)) +
            " queries serve exactly k=1 (got k=" +
            std::to_string(*request.options.k) + ")");
      }
      out->merged.k = 1;
      // The kind's home backend is the CANDS baseline; an explicit override
      // (dijkstra, kspdg, ...) is respected.
      if (!request.options.backend.has_value()) {
        out->merged.backend = kBackendCands;
      }
      break;
    case QueryKind::kDiverseKsp: {
      uint64_t k_prime = static_cast<uint64_t>(out->merged.k) *
                         static_cast<uint64_t>(out->merged.diversity.overfetch);
      // Checked here, before the narrowing below: the product may not fit
      // uint32 (Validate caps k' like any k).
      if (k_prime > kMaxK) {
        return Status::InvalidArgument(
            std::string(QueryKindName(request.kind)) +
            " over-fetch k * overfetch = " + std::to_string(k_prime) +
            " exceeds the cap of " + std::to_string(kMaxK));
      }
      out->requested_k = out->merged.k;
      out->merged.k = static_cast<uint32_t>(k_prime);
      break;
    }
    default:
      return Status::InvalidArgument("unknown query kind");
  }
  if (request.kind != QueryKind::kDiverseKsp) {
    out->requested_k = out->merged.k;
  }
  KSPDG_RETURN_NOT_OK(out->merged.Validate());
  out->solver = registry.Find(out->merged.backend);
  if (out->solver == nullptr) {
    return Status::NotFound("unknown backend '" + out->merged.backend +
                            "' (registered: " + JoinNames(registry.Names()) +
                            ")");
  }
  if (request.source >= graph.NumVertices() ||
      request.target >= graph.NumVertices()) {
    return Status::InvalidArgument("query vertex out of range");
  }
  if (request.source == request.target) {
    return Status::InvalidArgument("source equals target");
  }
  return Status::OK();
}

Result<std::unique_ptr<CandsIndex>> BuildCandsIndex(const Graph& graph,
                                                    const DtlpOptions& dtlp) {
  CandsOptions options;
  options.partition = dtlp.partition;
  options.build_threads = dtlp.build_threads;
  return CandsIndex::Build(graph, options);
}

RouteResponse FinishRouteResponse(QueryKind kind, uint32_t requested_k,
                                  RoutingOptions options, bool directed,
                                  KspQueryResult solved) {
  RouteResponse response;
  response.kind = kind;
  response.k = requested_k;
  response.stats.engine = solved.stats;
  if (kind == QueryKind::kDiverseKsp) {
    std::vector<Path> kept;
    response.diverse = SelectDiversePaths(solved.paths, requested_k, directed,
                                          options.diversity, &kept);
    response.paths = std::move(kept);
  } else {
    response.paths = std::move(solved.paths);
  }
  response.backend = std::move(options.backend);
  return response;
}

RoutingOptions MergeOptions(const RoutingOptions& defaults,
                            const RoutingOverrides& overrides) {
  RoutingOptions merged = defaults;
  if (overrides.k.has_value()) merged.k = *overrides.k;
  if (overrides.backend.has_value()) merged.backend = *overrides.backend;
  if (overrides.max_iterations.has_value()) {
    merged.max_iterations = *overrides.max_iterations;
  }
  if (overrides.diversity_theta.has_value()) {
    merged.diversity.theta = *overrides.diversity_theta;
  }
  if (overrides.diversity_overfetch.has_value()) {
    merged.diversity.overfetch = *overrides.diversity_overfetch;
  }
  return merged;
}

namespace {

/// DTLP filter-and-refine (Algorithms 3 + 4); the paper's KSP-DG.
/// Cross-query partial reuse lives in the service's partial provider, per
/// (shard, worker), so it flushes with the shard it derives from.
class KspDgSolver : public KspSolver {
 public:
  std::string_view name() const override { return kBackendKspDg; }

  Result<KspQueryResult> Solve(const SolverInput& input) const override {
    if (input.dtlp == nullptr) {
      return Status::FailedPrecondition("kspdg backend requires a DTLP index");
    }
    // Inline partial computation unless the caller injected a provider (the
    // service routes partials to the shard owning each subgraph).
    LocalPartialProvider local_provider(*input.dtlp);
    PartialProvider* provider =
        input.partials != nullptr ? input.partials : &local_provider;
    return RunKspDgQuery(*input.dtlp, provider, input.source, input.target,
                         input.options.ToEngineOptions());
  }
};

/// Yen/Lawler over the flat graph under current weights.
class YenSolver : public KspSolver {
 public:
  std::string_view name() const override { return kBackendYen; }

  Result<KspQueryResult> Solve(const SolverInput& input) const override {
    KspQueryResult result;
    result.paths = YenKspInGraph(*input.graph, input.source, input.target,
                                 input.options.k);
    return result;
  }
};

/// SPT-guided deviation search (FindKSP baseline, reference [21]).
class FindKspSolver : public KspSolver {
 public:
  std::string_view name() const override { return kBackendFindKsp; }

  Result<KspQueryResult> Solve(const SolverInput& input) const override {
    KspQueryResult result;
    result.paths =
        FindKsp(*input.graph, input.source, input.target, input.options.k);
    return result;
  }
};

/// Plain point-to-point Dijkstra; serves only the k=1 degenerate case so a
/// mistaken k>1 request fails loudly instead of silently truncating.
class DijkstraSolver : public KspSolver {
 public:
  std::string_view name() const override { return kBackendDijkstra; }

  Result<KspQueryResult> Solve(const SolverInput& input) const override {
    if (input.options.k != 1) {
      return Status::InvalidArgument(
          "dijkstra backend serves only k=1 (got k=" +
          std::to_string(input.options.k) + ")");
    }
    KspQueryResult result;
    std::optional<Path> p =
        ShortestPathInGraph(*input.graph, input.source, input.target);
    if (p.has_value()) result.paths.push_back(std::move(*p));
    return result;
  }
};

/// CANDS baseline (reference [26]): exact single shortest path over the
/// service-owned CandsIndex, whose expensive rebuild-on-update maintenance
/// runs inside ApplyTrafficBatch — the Figures 40-41 contrast to KSP-DG's
/// incremental DTLP maintenance. The kShortestPath kind routes here by
/// default.
class CandsSolver : public KspSolver {
 public:
  std::string_view name() const override { return kBackendCands; }

  Result<KspQueryResult> Solve(const SolverInput& input) const override {
    if (input.options.k != 1) {
      return Status::InvalidArgument(
          "cands backend serves only k=1 (got k=" +
          std::to_string(input.options.k) + ")");
    }
    if (input.cands == nullptr) {
      return Status::FailedPrecondition("cands backend requires a CANDS index");
    }
    KspQueryResult result;
    std::optional<Path> p =
        input.cands->ShortestPath(input.source, input.target);
    if (p.has_value()) result.paths.push_back(std::move(*p));
    return result;
  }
};

}  // namespace

SolverRegistry SolverRegistry::Default() {
  SolverRegistry registry;
  Status st = registry.Register(std::make_unique<KspDgSolver>());
  if (st.ok()) st = registry.Register(std::make_unique<YenSolver>());
  if (st.ok()) st = registry.Register(std::make_unique<FindKspSolver>());
  if (st.ok()) st = registry.Register(std::make_unique<DijkstraSolver>());
  if (st.ok()) st = registry.Register(std::make_unique<CandsSolver>());
  assert(st.ok() && "default backends must register cleanly");
  (void)st;
  return registry;
}

Status SolverRegistry::Register(std::unique_ptr<KspSolver> solver) {
  if (solver == nullptr || solver->name().empty()) {
    return Status::InvalidArgument("solver must have a non-empty name");
  }
  if (Find(solver->name()) != nullptr) {
    return Status::FailedPrecondition("backend '" +
                                      std::string(solver->name()) +
                                      "' is already registered");
  }
  solvers_.push_back(std::move(solver));
  return Status::OK();
}

const KspSolver* SolverRegistry::Find(std::string_view name) const {
  for (const std::unique_ptr<KspSolver>& solver : solvers_) {
    if (solver->name() == name) return solver.get();
  }
  return nullptr;
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const std::unique_ptr<KspSolver>& solver : solvers_) {
    names.emplace_back(solver->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace kspdg
