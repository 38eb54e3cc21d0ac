#include "layers.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>

#include "api/ksp_solver.h"
#include "cands/cands.h"
#include "core/parallel_for.h"
#include "core/rng.h"
#include "dtlp/dtlp.h"
#include "graph/traffic_model.h"
#include "ksp/findksp.h"
#include "ksp/yen.h"
#include "kspdg/partial_provider.h"
#include "kspdg/query_context.h"
#include "mfp/diversity.h"
#include "oracle.h"
#include "partition/partitioner.h"
#include "stats.h"
#include "workload/query_gen.h"

namespace kspdg::bench {
namespace {

/// Requests re-answered per traced run (spread evenly over the window).
constexpr size_t kReplaySample = 256;
/// The size at which the roadmap states KSP-DG's success criterion after
/// traffic (4096 vertices, two batches).
constexpr size_t kPaperTrafficVertices = 4096;

/// LocalPartialProvider with a span and counters around every fetch.
class TimedPartialProvider : public PartialProvider {
 public:
  TimedPartialProvider(const Dtlp& dtlp, SpanBuffer* spans, uint64_t request)
      : local_(dtlp), spans_(spans), request_(request) {}

  PartialResult ComputePartials(VertexId x, VertexId y, size_t depth) override {
    ScopedSpan span(spans_, "kspdg.partial", request_);
    PartialResult result = local_.ComputePartials(x, y, depth);
    ++calls;
    yen_runs += result.yen_runs;
    return result;
  }

  uint64_t calls = 0;
  uint64_t yen_runs = 0;

 private:
  LocalPartialProvider local_;
  SpanBuffer* spans_;
  uint64_t request_;
};

/// RunKspDgQuery's loop (Algorithm 3), rebuilt from the public parts with
/// a span around each stage. Must stay step-for-step identical to it: the
/// replay is checked against the direct call.
KspQueryResult ReplayKspDg(const Dtlp& dtlp, VertexId s, VertexId t,
                           const KspDgOptions& options, SpanBuffer* spans,
                           uint64_t request, ReplayReport* report) {
  ScopedSpan query(spans, "kspdg.query", request);
  TimedPartialProvider provider(dtlp, spans, request);
  KspQueryResult result;
  QueryContext ctx(dtlp, &provider, s, t, options);
  bool attached = false;
  {
    ScopedSpan span(spans, "kspdg.overlay", request);
    attached = ctx.BuildOverlay();
  }
  if (attached) {
    std::optional<YenEnumerator<SkeletonOverlay>> references;
    std::optional<Path> ref;
    {
      ScopedSpan span(spans, "kspdg.reference", request);
      references.emplace(ctx.overlay(), ctx.overlay_s(), ctx.overlay_t());
      ref = references->NextPath();
    }
    std::vector<Path>& top = result.paths;
    while (ref.has_value() && ctx.stats().iterations < options.max_iterations) {
      ++ctx.stats().iterations;
      std::vector<Path> candidates;
      {
        ScopedSpan span(spans, "kspdg.join", request);
        candidates = ctx.CandidateKsp(ref->vertices);
      }
      for (Path& c : candidates) InsertTopK(top, std::move(c), options.k);
      std::optional<Path> next;
      {
        ScopedSpan span(spans, "kspdg.reference", request);
        next = references->NextPath();
      }
      const bool done = top.size() == options.k &&
                        (!next.has_value() ||
                         top.back().distance <= next->distance + kWeightEpsilon);
      if (done || !next.has_value()) break;
      ref = std::move(next);
    }
    result.stats = ctx.stats();
  }
  report->partial_calls += provider.calls;
  report->partial_yen_runs += provider.yen_runs;
  report->partial_cache_hits += result.stats.partial_cache_hits;
  return result;
}

bool SamePaths(const std::vector<Path>& a, const std::vector<Path>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertices != b[i].vertices || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

BoundHealth ProbeBounds(const Dtlp& dtlp, uint64_t epoch) {
  BoundHealth health;
  health.epoch = epoch;
  std::vector<double> tightness;
  for (SubgraphId sg = 0; sg < dtlp.NumSubgraphs(); ++sg) {
    const Subgraph& subgraph = dtlp.partition().subgraphs[sg];
    for (const BoundaryPairEntry& pair : dtlp.index(sg).pairs()) {
      if (pair.lbd == kInfiniteWeight) continue;
      std::vector<Path> shortest = LocalPartialProvider::PartialsInSubgraph(
          subgraph, subgraph.GlobalOf(pair.src), subgraph.GlobalOf(pair.dst), 1);
      if (shortest.empty() || !(shortest.front().distance > 0)) continue;
      ++health.pairs;
      if (pair.exact) ++health.exact;
      tightness.push_back(pair.lbd / shortest.front().distance);
      if (tightness.back() > 1 + 1e-9) ++health.violations;
    }
  }
  health.tightness_p10 = Quantile(tightness, 0.10);
  health.tightness_p50 = Quantile(tightness, 0.50);
  return health;
}

double ElapsedMs(Clock::time_point start) {
  return MillisBetween(start, Clock::now());
}

// The near-pair check (see layers.h), four sources at a time: nothing else
// runs at this point of the traced run. Every eighth source keeps it to
// about ten seconds at 2048 vertices; all sources take over a minute.
Status NearPairCheck(const RunLog& log, NearPairReport* report) {
  constexpr unsigned kThreads = 4;
  constexpr size_t kSourceStride = 8;
  const Graph& g = log.initial;
  Result<std::unique_ptr<Dtlp>> built = Dtlp::Build(g, log.dtlp);
  if (!built.ok()) return built.status();
  const std::unique_ptr<Dtlp> dtlp = std::move(built).value();
  const KspDgOptions engine = log.defaults.ToEngineOptions();
  const size_t sources = (g.NumVertices() + kSourceStride - 1) / kSourceStride;
  std::vector<size_t> pairs(sources);
  std::vector<size_t> wrong(sources);
  ParallelFor(sources, kThreads, [&](size_t source) {
    const VertexId s = static_cast<VertexId>(source * kSourceStride);
    for (VertexId t : NearVertices(g, s)) {
      LocalPartialProvider provider(*dtlp);
      const KspQueryResult answer = RunKspDgQuery(*dtlp, &provider, s, t, engine);
      ++pairs[source];
      if (!SameDistances(answer.paths, FindKsp(g, s, t, engine.k))) ++wrong[source];
    }
  });
  report->pairs = std::accumulate(pairs.begin(), pairs.end(), size_t{0});
  report->wrong = std::accumulate(wrong.begin(), wrong.end(), size_t{0});
  return Status::OK();
}

// The per-road what-if (see layers.h). The queries run two at a time, like
// the closed-loop workloads' clients; most of them take about a second.
Status PaperTrafficWhatIf(const RunLog& log, uint64_t seed,
                          PaperTrafficReport* report) {
  constexpr size_t kQueries = 32;
  constexpr unsigned kThreads = 2;
  const Graph initial = LoadScaledDataset(RoadNetwork(), kPaperTrafficVertices);
  Graph g = initial;
  Result<std::unique_ptr<Dtlp>> built = Dtlp::Build(g, log.dtlp);
  if (!built.ok()) return built.status();
  std::unique_ptr<Dtlp> dtlp = std::move(built).value();
  report->health.push_back(ProbeBounds(*dtlp, 0));
  TrafficModelOptions traffic;  // the paper's α = 0.35, τ = 0.30
  traffic.seed = Mix64(seed) + 3;
  TrafficModel model(initial, traffic);
  for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
    const std::vector<WeightUpdate> batch = model.NextBatch();
    for (const WeightUpdate& update : batch) g.SetWeight(update);
    dtlp->ApplyUpdates(batch);
    report->health.push_back(ProbeBounds(*dtlp, epoch));
  }

  const KspDgOptions engine = log.defaults.ToEngineOptions();
  const std::vector<std::pair<VertexId, VertexId>> queries =
      MakeRandomQueries(g, kQueries, Mix64(seed) + 4);
  struct Outcome {
    bool wrong = false;
    uint32_t iterations = 0;
    double ms = 0;
    double yen_ms = 0;
  };
  std::vector<Outcome> outcomes(queries.size());
  ParallelFor(queries.size(), kThreads, [&](size_t i) {
    const auto [s, t] = queries[i];
    Outcome& outcome = outcomes[i];
    LocalPartialProvider provider(*dtlp);
    Clock::time_point start = Clock::now();
    const KspQueryResult answer = RunKspDgQuery(*dtlp, &provider, s, t, engine);
    outcome.ms = ElapsedMs(start);
    outcome.iterations = answer.stats.iterations;
    start = Clock::now();
    const std::vector<Path> yen = YenKspInGraph(g, s, t, engine.k);
    outcome.yen_ms = ElapsedMs(start);
    outcome.wrong = !SameDistances(answer.paths, yen);
  });
  for (const Outcome& outcome : outcomes) {
    ++report->queries;
    if (outcome.wrong) ++report->wrong;
    if (outcome.iterations >= engine.max_iterations) ++report->cap_hits;
    report->iterations.push_back(outcome.iterations);
    report->ksp_ms.push_back(outcome.ms);
    report->yen_ms.push_back(outcome.yen_ms);
  }
  return Status::OK();
}

// The window replay (see layers.h), under one "bench.replay" span.
Status ReplayWindow(const RunLog& log, ReplayReport* report) {
  SpanBuffer* spans = &report->spans;
  ScopedSpan root(spans, "bench.replay");
  Graph g = log.initial;
  {
    ScopedSpan span(spans, "partition.build");
    const Clock::time_point start = Clock::now();
    Result<Partition> partition = PartitionGraph(g, log.dtlp.partition);
    if (!partition.ok()) return partition.status();
    report->partition_s = ElapsedMs(start) / 1e3;
  }
  std::unique_ptr<Dtlp> dtlp;
  {
    ScopedSpan span(spans, "dtlp.build");
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<Dtlp>> built = Dtlp::Build(g, log.dtlp);
    if (!built.ok()) return built.status();
    dtlp = std::move(built).value();
    report->dtlp_build_s = ElapsedMs(start) / 1e3;
  }
  std::unique_ptr<CandsIndex> cands;
  {
    ScopedSpan span(spans, "cands.build");
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<CandsIndex>> built = BuildCandsIndex(g, log.dtlp);
    if (!built.ok()) return built.status();
    cands = std::move(built).value();
    report->cands_build_s = ElapsedMs(start) / 1e3;
  }

  // Two even samples of the answered requests: the KSP-DG-served ones for
  // the kspdg replay, and all of them for the other layers' calls.
  struct Pick {
    const Answer* answer = nullptr;
    bool kspdg = false;
    bool layers = false;
  };
  size_t kspdg_total = 0;
  size_t answered_total = 0;
  uint64_t window_epoch = 0;
  for (const Answer& answer : log.answers) {
    if (!answer.status.ok()) continue;
    ++answered_total;
    if (answer.request.kind != QueryKind::kShortestPath) ++kspdg_total;
    window_epoch = std::max(window_epoch, answer.response.epoch);
  }
  auto stride = [](size_t total) {
    return std::max<size_t>(1, (total + kReplaySample - 1) / kReplaySample);
  };
  const size_t kspdg_stride = stride(kspdg_total);
  const size_t layer_stride = stride(answered_total);
  std::vector<Pick> sample;
  size_t kspdg_seen = 0;
  size_t answered_seen = 0;
  for (const Answer& answer : log.answers) {
    if (!answer.status.ok()) continue;
    Pick pick;
    pick.answer = &answer;
    pick.kspdg = answer.request.kind != QueryKind::kShortestPath &&
                 kspdg_seen++ % kspdg_stride == 0;
    pick.layers = answered_seen++ % layer_stride == 0;
    if (pick.kspdg || pick.layers) sample.push_back(pick);
  }
  std::stable_sort(sample.begin(), sample.end(), [](const Pick& a, const Pick& b) {
    return a.answer->response.epoch < b.answer->response.epoch;
  });
  const bool probe_every_epoch = window_epoch <= 4;

  size_t next = 0;
  for (uint64_t epoch = 0;; ++epoch) {
    for (; next < sample.size() && sample[next].answer->response.epoch == epoch;
         ++next) {
      const Answer& answer = *sample[next].answer;
      const RouteRequest& request = answer.request;
      const RoutingOptions options = MergeOptions(log.defaults, request.options);
      if (sample[next].kspdg) {
        KspDgOptions engine = options.ToEngineOptions();
        if (request.kind == QueryKind::kDiverseKsp) {
          engine.k = options.k * options.diversity.overfetch;
        }
        Clock::time_point start = Clock::now();
        KspQueryResult traced = ReplayKspDg(*dtlp, request.source, request.target,
                                            engine, spans, answer.id, report);
        report->traced_ms += ElapsedMs(start);
        KspQueryResult direct;
        {
          ScopedSpan span(spans, "kspdg.direct", answer.id);
          LocalPartialProvider provider(*dtlp);
          start = Clock::now();
          direct = RunKspDgQuery(*dtlp, &provider, request.source,
                                 request.target, engine);
          report->direct_ms += ElapsedMs(start);
        }
        ++report->replayed;
        if (!SamePaths(traced.paths, direct.paths) ||
            traced.stats.iterations != direct.stats.iterations ||
            (request.kind == QueryKind::kKsp &&
             !SamePaths(traced.paths, answer.response.paths))) {
          ++report->mismatches;
        }
        report->iterations.push_back(traced.stats.iterations);
        if (traced.stats.iterations >= engine.max_iterations) ++report->cap_hits;
      }
      if (!sample[next].layers) continue;
      {
        ScopedSpan span(spans, "ksp.findksp", answer.id);
        const Clock::time_point start = Clock::now();
        std::vector<Path> paths = FindKsp(g, request.source, request.target, options.k);
        report->findksp_ms.push_back(ElapsedMs(start));
      }
      {
        // The diversity filter on the oracle's k' candidates, with the
        // settings of the workloads' kDiverseKsp requests.
        const RoutingOptions diverse = MergeOptions(
            log.defaults,
            MakeRequest(QueryKind::kDiverseKsp, {request.source, request.target})
                .options);
        std::vector<Path> candidates;
        {
          ScopedSpan span(spans, "mfp.candidates", answer.id);
          candidates = FindKsp(g, request.source, request.target,
                               diverse.k * diverse.diversity.overfetch);
        }
        ScopedSpan span(spans, "mfp.filter", answer.id);
        const Clock::time_point start = Clock::now();
        std::vector<Path> kept;
        SelectDiversePaths(candidates, diverse.k, g.directed(), diverse.diversity,
                           &kept);
        report->mfp_filter_ms.push_back(ElapsedMs(start));
        report->mfp_kept.push_back(static_cast<double>(kept.size()));
      }
      {
        ScopedSpan span(spans, "cands.query", answer.id);
        const Clock::time_point start = Clock::now();
        std::optional<Path> shortest = cands->ShortestPath(request.source, request.target);
        report->cands_query_ms.push_back(ElapsedMs(start));
      }
    }
    if (epoch == window_epoch || (probe_every_epoch && epoch <= log.batches.size())) {
      ScopedSpan span(spans, "dtlp.bound_probe");
      BoundHealth health = ProbeBounds(*dtlp, epoch);
      report->bound_health.push_back(health);
      if (epoch == window_epoch) report->window_health = health;
    }
    if (epoch >= log.batches.size()) break;
    const std::vector<WeightUpdate>& batch = log.batches[epoch];
    for (const WeightUpdate& update : batch) g.SetWeight(update);
    {
      ScopedSpan span(spans, "dtlp.update");
      const Clock::time_point start = Clock::now();
      DtlpUpdateStats stats = dtlp->ApplyUpdates(batch);
      report->dtlp_update_ms.push_back(ElapsedMs(start));
      report->subgraphs_touched.push_back(static_cast<double>(stats.subgraphs_touched));
    }
    ScopedSpan span(spans, "cands.update");
    cands->ApplyUpdates(batch);
  }
  return Status::OK();
}

}  // namespace

Status ReplayLayers(const RunLog& log, uint64_t seed, ReplayReport* report) {
  KSPDG_RETURN_NOT_OK(ReplayWindow(log, report));
  {
    ScopedSpan near(&report->spans, "near_pairs");
    KSPDG_RETURN_NOT_OK(NearPairCheck(log, &report->near_pairs));
  }
  ScopedSpan what_if(&report->spans, "paper_traffic");
  return PaperTrafficWhatIf(log, seed, &report->paper_traffic);
}

}  // namespace kspdg::bench
