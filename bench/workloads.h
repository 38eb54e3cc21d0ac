// The four benchmark workloads and the record each one leaves behind.
//
// A workload creates a service over the NY-S road network (k = 4, the
// dataset's default subgraph size z), drives it through the public
// RoutingServiceInterface for the measured window, and logs every request,
// every answer and every traffic batch it applied. The oracle and the
// traced layer replay then work from that log alone, after the service and
// its worker processes are gone.
#ifndef KSPDG_BENCH_WORKLOADS_H_
#define KSPDG_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/routing_options.h"
#include "api/routing_service_interface.h"
#include "core/status.h"
#include "dtlp/dtlp.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "trace.h"
#include "workload/datasets.h"

namespace kspdg::bench {

struct BenchArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window; the default is BENCHMARK.json's
  /// run_seconds, so a run without --seconds is the documented run.
  double seconds = 15;
  bool trace = false;
  /// Directory the traced run writes its span file to.
  std::string trace_dir = ".";
  /// Directory for the remote shard workers' unix sockets.
  std::string socket_dir = ".";
};

/// One request issued in the run and what came back.
struct Answer {
  uint64_t id = 0;
  RouteRequest request;
  Status status;
  RouteResponse response;  // meaningful iff status.ok()
};

/// Timing of one primary read: a query, or a whole ticket on remote-mixed.
struct ReadTiming {
  double latency_ms = 0;
  /// The service's own solve time (QueryStats::solve_micros, or the
  /// ticket's RouteBatchResponse::batch_micros).
  double solve_ms = 0;
};

struct UpdateTiming {
  /// From the batch's due time (rush-hour) or from the call (elsewhere).
  double latency_ms = 0;
  TrafficBatchResult result;
};

struct RunLog {
  /// The epoch-0 graph; batches[e - 1] moved the service to epoch e.
  Graph initial;
  std::vector<std::vector<WeightUpdate>> batches;
  /// The service's DTLP knobs, so replays build identical copies.
  DtlpOptions dtlp;
  RoutingOptions defaults;

  std::vector<Answer> answers;
  std::vector<ReadTiming> reads;
  /// Solve time of every kKsp answer, whichever loop issued it.
  std::vector<double> ksp_solve_ms;
  std::vector<UpdateTiming> updates;
  /// How late the load generator issued requests: how far a reader's sleep
  /// overshot the read's due time (open loop), or the gap between a reply
  /// and the next request (closed loop).
  std::vector<double> gen_late_ms;
  std::vector<double> setup_s;
  /// Measured window, from the first issue to the last completion.
  double window_s = 0;
  /// Percentile reported as read_tail_ms for this workload.
  double tail_quantile = 0.90;
  /// Peak resident set once the service is built and prepared, before the
  /// window: taken later it would also count the log of answers, which
  /// grows with throughput.
  double peak_rss_mb = 0;
  /// Largest resident set of any reaped worker process (0 if none).
  double worker_rss_mb = 0;
  MetricsSnapshot metrics_before;
  MetricsSnapshot metrics_after;
  /// Spans of the window, one buffer per load thread (traced run only).
  std::vector<SpanBuffer> spans;
};

/// The road network of every workload (NY-S).
const DatasetSpec& RoadNetwork();

/// Fewest hops between the endpoints of a workload query: KSP-DG answers
/// some closer pairs wrongly (see MakeEndpointPool in workloads.cc).
inline constexpr size_t kMinQueryHops = 3;

/// The vertices fewer than kMinQueryHops hops from `s`, other than `s`.
std::vector<VertexId> NearVertices(const Graph& g, VertexId s);

/// A request of `kind` between `endpoints`, with the diversity settings
/// the workloads use for kDiverseKsp.
RouteRequest MakeRequest(QueryKind kind,
                         const std::pair<VertexId, VertexId>& endpoints);

/// Runs one workload (static-ksp, district-ksp, rush-hour or remote-mixed):
/// set-up, preparation and the timed window. The service and every worker
/// process are gone when it returns.
Status RunWorkload(const BenchArgs& args, RunLog* log);

}  // namespace kspdg::bench

#endif  // KSPDG_BENCH_WORKLOADS_H_
