#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>
#include <utility>

#include "api/routing_service.h"
#include "core/mutex.h"
#include "core/parallel_for.h"
#include "core/rng.h"
#include "partition/partitioner.h"
#include "remote/remote_sharded_routing_service.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace kspdg::bench {
namespace {

constexpr uint32_t kK = 4;
/// The paper's traffic parameters (§6.2), applied to districts: the share of
/// districts re-timed per batch and the relative range of the new times.
constexpr double kAlpha = 0.35;
constexpr double kTau = 0.30;
/// Service creations per run; setup_s reports their median.
constexpr int kSetupRepeats = 3;
/// Distinct endpoint pairs per run (see MakeEndpointPool).
constexpr size_t kPoolSize = 512;
/// Vertices of every workload's road network (see MakeEndpointPool).
constexpr size_t kVertices = 2048;
/// Closed-loop clients and open-loop readers (the load is at most three
/// threads: two readers and a writer on rush-hour).
constexpr size_t kClients = 2;

using Endpoints = std::vector<std::pair<VertexId, VertexId>>;

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// Sleeps until shortly before `due`, then spins. Waking an idle virtual CPU
// from a timer can take milliseconds on a busy host, and an open loop would
// charge that to the request; the spin costs a few percent of one core.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::milliseconds(2);
  if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

double PeakRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The paper's query set (§6.4): source and target drawn uniformly at random,
// kPoolSize pairs per seed. The loops cycle through the set for the whole
// window, so a run answers each pair several times and its percentiles
// describe one query set; over ten seeds, 512 pairs add about 0.03 to the
// spread of p50 and p90.
//
// Pairs fewer than kMinQueryHops hops apart, about 0.5% of random pairs, are
// drawn again: KSP-DG answers some of them wrongly even without traffic
// (at 2048 vertices, 20 of the 6694 adjacent pairs and 4 of the 12732
// pairs two hops apart; none of 45640 pairs three or four hops apart). A
// query set holding one would fail every run of its seed. The traced run
// checks all of them (see layers.h).
//
// Every workload runs at 2048 vertices: at 4096 some random queries stop
// at the iteration cap and about one answer in 20000 is wrong; at 2048,
// none of 124000 random queries was answered wrongly.
Endpoints MakeEndpointPool(const Graph& g, uint64_t seed) {
  Rng rng(Mix64(seed));
  Endpoints pool;
  while (pool.size() < kPoolSize) {
    for (const auto& pair : MakeRandomQueries(g, kPoolSize, rng.Next())) {
      const std::vector<VertexId> near = NearVertices(g, pair.first);
      if (pool.size() < kPoolSize &&
          std::find(near.begin(), near.end(), pair.second) == near.end()) {
        pool.push_back(pair);
      }
    }
  }
  return pool;
}

// District-level congestion. A batch picks districts (the subgraphs of the
// service's own partition) and re-times every road a district owns by one
// factor drawn from 1 ± τ of its free-flow time. The paper re-times each
// road on its own (TrafficModel); after two such batches the current KSP-DG
// answers random queries wrongly: 0.25-2% of them at 512-1024 vertices,
// 5-12% at 2048-4096. Most of those stop at the iteration cap, a few stop
// earlier because a DTLP lower bound exceeds the exact distance. A timed
// workload must be answered correctly on every seed, so the workloads use
// district congestion: one factor scales every path inside a district
// alike, so every lower bound stays valid (at 2048 vertices after two
// district batches, the one wrong answer to 76000 random queries was for
// adjacent endpoints). The traced run measures the per-road case, wrong
// answers included (see layers.h).
class DistrictTraffic {
 public:
  static Result<DistrictTraffic> Create(const Graph& g,
                                        const DtlpOptions& dtlp,
                                        uint64_t seed) {
    Result<Partition> partition = PartitionGraph(g, dtlp.partition);
    if (!partition.ok()) return partition.status();
    DistrictTraffic traffic(g, seed);
    traffic.roads_.resize(partition.value().subgraphs.size());
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      SubgraphId district = partition.value().subgraph_of_edge[e];
      if (district != kInvalidSubgraph) traffic.roads_[district].push_back(e);
    }
    for (SubgraphId d = 0; d < traffic.roads_.size(); ++d) {
      traffic.order_.push_back(d);
    }
    return traffic;
  }

  size_t NumDistricts() const { return roads_.size(); }

  std::vector<WeightUpdate> NextBatch(size_t districts) {
    districts = std::min(districts, order_.size());
    std::vector<WeightUpdate> batch;
    for (size_t i = 0; i < districts; ++i) {
      std::swap(order_[i], order_[i + rng_.NextBounded(order_.size() - i)]);
      const double factor = 1.0 + rng_.NextDouble(-kTau, kTau);
      for (EdgeId e : roads_[order_[i]]) {
        batch.push_back({e, factor * static_cast<double>(graph_->ForwardVfrags(e)),
                         factor * static_cast<double>(graph_->BackwardVfrags(e))});
      }
    }
    return batch;
  }

 private:
  DistrictTraffic(const Graph& g, uint64_t seed) : graph_(&g), rng_(seed) {}

  const Graph* graph_;
  Rng rng_;
  std::vector<std::vector<EdgeId>> roads_;
  std::vector<SubgraphId> order_;
};

size_t CongestedDistricts(const DistrictTraffic& traffic) {
  return static_cast<size_t>(
      std::ceil(kAlpha * static_cast<double>(traffic.NumDistricts())));
}

template <typename Service, typename Options>
Result<std::unique_ptr<Service>> CreateService(const Graph& g,
                                               const Options& options,
                                               RunLog* log) {
  std::unique_ptr<Service> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();  // one instance, and one worker fleet, at a time
    Graph copy = g;
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<Service>> created =
        Service::Create(std::move(copy), options);
    log->setup_s.push_back(MillisBetween(start, Clock::now()) / 1e3);
    if (!created.ok()) return created.status();
    service = std::move(created).value();
  }
  return service;
}

Status ApplyBatch(RoutingServiceInterface& service,
                  std::vector<WeightUpdate> batch, Clock::time_point due,
                  RunLog* log) {
  Result<TrafficBatchResult> applied = service.ApplyTrafficBatch(batch);
  if (!applied.ok()) return applied.status();
  log->updates.push_back({MillisBetween(due, Clock::now()), applied.value()});
  log->batches.push_back(std::move(batch));
  return Status::OK();
}

/// What one load thread saw; merged into the RunLog after the threads join.
struct RoleLog {
  std::vector<Answer> answers;
  std::vector<ReadTiming> reads;
  std::vector<double> ksp_solve_ms;
  std::vector<double> late_ms;
  Clock::time_point last_done{};

  void Record(Answer answer, Result<RouteResponse> result, double latency_ms,
              bool primary) {
    if (result.ok()) {
      answer.response = std::move(result).value();
      const double solve_ms = answer.response.stats.solve_micros / 1e3;
      if (primary) reads.push_back({latency_ms, solve_ms});
      if (answer.request.kind == QueryKind::kKsp) {
        ksp_solve_ms.push_back(solve_ms);
      }
    } else {
      answer.status = result.status();
    }
    answers.push_back(std::move(answer));
  }
};

void MergeRoles(std::vector<RoleLog>& roles, Clock::time_point start,
                RunLog* log) {
  Clock::time_point end = start;
  for (RoleLog& role : roles) {
    for (Answer& answer : role.answers) log->answers.push_back(std::move(answer));
    log->reads.insert(log->reads.end(), role.reads.begin(), role.reads.end());
    log->ksp_solve_ms.insert(log->ksp_solve_ms.end(), role.ksp_solve_ms.begin(),
                             role.ksp_solve_ms.end());
    log->gen_late_ms.insert(log->gen_late_ms.end(), role.late_ms.begin(),
                            role.late_ms.end());
    end = std::max(end, role.last_done);
  }
  std::sort(log->answers.begin(), log->answers.end(),
            [](const Answer& a, const Answer& b) { return a.id < b.id; });
  log->window_s = MillisBetween(start, end) / 1e3;
}

RoutingServiceOptions LocalServiceOptions() {
  RoutingServiceOptions options;
  options.defaults.k = kK;
  options.dtlp.partition.max_vertices = RoadNetwork().default_z;
  return options;
}

void BeginLog(const Graph& g, const DtlpOptions& dtlp,
              const RoutingOptions& defaults, const BenchArgs& args,
              RunLog* log) {
  log->initial = g;
  log->dtlp = dtlp;
  log->defaults = defaults;
  if (args.trace) log->spans.resize(kClients);
}

// static-ksp and district-ksp: a closed loop of two clients sending kKsp
// queries through RoutingService::Query, after `prep_batches` district
// batches. The traced static run applies one batch after the window so the
// update-path layers have a measurement on every workload.
Status RunLocalKsp(const BenchArgs& args, size_t prep_batches, RunLog* log) {
  const Graph g = LoadScaledDataset(RoadNetwork(), kVertices);
  const RoutingServiceOptions options = LocalServiceOptions();
  BeginLog(g, options.dtlp, options.defaults, args, log);
  // p99 is set by the five slowest pairs of the query set, so over ten
  // seeds the inputs alone spread it by about 0.12; p90 by 0.03.
  log->tail_quantile = 0.90;
  const Endpoints pool = MakeEndpointPool(g, args.seed);
  Result<DistrictTraffic> traffic =
      DistrictTraffic::Create(g, options.dtlp, Mix64(args.seed) + 1);
  if (!traffic.ok()) return traffic.status();

  Result<std::unique_ptr<RoutingService>> created =
      CreateService<RoutingService>(g, options, log);
  if (!created.ok()) return created.status();
  std::unique_ptr<RoutingService> service = std::move(created).value();
  for (size_t b = 0; b < prep_batches; ++b) {
    KSPDG_RETURN_NOT_OK(ApplyBatch(
        *service, traffic.value().NextBatch(CongestedDistricts(traffic.value())),
        Clock::now(), log));
  }
  log->peak_rss_mb = PeakRssMb(RUSAGE_SELF);
  // One untimed pass over the query set: first touches of memory are paid
  // once by a long-running service, not by every request. The window asks
  // every pair again, and the oracle checks those answers.
  ParallelFor(pool.size(), kClients, [&](size_t i) {
    (void)service->Query(MakeRequest(QueryKind::kKsp, pool[i]));
  });
  log->metrics_before = service->Metrics();

  std::vector<RoleLog> roles(kClients);
  std::atomic<uint64_t> next{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + Seconds(args.seconds);
  ParallelFor(kClients, kClients, [&](size_t c) {
    RoleLog& role = roles[c];
    SpanBuffer* spans = args.trace ? &log->spans[c] : nullptr;
    Clock::time_point ready = start;
    while (Clock::now() < deadline) {
      Answer answer;
      answer.id = next.fetch_add(1, std::memory_order_relaxed);
      answer.request =
          MakeRequest(QueryKind::kKsp, pool[answer.id % pool.size()]);
      const Clock::time_point issued = Clock::now();
      role.late_ms.push_back(MillisBetween(ready, issued));
      Result<RouteResponse> result = [&] {
        ScopedSpan span(spans, "api.query", answer.id);
        return service->Query(answer.request);
      }();
      ready = Clock::now();
      role.Record(std::move(answer), std::move(result),
                  MillisBetween(issued, ready), /*primary=*/true);
    }
    role.last_done = ready;
  });
  MergeRoles(roles, start, log);
  if (args.trace && prep_batches == 0) {
    KSPDG_RETURN_NOT_OK(ApplyBatch(
        *service, traffic.value().NextBatch(CongestedDistricts(traffic.value())),
        Clock::now(), log));
  }
  log->metrics_after = service->Metrics();
  return Status::OK();
}

// rush-hour: an open loop. Reads are due at 40/s (95% kShortestPath through
// CANDS, 5% kKsp through KSP-DG). Each of two readers claims the next read
// when it is free, waits until the read is due and issues it, so a read
// waits only when both readers are busy. A writer applies a district batch
// every 250 ms. Every latency is measured from the operation's due time, so
// a stall also charges the work queued behind it. The numbers of reads and
// batches follow from the rates and the run length.
//
// Every tenth read is due 0.5 ms after a batch, while the batch holds the
// writer lock (about 5 ms at 2048 vertices), so the read tail measures
// how long a batch blocks the reads that arrive during it. Reads due at the
// same instant as a batch would race it for the lock and make the tail
// depend on which thread woke first.
Status RunRushHour(const BenchArgs& args, RunLog* log) {
  constexpr double kReadsPerSecond = 40;
  constexpr double kBatchPeriodS = 0.25;
  constexpr double kReadPhaseS = 0.0005;
  constexpr double kKspShare = 0.05;
  const Graph g = LoadScaledDataset(RoadNetwork(), kVertices);
  const RoutingServiceOptions options = LocalServiceOptions();
  BeginLog(g, options.dtlp, options.defaults, args, log);
  // The reads due during a batch are a tenth of all; p95 is their median.
  log->tail_quantile = 0.95;
  const Endpoints pool = MakeEndpointPool(g, args.seed);
  Result<DistrictTraffic> traffic =
      DistrictTraffic::Create(g, options.dtlp, Mix64(args.seed) + 1);
  if (!traffic.ok()) return traffic.status();

  const size_t num_reads = static_cast<size_t>(args.seconds * kReadsPerSecond);
  const size_t num_batches = static_cast<size_t>(args.seconds / kBatchPeriodS);
  std::vector<QueryKind> kinds(num_reads);
  Rng kind_rng(Mix64(args.seed) + 2);
  for (QueryKind& kind : kinds) {
    kind = kind_rng.NextBool(kKspShare) ? QueryKind::kKsp
                                        : QueryKind::kShortestPath;
  }
  std::vector<std::vector<WeightUpdate>> batches;
  for (size_t b = 0; b < num_batches; ++b) {
    batches.push_back(
        traffic.value().NextBatch(CongestedDistricts(traffic.value())));
  }

  Result<std::unique_ptr<RoutingService>> created =
      CreateService<RoutingService>(g, options, log);
  if (!created.ok()) return created.status();
  std::unique_ptr<RoutingService> service = std::move(created).value();
  log->metrics_before = service->Metrics();
  log->peak_rss_mb = PeakRssMb(RUSAGE_SELF);

  std::atomic<size_t> next_read{0};
  Status writer_status;
  std::vector<RoleLog> roles(kClients + 1);
  constexpr size_t kWriter = kClients;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(10);
  ParallelFor(roles.size(), static_cast<unsigned>(roles.size()), [&](size_t r) {
    RoleLog& role = roles[r];
    if (r == kWriter) {
      for (size_t b = 0; b < batches.size(); ++b) {
        const Clock::time_point due = start + Seconds((b + 1) * kBatchPeriodS);
        WaitUntil(due);
        Status applied = ApplyBatch(*service, std::move(batches[b]), due, log);
        if (!applied.ok()) {
          writer_status = applied;
          return;
        }
      }
      return;
    }
    SpanBuffer* spans = args.trace ? &log->spans[r] : nullptr;
    for (;;) {
      const size_t i = next_read.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_reads) break;
      const Clock::time_point due =
          start + Seconds(i / kReadsPerSecond + kReadPhaseS);
      if (Clock::now() < due) {
        WaitUntil(due);
        role.late_ms.push_back(MillisBetween(due, Clock::now()));
      }
      Answer answer;
      answer.id = i;
      answer.request = MakeRequest(kinds[i], pool[i % pool.size()]);
      Result<RouteResponse> result = [&] {
        ScopedSpan span(spans, "api.query", answer.id);
        return service->Query(answer.request);
      }();
      role.last_done = Clock::now();
      const bool primary = answer.request.kind == QueryKind::kShortestPath;
      role.Record(std::move(answer), std::move(result),
                  MillisBetween(due, role.last_done), primary);
    }
  });
  KSPDG_RETURN_NOT_OK(writer_status);
  MergeRoles(roles, start, log);
  log->metrics_after = service->Metrics();
  return Status::OK();
}

// remote-mixed: RemoteShardedRoutingService over two shard_worker processes.
// One load thread keeps two SubmitBatch tickets of eight requests
// outstanding (4 kKsp, 2 kShortestPath, 2 kDiverseKsp) and, every 16
// tickets, drains them and applies a one-district batch through the
// two-phase commit.
Status RunRemoteMixed(const BenchArgs& args, RunLog* log) {
  constexpr size_t kOutstanding = 2;
  constexpr size_t kTicketsPerBatch = 16;
  static constexpr QueryKind kTicketKinds[] = {
      QueryKind::kKsp,         QueryKind::kKsp, QueryKind::kShortestPath,
      QueryKind::kDiverseKsp,  QueryKind::kKsp, QueryKind::kKsp,
      QueryKind::kShortestPath, QueryKind::kDiverseKsp};
  const Graph g = LoadScaledDataset(RoadNetwork(), kVertices);
  RemoteShardedRoutingServiceOptions options;
  options.defaults.k = kK;
  options.dtlp.partition.max_vertices = RoadNetwork().default_z;
  options.num_shards = 2;
  options.num_replicas = 1;
  options.batch_threads = 2;
  options.remote.socket_dir = args.socket_dir;
  // A worker outliving a crashed bench exits on its own this soon.
  options.remote.worker_idle_timeout_ms = 30'000;
  BeginLog(g, options.dtlp, options.defaults, args, log);
  log->tail_quantile = 0.90;
  const Endpoints pool = MakeEndpointPool(g, args.seed);
  Result<DistrictTraffic> traffic =
      DistrictTraffic::Create(g, options.dtlp, Mix64(args.seed) + 1);
  if (!traffic.ok()) return traffic.status();

  {
    Result<std::unique_ptr<RemoteShardedRoutingService>> created =
        CreateService<RemoteShardedRoutingService>(g, options, log);
    if (!created.ok()) return created.status();
    std::unique_ptr<RemoteShardedRoutingService> service =
        std::move(created).value();
    log->peak_rss_mb = PeakRssMb(RUSAGE_SELF);
    // One untimed pass over the query set, in the window's tickets, so the
    // window measures warm workers (see RunLocalKsp).
    constexpr size_t kTicketSize = std::size(kTicketKinds);
    ParallelFor(pool.size() / kTicketSize, kOutstanding, [&](size_t t) {
      std::vector<RouteRequest> batch;
      for (size_t i = 0; i < kTicketSize; ++i) {
        batch.push_back(MakeRequest(kTicketKinds[i], pool[t * kTicketSize + i]));
      }
      (void)service->SubmitBatch(std::move(batch)).Wait();
    });
    log->metrics_before = service->Metrics();

    struct Completions {
      Mutex mu{"remote-mixed completions"};
      CondVar cv;
      std::deque<std::pair<uint64_t, Clock::time_point>> done;  // guarded by mu
    };
    struct InFlight {
      BatchTicket ticket;
      Clock::time_point submitted;
      uint64_t first_answer = 0;
    };
    auto completions = std::make_shared<Completions>();
    std::vector<InFlight> tickets;
    std::vector<RouteRequest> requests;
    RoleLog role;
    SpanBuffer* spans = args.trace ? &log->spans[0] : nullptr;
    uint64_t next_endpoint = 0;
    size_t outstanding = 0;
    size_t since_batch = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = start + Seconds(args.seconds);
    Clock::time_point ready = start;
    for (;;) {
      const bool open = Clock::now() < deadline;
      while (open && outstanding < kOutstanding && since_batch < kTicketsPerBatch) {
        InFlight flight;
        flight.first_answer = next_endpoint;
        std::vector<RouteRequest> batch;
        for (QueryKind kind : kTicketKinds) {
          batch.push_back(MakeRequest(kind, pool[next_endpoint++ % pool.size()]));
          requests.push_back(batch.back());
        }
        const uint64_t id = tickets.size();
        flight.submitted = Clock::now();
        role.late_ms.push_back(MillisBetween(ready, flight.submitted));
        flight.ticket = service->SubmitBatch(
            std::move(batch), [completions, id](const Result<RouteBatchResponse>&) {
              MutexLock lock(completions->mu);
              completions->done.emplace_back(id, Clock::now());
              completions->cv.NotifyAll();
            });
        tickets.push_back(std::move(flight));
        ++outstanding;
        ++since_batch;
      }
      if (outstanding == 0) {
        if (!open) break;
        // Drained: every answered ticket saw the old epoch, so the batch
        // moves the fleet between tickets, never under one.
        ready = Clock::now();
        KSPDG_RETURN_NOT_OK(ApplyBatch(*service, traffic.value().NextBatch(1),
                                       ready, log));
        ready = Clock::now();
        since_batch = 0;
        continue;
      }
      std::pair<uint64_t, Clock::time_point> done;
      {
        MutexLock lock(completions->mu);
        while (completions->done.empty()) completions->cv.Wait(completions->mu);
        done = completions->done.front();
        completions->done.pop_front();
      }
      --outstanding;
      ready = done.second;
      role.last_done = std::max(role.last_done, done.second);
      const InFlight& flight = tickets[done.first];
      if (spans != nullptr) {
        spans->Add("api.ticket", done.first, flight.submitted, done.second);
      }
      const Result<RouteBatchResponse>& result = flight.ticket.Wait();
      for (size_t i = 0; i < std::size(kTicketKinds); ++i) {
        Answer answer;
        answer.id = flight.first_answer + i;
        answer.request = requests[answer.id];
        if (!result.ok()) {
          answer.status = result.status();
        } else if (!result.value().items[i].status.ok()) {
          answer.status = result.value().items[i].status;
        } else {
          answer.response = result.value().items[i].response;
          if (answer.request.kind == QueryKind::kKsp) {
            role.ksp_solve_ms.push_back(answer.response.stats.solve_micros / 1e3);
          }
        }
        role.answers.push_back(std::move(answer));
      }
      role.reads.push_back(
          {MillisBetween(flight.submitted, done.second),
           result.ok() ? result.value().batch_micros / 1e3 : 0.0});
    }
    std::vector<RoleLog> roles;
    roles.push_back(std::move(role));
    MergeRoles(roles, start, log);
    log->metrics_after = service->Metrics();
  }
  // The workers are reaped by now, so their peak resident sets are counted.
  log->worker_rss_mb = PeakRssMb(RUSAGE_CHILDREN);
  return Status::OK();
}

}  // namespace

const DatasetSpec& RoadNetwork() { return DatasetByName("NY-S"); }

std::vector<VertexId> NearVertices(const Graph& g, VertexId s) {
  std::vector<VertexId> seen{s};
  std::vector<VertexId> frontier{s};
  for (size_t depth = 1; depth < kMinQueryHops; ++depth) {
    std::vector<VertexId> next;
    for (VertexId u : frontier) {
      for (const Arc& arc : g.Neighbors(u)) {
        if (std::find(seen.begin(), seen.end(), arc.to) != seen.end()) continue;
        seen.push_back(arc.to);
        next.push_back(arc.to);
      }
    }
    frontier = std::move(next);
  }
  seen.erase(seen.begin());
  return seen;
}

RouteRequest MakeRequest(QueryKind kind,
                         const std::pair<VertexId, VertexId>& endpoints) {
  RouteRequest request;
  request.kind = kind;
  request.source = endpoints.first;
  request.target = endpoints.second;
  if (kind == QueryKind::kDiverseKsp) {
    // k' = 8 candidates. At overfetch 4 (k' = 16) a few KSP-DG queries per
    // run take up to 2 s each, and which ones a seed draws decides the
    // remote-mixed tail and throughput.
    request.options.diversity_theta = 0.5;
    request.options.diversity_overfetch = 2;
  }
  return request;
}

Status RunWorkload(const BenchArgs& args, RunLog* log) {
  if (args.workload == "static-ksp") return RunLocalKsp(args, 0, log);
  if (args.workload == "district-ksp") return RunLocalKsp(args, 2, log);
  if (args.workload == "rush-hour") return RunRushHour(args, log);
  if (args.workload == "remote-mixed") return RunRemoteMixed(args, log);
  return Status::InvalidArgument("unknown workload '" + args.workload + "'");
}

}  // namespace kspdg::bench
