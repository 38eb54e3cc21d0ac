// Tests for the sharded serving layer (src/shard + partition shard
// assignment): shard-vs-unsharded parity on every backend (sharding may
// move work, never change answers), cross-shard correctness after traffic
// batches, the epoch protocol, and a threaded scatter/gather + update
// interleave (the tsan job watches the snapshot-lock discipline).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/routing_options.h"
#include "api/routing_service.h"
#include "graph/generators.h"
#include "graph/traffic_model.h"
#include "ksp/path.h"
#include "parity_harness.h"
#include "partition/shard_assignment.h"

namespace kspdg {
namespace {

// ---------------------------------------------------------------------------
// Shard assignment.
// ---------------------------------------------------------------------------

TEST(ShardAssignmentTest, CoversEverySubgraphExactlyOnce) {
  Graph g = MakeRandomConnected(60, 80, 1, 9, 11);
  std::unique_ptr<RoutingService> service =
      MustCreateSharded(std::move(g), /*z=*/12, /*num_shards=*/3);
  ASSERT_TRUE(service != nullptr);
  const ShardAssignment& assignment = service->assignment();
  const size_t num_subgraphs = service->dtlp().NumSubgraphs();
  ASSERT_EQ(assignment.shard_of_subgraph.size(), num_subgraphs);

  std::vector<size_t> seen(num_subgraphs, 0);
  for (ShardId shard = 0; shard < assignment.num_shards; ++shard) {
    for (SubgraphId sgid : assignment.subgraphs_of_shard[shard]) {
      ASSERT_LT(sgid, num_subgraphs);
      EXPECT_EQ(assignment.shard_of_subgraph[sgid], shard);
      ++seen[sgid];
    }
    EXPECT_TRUE(std::is_sorted(assignment.subgraphs_of_shard[shard].begin(),
                               assignment.subgraphs_of_shard[shard].end()));
  }
  for (size_t sgid = 0; sgid < num_subgraphs; ++sgid) {
    EXPECT_EQ(seen[sgid], 1u) << "subgraph " << sgid;
  }
}

TEST(ShardAssignmentTest, BalancesVerticesAcrossShards) {
  Graph g = MakeRandomConnected(120, 150, 1, 9, 13);
  std::unique_ptr<RoutingService> service =
      MustCreateSharded(std::move(g), /*z=*/16, /*num_shards=*/4);
  ASSERT_TRUE(service != nullptr);
  const ShardAssignment& assignment = service->assignment();
  size_t total = std::accumulate(assignment.vertices_of_shard.begin(),
                                 assignment.vertices_of_shard.end(),
                                 size_t{0});
  // LPT bound: no shard may exceed the ideal share by more than the largest
  // single subgraph (z vertices).
  size_t ideal = total / assignment.num_shards;
  for (ShardId shard = 0; shard < assignment.num_shards; ++shard) {
    EXPECT_LE(assignment.vertices_of_shard[shard], ideal + 16)
        << "shard " << shard << " of " << total << " total";
  }
}

TEST(ShardAssignmentTest, RejectsZeroShardsAndToleratesSurplusShards) {
  Graph g = MakeRandomConnected(20, 24, 1, 9, 17);
  Result<std::unique_ptr<Dtlp>> dtlp = Dtlp::Build(g, {});
  ASSERT_TRUE(dtlp.ok());
  EXPECT_EQ(AssignShards(dtlp.value()->partition(), 0).status().code(),
            StatusCode::kInvalidArgument);

  // More shards than subgraphs: the surplus shards own nothing but the
  // assignment still covers everything.
  size_t num_subgraphs = dtlp.value()->NumSubgraphs();
  Result<ShardAssignment> wide = AssignShards(
      dtlp.value()->partition(), static_cast<uint32_t>(num_subgraphs + 5));
  ASSERT_TRUE(wide.ok());
  size_t owned = 0;
  for (const std::vector<SubgraphId>& list :
       wide.value().subgraphs_of_shard) {
    owned += list.size();
  }
  EXPECT_EQ(owned, num_subgraphs);
}

TEST(ShardAssignmentTest, DeterministicForFixedInputs) {
  Graph g1 = MakeRandomConnected(50, 60, 1, 9, 19);
  Graph g2 = g1;
  std::unique_ptr<RoutingService> a =
      MustCreateSharded(std::move(g1), /*z=*/10, /*num_shards=*/3);
  std::unique_ptr<RoutingService> b =
      MustCreateSharded(std::move(g2), /*z=*/10, /*num_shards=*/3);
  ASSERT_TRUE(a != nullptr && b != nullptr);
  EXPECT_EQ(a->assignment().shard_of_subgraph,
            b->assignment().shard_of_subgraph);
}

// ---------------------------------------------------------------------------
// Sharded-vs-unsharded parity.
// ---------------------------------------------------------------------------

TEST(ShardedRoutingServiceTest, ParityWithUnshardedOnAllBackends) {
  const char* backends[] = {kBackendKspDg, kBackendYen, kBackendFindKsp,
                            kBackendDijkstra};
  for (uint32_t num_shards : {1u, 2u, 4u}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      Graph g = MakeRandomConnected(40, 52, 1, 9, seed * 23 + 5);
      Graph g_sharded = g;
      std::unique_ptr<RoutingService> plain =
          MustCreatePlain(std::move(g), /*z=*/10);
      std::unique_ptr<RoutingService> sharded =
          MustCreateSharded(std::move(g_sharded), /*z=*/10, num_shards);
      ASSERT_TRUE(plain != nullptr && sharded != nullptr);

      for (const char* backend : backends) {
        uint32_t k = backend == kBackendDijkstra ? 1 : 6;
        for (const auto& [s, t] : std::vector<std::pair<VertexId, VertexId>>{
                 {0, 39}, {3, 31}, {17, 22}}) {
          ExpectQueryParity(
              *sharded, *plain, MakeRequest(s, t, backend, k),
              std::string(backend) + " shards=" + std::to_string(num_shards) +
                  " seed=" + std::to_string(seed) + " q=" + std::to_string(s) +
                  "->" + std::to_string(t));
        }
      }
    }
  }
}

TEST(ShardedRoutingServiceTest, CrossShardParityAfterTrafficBatches) {
  for (uint32_t num_shards : {2u, 4u}) {
    Graph g = MakeRandomConnected(48, 60, 2, 12, 101);
    Graph g_sharded = g;
    std::unique_ptr<RoutingService> plain =
        MustCreatePlain(std::move(g), /*z=*/12);
    std::unique_ptr<RoutingService> sharded =
        MustCreateSharded(std::move(g_sharded), /*z=*/12, num_shards);
    ASSERT_TRUE(plain != nullptr && sharded != nullptr);

    TrafficModelOptions traffic_options;
    traffic_options.alpha = 0.5;
    traffic_options.seed = 31;
    TrafficModel traffic(plain->graph(), traffic_options);
    for (int step = 0; step < 5; ++step) {
      std::vector<WeightUpdate> batch = traffic.NextBatch();
      Result<TrafficBatchResult> plain_applied =
          plain->ApplyTrafficBatch(batch);
      Result<TrafficBatchResult> sharded_applied =
          sharded->ApplyTrafficBatch(batch);
      ASSERT_TRUE(plain_applied.ok()) << plain_applied.status().ToString();
      ASSERT_TRUE(sharded_applied.ok()) << sharded_applied.status().ToString();
      // Identical epochs and identical Algorithm 2 maintenance statistics:
      // every shard count runs the same Dtlp::ApplyUpdates.
      EXPECT_EQ(sharded_applied.value().epoch, plain_applied.value().epoch);
      EXPECT_EQ(sharded_applied.value().dtlp.updates_applied,
                plain_applied.value().dtlp.updates_applied);
      EXPECT_EQ(sharded_applied.value().dtlp.subgraphs_touched,
                plain_applied.value().dtlp.subgraphs_touched);
      EXPECT_EQ(sharded_applied.value().dtlp.skeleton_pairs_refreshed,
                plain_applied.value().dtlp.skeleton_pairs_refreshed);

      for (const auto& [s, t] : std::vector<std::pair<VertexId, VertexId>>{
               {1, 46}, {7, 40}, {13, 29}}) {
        for (const char* backend : {kBackendKspDg, kBackendYen}) {
          RouteRequest request = MakeRequest(s, t, backend, 5);
          Result<RouteResponse> want = plain->Query(request);
          Result<RouteResponse> got = sharded->Query(request);
          ASSERT_TRUE(want.ok() && got.ok());
          EXPECT_EQ(got.value().epoch, static_cast<uint64_t>(step + 1));
          ExpectIdenticalPaths(got.value().paths, want.value().paths,
                               std::string(backend) + " step " +
                                   std::to_string(step) + " shards " +
                                   std::to_string(num_shards));
          // Distances reflect the current snapshot exactly.
          for (const Path& p : got.value().paths) {
            EXPECT_NEAR(RouteDistance(sharded->graph(), p.vertices),
                        p.distance, 1e-9);
          }
        }
      }
    }
    EXPECT_EQ(sharded->CurrentEpoch(), 5u);
    EXPECT_EQ(plain->CurrentEpoch(), 5u);
  }
}

// ---------------------------------------------------------------------------
// Service semantics.
// ---------------------------------------------------------------------------

TEST(ShardedRoutingServiceTest, RejectsInvalidRequestsLikeUnsharded) {
  Graph g = MakeRandomConnected(16, 14, 1, 9, 43);
  std::unique_ptr<RoutingService> service =
      MustCreateSharded(std::move(g), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(service != nullptr);
  EXPECT_EQ(service->Query(MakeRequest(0, 5, kBackendYen, 0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Query(MakeRequest(0, 99, kBackendYen, 2)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Query(MakeRequest(4, 4, kBackendYen, 2)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      service->Query(MakeRequest(0, 5, "no-such-backend", 2)).status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(CounterTotal(*service, "queries_ok_total"), 0u);
  EXPECT_EQ(CounterTotal(*service, "queries_rejected_total"), 4u);
}

TEST(ShardedRoutingServiceTest, CreateRejectsZeroShards) {
  Graph g = MakeRandomConnected(12, 10, 1, 9, 47);
  RoutingServiceOptions options;
  options.num_shards = 0;
  EXPECT_EQ(
      RoutingService::Create(std::move(g), options).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(ShardedRoutingServiceTest, TrafficBatchValidationIsAtomic) {
  Graph g = MakeRandomConnected(16, 14, 2, 9, 53);
  std::unique_ptr<RoutingService> service =
      MustCreateSharded(std::move(g), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(service != nullptr);
  Weight before = service->graph().ForwardWeight(0);
  std::vector<WeightUpdate> bad_edge = {{0, 5.0, 5.0},
                                        {kInvalidEdge, 5.0, 5.0}};
  EXPECT_EQ(service->ApplyTrafficBatch(bad_edge).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<WeightUpdate> bad_weight = {{0, -1.0, 5.0}};
  EXPECT_EQ(service->ApplyTrafficBatch(bad_weight).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(service->graph().ForwardWeight(0), before);
  EXPECT_EQ(service->CurrentEpoch(), 0u);
}

TEST(ShardedRoutingServiceTest, ShardInfosAndRoutingCountersAreCoherent) {
  Graph g = MakeRandomConnected(60, 80, 1, 9, 59);
  std::unique_ptr<RoutingService> service =
      MustCreateSharded(std::move(g), /*z=*/10, /*num_shards=*/3);
  ASSERT_TRUE(service != nullptr);

  // A spread of KSP-DG queries must exercise the partial routing.
  for (VertexId s = 0; s < 12; ++s) {
    RouteRequest request = MakeRequest(s, 59 - s, kBackendKspDg, 4);
    ASSERT_TRUE(service->Query(request).ok());
  }

  const MetricsSnapshot metrics = service->Metrics();
  ASSERT_EQ(service->num_shards(), 3u);
  uint64_t shard_partials = 0;
  for (ShardId shard = 0; shard < service->num_shards(); ++shard) {
    const uint64_t requests =
        ShardCounter(metrics, "partial_requests_total", shard);
    shard_partials += requests;
    EXPECT_GE(ShardCounter(metrics, "yen_runs_total", shard), requests)
        << shard;
  }

  EXPECT_EQ(metrics.CounterTotal("queries_ok_total"), 12u);
  EXPECT_EQ(metrics.CounterTotal("single_shard_queries_total") +
                metrics.CounterTotal("cross_shard_queries_total"),
            12u);
  const uint64_t routed =
      metrics.CounterTotal("direct_partial_requests_total") +
      metrics.CounterTotal("scattered_partial_requests_total");
  EXPECT_GT(routed, 0u);
  // Every boundary-pair request landed on >= 1 shard; scattered requests
  // land on >= 2, so the shard-side tally must be at least the query-side
  // request count.
  EXPECT_GE(shard_partials, routed);
}

TEST(ShardedRoutingServiceTest, CustomSolversPlugIntoShardedService) {
  class EmptySolver : public KspSolver {
   public:
    std::string_view name() const override { return "empty"; }
    Result<KspQueryResult> Solve(const SolverInput&) const override {
      return KspQueryResult{};
    }
  };
  Graph g = MakeRandomConnected(12, 10, 1, 9, 61);
  std::unique_ptr<RoutingService> service =
      MustCreateSharded(std::move(g), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(service != nullptr);
  ASSERT_TRUE(service->RegisterSolver(std::make_unique<EmptySolver>()).ok());
  Result<RouteResponse> response =
      service->Query(MakeRequest(0, 9, "empty", 2));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().paths.empty());
  // Once the first query has been served, the registry is frozen — the
  // documented "before serving traffic" contract is now enforced.
  class LateSolver : public KspSolver {
   public:
    std::string_view name() const override { return "late"; }
    Result<KspQueryResult> Solve(const SolverInput&) const override {
      return KspQueryResult{};
    }
  };
  EXPECT_EQ(service->RegisterSolver(std::make_unique<LateSolver>()).code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Multi-kind parity: the kDiverseKsp filter and the cands backend must be
// invisible to sharding — byte-identical answers at 1/2/4 shards, before
// and after traffic.
// ---------------------------------------------------------------------------

TEST(ShardedRoutingServiceTest, DiverseAndShortestPathParityWithUnsharded) {
  for (uint32_t num_shards : {1u, 2u, 4u}) {
    Graph g = MakeRandomConnected(40, 54, 1, 9, 271);
    Graph g_sharded = g;
    std::unique_ptr<RoutingService> plain =
        MustCreatePlain(std::move(g), /*z=*/10);
    std::unique_ptr<RoutingService> sharded =
        MustCreateSharded(std::move(g_sharded), /*z=*/10, num_shards);
    ASSERT_TRUE(plain != nullptr && sharded != nullptr);

    TrafficModelOptions traffic_options;
    traffic_options.alpha = 0.4;
    traffic_options.seed = 53;
    TrafficModel traffic(plain->graph(), traffic_options);

    for (int step = 0; step < 3; ++step) {
      if (step > 0) {
        std::vector<WeightUpdate> batch = traffic.NextBatch();
        ASSERT_TRUE(plain->ApplyTrafficBatch(batch).ok());
        ASSERT_TRUE(sharded->ApplyTrafficBatch(batch).ok());
      }
      for (const auto& [s, t] : std::vector<std::pair<VertexId, VertexId>>{
               {0, 39}, {5, 33}, {11, 26}}) {
        // Diversity-aware KSP through the kspdg backend (the interesting
        // one: its candidates flow through the scatter/gather partials).
        RouteRequest diverse;
        diverse.kind = QueryKind::kDiverseKsp;
        diverse.source = s;
        diverse.target = t;
        diverse.options.k = 3;
        diverse.options.diversity_theta = 0.6;
        Result<RouteResponse> want = plain->Query(diverse);
        Result<RouteResponse> got = sharded->Query(diverse);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectIdenticalPaths(got.value().paths, want.value().paths,
                             "diverse shards=" + std::to_string(num_shards) +
                                 " step=" + std::to_string(step));
        ASSERT_TRUE(want.value().diverse.has_value());
        ASSERT_TRUE(got.value().diverse.has_value());
        EXPECT_EQ(got.value().diverse->kept, want.value().diverse->kept);
        EXPECT_EQ(got.value().diverse->candidates,
                  want.value().diverse->candidates);
        EXPECT_EQ(got.value().diverse->max_pairwise_similarity,
                  want.value().diverse->max_pairwise_similarity);

        // Single shortest path through the coordinator-owned cands index.
        RouteRequest shortest;
        shortest.kind = QueryKind::kShortestPath;
        shortest.source = s;
        shortest.target = t;
        Result<RouteResponse> want_sp = plain->Query(shortest);
        Result<RouteResponse> got_sp = sharded->Query(shortest);
        ASSERT_TRUE(want_sp.ok() && got_sp.ok());
        EXPECT_EQ(got_sp.value().backend, kBackendCands);
        ExpectIdenticalPaths(got_sp.value().paths, want_sp.value().paths,
                             "cands shards=" + std::to_string(num_shards) +
                                 " step=" + std::to_string(step));
      }
    }
  }
}

// Batched diverse queries must equal unsharded sequential ones too (the
// filter runs inside the batch worker, after the scatter/gather solve).
TEST(ShardedQueryBatchTest, DiverseBatchParityWithUnshardedSequential) {
  Graph g = MakeRandomConnected(36, 48, 1, 9, 283);
  Graph g_sharded = g;
  std::unique_ptr<RoutingService> plain =
      MustCreatePlain(std::move(g), /*z=*/10);
  std::unique_ptr<RoutingService> sharded =
      MustCreateSharded(std::move(g_sharded), /*z=*/10, /*num_shards=*/2);
  ASSERT_TRUE(plain != nullptr && sharded != nullptr);

  std::vector<RouteRequest> requests;
  for (VertexId s = 0; s < 6; ++s) {
    RouteRequest request;
    request.kind = QueryKind::kDiverseKsp;
    request.source = s;
    request.target = 35 - s;
    request.options.k = 3;
    request.options.backend = s % 2 == 0 ? kBackendKspDg : kBackendYen;
    requests.push_back(request);
  }
  Result<RouteBatchResponse> batched = sharded->QueryBatch(requests);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched.value().num_ok, requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<RouteResponse> want = plain->Query(requests[i]);
    ASSERT_TRUE(want.ok());
    ExpectIdenticalPaths(batched.value().items[i].response.paths,
                         want.value().paths,
                         "diverse batch item " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Threaded scatter/gather + update interleave (tsan watches the per-shard
// lock protocol; the uniform-weight identity catches torn snapshots).
// ---------------------------------------------------------------------------

TEST(ShardedRoutingServiceTest, ConcurrentScatterGatherAndUpdatesStayUniform) {
  Graph g = MakeRandomConnected(40, 50, 1, 1, 67);  // all weights 1
  const size_t num_edges = g.NumEdges();
  std::unique_ptr<RoutingService> service = MustCreateSharded(
      std::move(g), /*z=*/10, /*num_shards=*/4);
  ASSERT_TRUE(service != nullptr);

  constexpr uint64_t kBatches = 10;
  auto level = [](uint64_t epoch) {
    return 1.0 + 0.25 * static_cast<double>(epoch);
  };

  std::atomic<bool> done{false};
  std::atomic<size_t> checks{0};
  std::atomic<size_t> failures{0};

  auto reader = [&](unsigned thread_seed) {
    const char* backends[] = {kBackendKspDg, kBackendKspDg, kBackendYen};
    uint64_t last_epoch = 0;
    size_t i = thread_seed;
    while (!done.load(std::memory_order_acquire)) {
      VertexId s = static_cast<VertexId>(i * 7 % 40);
      VertexId t = static_cast<VertexId>((i * 13 + 19) % 40);
      ++i;
      if (s == t) continue;
      Result<RouteResponse> response =
          service->Query(MakeRequest(s, t, backends[i % 3], 4));
      if (!response.ok()) {
        failures.fetch_add(1);
        continue;
      }
      const RouteResponse& r = response.value();
      if (r.epoch < last_epoch) failures.fetch_add(1);  // must be monotone
      last_epoch = r.epoch;
      const double w = level(r.epoch);
      for (const Path& p : r.paths) {
        const double want = w * static_cast<double>(p.NumEdges());
        if (std::abs(p.distance - want) > 1e-6 * (1.0 + want)) {
          failures.fetch_add(1);
        }
        checks.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 3; ++r) readers.emplace_back(reader, r + 1);

  for (uint64_t batch = 1; batch <= kBatches; ++batch) {
    std::vector<WeightUpdate> updates;
    updates.reserve(num_edges);
    const double w = level(batch);
    for (EdgeId e = 0; e < num_edges; ++e) updates.push_back({e, w, w});
    Result<TrafficBatchResult> applied = service->ApplyTrafficBatch(updates);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied.value().epoch, batch);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(checks.load(), 0u) << "readers never overlapped the updates";
  EXPECT_EQ(service->CurrentEpoch(), kBatches);
  EXPECT_EQ(CounterTotal(*service, "traffic_batches_total"), kBatches);
  EXPECT_EQ(CounterTotal(*service, "weight_updates_total"),
            kBatches * num_edges);
}

// ---------------------------------------------------------------------------
// Sharded QueryBatch: whole batches answered at one multi-shard snapshot,
// byte-identical to asking an unsharded service sequentially.
// ---------------------------------------------------------------------------

TEST(ShardedQueryBatchTest, ParityWithUnshardedSequentialOnAllBackends) {
  const char* backends[] = {kBackendKspDg, kBackendYen, kBackendFindKsp,
                            kBackendDijkstra};
  for (uint32_t num_shards : {1u, 2u, 4u}) {
    for (size_t batch_size : {size_t{1}, size_t{8}}) {
      Graph g = MakeRandomConnected(40, 52, 1, 9, 71);
      Graph g_sharded = g;
      std::unique_ptr<RoutingService> plain =
          MustCreatePlain(std::move(g), /*z=*/10);
      std::unique_ptr<RoutingService> sharded =
          MustCreateSharded(std::move(g_sharded), /*z=*/10, num_shards);
      ASSERT_TRUE(plain != nullptr && sharded != nullptr);

      // Move both services off epoch 0 so the parity also covers updated
      // weights (identical batch => identical snapshots).
      TrafficModelOptions traffic_options;
      traffic_options.alpha = 0.4;
      traffic_options.seed = 77;
      TrafficModel traffic(plain->graph(), traffic_options);
      std::vector<WeightUpdate> updates = traffic.NextBatch();
      ASSERT_TRUE(plain->ApplyTrafficBatch(updates).ok());
      ASSERT_TRUE(sharded->ApplyTrafficBatch(updates).ok());

      std::vector<RouteRequest> requests;
      for (const char* backend : backends) {
        uint32_t k = backend == kBackendDijkstra ? 1 : 5;
        for (const auto& [s, t] : std::vector<std::pair<VertexId, VertexId>>{
                 {0, 39}, {3, 31}, {17, 22}, {5, 28}}) {
          requests.push_back(MakeRequest(s, t, backend, k));
        }
      }
      std::vector<std::vector<Path>> expected;
      for (const RouteRequest& request : requests) {
        Result<RouteResponse> want = plain->Query(request);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        expected.push_back(std::move(want).value().paths);
      }

      size_t next = 0;
      for (size_t begin = 0; begin < requests.size(); begin += batch_size) {
        size_t count = std::min(batch_size, requests.size() - begin);
        Result<RouteBatchResponse> batched = sharded->QueryBatch(
            std::span<const RouteRequest>(requests.data() + begin, count));
        ASSERT_TRUE(batched.ok()) << batched.status().ToString();
        const RouteBatchResponse& b = batched.value();
        EXPECT_EQ(b.num_ok, count);
        EXPECT_EQ(b.epoch, 1u);
        for (const RouteBatchItem& item : b.items) {
          ASSERT_TRUE(item.status.ok()) << item.status.ToString();
          EXPECT_EQ(item.response.epoch, b.epoch);
          ExpectIdenticalPaths(
              item.response.paths, expected[next],
              "shards=" + std::to_string(num_shards) + " batch_size=" +
                  std::to_string(batch_size) + " item " +
                  std::to_string(next));
          ++next;
        }
      }
      EXPECT_EQ(next, requests.size());
    }
  }
}

TEST(ShardedQueryBatchTest, MixedValidAndInvalidRequests) {
  Graph g = MakeRandomConnected(20, 24, 1, 9, 73);
  std::unique_ptr<RoutingService> service =
      MustCreateSharded(std::move(g), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(service != nullptr);

  std::vector<RouteRequest> requests;
  requests.push_back(MakeRequest(0, 19, kBackendYen, 3));        // ok
  requests.push_back(MakeRequest(0, 19, kBackendYen, 0));        // k = 0
  requests.push_back(MakeRequest(0, 99, kBackendYen, 2));        // range
  requests.push_back(MakeRequest(0, 19, "no-such-backend", 2));  // name
  requests.push_back(MakeRequest(4, 4, kBackendYen, 2));         // s == t
  requests.push_back(MakeRequest(2, 17, kBackendKspDg, 4));      // ok

  Result<RouteBatchResponse> batched = service->QueryBatch(requests);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const RouteBatchResponse& b = batched.value();
  ASSERT_EQ(b.items.size(), 6u);
  EXPECT_EQ(b.num_ok, 2u);
  EXPECT_EQ(b.num_rejected, 4u);
  EXPECT_TRUE(b.items[0].status.ok());
  EXPECT_EQ(b.items[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.items[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.items[3].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(b.items[4].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(b.items[5].status.ok());

  EXPECT_EQ(CounterTotal(*service, "queries_ok_total"), 2u);
  EXPECT_EQ(CounterTotal(*service, "queries_rejected_total"), 4u);
}

// With one worker, a duplicate KSP-DG query inside one batch must be served
// from the per-(shard, worker) partial caches: its solve performs zero
// fresh partial-KSP computations, and the shard-side hit counters move.
TEST(ShardedQueryBatchTest, PerShardScratchServesDuplicateInBatch) {
  Graph g = MakeRandomConnected(26, 32, 1, 9, 79);
  std::unique_ptr<RoutingService> service =
      MustCreateSharded(std::move(g), /*z=*/8, /*num_shards=*/2,
                        /*batch_threads=*/1);
  ASSERT_TRUE(service != nullptr);

  std::vector<RouteRequest> requests = {MakeRequest(0, 25, kBackendKspDg, 5),
                                      MakeRequest(0, 25, kBackendKspDg, 5)};
  Result<RouteBatchResponse> batched = service->QueryBatch(requests);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const RouteBatchResponse& b = batched.value();
  ASSERT_EQ(b.num_ok, 2u);
  ASSERT_FALSE(b.items[0].response.paths.empty());
  ExpectIdenticalPaths(b.items[1].response.paths, b.items[0].response.paths,
                       "duplicate query in one sharded batch");
  const KspDgQueryStats& first = b.items[0].response.stats.engine;
  const KspDgQueryStats& second = b.items[1].response.stats.engine;
  ASSERT_GT(first.partial_ksp_computations, 0u);
  EXPECT_EQ(second.partial_ksp_computations, 0u)
      << "second identical query should be fully served from the per-shard "
         "partial caches";
  const MetricsSnapshot metrics = service->Metrics();
  const uint64_t hits = metrics.CounterTotal("partial_cache_hits_total");
  EXPECT_GT(hits, 0u);
  uint64_t shard_hits = 0;
  for (ShardId shard = 0; shard < service->num_shards(); ++shard) {
    shard_hits += ShardCounter(metrics, "partial_cache_hits_total", shard);
  }
  EXPECT_EQ(shard_hits, hits);

  // The caches persist across batches while the epoch holds still: a later
  // batch repeating the query is served warm as well.
  Result<RouteBatchResponse> later =
      service->QueryBatch(std::span<const RouteRequest>(requests.data(), 1));
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  ASSERT_EQ(later.value().num_ok, 1u);
  EXPECT_EQ(
      later.value().items[0].response.stats.engine.partial_ksp_computations,
      0u);
}

// A traffic batch bumps every shard's epoch; the per-shard caches must be
// flushed — stale partials would answer with the old epoch's distances.
TEST(ShardedQueryBatchTest, PerShardCachesFlushWhenShardEpochBumps) {
  Graph g = MakeRandomConnected(26, 32, 1, 1, 83);  // all weights 1
  const size_t num_edges = g.NumEdges();
  std::unique_ptr<RoutingService> service =
      MustCreateSharded(std::move(g), /*z=*/8, /*num_shards=*/2,
                        /*batch_threads=*/1);
  ASSERT_TRUE(service != nullptr);

  std::vector<RouteRequest> requests = {MakeRequest(0, 25, kBackendKspDg, 4),
                                      MakeRequest(0, 25, kBackendYen, 4)};
  Result<RouteBatchResponse> before = service->QueryBatch(requests);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before.value().num_ok, 2u);

  // Double every weight; all path distances must exactly double.
  std::vector<WeightUpdate> updates;
  updates.reserve(num_edges);
  for (EdgeId e = 0; e < num_edges; ++e) updates.push_back({e, 2.0, 2.0});
  ASSERT_TRUE(service->ApplyTrafficBatch(updates).ok());

  Result<RouteBatchResponse> after = service->QueryBatch(requests);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after.value().num_ok, 2u);
  EXPECT_EQ(after.value().epoch, before.value().epoch + 1);
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::vector<Path>& old_paths =
        before.value().items[i].response.paths;
    const std::vector<Path>& new_paths = after.value().items[i].response.paths;
    ASSERT_EQ(new_paths.size(), old_paths.size()) << i;
    for (size_t p = 0; p < new_paths.size(); ++p) {
      EXPECT_NEAR(new_paths[p].distance, 2.0 * old_paths[p].distance, 1e-7)
          << "item " << i << " rank " << p;
    }
  }
}

// A traffic batch touching only ONE shard's subgraphs must not flush the
// other shards' caches (flush is keyed on the shard's weights stamp, not
// the published epoch) — and the retained entries must still produce
// answers byte-identical to a fresh unsharded service at the new snapshot.
TEST(ShardedQueryBatchTest, UntouchedShardsKeepTheirCachesAcrossTraffic) {
  Graph g = MakeRandomConnected(48, 60, 1, 9, 91);
  Graph g_plain = g;
  std::unique_ptr<RoutingService> sharded =
      MustCreateSharded(std::move(g), /*z=*/10, /*num_shards=*/3,
                        /*batch_threads=*/1);
  std::unique_ptr<RoutingService> plain =
      MustCreatePlain(std::move(g_plain), /*z=*/10);
  ASSERT_TRUE(sharded != nullptr && plain != nullptr);

  // Warm the per-shard caches with a spread of KSP-DG queries.
  std::vector<RouteRequest> requests;
  for (VertexId s = 0; s < 8; ++s) {
    requests.push_back(MakeRequest(s, 47 - s, kBackendKspDg, 4));
  }
  ASSERT_TRUE(sharded->QueryBatch(requests).ok());

  // Re-apply ONE edge's current weights: the epoch advances and exactly
  // one shard's slice is written, but every weight stays bit-identical —
  // so the repeat batch requests exactly the same boundary pairs, and any
  // fresh computation on an untouched shard can only mean its cache was
  // wrongly flushed.
  const Partition& partition = sharded->dtlp().partition();
  EdgeId edge = 0;
  SubgraphId owner = partition.subgraph_of_edge[edge];
  ASSERT_NE(owner, kInvalidSubgraph);
  ShardId touched_shard = sharded->assignment().shard_of_subgraph[owner];
  std::vector<WeightUpdate> noop = {{edge, sharded->graph().ForwardWeight(edge),
                                     sharded->graph().BackwardWeight(edge)}};
  ASSERT_TRUE(sharded->ApplyTrafficBatch(noop).ok());
  EXPECT_EQ(sharded->CurrentEpoch(), 1u);

  const MetricsSnapshot before = sharded->Metrics();
  Result<RouteBatchResponse> repeat = sharded->QueryBatch(requests);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  ASSERT_EQ(repeat.value().num_ok, requests.size());
  const MetricsSnapshot after_noop = sharded->Metrics();
  for (ShardId shard = 0; shard < sharded->num_shards(); ++shard) {
    if (shard == touched_shard) continue;
    EXPECT_EQ(ShardCounter(after_noop, "partial_requests_total", shard),
              ShardCounter(before, "partial_requests_total", shard))
        << "shard " << shard
        << " recomputed partials although its slice never changed";
  }

  // A real weight change on the same shard: parity against an unsharded
  // service proves the retained entries on untouched shards are not stale.
  std::vector<WeightUpdate> update = {{edge, 7.5, 7.5}};
  ASSERT_TRUE(sharded->ApplyTrafficBatch(update).ok());
  ASSERT_TRUE(plain->ApplyTrafficBatch(noop).ok());
  ASSERT_TRUE(plain->ApplyTrafficBatch(update).ok());
  Result<RouteBatchResponse> after = sharded->QueryBatch(requests);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after.value().num_ok, requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<RouteResponse> want = plain->Query(requests[i]);
    ASSERT_TRUE(want.ok());
    ExpectIdenticalPaths(after.value().items[i].response.paths,
                         want.value().paths,
                         "post-update item " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Async submission: SubmitBatch tickets complete under concurrent traffic
// batches and every answered batch stays snapshot-uniform (the tsan job
// repeats all *Concurrent* tests to shake out flaky interleavings).
// ---------------------------------------------------------------------------

TEST(ShardedSubmitBatchTest, TicketMatchesSynchronousQueryBatch) {
  Graph g = MakeRandomConnected(30, 38, 1, 9, 89);
  std::unique_ptr<RoutingService> service =
      MustCreateSharded(std::move(g), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(service != nullptr);

  std::vector<RouteRequest> requests = {MakeRequest(0, 29, kBackendKspDg, 4),
                                      MakeRequest(3, 21, kBackendYen, 3)};
  Result<RouteBatchResponse> sync = service->QueryBatch(requests);
  ASSERT_TRUE(sync.ok());

  std::atomic<int> callbacks{0};
  BatchTicket ticket = service->SubmitBatch(
      requests, [&](const Result<RouteBatchResponse>& outcome) {
        EXPECT_TRUE(outcome.ok());
        callbacks.fetch_add(1);
      });
  ASSERT_TRUE(ticket.valid());
  const Result<RouteBatchResponse>& outcome = ticket.Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(ticket.Ready());
  // The callback fires after the ticket is fulfilled, so Wait() returning
  // does not imply it ran yet; poll briefly.
  while (callbacks.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(callbacks.load(), 1);
  ASSERT_EQ(outcome.value().items.size(), requests.size());
  EXPECT_EQ(outcome.value().num_ok, requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectIdenticalPaths(outcome.value().items[i].response.paths,
                         sync.value().items[i].response.paths,
                         "async vs sync item " + std::to_string(i));
  }
}

TEST(ShardedSubmitBatchTest, ConcurrentSubmitAndTrafficStayUniform) {
  Graph g = MakeRandomConnected(40, 50, 1, 1, 97);  // all weights 1
  const size_t num_edges = g.NumEdges();
  std::unique_ptr<RoutingService> service = MustCreateSharded(
      std::move(g), /*z=*/10, /*num_shards=*/3);
  ASSERT_TRUE(service != nullptr);

  constexpr uint64_t kBatches = 8;
  auto level = [](uint64_t epoch) {
    return 1.0 + 0.25 * static_cast<double>(epoch);
  };

  std::atomic<bool> done{false};
  std::atomic<size_t> checks{0};
  std::atomic<size_t> failures{0};

  // Producer: pipeline async batches (several tickets in flight) while the
  // main thread applies uniform-weight traffic batches.
  std::thread producer([&] {
    const char* backends[] = {kBackendKspDg, kBackendYen, kBackendFindKsp};
    std::vector<BatchTicket> inflight;
    size_t i = 1;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<RouteRequest> requests;
      for (size_t r = 0; r < 6; ++r) {
        VertexId s = static_cast<VertexId>((i * 7 + r * 11) % 40);
        VertexId t = static_cast<VertexId>((i * 13 + r * 17 + 19) % 40);
        if (s == t) continue;
        requests.push_back(MakeRequest(s, t, backends[(i + r) % 3], 4));
      }
      ++i;
      inflight.push_back(service->SubmitBatch(std::move(requests)));
      if (inflight.size() < 3) continue;  // keep a few tickets in flight
      const Result<RouteBatchResponse>& outcome = inflight.front().Wait();
      if (!outcome.ok()) {
        failures.fetch_add(1);
      } else {
        const RouteBatchResponse& b = outcome.value();
        const double w = level(b.epoch);
        for (const RouteBatchItem& item : b.items) {
          if (!item.status.ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (item.response.epoch != b.epoch) failures.fetch_add(1);
          for (const Path& p : item.response.paths) {
            const double want = w * static_cast<double>(p.NumEdges());
            if (std::abs(p.distance - want) > 1e-6 * (1.0 + want)) {
              failures.fetch_add(1);
            }
            checks.fetch_add(1);
          }
        }
      }
      inflight.erase(inflight.begin());
    }
    for (const BatchTicket& ticket : inflight) ticket.Wait();
  });

  for (uint64_t batch = 1; batch <= kBatches; ++batch) {
    std::vector<WeightUpdate> updates;
    updates.reserve(num_edges);
    const double w = level(batch);
    for (EdgeId e = 0; e < num_edges; ++e) updates.push_back({e, w, w});
    Result<TrafficBatchResult> applied = service->ApplyTrafficBatch(updates);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied.value().epoch, batch);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  producer.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(checks.load(), 0u) << "producer never overlapped the updates";
  EXPECT_EQ(service->CurrentEpoch(), kBatches);
}

// The admission surface is part of the shared serving contract: the
// sharded service answers deadline/quota pressure exactly like the plain
// one and exports the same admission series names, readable through the
// same AdmissionCountersFrom view.
TEST(ShardedRoutingServiceTest, AdmissionSeriesMatchThePlainService) {
  Graph g = MakeRandomConnected(30, 38, 1, 9, 101);
  RoutingServiceOptions options;
  options.dtlp.partition.max_vertices = 10;
  options.num_shards = 2;
  options.per_tenant_quota = 1;
  Result<std::unique_ptr<RoutingService>> service_or =
      RoutingService::Create(std::move(g), std::move(options));
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  std::unique_ptr<RoutingService> service =
      std::move(service_or).value();

  RouteRequest expired = MakeRequest(0, 29, kBackendYen, 3);
  expired.context.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  Result<RouteResponse> response = service->Query(expired);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(service->Query(MakeRequest(0, 29, kBackendYen, 3)).ok());

  // Quota shed through the shared SubmitBatch seam: park the submission
  // worker inside the first batch's callback so the tenant's next envelope
  // stays pending, then exceed the quota.
  std::mutex gate;
  gate.lock();
  std::atomic<bool> parked{false};
  BatchTicket first = service->SubmitBatch(
      {MakeRequest(3, 21, kBackendYen, 3)},
      [&](const Result<RouteBatchResponse>&) {
        parked.store(true, std::memory_order_release);
        std::lock_guard<std::mutex> guard(gate);
      });
  while (!parked.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<RouteRequest> pending = {MakeRequest(3, 21, kBackendYen, 3)};
  pending.front().context.tenant_id = "acme";
  BatchTicket second = service->SubmitBatch(pending);
  std::vector<RouteRequest> over = {MakeRequest(5, 19, kBackendYen, 3)};
  over.front().context.tenant_id = "acme";
  BatchTicket third = service->SubmitBatch(over);
  const Result<RouteBatchResponse>& shed = third.Wait();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  ASSERT_EQ(shed.value().items.size(), 1u);
  EXPECT_EQ(shed.value().items.front().status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.value().items.front().admission,
            AdmissionOutcome::kShedQuota);
  gate.unlock();
  ASSERT_TRUE(first.Wait().ok());
  ASSERT_TRUE(second.Wait().ok());

  // Same series names as RoutingService (AdmissionCountersFrom reads the
  // exact admission_* totals), same accounting.
  AdmissionCounters counters = AdmissionCountersFrom(service->Metrics());
  EXPECT_EQ(counters.admitted, 3u);  // ok query + first + second batches
  EXPECT_EQ(counters.shed_deadline, 1u);
  EXPECT_EQ(counters.shed_quota, 1u);
}

}  // namespace
}  // namespace kspdg
