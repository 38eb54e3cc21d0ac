// Shared parity harness for the service test suites. Every concrete
// service implements RoutingServiceInterface, so parity — "moving work
// between threads, shards, or processes may never change an answer" — is
// one reusable check: build two services from the same graph, issue the
// same request to both, require byte-identical paths. The factories
// return nullptr after ADD_FAILURE on construction errors so callers can
// ASSERT once and proceed.
#ifndef KSPDG_TESTS_PARITY_HARNESS_H_
#define KSPDG_TESTS_PARITY_HARNESS_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/routing_service.h"
#include "api/routing_service_interface.h"
#include "graph/graph.h"
#include "ksp/path.h"
#include "remote/remote_sharded_routing_service.h"

namespace kspdg {

/// The in-process deployment at `num_shards` shards.
inline std::unique_ptr<RoutingService> MustCreateSharded(
    Graph g, uint32_t z, uint32_t num_shards, unsigned batch_threads = 0) {
  RoutingServiceOptions options;
  options.dtlp.partition.max_vertices = z;
  options.num_shards = num_shards;
  options.batch_threads = batch_threads;
  Result<std::unique_ptr<RoutingService>> service =
      RoutingService::Create(std::move(g), std::move(options));
  if (!service.ok()) {
    ADD_FAILURE() << service.status().ToString();
    return nullptr;
  }
  return std::move(service).value();
}

// Short RPC deadlines: dead-worker detection costs up to
// deadline_ms * (1 + retries) per first-failing call, so the fault tests
// keep the budget tight. The apply deadline keeps its generous default.
inline std::unique_ptr<RemoteShardedRoutingService> MustCreateRemote(
    Graph g, uint32_t z, uint32_t num_shards, uint32_t num_replicas = 1) {
  RemoteShardedRoutingServiceOptions options;
  options.dtlp.partition.max_vertices = z;
  options.num_shards = num_shards;
  options.num_replicas = num_replicas;
  options.remote.rpc_deadline_ms = 2000;
  options.remote.rpc_max_retries = 1;
  options.remote.rpc_backoff_ms = 5;
  Result<std::unique_ptr<RemoteShardedRoutingService>> service =
      RemoteShardedRoutingService::Create(std::move(g), std::move(options));
  if (!service.ok()) {
    ADD_FAILURE() << service.status().ToString();
    return nullptr;
  }
  return std::move(service).value();
}

/// The single-shard deployment (the reference the others must match).
inline std::unique_ptr<RoutingService> MustCreatePlain(Graph g, uint32_t z) {
  return MustCreateSharded(std::move(g), z, /*num_shards=*/1);
}

/// Sum of a counter series over all its labels in a fresh scrape.
inline uint64_t CounterTotal(const RoutingServiceInterface& service,
                             std::string_view name) {
  return service.Metrics().CounterTotal(name);
}

/// Sum of a counter series' samples labelled {shard="<shard>"}.
inline uint64_t ShardCounter(const MetricsSnapshot& snapshot,
                             std::string_view name, ShardId shard) {
  const std::string id = std::to_string(shard);
  uint64_t total = 0;
  for (const CounterSample& counter : snapshot.counters) {
    if (counter.name != name) continue;
    for (const auto& [key, value] : counter.labels) {
      if (key == "shard" && value == id) total += counter.value;
    }
  }
  return total;
}

inline RouteRequest MakeRequest(VertexId s, VertexId t,
                                const std::string& backend, uint32_t k) {
  RouteRequest request;
  request.source = s;
  request.target = t;
  request.options.backend = backend;
  request.options.k = k;
  return request;
}

/// Byte-level parity: same number of paths, same routes, same distances
/// (exact doubles — both services run the identical arithmetic on the
/// identical weights, so not even the last bit may differ).
inline void ExpectIdenticalPaths(const std::vector<Path>& got,
                                 const std::vector<Path>& want,
                                 const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].vertices, want[i].vertices) << label << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << label << " rank " << i;
  }
}

/// Issues the same request to both services through the shared interface
/// and requires both to succeed with the same epoch and identical paths.
inline void ExpectQueryParity(RoutingServiceInterface& got_service,
                              RoutingServiceInterface& want_service,
                              const RouteRequest& request,
                              const std::string& label) {
  Result<RouteResponse> got = got_service.Query(request);
  Result<RouteResponse> want = want_service.Query(request);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
  ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
  EXPECT_EQ(got.value().epoch, want.value().epoch) << label;
  ExpectIdenticalPaths(got.value().paths, want.value().paths, label);
}

}  // namespace kspdg

#endif  // KSPDG_TESTS_PARITY_HARNESS_H_
