#include "graph/traffic_model.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace kspdg {

namespace {

/// Weights never drop below this fraction of the initial weight.
constexpr double kMinWeightFactor = 0.05;

}  // namespace

TrafficModel::TrafficModel(const Graph& graph,
                           const TrafficModelOptions& options)
    : graph_(&graph), options_(options), rng_(options.seed) {
  assert(options_.alpha >= 0.0 && options_.alpha <= 1.0);
  assert(options_.tau >= 0.0);
  shuffle_.resize(graph.NumEdges());
  std::iota(shuffle_.begin(), shuffle_.end(), 0);
}

WeightUpdate TrafficModel::MakeUpdate(EdgeId e) {
  auto vary = [&](VfragCount w0) {
    double factor = 1.0 + rng_.NextDouble(-options_.tau, options_.tau);
    double floor = kMinWeightFactor * static_cast<double>(w0);
    double w = factor * static_cast<double>(w0);
    if (w < floor) w = floor;
    if (w <= 0.0) w = 1e-6;
    return w;
  };
  WeightUpdate upd;
  upd.edge = e;
  upd.new_forward = vary(graph_->ForwardVfrags(e));
  if (graph_->directed() && options_.independent_directions) {
    upd.new_backward = vary(graph_->BackwardVfrags(e));
  } else {
    // Mirror the forward variation factor onto the backward direction so the
    // two directions change identically (the paper's undirected simulation).
    double factor = upd.new_forward / static_cast<double>(graph_->ForwardVfrags(e));
    upd.new_backward = factor * static_cast<double>(graph_->BackwardVfrags(e));
  }
  return upd;
}

std::vector<WeightUpdate> TrafficModel::NextBatch() {
  size_t count = static_cast<size_t>(options_.alpha *
                                     static_cast<double>(graph_->NumEdges()));
  return NextBatchOfSize(count);
}

std::vector<WeightUpdate> TrafficModel::NextBatchOfSize(size_t count) {
  count = std::min(count, graph_->NumEdges());
  // Partial Fisher-Yates: the first `count` entries of shuffle_ become a
  // uniform random sample of distinct edges.
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + rng_.NextBounded(shuffle_.size() - i);
    std::swap(shuffle_[i], shuffle_[j]);
  }
  std::vector<WeightUpdate> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) batch.push_back(MakeUpdate(shuffle_[i]));
  return batch;
}

std::vector<WeightUpdate> TrafficModel::Step(Graph& graph) {
  assert(graph.NumEdges() == graph_->NumEdges());
  std::vector<WeightUpdate> batch = NextBatch();
  for (const WeightUpdate& upd : batch) graph.SetWeight(upd);
  return batch;
}

}  // namespace kspdg
