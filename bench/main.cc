// kspdg_perf: one benchmark run.
//
//   kspdg_perf --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-dir DIR] [--socket-dir DIR]
//
// Runs one workload for S seconds, checks every answer against the oracle,
// and prints a human-readable summary followed by one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs with spans around every call the bench makes, followed by
// the layer replay, and the metrics are the per-layer ones (the spans are
// written to DIR/<workload>-seed<N>.json). Exit codes: 1 the run
// failed, 2 bad arguments, 3 the oracle disagrees with itself.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "layers.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace kspdg::bench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

uint64_t CounterDelta(const RunLog& log, std::string_view name) {
  return log.metrics_after.CounterTotal(name) - log.metrics_before.CounterTotal(name);
}

/// Mean of a histogram's new observations (sum and count deltas).
double HistogramMeanDelta(const RunLog& log, std::string_view name) {
  auto totals = [name](const MetricsSnapshot& snapshot) {
    std::pair<double, double> sum_count{0, 0};
    for (const HistogramSample& h : snapshot.histograms) {
      if (h.name != name) continue;
      sum_count.first += h.sum;
      sum_count.second += static_cast<double>(h.count);
    }
    return sum_count;
  };
  const auto before = totals(log.metrics_before);
  const auto after = totals(log.metrics_after);
  return Ratio(after.first - before.first, after.second - before.second);
}

std::vector<double> ReadLatencies(const RunLog& log) {
  std::vector<double> out;
  for (const ReadTiming& read : log.reads) out.push_back(read.latency_ms);
  return out;
}

std::vector<Metric> EndToEndMetrics(const RunLog& log) {
  const std::vector<double> latency = ReadLatencies(log);
  return {
      {"setup_s", "s", Median(log.setup_s)},
      {"read_p50_ms", "ms", Quantile(latency, 0.5)},
      {"read_tail_ms", "ms", Quantile(latency, log.tail_quantile)},
      {"read_qps", "1/s",
       Ratio(static_cast<double>(log.answers.size()), log.window_s)},
      {"peak_rss_mb", "MB", log.peak_rss_mb},
  };
}

std::vector<Metric> PerLayerMetrics(const RunLog& log, const OracleReport& oracle,
                                    const ReplayReport& replay,
                                    const std::map<std::string, LayerTime>& layers) {
  auto self_ms = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_ms;
  };
  auto per_query = [&](const char* name) {
    return Ratio(self_ms(name), static_cast<double>(replay.replayed));
  };
  std::vector<double> solve_ms;
  std::vector<double> wait_ms;
  for (const ReadTiming& read : log.reads) {
    solve_ms.push_back(read.solve_ms);
    wait_ms.push_back(read.latency_ms - read.solve_ms);
  }
  std::vector<double> update_ms;
  std::vector<double> cands_ms;
  for (const UpdateTiming& update : log.updates) {
    update_ms.push_back(update.latency_ms);
    cands_ms.push_back(update.result.cands_micros / 1e3);
  }
  const double requests = static_cast<double>(log.answers.size());
  const double cache_hits =
      static_cast<double>(CounterDelta(log, "partial_cache_hits_total"));
  const double fetches =
      static_cast<double>(CounterDelta(log, "partial_requests_total"));
  const double direct =
      static_cast<double>(CounterDelta(log, "direct_partial_requests_total"));
  const double scattered =
      static_cast<double>(CounterDelta(log, "scattered_partial_requests_total"));
  const double partial_calls = static_cast<double>(replay.partial_calls);
  const double replay_hits = static_cast<double>(replay.partial_cache_hits);
  const PaperTrafficReport& paper = replay.paper_traffic;
  const BoundHealth& paper_bounds = paper.health.back();
  const double paper_queries = static_cast<double>(paper.queries);
  auto replay_root = layers.find("bench.replay");
  const double unattributed =
      replay_root == layers.end()
          ? 0.0
          : Ratio(replay_root->second.self_ms, replay_root->second.total_ms);
  return {
      {"bench.trace_overhead", "ratio", Ratio(replay.traced_ms, replay.direct_ms)},
      {"bench.unattributed_share", "ratio", unattributed},
      {"bench.gen_late_p99_ms", "ms", Quantile(log.gen_late_ms, 0.99)},
      {"api.solve_p50_ms", "ms", Quantile(solve_ms, 0.5)},
      {"api.wait_p99_ms", "ms", Quantile(wait_ms, 0.99)},
      {"api.ksp_solve_p50_ms", "ms", Quantile(log.ksp_solve_ms, 0.5)},
      {"api.update_p50_ms", "ms", Quantile(update_ms, 0.5)},
      {"core.writer_wait_mean_ms", "ms",
       HistogramMeanDelta(log, "epoch_writer_wait_micros") / 1e3},
      {"core.writer_drains", "count",
       static_cast<double>(CounterDelta(log, "epoch_writer_drains_total"))},
      {"kspdg.overlay_ms", "ms", per_query("kspdg.overlay")},
      {"kspdg.reference_ms", "ms", per_query("kspdg.reference")},
      {"kspdg.join_ms", "ms", per_query("kspdg.join")},
      {"kspdg.partial_ms", "ms", per_query("kspdg.partial")},
      {"kspdg.partial_calls", "count",
       Ratio(partial_calls, static_cast<double>(replay.replayed))},
      {"kspdg.partial_yen_runs", "count",
       Ratio(static_cast<double>(replay.partial_yen_runs),
             static_cast<double>(replay.replayed))},
      {"kspdg.partial_cache_hit_ratio", "ratio",
       Ratio(replay_hits, replay_hits + partial_calls)},
      {"kspdg.iterations_p50", "count", Quantile(replay.iterations, 0.5)},
      {"kspdg.iterations_p99", "count", Quantile(replay.iterations, 0.99)},
      {"kspdg.cap_hit_share", "ratio",
       Ratio(static_cast<double>(replay.cap_hits),
             static_cast<double>(replay.replayed))},
      {"kspdg.replay_mismatches", "count", static_cast<double>(replay.mismatches)},
      {"dtlp.build_s", "s", replay.dtlp_build_s},
      {"dtlp.update_ms", "ms", Median(replay.dtlp_update_ms)},
      {"dtlp.subgraphs_touched", "count", Mean(replay.subgraphs_touched)},
      {"dtlp.exact_pair_share", "ratio", replay.window_health.exact_share()},
      {"dtlp.bound_tightness_p50", "ratio", replay.window_health.tightness_p50},
      {"dtlp.bound_tightness_p10", "ratio", replay.window_health.tightness_p10},
      {"dtlp.bound_violation_share", "ratio", replay.window_health.violation_share()},
      {"near_pairs.wrong_share", "ratio",
       Ratio(static_cast<double>(replay.near_pairs.wrong),
             static_cast<double>(replay.near_pairs.pairs))},
      {"paper_traffic.exact_pair_share", "ratio", paper_bounds.exact_share()},
      {"paper_traffic.tightness_p50", "ratio", paper_bounds.tightness_p50},
      {"paper_traffic.bound_violation_share", "ratio",
       paper_bounds.violation_share()},
      {"paper_traffic.wrong_share", "ratio",
       Ratio(static_cast<double>(paper.wrong), paper_queries)},
      {"paper_traffic.cap_hit_share", "ratio",
       Ratio(static_cast<double>(paper.cap_hits), paper_queries)},
      {"paper_traffic.iterations_p50", "count", Quantile(paper.iterations, 0.5)},
      {"paper_traffic.ksp_p50_ms", "ms", Quantile(paper.ksp_ms, 0.5)},
      {"paper_traffic.yen_p50_ms", "ms", Quantile(paper.yen_ms, 0.5)},
      {"partition.s", "s", replay.partition_s},
      {"cands.build_s", "s", replay.cands_build_s},
      {"cands.rebuild_ms", "ms", Median(cands_ms)},
      {"cands.query_ms", "ms", Mean(replay.cands_query_ms)},
      {"ksp.findksp_ms", "ms", Mean(replay.findksp_ms)},
      {"ksp.yen_ms", "ms", Mean(oracle.yen_ms)},
      {"mfp.filter_ms", "ms", Mean(replay.mfp_filter_ms)},
      {"mfp.kept_mean", "count", Mean(replay.mfp_kept)},
      {"rpc.calls_per_request", "count",
       Ratio(static_cast<double>(CounterDelta(log, "rpc_calls_total")), requests)},
      {"rpc.bytes_per_request", "B",
       Ratio(static_cast<double>(CounterDelta(log, "rpc_bytes_sent_total") +
                                 CounterDelta(log, "rpc_bytes_received_total")),
             requests)},
      {"remote.partial_cache_hit_ratio", "ratio",
       Ratio(cache_hits, cache_hits + fetches)},
      {"shard.scattered_share", "ratio", Ratio(scattered, direct + scattered)},
      {"remote.worker_rss_mb", "MB", log.worker_rss_mb},
  };
}

std::string HealthJson(const std::vector<BoundHealth>& health) {
  std::string out = "[";
  for (size_t i = 0; i < health.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"epoch\": " + std::to_string(health[i].epoch) +
           ", \"pairs\": " + std::to_string(health[i].pairs) +
           ", \"exact_share\": " + Number(health[i].exact_share()) +
           ", \"violations\": " + std::to_string(health[i].violations) +
           ", \"tightness_p10\": " + Number(health[i].tightness_p10) +
           ", \"tightness_p50\": " + Number(health[i].tightness_p50) + "}";
  }
  return out + "]";
}

void PrintHealth(const char* label, const std::vector<BoundHealth>& health) {
  for (const BoundHealth& h : health) {
    std::printf("  %s epoch %-3llu exact pairs %5.1f%% of %zu, tightness p10 %.3f "
                "p50 %.3f, violated %zu\n",
                label, static_cast<unsigned long long>(h.epoch),
                100.0 * h.exact_share(), h.pairs, h.tightness_p10, h.tightness_p50,
                h.violations);
  }
}

void PrintLayerTable(const std::map<std::string, LayerTime>& layers) {
  auto root = layers.find("bench.replay");
  const double total = root == layers.end() ? 0.0 : root->second.total_ms;
  std::printf("  %-22s %8s %12s %12s %8s\n", "span", "count", "total ms", "self ms",
              "replay%");
  for (const auto& [name, layer] : layers) {
    std::printf("  %-22s %8llu %12.3f %12.3f", name.c_str(),
                static_cast<unsigned long long>(layer.count), layer.total_ms,
                layer.self_ms);
    // Window spans (api.*) and the checks after the replay run beside it.
    if (name.rfind("api.", 0) == 0 || name == "near_pairs" || name == "paper_traffic") {
      std::printf(" %8s\n", "-");
    } else {
      std::printf(" %8.2f\n", 100.0 * Ratio(layer.self_ms, total));
    }
  }
}

bool ParseArgs(int argc, char** argv, BenchArgs* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else if (flag == "--socket-dir") {
      args->socket_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

int Run(int argc, char** argv) {
  BenchArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kspdg_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR] [--socket-dir DIR]\n");
    return 2;
  }
  RunLog log;
  Status ran = RunWorkload(args, &log);
  if (!ran.ok()) {
    std::fprintf(stderr, "kspdg_perf: %s failed: %s\n", args.workload.c_str(),
                 ran.ToString().c_str());
    return ran.code() == StatusCode::kInvalidArgument ? 2 : 1;
  }
  const OracleReport oracle = CheckAnswers(log);
  std::printf("workload %s, seed %llu: %zu requests and %zu traffic batches, "
              "%.3f s window\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              log.answers.size(), log.updates.size(), log.window_s);
  std::printf("oracle: %zu answers checked: %zu errors, %zu mismatches, %zu invalid; "
              "FindKsp %s Yen on %zu queries\n",
              oracle.checked, oracle.errors, oracle.mismatches, oracle.invalid_paths,
              oracle.oracle_agrees ? "==" : "!=", oracle.sanity_checked);
  if (!oracle.first_problem.empty()) {
    std::printf("oracle: first problem: %s\n", oracle.first_problem.c_str());
  }
  if (!oracle.oracle_agrees) {
    std::fprintf(stderr, "kspdg_perf: the oracle disagrees with Yen; aborting\n");
    return 3;
  }

  const size_t attempted = log.answers.size() + log.updates.size();
  size_t failed = oracle.failed();
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(log);
    const std::vector<double> latency = ReadLatencies(log);
    std::printf("reads: %zu primary samples, tail = p%g (%.0f samples beyond it); "
                "p50 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f ms\n",
                log.reads.size(), 100 * log.tail_quantile,
                (1 - log.tail_quantile) * static_cast<double>(log.reads.size()),
                Quantile(latency, 0.5), Quantile(latency, 0.9), Quantile(latency, 0.95),
                Quantile(latency, 0.99), Quantile(latency, 1.0));
  } else {
    ReplayReport replay;
    Status replayed = ReplayLayers(log, args.seed, &replay);
    if (!replayed.ok()) {
      std::fprintf(stderr, "kspdg_perf: layer replay failed: %s\n",
                   replayed.ToString().c_str());
      return 1;
    }
    std::vector<const SpanBuffer*> buffers;
    for (const SpanBuffer& buffer : log.spans) buffers.push_back(&buffer);
    buffers.push_back(&replay.spans);
    const std::map<std::string, LayerTime> layers = AggregateSpans(buffers);
    metrics = PerLayerMetrics(log, oracle, replay, layers);
    std::printf("replay: %zu KSP-DG queries, %zu mismatches; traced %.1f ms vs "
                "direct %.1f ms\n",
                replay.replayed, replay.mismatches, replay.traced_ms, replay.direct_ms);
    PrintHealth("bounds", replay.bound_health);
    std::printf("near pairs: %zu pairs fewer than %zu hops apart, %zu answered wrongly\n",
                replay.near_pairs.pairs, kMinQueryHops, replay.near_pairs.wrong);
    const PaperTrafficReport& paper = replay.paper_traffic;
    PrintHealth("paper traffic", paper.health);
    std::printf("paper traffic: %zu KSP-DG answers, %zu wrong, %zu at the iteration "
                "cap; iterations p50 %.0f, latency p50 %.1f ms (Yen %.1f ms)\n",
                paper.queries, paper.wrong, paper.cap_hits,
                Quantile(paper.iterations, 0.5), Quantile(paper.ksp_ms, 0.5),
                Quantile(paper.yen_ms, 0.5));
    PrintLayerTable(layers);
    failed += replay.mismatches;
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    const std::string extra =
        "\"workload\": \"" + args.workload + "\", \"seed\": " +
        std::to_string(args.seed) + ", \"metrics\": " + MetricsJson(metrics) +
        ", \"bound_health\": " + HealthJson(replay.bound_health) +
        ", \"paper_traffic_health\": " + HealthJson(paper.health) +
        ", \"registry_before\": " + log.metrics_before.ToJson() +
        ", \"registry_after\": " + log.metrics_after.ToJson();
    if (!WriteTraceJson(path, buffers, extra)) {
      std::fprintf(stderr, "kspdg_perf: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
  }
  for (const Metric& metric : metrics) {
    std::printf("  %-32s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace kspdg::bench

int main(int argc, char** argv) { return kspdg::bench::Run(argc, argv); }
