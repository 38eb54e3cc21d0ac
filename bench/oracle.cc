#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <thread>

#include "core/parallel_for.h"
#include "ksp/dijkstra.h"
#include "ksp/findksp.h"
#include "ksp/yen.h"
#include "mfp/diversity.h"

namespace kspdg::bench {
namespace {

constexpr size_t kSanityQueries = 16;

enum class Verdict { kOk, kError, kMismatch, kInvalid };

bool Close(Weight a, Weight b) {
  return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
}

bool ValidPaths(const Graph& g, const RouteRequest& request,
                const std::vector<Path>& paths) {
  for (size_t i = 0; i < paths.size(); ++i) {
    const Path& p = paths[i];
    if (p.empty() || p.Source() != request.source ||
        p.Target() != request.target || !IsSimpleRoute(p.vertices) ||
        !IsValidRoute(g, p.vertices) ||
        !Close(RouteDistance(g, p.vertices), p.distance)) {
      return false;
    }
    if (i > 0 && p.distance < paths[i - 1].distance &&
        !Close(p.distance, paths[i - 1].distance)) {
      return false;
    }
  }
  return true;
}

Verdict Check(const Graph& g, const RoutingOptions& defaults,
              const Answer& answer) {
  if (!answer.status.ok()) return Verdict::kError;
  const RouteRequest& request = answer.request;
  const RouteResponse& response = answer.response;
  if (!ValidPaths(g, request, response.paths)) return Verdict::kInvalid;
  switch (request.kind) {
    case QueryKind::kKsp:
      return SameDistances(response.paths,
                           FindKsp(g, request.source, request.target,
                                   response.k))
                 ? Verdict::kOk
                 : Verdict::kMismatch;
    case QueryKind::kShortestPath: {
      std::vector<Path> expected;
      if (std::optional<Path> p =
              ShortestPathInGraph(g, request.source, request.target)) {
        expected.push_back(std::move(*p));
      }
      return SameDistances(response.paths, expected) ? Verdict::kOk
                                                     : Verdict::kMismatch;
    }
    case QueryKind::kDiverseKsp: {
      const double theta =
          MergeOptions(defaults, request.options).diversity.theta;
      if (response.paths.size() > response.k) return Verdict::kInvalid;
      for (size_t i = 0; i < response.paths.size(); ++i) {
        for (size_t j = i + 1; j < response.paths.size(); ++j) {
          if (RouteEdgeJaccard(response.paths[i], response.paths[j],
                               g.directed()) > theta + 1e-12) {
            return Verdict::kInvalid;
          }
        }
      }
      // Greedy selection keeps the first candidate, the true shortest path.
      std::optional<Path> shortest =
          ShortestPathInGraph(g, request.source, request.target);
      const bool first_ok =
          shortest.has_value()
              ? !response.paths.empty() &&
                    Close(response.paths.front().distance, shortest->distance)
              : response.paths.empty();
      return first_ok ? Verdict::kOk : Verdict::kMismatch;
    }
  }
  return Verdict::kInvalid;
}

std::string Describe(const Answer& answer, const char* problem) {
  return std::string(problem) + " on request " + std::to_string(answer.id) +
         " (" + QueryKindName(answer.request.kind) + " " +
         std::to_string(answer.request.source) + "->" +
         std::to_string(answer.request.target) + ", epoch " +
         std::to_string(answer.response.epoch) + ")" +
         (answer.status.ok() ? "" : ": " + answer.status.ToString());
}

}  // namespace

bool SameDistances(const std::vector<Path>& a, const std::vector<Path>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!Close(a[i].distance, b[i].distance)) return false;
  }
  return true;
}

OracleReport CheckAnswers(const RunLog& log) {
  OracleReport report;
  const std::vector<Answer>& answers = log.answers;
  std::vector<size_t> order(answers.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return answers[a].response.epoch < answers[b].response.epoch;
  });
  std::vector<char> sanity(answers.size(), 0);
  size_t picked = 0;
  for (size_t i = 0; i < answers.size() && picked < kSanityQueries; ++i) {
    if (answers[i].status.ok() && answers[i].request.kind == QueryKind::kKsp) {
      sanity[i] = 1;
      ++picked;
    }
  }

  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<Verdict> verdicts(answers.size(), Verdict::kOk);
  Graph g = log.initial;
  uint64_t epoch = 0;
  for (size_t begin = 0; begin < order.size();) {
    const uint64_t group_epoch = answers[order[begin]].response.epoch;
    size_t end = begin;
    while (end < order.size() &&
           answers[order[end]].response.epoch == group_epoch) {
      ++end;
    }
    if (group_epoch > log.batches.size()) {
      // An epoch no logged batch produced: there are no weights to check
      // these answers against.
      for (size_t i = begin; i < end; ++i) verdicts[order[i]] = Verdict::kInvalid;
      begin = end;
      continue;
    }
    for (; epoch < group_epoch; ++epoch) {
      for (const WeightUpdate& update : log.batches[epoch]) g.SetWeight(update);
    }
    ParallelFor(end - begin, threads, [&](size_t i) {
      verdicts[order[begin + i]] = Check(g, log.defaults, answers[order[begin + i]]);
    });
    for (size_t i = begin; i < end; ++i) {
      const Answer& answer = answers[order[i]];
      if (!sanity[order[i]]) continue;
      const Clock::time_point start = Clock::now();
      std::vector<Path> yen = YenKspInGraph(g, answer.request.source,
                                            answer.request.target,
                                            answer.response.k);
      report.yen_ms.push_back(MillisBetween(start, Clock::now()));
      ++report.sanity_checked;
      if (!SameDistances(yen, FindKsp(g, answer.request.source,
                                      answer.request.target,
                                      answer.response.k))) {
        report.oracle_agrees = false;
        report.first_problem = Describe(answer, "FindKsp disagrees with Yen");
      }
    }
    begin = end;
  }

  for (size_t i = 0; i < answers.size(); ++i) {
    ++report.checked;
    const char* problem = nullptr;
    switch (verdicts[i]) {
      case Verdict::kOk:
        break;
      case Verdict::kError:
        ++report.errors;
        problem = "error status";
        break;
      case Verdict::kMismatch:
        ++report.mismatches;
        problem = "oracle mismatch";
        break;
      case Verdict::kInvalid:
        ++report.invalid_paths;
        problem = "invalid answer";
        break;
    }
    if (problem != nullptr && report.first_problem.empty()) {
      report.first_problem = Describe(answers[i], problem);
    }
  }
  return report;
}

}  // namespace kspdg::bench
