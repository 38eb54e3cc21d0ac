// Runtime lock-order checker: deadlock *potential* detection in debug and
// sanitizer builds.
//
// Compiled in when KSPDG_CHECK_LOCK_ORDER is defined (the CMake option of
// the same name; the asan CI leg turns it on so every concurrency test
// exercises it) and free otherwise — the hooks compile to empty inlines.
//
// Model: every annotated lock (core::Mutex, EpochLock) reports its
// acquisitions and releases here with a *name* — a string naming the lock's
// role, e.g. "RoutingService::snapshot_lock". Each thread keeps the stack
// of names it currently holds; every acquisition of B while holding A adds
// the directed edge A -> B to one global acquisition-order graph. A new
// edge that closes a cycle means two code paths acquire the same pair of
// locks in opposite orders — a deadlock waiting for the right interleaving
// — and the process aborts immediately, printing BOTH sides: the current
// thread's held stack and the held stack recorded when the reverse path was
// first established. Catching the inversion requires only that each order
// runs once, on any thread, in any interleaving — far stronger than hoping
// the actual deadlock manifests under test.
//
// Instances sharing a name are one graph node (every ReplicaFleet worker's
// mutex reports as "ReplicaFleet::Worker::mu"), so an order violation
// against any instance is caught, while acquiring two *sibling* instances
// is deliberately not flagged (same-name self-edges are skipped). A
// condition-variable wait keeps its mutex in the held stack: the
// reacquisition on wakeup is the same lock, and the edges recorded at the
// original acquisition stay valid.
#ifndef KSPDG_CORE_LOCK_ORDER_H_
#define KSPDG_CORE_LOCK_ORDER_H_

#ifdef KSPDG_CHECK_LOCK_ORDER

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace kspdg {
namespace lock_order {

struct Graph {
  /// Guards the maps below. A plain std::mutex on purpose: the checker must
  /// not report its own lock, and nothing is ever acquired while holding it.
  std::mutex mu;
  /// Acquisition-order edges: edges[a] holds every b acquired while a was
  /// held, each with the held stack recorded when the edge first appeared
  /// (the "other side" printed on a violation).
  std::map<std::string, std::map<std::string, std::string>> edges;
};

inline Graph& GlobalGraph() {
  static Graph* graph = new Graph();  // leaked: outlives every static lock
  return *graph;
}

/// Names this thread currently holds, in acquisition order.
inline std::vector<const char*>& HeldStack() {
  thread_local std::vector<const char*> held;
  return held;
}

inline std::string DescribeStack(const std::vector<const char*>& held,
                                 const char* acquiring) {
  std::string out = "[";
  for (const char* name : held) {
    out += name;
    out += " -> ";
  }
  out += acquiring;
  out += "]";
  return out;
}

/// True iff `to` is reachable from `from` in the order graph. Caller holds
/// graph.mu.
inline bool Reachable(Graph& graph, const std::string& from,
                      const std::string& to, std::set<std::string>& seen) {
  if (from == to) return true;
  if (!seen.insert(from).second) return false;
  auto it = graph.edges.find(from);
  if (it == graph.edges.end()) return false;
  for (const auto& [next, witness] : it->second) {
    if (Reachable(graph, next, to, seen)) return true;
  }
  return false;
}

[[noreturn]] inline void ReportInversion(const char* held,
                                         const char* acquiring,
                                         const std::string& this_stack,
                                         const std::string& other_stack) {
  std::fprintf(
      stderr,
      "kspdg lock order inversion (potential deadlock):\n"
      "  this thread:  acquiring \"%s\" while holding \"%s\"\n"
      "                held stack %s\n"
      "  established:  \"%s\" is (transitively) acquired while holding "
      "\"%s\"\n"
      "                first recorded with held stack %s\n"
      "Every pair of locks must be acquired in one global order; see "
      "docs/STATIC_ANALYSIS.md.\n",
      acquiring, held, this_stack.c_str(), held, acquiring,
      other_stack.c_str());
  std::fflush(stderr);
  std::abort();
}

/// Records `name` being acquired by this thread; aborts on an order
/// inversion against any previously observed acquisition order.
inline void OnAcquire(const char* name) {
  std::vector<const char*>& held = HeldStack();
  if (!held.empty()) {
    Graph& graph = GlobalGraph();
    std::lock_guard<std::mutex> guard(graph.mu);
    for (const char* h : held) {
      std::string from(h);
      std::string to(name);
      if (from == to) continue;  // same-name siblings: not ordered
      auto& out_edges = graph.edges[from];
      if (out_edges.find(to) != out_edges.end()) continue;  // known-good
      // New edge from -> to: a path to -> ... -> from means the reverse
      // order was already established somewhere — abort with both sides.
      std::set<std::string> seen;
      if (Reachable(graph, to, from, seen)) {
        // Find the recorded witness on the first hop of the reverse path.
        std::string other = "(unrecorded)";
        auto rev = graph.edges.find(to);
        if (rev != graph.edges.end()) {
          for (const auto& [next, witness] : rev->second) {
            std::set<std::string> hop_seen;
            if (Reachable(graph, next, from, hop_seen)) {
              other = witness;
              break;
            }
          }
        }
        ReportInversion(h, name, DescribeStack(held, name), other);
      }
      out_edges.emplace(std::move(to), DescribeStack(held, name));
    }
  }
  held.push_back(name);
}

/// Records `name` being released. Releases may be out of acquisition order
/// (std::unique_lock allows it), so the newest matching entry is removed.
inline void OnRelease(const char* name) {
  std::vector<const char*>& held = HeldStack();
  for (size_t i = held.size(); i-- > 0;) {
    if (held[i] == name || std::string(held[i]) == name) {
      held.erase(held.begin() + static_cast<long>(i));
      return;
    }
  }
}

}  // namespace lock_order
}  // namespace kspdg

#else  // !KSPDG_CHECK_LOCK_ORDER

namespace kspdg {
namespace lock_order {

inline void OnAcquire(const char*) {}
inline void OnRelease(const char*) {}

}  // namespace lock_order
}  // namespace kspdg

#endif  // KSPDG_CHECK_LOCK_ORDER

#endif  // KSPDG_CORE_LOCK_ORDER_H_
