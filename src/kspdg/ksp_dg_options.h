// Internal option and result types of the KSP-DG algorithm. Public callers
// configure queries through api/routing_options.h (RoutingOptions folds
// these knobs); this struct is what RunKspDgQuery consumes after the API
// layer merges and validates.
#ifndef KSPDG_KSPDG_KSP_DG_OPTIONS_H_
#define KSPDG_KSPDG_KSP_DG_OPTIONS_H_

#include <cstdint>
#include <vector>

#include "ksp/path.h"

namespace kspdg {

/// Largest k any query may ask for, the over-fetched k' of kDiverseKsp
/// included: far past any sensible route count, and it keeps every partial
/// depth below in range.
inline constexpr uint32_t kMaxK = uint32_t{1} << 20;
/// When joins reject non-simple combinations and the candidate list comes
/// up short, partial lists are re-fetched with doubled depth up to this many
/// times (0 would reproduce the paper's plain Algorithm 4).
inline constexpr uint32_t kJoinRefetchRounds = 2;
/// Deepest partial-KSP request Algorithm 4 can make: the depth starts at k
/// and doubles once per refetch round.
inline constexpr uint64_t kMaxPartialDepth =
    uint64_t{kMaxK} << kJoinRefetchRounds;

struct KspDgOptions {
  uint32_t k = 2;
  /// Hard cap on filter/refine iterations (safety valve; §5.5 argues ~k
  /// iterations in practice).
  uint32_t max_iterations = 1000;
};

struct KspDgQueryStats {
  uint32_t iterations = 0;
  size_t partial_ksp_computations = 0;  // Yen runs on subgraphs
  size_t partial_cache_hits = 0;
  size_t subgraphs_examined = 0;
  size_t candidates_generated = 0;
};

struct KspQueryResult {
  std::vector<Path> paths;  // ascending distance; at most k
  KspDgQueryStats stats;
};

}  // namespace kspdg

#endif  // KSPDG_KSPDG_KSP_DG_OPTIONS_H_
