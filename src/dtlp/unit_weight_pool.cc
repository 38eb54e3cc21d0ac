#include "dtlp/unit_weight_pool.h"

#include <algorithm>

namespace kspdg {

void UnitWeightPool::Rebuild() {
  entries_.clear();
  entries_.reserve(local_->NumEdges() * (local_->directed() ? 2 : 1));
  for (EdgeId e = 0; e < local_->NumEdges(); ++e) {
    VfragCount vf = local_->ForwardVfrags(e);
    entries_.push_back(
        {local_->ForwardWeight(e) / static_cast<Weight>(vf), vf, 0, 0});
    if (local_->directed()) {
      VfragCount vb = local_->BackwardVfrags(e);
      entries_.push_back(
          {local_->BackwardWeight(e) / static_cast<Weight>(vb), vb, 0, 0});
    }
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.unit < b.unit; });
  VfragCount cum_count = 0;
  Weight cum_weight = 0;
  for (Entry& entry : entries_) {
    cum_count += entry.count;
    cum_weight += entry.unit * static_cast<Weight>(entry.count);
    entry.cum_count = cum_count;
    entry.cum_weight = cum_weight;
  }
}

Weight UnitWeightPool::SumOfSmallest(VfragCount m) const {
  if (m == 0 || entries_.empty()) return 0;
  // First entry whose cumulative count reaches m.
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), m,
      [](const Entry& e, VfragCount needed) { return e.cum_count < needed; });
  if (it == entries_.end()) return entries_.back().cum_weight;
  Weight below = it == entries_.begin() ? 0 : (it - 1)->cum_weight;
  VfragCount count_below = it == entries_.begin() ? 0 : (it - 1)->cum_count;
  return below + static_cast<Weight>(m - count_below) * it->unit;
}

}  // namespace kspdg
