#include "baselines/solver.hpp"

#include <span>
#include <vector>

namespace mvcom::baselines {

bool repair_random(const EpochInstance& instance, Selection& x,
                   common::Rng& rng) {
  const auto& committees = instance.committees();
  SelectionStats st = instance.stats(x);

  if (st.txs > instance.capacity()) {
    std::vector<std::size_t> selected;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i]) selected.push_back(i);
    }
    rng.shuffle(std::span<std::size_t>(selected));
    for (const std::size_t i : selected) {
      if (st.txs <= instance.capacity()) break;
      x[i] = 0;
      --st.chosen;
      st.txs -= committees[i].txs;
    }
    if (st.txs > instance.capacity()) return false;
  }

  if (st.chosen < instance.n_min()) {
    std::vector<std::size_t> unselected;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!x[i]) unselected.push_back(i);
    }
    rng.shuffle(std::span<std::size_t>(unselected));
    for (const std::size_t i : unselected) {
      if (st.chosen >= instance.n_min()) break;
      if (st.txs + committees[i].txs > instance.capacity()) continue;
      x[i] = 1;
      ++st.chosen;
      st.txs += committees[i].txs;
    }
    if (st.chosen < instance.n_min()) {
      // Random fills can strand capacity on big shards; fall back to the
      // smallest-shards top-up.
      Selection topped = core::top_up(instance, x);
      if (topped.empty()) return false;
      x = std::move(topped);
    }
  }
  return true;
}

void finalize_result(const EpochInstance& instance, SolverResult& result) {
  result.feasible = !result.best.empty() && instance.feasible(result.best);
  if (result.feasible) {
    result.utility = instance.utility(result.best);
    result.valuable_degree = instance.valuable_degree(result.best);
  } else {
    result.best.clear();
    result.utility = 0.0;
    result.valuable_degree = 0.0;
  }
}

}  // namespace mvcom::baselines
