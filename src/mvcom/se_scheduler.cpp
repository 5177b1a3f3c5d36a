#include "mvcom/se_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvcom::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
/// The best utility must improve by more than this to reset convergence.
constexpr double kConvergenceTol = 1e-9;
/// Retries when proposing a capacity-feasible swap / initial subset.
constexpr int kFeasibilityRetries = 16;

}  // namespace

// ---------------------------------------------------------------------------
// SeLayout
// ---------------------------------------------------------------------------

void SeLayout::rebuild(const EpochInstance& instance, const SeParams& params) {
  const std::size_t total = instance.size();
  gain.resize(total);
  txs.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    gain[i] = instance.gain(i);
    txs[i] = instance.committees()[i].txs;
  }

  // Size ordering (ascending s_i, ties by index) and its prefix sums:
  // smallest_prefix[n] is the minimum possible Σ s over any n-subset, so
  // cardinality n admits a capacity-feasible subset iff
  // smallest_prefix[n] <= Ĉ. The accumulation is exact: EpochInstance
  // construction rejects committee sets whose total Σ s would wrap
  // std::uint64_t, and every prefix is bounded by that total.
  by_size.resize(total);
  std::iota(by_size.begin(), by_size.end(), std::uint32_t{0});
  std::sort(by_size.begin(), by_size.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return txs[a] != txs[b] ? txs[a] < txs[b] : a < b;
            });
  smallest_prefix.assign(total + 1, 0);
  for (std::size_t i = 0; i < total; ++i) {
    smallest_prefix[i + 1] = smallest_prefix[i] + txs[by_size[i]];
  }

  // Gain ordering (descending, ties by index): the candidate index that lets
  // greedy seeding pick the k best/worst committees without scanning all |I|.
  by_gain.resize(total);
  std::iota(by_gain.begin(), by_gain.end(), std::uint32_t{0});
  std::sort(by_gain.begin(), by_gain.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return gain[a] != gain[b] ? gain[a] > gain[b] : a < b;
            });

  // Maintained cardinality family. At paper scale (|I| <= max_family) this
  // is the literal n = 1..|I| of Alg. 1; above it, an even stride over the
  // admissible range [max(1, N_min), n_max(Ĉ)] with both endpoints kept.
  family.clear();
  const std::uint64_t capacity = instance.capacity();
  const std::size_t cap_family = params.max_family;
  if (cap_family == 0 || total <= cap_family) {
    family.resize(total);
    std::iota(family.begin(), family.end(), std::uint32_t{1});
  } else {
    // Largest cardinality with any capacity-feasible subset. Zero means even
    // the single smallest committee exceeds Ĉ; the lone slot stays inactive.
    std::size_t n_act = 0;
    while (n_act < total && smallest_prefix[n_act + 1] <= capacity) ++n_act;
    const std::size_t lo =
        std::min(std::max<std::size_t>(instance.n_min(), 1), total);
    const std::size_t hi = std::max(n_act, lo);
    const std::size_t count = hi - lo + 1;
    if (count <= cap_family) {
      family.resize(count);
      std::iota(family.begin(), family.end(), static_cast<std::uint32_t>(lo));
    } else {
      // count > cap_family >= 2 implies a real-valued stride > 1, so the
      // rounded cardinalities are strictly increasing — no dedup needed.
      family.reserve(cap_family);
      const std::size_t span = hi - lo;
      for (std::size_t j = 0; j < cap_family; ++j) {
        const std::size_t n =
            lo + (j * span + (cap_family - 1) / 2) / (cap_family - 1);
        family.push_back(static_cast<std::uint32_t>(n));
      }
    }
  }

  first_admissible = static_cast<std::size_t>(
      std::lower_bound(family.begin(), family.end(),
                       static_cast<std::uint32_t>(instance.n_min())) -
      family.begin());
}

// ---------------------------------------------------------------------------
// SeExplorer
// ---------------------------------------------------------------------------

SeExplorer::SeExplorer(const EpochInstance* instance, const SeParams* params,
                       const SeLayout* layout, common::Rng rng)
    : instance_(instance), params_(params), layout_(layout), rng_(rng) {
  const std::size_t total = instance_->size();
  scratch_x_.assign(total, 0);
  scratch_pool_.resize(total);
  std::iota(scratch_pool_.begin(), scratch_pool_.end(), std::uint32_t{0});
  solutions_.resize(layout_->family.size());
  for (std::size_t slot = 0; slot < solutions_.size(); ++slot) {
    initialize_solution(solutions_[slot], layout_->family[slot]);
  }
}

void SeExplorer::initialize_solution(SolutionState& sol, std::uint32_t n) {
  const std::size_t total = instance_->size();
  const std::uint64_t capacity = instance_->capacity();
  sol.n = n;
  sol.active = layout_->smallest_prefix[n] <= capacity;
  if (!sol.active) return;

  // Alg. 2: resample random n-subsets until Cons. (4) holds; bounded tries,
  // then fall back to the n smallest shards (feasible because active). The
  // draw is a partial Fisher–Yates over the persistent scratch permutation —
  // uniform over n-subsets regardless of the permutation's current order, so
  // the pool is never re-iota'd — and aborts an attempt as soon as the
  // running Σ s exceeds Ĉ (no point completing a subset that cannot fit).
  // Resampling only pays off when a uniform n-subset has a real chance of
  // fitting: when the expected subset load n·E[s] exceeds Ĉ, concentration
  // makes every attempt fail and the retries just burn O(n·retries) work per
  // slot — at 50k committees that is the dominant construction cost. Those
  // cardinalities go straight to the deterministic fallback.
  const double mean_txs =
      static_cast<double>(layout_->smallest_prefix[total]) /
      static_cast<double>(total);
  const int budget = init_fail_streak_ > 0 ? 1 : kFeasibilityRetries;
  bool ok = false;
  if (static_cast<double>(n) * mean_txs <= static_cast<double>(capacity)) {
    for (int attempt = 0; attempt < budget && !ok; ++attempt) {
      std::uint64_t txs = 0;
      std::size_t picked = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t j =
            k + static_cast<std::size_t>(rng_.below(total - k));
        std::swap(scratch_pool_[k], scratch_pool_[j]);
        txs += layout_->txs[scratch_pool_[k]];
        ++picked;
        if (txs > capacity) break;
      }
      ok = picked == n && txs <= capacity;
    }
    init_fail_streak_ = ok ? 0 : init_fail_streak_ + 1;
  }
  std::fill(scratch_x_.begin(), scratch_x_.end(), 0);
  // Accumulate utility/load while writing the bitmap — the gains/sizes are
  // already hot here, so a separate recompute() gather would just repeat the
  // random-access pass.
  const std::uint32_t* chosen =
      ok ? scratch_pool_.data() : layout_->by_size.data();
  double utility = 0.0;
  std::uint64_t load = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t i = chosen[k];
    scratch_x_[i] = 1;
    utility += layout_->gain[i];
    load += layout_->txs[i];
  }
  sol.set.rebuild(scratch_x_);
  sol.utility = utility;
  sol.txs = load;
}

void SeExplorer::recompute(SolutionState& sol) {
  sol.utility = 0.0;
  sol.txs = 0;
  for (const std::uint32_t i : sol.set.selected()) {
    sol.utility += layout_->gain[i];
    sol.txs += layout_->txs[i];
  }
  sol.n = static_cast<std::uint32_t>(sol.set.selected_count());
}

void SeExplorer::step_block(std::size_t k, SeBlockStats* stats,
                            double* running_max) {
  if (stats) {
    stats->trace.clear();
    stats->snapshots.clear();
  }
  for (std::size_t t = 0; t < k; ++t) {
    step();
    if (!stats) continue;
    const auto b = best();
    const double u = b ? b->first : kNaN;
    stats->trace.push_back(u);
    if (b && running_max && u > *running_max) {
      *running_max = u;
      stats->snapshots.push_back({t, u, b->second->to_selection()});
    }
  }
}

bool SeExplorer::propose(const SolutionState& sol, Proposal& move) {
  if (!sol.active) return false;
  if (sol.set.selected_count() == 0 || sol.set.unselected_count() == 0) {
    return false;  // the full-set solution has no swap moves
  }
  const std::uint64_t capacity = instance_->capacity();
  for (int attempt = 0; attempt < kFeasibilityRetries; ++attempt) {
    move.p = sol.set.sample_selected_position(rng_);
    move.q = sol.set.sample_unselected_position(rng_);
    const std::uint32_t out = sol.set.at(move.p);
    const std::uint32_t in = sol.set.at(move.q);
    move.txs = sol.txs - layout_->txs[out] + layout_->txs[in];
    if (move.txs <= capacity) {
      move.delta = layout_->gain[in] - layout_->gain[out];
      return true;
    }
  }
  ++obs_tally_.infeasible;
  return false;
}

void SeExplorer::step() {
  // One Metropolis transition per solution. The per-cardinality chains are
  // independent, and the acceptance ratio min(1, exp(β·ΔU)) equals the
  // Eq.-(7) rate ratio q_{f,f'}/q_{f',f}, so each chain is reversible with
  // the Eq.-(6) stationary law, advanced one transition per maintained
  // cardinality per iteration.
  const double beta = params_->beta;
  Proposal move;
  for (SolutionState& sol : solutions_) {
    if (!propose(sol, move)) continue;
    if (move.delta < 0.0 &&
        detail::metropolis_rejects(rng_.uniform01(), beta * move.delta)) {
      ++obs_tally_.rejects;
      continue;  // rejected downhill move
    }
    ++obs_tally_.accepts;
    sol.set.swap_positions(move.p, move.q);
    sol.txs = move.txs;
    sol.utility += move.delta;
  }
}

std::optional<std::pair<double, const SwapSet*>> SeExplorer::best() const {
  // λ-argmax of Alg. 1 lines 22–26: Ĉ holds by invariant; Cons. (3) is the
  // layout's first_admissible cutoff (the family is cardinality-ascending).
  std::optional<std::pair<double, const SwapSet*>> best;
  for (std::size_t slot = layout_->first_admissible; slot < solutions_.size();
       ++slot) {
    const SolutionState& sol = solutions_[slot];
    if (!sol.active) continue;
    if (!best || sol.utility > best->first) {
      best = {sol.utility, &sol.set};
    }
  }
  return best;
}

void SeExplorer::adopt_if_better(const SwapSet& incumbent, double utility) {
  const auto n = static_cast<std::uint32_t>(incumbent.selected_count());
  if (n == 0) return;
  if (const auto slot = layout_->slot_of(n)) {
    SolutionState& sol = solutions_[*slot];
    if (sol.active && sol.utility < utility) {
      sol.set = incumbent;
      recompute(sol);
    }
  }

  // Seed the incumbent's grid-neighbor cardinalities too: chains only move
  // by swaps (cardinality-preserving), so capacity-blocked local optima need
  // a cardinality step to escape — the family provides it. On a capped
  // family the neighbors are the nearest maintained cardinalities on each
  // side (n ∓ 1 when the family is the full paper one).
  const auto lb =
      std::lower_bound(layout_->family.begin(), layout_->family.end(), n);
  if (lb != layout_->family.begin()) {
    const auto idx =
        static_cast<std::size_t>(lb - layout_->family.begin()) - 1;
    seed_below(incumbent, utility, idx);
  }
  auto ub = lb;
  if (ub != layout_->family.end() && *ub == n) ++ub;
  if (ub != layout_->family.end()) {
    seed_above(incumbent, utility,
               static_cast<std::size_t>(ub - layout_->family.begin()));
  }
}

void SeExplorer::seed_below(const SwapSet& incumbent, double utility,
                            std::size_t slot) {
  SolutionState& target = solutions_[slot];
  if (!target.active) return;
  const auto sel = incumbent.selected();
  const std::size_t drop = sel.size() - target.n;
  assert(drop >= 1 && drop < sel.size());
  // The `drop` worst-gain members via a partial select over the member list —
  // O(n) with deterministic ties, instead of walking the global gain index
  // past every non-member.
  scratch_members_.assign(sel.begin(), sel.end());
  const auto lower_gain = [this](std::uint32_t a, std::uint32_t b) {
    return layout_->gain[a] != layout_->gain[b]
               ? layout_->gain[a] < layout_->gain[b]
               : a < b;
  };
  std::nth_element(scratch_members_.begin(),
                   scratch_members_.begin() +
                       static_cast<std::ptrdiff_t>(drop - 1),
                   scratch_members_.end(), lower_gain);
  double variant = utility;
  for (std::size_t k = 0; k < drop; ++k) {
    variant -= layout_->gain[scratch_members_[k]];
  }
  if (target.utility >= variant) return;
  incumbent.write_selection(scratch_x_);
  for (std::size_t k = 0; k < drop; ++k) scratch_x_[scratch_members_[k]] = 0;
  target.set.rebuild(scratch_x_);
  recompute(target);
}

void SeExplorer::seed_above(const SwapSet& incumbent, double utility,
                            std::size_t slot) {
  SolutionState& target = solutions_[slot];
  if (!target.active) return;
  const std::uint64_t capacity = instance_->capacity();
  std::uint64_t txs = 0;
  for (const std::uint32_t i : incumbent.selected()) txs += layout_->txs[i];
  // Grow to the target cardinality by adding the best-gain non-members that
  // still fit Ĉ, walked off the descending gain index — stops after
  // m − n additions instead of arg-maxing over all |I| per addition.
  std::size_t need = target.n - incumbent.selected_count();
  incumbent.write_selection(scratch_x_);
  double variant = utility;
  for (const std::uint32_t i : layout_->by_gain) {
    if (need == 0) break;
    if (scratch_x_[i] != 0) continue;
    if (txs + layout_->txs[i] > capacity) continue;
    scratch_x_[i] = 1;
    txs += layout_->txs[i];
    variant += layout_->gain[i];
    --need;
  }
  if (need != 0) return;  // could not reach the target cardinality under Ĉ
  if (target.utility >= variant) return;
  target.set.rebuild(scratch_x_);
  recompute(target);
}

void SeExplorer::rebind(const EpochInstance* instance, const SeLayout* layout,
                        std::optional<std::uint32_t> removed_index) {
  // NB: `instance`/`layout` may be the same objects the explorer was already
  // bound to (SeScheduler mutates its members in place before rebinding), so
  // the old universe size must come from the surviving bitmaps, not from the
  // pointers.
  instance_ = instance;
  layout_ = layout;
  const std::size_t total = instance_->size();
  scratch_x_.assign(total, 0);
  scratch_pool_.resize(total);
  std::iota(scratch_pool_.begin(), scratch_pool_.end(), std::uint32_t{0});

  // Both the old solution list and the new family are cardinality-ascending,
  // so carry-over is a two-pointer merge: every chain whose cardinality the
  // (possibly re-strided) new family still maintains survives.
  std::vector<SolutionState> fresh(layout_->family.size());
  std::size_t oi = 0;
  for (std::size_t slot = 0; slot < fresh.size(); ++slot) {
    const std::uint32_t n = layout_->family[slot];
    SolutionState& sol = fresh[slot];
    sol.n = n;
    sol.active = layout_->smallest_prefix[n] <= instance_->capacity();
    if (!sol.active) continue;
    while (oi < solutions_.size() && solutions_[oi].n < n) ++oi;
    SolutionState* old_sol =
        (oi < solutions_.size() && solutions_[oi].n == n) ? &solutions_[oi]
                                                          : nullptr;
    bool survivable = old_sol != nullptr && old_sol->active;
    if (survivable) {
      old_sol->set.write_selection(scratch_old_x_);
      survivable = !removed_index || scratch_old_x_[*removed_index] == 0;
    }
    if (!survivable) {
      // Trimmed state (Fig. 7): the solution referenced the failed committee
      // (or this cardinality is newly maintained) — draw a fresh feasible
      // subset of this cardinality.
      initialize_solution(sol, n);
      continue;
    }
    // Translate the surviving bitmap into the new index space.
    std::fill(scratch_x_.begin(), scratch_x_.end(), 0);
    std::size_t w = 0;
    for (std::size_t r = 0; r < scratch_old_x_.size(); ++r) {
      if (removed_index && r == *removed_index) continue;
      if (w < total) scratch_x_[w] = scratch_old_x_[r];
      ++w;
    }
    sol.set.rebuild(scratch_x_);
    recompute(sol);
    if (sol.txs > instance_->capacity()) {
      // Cannot happen on leave (Σ only shrinks) but guard regardless.
      initialize_solution(sol, n);
    }
  }
  solutions_ = std::move(fresh);
}

// ---------------------------------------------------------------------------
// SeScheduler
// ---------------------------------------------------------------------------

SeScheduler::SeScheduler(EpochInstance instance, SeParams params,
                         std::uint64_t seed, common::ThreadPool* pool)
    : instance_(std::move(instance)), params_(params) {
  if (instance_.size() > SwapSet::kMaxUniverse) {
    throw std::invalid_argument(
        "SeScheduler: more committees than SwapSet::kMaxUniverse");
  }
  if (params_.threads == 0) {
    throw std::invalid_argument("SeScheduler: threads (Γ) must be >= 1");
  }
  if (!(params_.beta > 0.0)) {
    throw std::invalid_argument("SeScheduler: beta must be positive");
  }
  if (params_.max_family == 1) {
    // SeLayout::rebuild strides the family by (max_family − 1).
    throw std::invalid_argument(
        "SeScheduler: max_family must be 0 (unlimited) or >= 2");
  }
  rebuild_instance_data();
  if (params_.threads > 1) pool_ = pool;
  // The Rng forks happen here, serially: the fork order defines each
  // explorer's stream. Construction — initializing O(max_family) chains,
  // the dominant cost of an epoch at 10k+ committees — is embarrassingly
  // parallel, so it fans out over the pool. Bitwise identical to serial
  // construction: each explorer is a pure function of its fork.
  common::Rng root(seed);
  std::vector<common::Rng> forks;
  forks.reserve(params_.threads);
  for (std::size_t t = 0; t < params_.threads; ++t) {
    forks.push_back(root.fork());
  }
  std::vector<std::optional<SeExplorer>> built(forks.size());
  common::parallel_for(pool_, forks.size(), [&](std::size_t t) {
    built[t].emplace(&instance_, &params_, &layout_, forks[t]);
  });
  explorers_.reserve(forks.size());
  for (auto& b : built) explorers_.push_back(std::move(*b));
}

void SeScheduler::rebuild_instance_data() {
  layout_.rebuild(instance_, params_);
  bound_ = fractional_bound(instance_);
}

std::size_t SeScheduler::next_block_length(std::size_t remaining) const {
  if (params_.share_interval == 0) return remaining;
  const std::size_t into = iteration_ % params_.share_interval;
  return std::min(remaining, params_.share_interval - into);
}

void SeScheduler::step_explorers(std::size_t k,
                                 std::vector<SeBlockStats>* blocks,
                                 std::vector<double>* running_max) {
  const auto body = [&](std::size_t e) {
    explorers_[e].step_block(k, blocks ? &(*blocks)[e] : nullptr,
                             running_max ? &(*running_max)[e] : nullptr);
  };
  common::parallel_for(pool_, explorers_.size(), body);
}

bool SeScheduler::maybe_share() {
  // Thread cooperation (§IV-D): periodically propagate the best solution so
  // every thread's matching chain polishes the incumbent. Runs on the
  // calling thread under the barrier — workers are quiescent here.
  if (explorers_.size() <= 1 || params_.share_interval == 0 ||
      iteration_ % params_.share_interval != 0) {
    return false;
  }
  double best_utility = -kInf;
  const SwapSet* incumbent = nullptr;
  for (const SeExplorer& explorer : explorers_) {
    if (const auto b = explorer.best(); b && b->first > best_utility) {
      best_utility = b->first;
      incumbent = b->second;
    }
  }
  if (!incumbent) return false;
  const SwapSet shared = *incumbent;  // copy: adopters mutate in place
  for (SeExplorer& explorer : explorers_) {
    explorer.adopt_if_better(shared, best_utility);
  }
  return true;
}

void SeScheduler::step() { advance(1); }

void SeScheduler::advance(std::size_t k) {
  while (k > 0) {
    const std::size_t block = next_block_length(k);
    step_explorers(block, nullptr, nullptr);
    iteration_ += block;
    k -= block;
    const bool shared = maybe_share();
    flush_obs(block, shared);
  }
}

void SeScheduler::set_obs(obs::ObsContext obs) {
  obs_ = obs;
  // A detached flush folds nothing, so drop what the explorers tallied
  // before this call: the new sink sees only later transitions.
  for (SeExplorer& explorer : explorers_) explorer.obs_tally_.reset();
  obs_iterations_ = nullptr;
  obs_accepts_ = nullptr;
  obs_rejects_ = nullptr;
  obs_infeasible_ = nullptr;
  obs_shares_ = nullptr;
  obs_joins_ = nullptr;
  obs_leaves_ = nullptr;
  obs_best_utility_ = nullptr;
  obs::MetricsRegistry* m = obs_.metrics();
  if (m == nullptr) return;
  obs_iterations_ = &m->counter("mvcom_se_iterations_total",
                                "SE global iterations advanced");
  obs_accepts_ =
      &m->counter("mvcom_se_transitions_total",
                  "SE chain transitions by Eq.-(7) outcome",
                  {{"result", "accept"}});
  obs_rejects_ =
      &m->counter("mvcom_se_transitions_total",
                  "SE chain transitions by Eq.-(7) outcome",
                  {{"result", "reject"}});
  obs_infeasible_ =
      &m->counter("mvcom_se_transitions_total",
                  "SE chain transitions by Eq.-(7) outcome",
                  {{"result", "infeasible"}});
  obs_shares_ = &m->counter("mvcom_se_shares_total",
                            "Thread-cooperation share points executed");
  obs_joins_ = &m->counter("mvcom_se_rebinds_total",
                           "Explorer rebinds after committee dynamics",
                           {{"kind", "join"}});
  obs_leaves_ = &m->counter("mvcom_se_rebinds_total",
                            "Explorer rebinds after committee dynamics",
                            {{"kind", "leave"}});
  obs_best_utility_ = &m->gauge("mvcom_se_best_utility",
                                "Best feasible utility across Γ explorers");
}

void SeScheduler::flush_obs(std::size_t block, bool shared) {
  if (!obs_) return;
  obs::TraceRecorder* trace = obs_.trace();
  SeObsCounters total;
  for (std::size_t e = 0; e < explorers_.size(); ++e) {
    SeObsCounters& tally = explorers_[e].obs_tally_;
    total += tally;
    if (trace != nullptr) {
      // Per-Γ-thread tallies as one counter series per explorer track.
      trace->counter("se", "se/explorer",
                     {{"accepts", static_cast<double>(tally.accepts)},
                      {"rejects", static_cast<double>(tally.rejects)},
                      {"infeasible", static_cast<double>(tally.infeasible)}},
                     static_cast<std::uint32_t>(e));
    }
    tally.reset();
  }
  if (obs_iterations_ != nullptr) {
    obs_iterations_->add(block);
    obs_accepts_->add(total.accepts);
    obs_rejects_->add(total.rejects);
    obs_infeasible_->add(total.infeasible);
    if (shared) obs_shares_->inc();
  }
  const double utility = current_utility();
  if (obs_best_utility_ != nullptr) obs_best_utility_->set(utility);
  if (trace != nullptr) {
    trace->counter("se", "se/progress",
                   {{"iteration", static_cast<double>(iteration_)},
                    {"best_utility", utility}});
    if (shared) {
      trace->instant("se", "se/share",
                     {{"iteration", static_cast<double>(iteration_)},
                      {"best_utility", utility}});
    }
  }
}

double SeScheduler::warm_start(const Selection& seed) {
  if (seed.size() != instance_.size()) return kNaN;
  const SelectionStats st = instance_.stats(seed);
  if (!instance_.capacity_ok(st) || !instance_.n_min_ok(st)) return kNaN;
  const double utility = instance_.utility(seed);
  const SwapSet incumbent(seed);
  for (SeExplorer& explorer : explorers_) {
    explorer.adopt_if_better(incumbent, utility);
  }
  warm_floor_selection_ = seed;
  warm_floor_utility_ = utility;
  if (auto* t = obs_.trace()) {
    t->instant("se", "se/warm_start",
               {{"utility", utility},
                {"chosen", static_cast<double>(st.chosen)},
                {"txs", static_cast<double>(st.txs)}});
  }
  return utility;
}

double SeScheduler::current_utility() const {
  double best = kNaN;
  for (const SeExplorer& explorer : explorers_) {
    if (const auto b = explorer.best(); b && !(b->first <= best)) {
      best = b->first;
    }
  }
  return best;
}

Selection SeScheduler::current_selection() const {
  double best = -kInf;
  const SwapSet* chosen = nullptr;
  for (const SeExplorer& explorer : explorers_) {
    if (const auto b = explorer.best(); b && b->first > best) {
      best = b->first;
      chosen = b->second;
    }
  }
  return chosen ? chosen->to_selection() : Selection{};
}

SeResult SeScheduler::run() {
  // Block-structured main loop: explorers advance a whole barrier-to-barrier
  // block (up to share_interval iterations) at a time — on the worker pool in
  // parallel mode, inline otherwise — then the per-iteration global trace is
  // reconstructed from the per-explorer block stats. Because chains are
  // independent between share points, the reconstruction is exactly what a
  // one-iteration-at-a-time interleaving would have observed, so serial and
  // parallel execution produce bitwise-identical results. Convergence is
  // still detected at iteration granularity (the trace is truncated there);
  // explorer state may overshoot by up to one block past the detection
  // point, which only matters to callers that keep stepping after run().
  SeResult result;
  result.bound = bound_;
  double best_utility = -kInf;
  Selection best_selection;
  if (!warm_floor_selection_.empty()) {
    // Warm start: the seed is the floor. Exploration must strictly beat it
    // (by kConvergenceTol) before the reported best moves off the seed.
    best_utility = warm_floor_utility_;
    best_selection = warm_floor_selection_;
  }
  // Certified stop (SeParams::gap_tolerance): checked on the floor before
  // any exploration, then at every block boundary.
  bool done = certifies(bound_, best_utility, params_.gap_tolerance);
  result.converged = done;
  result.certified = done;
  // No chain is active when no maintained cardinality >= max(N_min, 1)
  // fits Ĉ: no step could find anything, so none runs (unconverged).
  if (std::isnan(current_utility())) done = true;
  if (!done) result.utility_trace.reserve(params_.max_iterations);
  std::size_t stale = 0;

  std::vector<SeBlockStats> blocks(explorers_.size());
  std::vector<double> running_max(explorers_.size(), -kInf);

  std::size_t remaining = params_.max_iterations;
  while (remaining > 0 && !done) {
    const std::size_t block = next_block_length(remaining);
    step_explorers(block, &blocks, &running_max);
    iteration_ += block;
    remaining -= block;
    const bool shared = maybe_share();
    flush_obs(block, shared);

    for (std::size_t t = 0; t < block && !done; ++t) {
      // Adoption at a share point can only raise utilities, and the serial
      // path records the trace entry after sharing — mirror that by reading
      // the post-share state for the boundary iteration.
      const bool at_share = shared && t == block - 1;
      double u = kNaN;
      if (at_share) {
        u = current_utility();
      } else {
        for (const SeBlockStats& b : blocks) {
          const double v = b.trace[t];
          if (!std::isnan(v) && !(v <= u)) u = v;
        }
      }
      result.utility_trace.push_back(u);
      if (!std::isnan(u) && u > best_utility + kConvergenceTol) {
        best_utility = u;
        if (at_share) {
          best_selection = current_selection();
        } else {
          // The explorer that achieved the new maximum snapshotted its
          // selection at exactly this offset (a global improvement implies a
          // new per-explorer maximum); fall back to its latest snapshot at
          // or before t for sub-tolerance plateau ties.
          for (const SeBlockStats& b : blocks) {
            if (b.trace[t] != u) continue;
            const SeBlockStats::Snapshot* snap = nullptr;
            for (const SeBlockStats::Snapshot& s : b.snapshots) {
              if (s.offset > t) break;
              snap = &s;
            }
            if (snap) best_selection = snap->selection;
            break;
          }
        }
        stale = 0;
      } else {
        ++stale;
      }
      if (stale >= params_.convergence_window) {
        result.converged = true;
        done = true;
      }
    }
    if (!done && certifies(bound_, best_utility, params_.gap_tolerance)) {
      result.converged = true;
      result.certified = true;
      done = true;
    }
  }

  if (result.utility_trace.empty() && warm_floor_selection_.empty()) {
    // No iteration ran and no floor was given: the best of the chains Alg. 2
    // built (every active one fits Ĉ) is the answer.
    best_selection = current_selection();
    best_utility = current_utility();
  }

  if (instance_.n_min() == 0 &&
      (best_selection.empty() || best_utility < 0.0)) {
    // At N_min = 0 the empty selection satisfies Eq. (3) and (4) and scores
    // 0: the answer when no chain fits Ĉ or the best one scores below it.
    best_selection.assign(instance_.size(), 0);
    best_utility = 0.0;
  }
  result.iterations = result.utility_trace.size();
  result.feasible = !best_selection.empty();
  if (result.feasible) {
    result.best = std::move(best_selection);
    result.utility = best_utility;
    result.valuable_degree = instance_.valuable_degree(result.best);
  }
  return result;
}

void SeScheduler::rebind_all(std::optional<std::uint32_t> removed_index) {
  // The warm floor is index-aligned with the pre-mutation instance; drop it.
  warm_floor_selection_.clear();
  warm_floor_utility_ = 0.0;
  rebuild_instance_data();
  for (SeExplorer& explorer : explorers_) {
    explorer.rebind(&instance_, &layout_, removed_index);
  }
}

void SeScheduler::add_committee(const Committee& committee) {
  if (instance_.size() >= SwapSet::kMaxUniverse) {
    throw std::invalid_argument(
        "SeScheduler: a join would exceed SwapSet::kMaxUniverse committees");
  }
  std::vector<Committee> committees = instance_.committees();
  committees.push_back(committee);
  // Deadline re-derives as max latency over the updated set (paper §III-A).
  instance_ = EpochInstance(std::move(committees), instance_.alpha(),
                            instance_.capacity(), instance_.n_min());
  rebind_all(std::nullopt);
  if (obs_joins_ != nullptr) obs_joins_->inc();
  if (auto* t = obs_.trace()) {
    t->instant("se", "se/committee_join",
               {{"committees", static_cast<double>(instance_.size())},
                {"iteration", static_cast<double>(iteration_)}});
  }
}

void SeScheduler::set_n_min(std::size_t n_min) {
  if (n_min == instance_.n_min()) return;
  std::vector<Committee> committees = instance_.committees();
  instance_ = EpochInstance(std::move(committees), instance_.alpha(),
                            instance_.capacity(), n_min);
  rebind_all(std::nullopt);
  if (auto* t = obs_.trace()) {
    t->instant("se", "se/resize",
               {{"n_min", static_cast<double>(n_min)},
                {"committees", static_cast<double>(instance_.size())},
                {"iteration", static_cast<double>(iteration_)}});
  }
}

void SeScheduler::remove_committee(std::uint32_t committee_id) {
  const auto& committees = instance_.committees();
  const auto it = std::find_if(
      committees.begin(), committees.end(),
      [committee_id](const Committee& c) { return c.id == committee_id; });
  if (it == committees.end()) return;
  const auto removed_index =
      static_cast<std::uint32_t>(std::distance(committees.begin(), it));
  std::vector<Committee> survivors = committees;
  survivors.erase(survivors.begin() + removed_index);
  if (survivors.empty()) {
    throw std::logic_error("SeScheduler: cannot remove the last committee");
  }
  instance_ = EpochInstance(std::move(survivors), instance_.alpha(),
                            instance_.capacity(), instance_.n_min());
  rebind_all(removed_index);
  if (obs_leaves_ != nullptr) obs_leaves_->inc();
  if (auto* t = obs_.trace()) {
    t->instant("se", "se/committee_leave",
               {{"committee_id", static_cast<double>(committee_id)},
                {"committees", static_cast<double>(instance_.size())},
                {"iteration", static_cast<double>(iteration_)}});
  }
}

}  // namespace mvcom::core
