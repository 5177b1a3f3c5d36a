#pragma once
// The online distributed Stochastic-Exploration (SE) algorithm — the paper's
// core contribution (Alg. 1–3).
//
// Markov-approximation background (§IV-B/C): associate every feasible
// selection f with stationary probability p*_f ∝ exp(β·U_f) (Eq. 6). A
// time-reversible continuous-time Markov chain over the per-cardinality
// solution spaces realizes p* with transition rates
//     q_{f,f'} = exp(−τ) · exp(½β(U_{f'} − U_f))                    (Eq. 7)
// which the paper implements by exponential countdown timers with mean
//     exp(τ − ½β(U_{f'} − U_f)) / (|I| − n)                         (Eq. 8)
// — one timer per parallel solution f_n (n = 1..|I|−1). When a timer
// expires, its solution swaps the chosen pair (state transition) and
// broadcasts RESET, refreshing every other timer.
//
// Implementation notes:
//  * The chains are advanced by Metropolis steps, not by racing the Eq.-(8)
//    timers: every iteration proposes one uniform capacity-feasible swap
//    per solution f_n and accepts it with probability min(1, exp(β·ΔU)) —
//    the Eq.-(7) rate ratio q_{f,f'}/q_{f',f}, in which τ cancels. Each
//    per-cardinality chain is reversible with the Eq.-(6) stationary law;
//    the continuous-time chain itself (τ included) is simulated in
//    analysis/markov.cpp, where the paper's lemmas are checked.
//  * Capacity (Eq. 4) is enforced throughout: initial solutions are feasible
//    (Alg. 2 lines 3–4) and candidate swaps that would exceed Ĉ are
//    resampled; a cardinality n for which no capacity-feasible subset exists
//    (Σ of the n smallest s_i > Ĉ) is marked inactive — the paper's Alg. 2
//    would spin forever on such n.
//  * N_min (Eq. 3) is enforced at selection time: the λ-argmax of Alg. 1
//    lines 22–26 only admits solutions with n ≥ N_min.
//  * Γ parallel execution threads (§IV-D, Fig. 5) are Γ independent
//    explorer instances; one scheduler iteration steps each thread once and
//    the reported utility is the best feasible solution across threads.
//    With a pool the caller lends to the constructor (the serve pipeline
//    lends its stage-overlap pool, so the explorers nest inside stage B),
//    they are stepped on pool workers (one explorer per task between
//    cooperation barriers); chains are independent between share points, so
//    the parallel path is bitwise identical to the serial one — see the
//    SeScheduler class comment. Without one they are stepped serially.
//  * Scale (50k committees): the paper's family keeps one chain per
//    cardinality n = 1..|I| — O(|I|²) state, fine at the paper's |I| ≤ 1000
//    and fatal at 50k (≈ 20 GB and seconds of setup per explorer). Above
//    SeParams::max_family the family becomes an even stride over the
//    admissible cardinalities [max(1, N_min), n_max(Ĉ)] (endpoints always
//    kept); each chain still realizes the exact per-cardinality law, the
//    λ-argmax simply scans a subsampled cardinality axis. All read-only
//    per-committee data (gains, sizes, prefix sums, gain/size orderings)
//    lives in one SeLayout shared by the Γ explorers instead of Γ copies.
//    Each chain is a 16-bit SwapSet (2 B per committee), which caps |I| at
//    SwapSet::kMaxUniverse = 65,536 committees.
//  * Dynamics (Alg. 1 lines 8–12, §V): join adds a committee and the new
//    cardinality slot; leave (failure) trims every solution containing the
//    failed committee by re-initialization — the trimmed space G of Fig. 7.
//  * Certified stop (SeParams::gap_tolerance, off by default): Lemma 1's
//    knapsack view gives an O(|I| log |I|) upper bound on U, the
//    fractional-knapsack relaxation (core::fractional_bound). An incumbent
//    within the tolerance of it (core::certifies) ends run() — before any
//    exploration when a warm-start floor already qualifies. The serve
//    pipeline makes that check itself and builds no scheduler for an epoch
//    whose seed passes it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "mvcom/problem.hpp"
#include "mvcom/swap_set.hpp"
#include "obs/context.hpp"

namespace mvcom::common {
class ThreadPool;
}  // namespace mvcom::common

namespace mvcom::obs {
class Counter;
class Gauge;
}  // namespace mvcom::obs

namespace mvcom::core {

namespace detail {

/// The Metropolis reject test `u >= exp(x)` for a downhill proposal
/// (x = β·ΔU < 0, u a Rng::uniform01() draw), without the exp on the common
/// far-downhill case. uniform01() returns 0 or a value ≥ 2⁻⁵³, and
/// exp(x) < 2⁻⁵³ for every x < −37, so there a nonzero draw always rejects;
/// exp runs only for x ≥ −37 or u == 0. Equal to `u >= std::exp(x)` for
/// every uniform01() output (pinned on a grid in test_se_scheduler).
[[nodiscard]] inline bool metropolis_rejects(double u, double x) noexcept {
  if (x < -37.0 && u != 0.0) return true;
  return u >= std::exp(x);
}

}  // namespace detail

struct SeParams {
  double beta = 2.0;   // approximation sharpness (paper default)
  std::size_t threads = 1;  // Γ — parallel execution threads
  std::size_t max_iterations = 5000;
  /// Converged when the best utility improves by no more than 1e-9 over
  /// this many consecutive iterations ("an empirical number of running
  /// iterations", §IV-D Check Convergence).
  std::size_t convergence_window = 300;
  /// Every `share_interval` iterations the Γ threads exchange the best
  /// solution (§IV-D: threads communicate "a very limited state information
  /// such as the RESET signals and the current system utility"): each
  /// thread's chain at the incumbent's cardinality adopts the incumbent if
  /// it is better, so all threads polish the best candidate. 0 disables.
  std::size_t share_interval = 100;
  /// Upper bound on the per-cardinality parallel solutions each explorer
  /// maintains (0 = unlimited — the paper's literal family; the constructor
  /// throws on 1). Instances with |I| ≤ max_family keep the full n = 1..|I|
  /// family and behave exactly as before; larger instances get an even
  /// cardinality stride over the admissible range (see the header comment).
  /// The default keeps every paper-scale experiment (|I| ≤ 1000) on the
  /// exact family while making 10k–50k committees tractable in time AND
  /// memory.
  std::size_t max_family = 1024;
  /// Certified stop; 0 (the default) turns it off. When > 0 the scheduler
  /// stops as soon as its incumbent U is certified against the
  /// fractional-knapsack bound B (core::fractional_bound):
  /// B − U ≤ gap_tolerance·|B| (core::certifies). run() checks its
  /// warm-start floor first, so a certified floor returns at once with 0
  /// iterations, then repeats the check at every barrier-to-barrier block
  /// boundary. The stop gives up at most this share of B in exchange for
  /// the exploration it skips; the serve pipeline uses 0.01 and applies it
  /// to its seed before it builds a scheduler.
  double gap_tolerance = 0.0;
};

/// Outcome of a (converged) run.
struct SeResult {
  Selection best;           // best feasible selection found
  double utility = 0.0;
  double valuable_degree = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  /// False when no (n >= N_min, capacity-ok) selection exists; at N_min = 0
  /// the empty selection always does, so `best` may be all zeros.
  bool feasible = false;
  /// run() stopped on SeParams::gap_tolerance (B − utility ≤ tolerance·|B|).
  bool certified = false;
  double bound = 0.0;       // B = core::fractional_bound of the instance
  std::vector<double> utility_trace;  // best feasible utility per iteration
};

/// Read-only flat per-instance data shared by all Γ explorers, rebuilt once
/// per instance mutation (construction, join, leave) by the scheduler. The
/// SE inner loops touch `gain`/`txs` millions of times per run — flat arrays
/// beat pointer-chasing through EpochInstance::committees() — and the
/// gain/size orderings are the candidate indexes that let greedy seeding and
/// feasibility fallbacks stop scanning all |I| committees.
struct SeLayout {
  std::vector<double> gain;                    // gain(i), index-aligned
  std::vector<std::uint64_t> txs;              // s_i, index-aligned
  std::vector<std::uint64_t> smallest_prefix;  // Σ of n smallest s_i; size I+1
  std::vector<std::uint32_t> by_size;          // indices, ascending s_i
  std::vector<std::uint32_t> by_gain;          // indices, descending gain
  std::vector<std::uint32_t> family;   // maintained cardinalities, ascending
  std::size_t first_admissible = 0;    // first slot with n >= N_min

  void rebuild(const EpochInstance& instance, const SeParams& params);

  /// Family slot holding cardinality n; nullopt when n is not maintained.
  [[nodiscard]] std::optional<std::size_t> slot_of(std::uint32_t n) const {
    const auto it = std::lower_bound(family.begin(), family.end(), n);
    if (it == family.end() || *it != n) return std::nullopt;
    return static_cast<std::size_t>(it - family.begin());
  }
};

/// Per-explorer bookkeeping for one barrier-to-barrier block of iterations:
/// the per-iteration best-feasible-utility trace plus selection snapshots
/// taken whenever the explorer's running maximum improved. The scheduler
/// merges these after the barrier to reconstruct the exact global trace and
/// best selection the serial path would have observed.
struct SeBlockStats {
  struct Snapshot {
    std::size_t offset = 0;  // iteration index within the block
    double utility = 0.0;
    Selection selection;
  };
  std::vector<double> trace;
  std::vector<Snapshot> snapshots;
};

/// Plain per-explorer observability tallies for one barrier-to-barrier
/// block. The SE inner loop is hotter than even a relaxed atomic RMW, so
/// each explorer increments these thread-private integers and the
/// scheduler folds them into the metrics registry at the cooperation
/// barrier — the same merge discipline as SeBlockStats.
struct SeObsCounters {
  std::uint64_t accepts = 0;      // applied transitions (Eq. 7 accepted)
  std::uint64_t rejects = 0;      // Metropolis-rejected downhill proposals
  std::uint64_t infeasible = 0;   // proposal retries exhausted (Cons. 4)

  void reset() noexcept { *this = SeObsCounters{}; }
  SeObsCounters& operator+=(const SeObsCounters& o) noexcept {
    accepts += o.accepts;
    rejects += o.rejects;
    infeasible += o.infeasible;
    return *this;
  }
};

/// One independent exploration thread: the solution family {f_n}.
/// All per-iteration state lives in reusable member scratch buffers — after
/// construction, step()/step_block() allocate nothing.
class SeExplorer {
 public:
  SeExplorer(const EpochInstance* instance, const SeParams* params,
             const SeLayout* layout, common::Rng rng);

  /// One iteration: one Metropolis transition per solution f_n — propose a
  /// uniform capacity-feasible swap, accept it with probability
  /// min(1, exp(β·ΔU)) = min(1, q_{f,f'}/q_{f',f}).
  void step();

  /// `k` consecutive iterations — the unit of work one pool worker performs
  /// between cooperation barriers. Touches only this explorer's private
  /// state (solutions + forked Rng) and const shared data, so concurrent
  /// step_block calls on distinct explorers are data-race-free. When `stats`
  /// is non-null, records the per-iteration best feasible utility and, when
  /// `running_max` is also non-null, snapshots the best selection whenever
  /// it strictly exceeds *running_max (updated in place; persists across
  /// blocks so only genuinely new maxima are materialized).
  void step_block(std::size_t k, SeBlockStats* stats, double* running_max);

  /// Rebinds to a mutated instance + freshly rebuilt layout after a
  /// join/leave event, carrying over solutions that survive (leave:
  /// solutions containing `removed` are re-initialized; join: pass
  /// std::nullopt). Carry-over matches by cardinality, so a re-strided
  /// family keeps every chain whose cardinality it still maintains.
  void rebind(const EpochInstance* instance, const SeLayout* layout,
              std::optional<std::uint32_t> removed_index);

  /// Best solution among {f_n : n >= N_min, capacity ok}; nullopt when none.
  [[nodiscard]] std::optional<std::pair<double, const SwapSet*>> best() const;

  /// Thread cooperation: replaces this explorer's chain of the same
  /// cardinality with `incumbent` when the incumbent is strictly better,
  /// and seeds the grid-adjacent cardinalities with greedy variants of the
  /// incumbent (drop the worst members / add the best fitting non-members,
  /// located through the SeLayout gain index rather than a full scan).
  void adopt_if_better(const SwapSet& incumbent, double utility);

 private:
  struct SolutionState {
    SwapSet set;
    double utility = 0.0;
    std::uint64_t txs = 0;   // Σ s_i over selected — capacity bookkeeping
    std::uint32_t n = 0;     // this chain's cardinality
    bool active = false;     // false when no feasible subset of this size
  };

  /// A capacity-feasible swap: positions p (selected side) and q
  /// (unselected side) of the chain's SwapSet, the chain's Σ s after the
  /// swap, and its utility change ΔU.
  struct Proposal {
    std::uint32_t p = 0;
    std::uint32_t q = 0;
    std::uint64_t txs = 0;
    double delta = 0.0;
  };

  void initialize_solution(SolutionState& sol, std::uint32_t n);
  void recompute(SolutionState& sol);

  /// Draws `sol`'s next proposal (Alg. 3): a uniform selected/unselected
  /// position pair, resampled until Cons. (4) holds, at most
  /// kFeasibilityRetries times. False when the chain cannot move: inactive,
  /// no swap move (full set), or the retries ran out (tallied infeasible).
  bool propose(const SolutionState& sol, Proposal& move);

  /// Seeds solutions_[slot] (cardinality m < n) with the incumbent minus its
  /// n − m worst-gain members, when that variant beats the current chain.
  void seed_below(const SwapSet& incumbent, double utility, std::size_t slot);
  /// Seeds solutions_[slot] (cardinality m > n) with the incumbent plus the
  /// m − n best-gain non-members that fit Ĉ, when that variant wins.
  void seed_above(const SwapSet& incumbent, double utility, std::size_t slot);

  const EpochInstance* instance_;
  const SeParams* params_;
  const SeLayout* layout_;
  common::Rng rng_;
  std::vector<SolutionState> solutions_;  // parallel to layout_->family
  SeObsCounters obs_tally_;  // block-local; scheduler merges at the barrier
  /// Consecutive initialize_solution calls whose Alg.-2 resampling exhausted
  /// its budget. Initialization proceeds in ascending cardinality and the
  /// chance a uniform n-subset fits Ĉ only shrinks with n, so after the
  /// first exhausted slot the later ones get a single attempt — without this
  /// the O(n·retries) dead resamples dominate 50k-committee construction.
  int init_fail_streak_ = 0;

  // Reusable scratch — kept as members so the hot paths never allocate.
  Selection scratch_x_;                       // bitmap builds / translations
  Selection scratch_old_x_;                   // rebind source bitmap
  std::vector<std::uint32_t> scratch_pool_;   // permutation for subset draws
  std::vector<std::uint32_t> scratch_members_;  // nth_element workspace

  friend class SeScheduler;
};

/// The full scheduler: Γ explorer threads over a mutable committee set.
///
/// Threading model: with a lent pool the Γ explorers are stepped as one
/// parallel_for batch per barrier-to-barrier block — each task advances one
/// explorer for the whole block (up to share_interval iterations), then the
/// incumbent selection and adopt_if_better run on the calling thread under
/// the barrier. The batches may nest inside a batch the caller is running
/// on the same pool. Every explorer owns a private forked Rng and workers
/// claim whole explorers, so results are bitwise identical to the serial
/// path at any pool size (tested by the determinism matrix in
/// test_se_parallel); only wall-clock changes. The scheduler itself is
/// single-caller: step()/advance()/run() and the accessors must not be
/// invoked concurrently.
class SeScheduler {
 public:
  /// Builds the Γ explorers, each from its own fork of `seed`. `pool`, when
  /// non-null and Γ > 1, runs their construction and the explorer blocks;
  /// otherwise they run serially on the calling thread. It must outlive the
  /// scheduler. Results are bitwise identical with or without it, at any
  /// pool size. Throws
  /// std::invalid_argument when the instance exceeds SwapSet::kMaxUniverse
  /// committees.
  SeScheduler(EpochInstance instance, SeParams params, std::uint64_t seed,
              common::ThreadPool* pool = nullptr);
  /// Non-copyable and non-movable: the explorers hold pointers into the
  /// scheduler's instance, params and layout.
  SeScheduler(const SeScheduler&) = delete;
  SeScheduler& operator=(const SeScheduler&) = delete;

  /// Runs until convergence or max_iterations; fills the utility trace.
  SeResult run();

  /// One global iteration: every explorer thread performs one transition.
  void step();

  /// Advances `k` global iterations, honoring the §IV-D share points at
  /// every share_interval boundary. This is the bulk API the event-driven
  /// online wrapper uses: in parallel mode each barrier-to-barrier block is
  /// fanned out across the worker pool, so the cost per block is one
  /// dispatch + one barrier instead of k of them.
  void advance(std::size_t k);

  /// Best feasible utility across threads right now; NaN when none feasible.
  [[nodiscard]] double current_utility() const;
  /// Best feasible selection across threads right now (empty when none).
  [[nodiscard]] Selection current_selection() const;

  [[nodiscard]] const EpochInstance& instance() const noexcept {
    return instance_;
  }
  [[nodiscard]] std::size_t iteration() const noexcept { return iteration_; }
  /// The shared per-instance layout (cardinality family, candidate indexes).
  [[nodiscard]] const SeLayout& layout() const noexcept { return layout_; }

  /// Warm start: seeds every explorer's matching-cardinality chain (plus
  /// the grid-adjacent cardinalities) from `seed` through the same
  /// adopt_if_better machinery the §IV-D share points use, and records the
  /// seed as a floor — run() initializes its best from the floor, so a
  /// warm-started run can never report a feasible result worse than its
  /// seed, and returns it with 0 iterations when it certifies under
  /// SeParams::gap_tolerance. `seed` must be index-aligned with the
  /// *current* instance (the serve pipeline passes its greedy seed of the
  /// same epoch's instance). Returns the seed's utility when accepted; NaN
  /// when `seed` is mis-sized or infeasible here, in which case the
  /// scheduler behaves exactly as a cold start.
  double warm_start(const Selection& seed);

  /// Online dynamics (Alg. 1 lines 8–12). Both reset convergence tracking
  /// and drop any warm-start floor (it is index-aligned with the old
  /// instance). add_committee throws std::invalid_argument, leaving the
  /// scheduler untouched, when the join would exceed SwapSet::kMaxUniverse.
  void add_committee(const Committee& committee);
  /// Removes by committee id (e.g. on failure). No-op for unknown ids.
  void remove_committee(std::uint32_t committee_id);
  /// Risk-adaptive resizing: replaces the Eq.-(3) floor N_min and rebinds
  /// every explorer onto the resized instance (same committees/α/Ĉ). No-op
  /// when the value is unchanged.
  void set_n_min(std::size_t n_min);

  /// Attaches observability. Registers the SE metric families and starts
  /// emitting barrier-granular trace events; a default context detaches.
  /// Transitions stepped before the call are not exported.
  void set_obs(obs::ObsContext obs);

 private:
  /// Rebuilds the layout and the bound after an instance mutation.
  void rebuild_instance_data();

  void rebind_all(std::optional<std::uint32_t> removed_index);

  /// Length of the next barrier-to-barrier block: at most `remaining`, and
  /// never crossing a share_interval boundary.
  [[nodiscard]] std::size_t next_block_length(std::size_t remaining) const;

  /// Steps every explorer `k` iterations — on the pool when there is one,
  /// inline otherwise. `blocks`/`running_max` are
  /// per-explorer (parallel-indexed) and may be null when no tracing is
  /// needed.
  void step_explorers(std::size_t k, std::vector<SeBlockStats>* blocks,
                      std::vector<double>* running_max);

  /// Thread cooperation at a share boundary (§IV-D). Returns true when a
  /// share actually ran this iteration.
  bool maybe_share();

  /// Folds every explorer's SeObsCounters into the registry and emits the
  /// barrier trace events. Runs under the barrier (workers quiescent).
  void flush_obs(std::size_t block, bool shared);

  EpochInstance instance_;
  SeParams params_;
  SeLayout layout_;
  double bound_ = 0.0;  // core::fractional_bound(instance_)
  std::vector<SeExplorer> explorers_;
  std::size_t iteration_ = 0;
  /// Warm-start floor (empty selection = cold start). run() starts its best
  /// from here, making warm ≥ seed structural rather than probabilistic.
  Selection warm_floor_selection_;
  double warm_floor_utility_ = 0.0;
  common::ThreadPool* pool_ = nullptr;  // lent by the caller; null: serial

  obs::ObsContext obs_;
  // Cached instruments (registered once by set_obs; updates are lock-free).
  obs::Counter* obs_iterations_ = nullptr;
  obs::Counter* obs_accepts_ = nullptr;
  obs::Counter* obs_rejects_ = nullptr;
  obs::Counter* obs_infeasible_ = nullptr;
  obs::Counter* obs_shares_ = nullptr;
  obs::Counter* obs_joins_ = nullptr;
  obs::Counter* obs_leaves_ = nullptr;
  obs::Gauge* obs_best_utility_ = nullptr;
};

}  // namespace mvcom::core
