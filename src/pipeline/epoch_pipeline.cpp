#include "pipeline/epoch_pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "consensus/pbft.hpp"
#include "crypto/merkle.hpp"
#include "crypto/pow.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "txn/age.hpp"
#include "txn/workload.hpp"

namespace mvcom::pipeline {

namespace {

using common::Rng;
using common::SimTime;

constexpr std::uint64_t kDigestBasis = common::kFnv1aBasis;
using common::fnv1a_mix;

/// Per-epoch RNG stream slots. Every engine the pipeline uses is derived as
/// Rng::stream(seed, 4·epoch + slot) — a pure function of (seed, epoch) —
/// so overlapped epochs never share or reorder a stream (DESIGN.md §13).
enum StreamSlot : std::uint64_t {
  kFormationSlot = 0,  // two-phase latency sampling
  kSeSeedSlot = 1,     // SE scheduler seed
  kFinalNetSlot = 2,   // stage-4 network fabric
  kFinalPbftSlot = 3,  // stage-4 PBFT protocol randomness
};

/// Committees per stage-A chunk task (dealing and shard roots, then the PoW
/// grind): serve's 300 committees make 38 tasks of ~40 µs at 8 bits. On
/// perfbench `serve`, with the latency draws pooled, 4 against 8 read op
/// p50 ×0.996 (4 of 10 pairs); with them serial, 4, 8 and 16 read 0.933,
/// 0.926 and 0.961 ms (six runs each).
constexpr std::size_t kGrindChunk = 8;

/// The grind's per-committee hash budget at `bits` of difficulty.
std::uint64_t grind_budget(int bits) noexcept {
  return 64 * (std::uint64_t{1} << std::min(bits, 24));
}

std::uint64_t stream_index(std::size_t epoch, StreamSlot slot) noexcept {
  return 4 * static_cast<std::uint64_t>(epoch) + slot;
}

std::string epoch_randomness(std::uint64_t seed, std::size_t epoch) {
  return "serve|" + std::to_string(seed) + "|" + std::to_string(epoch);
}

/// The warm seed: descending-gain fill under Ĉ (ties by index), continuing
/// past non-positive gains until N_min, then core::top_up. Empty when the
/// top-up cannot reach N_min, and when it selects no committee.
core::Selection greedy_seed(const core::EpochInstance& instance) {
  std::vector<std::uint32_t> by_gain(instance.size());
  std::iota(by_gain.begin(), by_gain.end(), std::uint32_t{0});
  std::sort(by_gain.begin(), by_gain.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const double ga = instance.gain(a);
              const double gb = instance.gain(b);
              return ga != gb ? ga > gb : a < b;
            });
  core::Selection sel(instance.size(), 0);
  std::uint64_t used = 0;
  std::size_t chosen = 0;
  for (const std::uint32_t i : by_gain) {
    if (instance.gain(i) <= 0.0 && chosen >= instance.n_min()) break;
    const std::uint64_t txs = instance.committees()[i].txs;
    if (used + txs > instance.capacity()) continue;
    sel[i] = 1;
    used += txs;
    ++chosen;
  }
  sel = core::top_up(instance, std::move(sel));
  if (std::find(sel.begin(), sel.end(), 1) == sel.end()) return {};
  return sel;
}

}  // namespace

EpochPipeline::EpochPipeline(const txn::Trace& trace, PipelineConfig config)
    : trace_(&trace), config_(std::move(config)) {
  if (trace.blocks.empty()) {
    throw std::invalid_argument("EpochPipeline: trace is empty");
  }
  if (config_.epochs == 0 || config_.committees == 0) {
    throw std::invalid_argument(
        "EpochPipeline: epochs and committees must be >= 1");
  }
  if (config_.overlap_depth > 2) {
    throw std::invalid_argument(
        "EpochPipeline: overlap_depth must be 0..2, got " +
        std::to_string(config_.overlap_depth));
  }
  if (config_.pow_grind_bits < 0 || config_.pow_grind_bits > 63) {
    throw std::invalid_argument(
        "EpochPipeline: pow_grind_bits must be 0..63, got " +
        std::to_string(config_.pow_grind_bits));
  }
  // Negated so that NaN fails too: Ĉ = fraction · pending is cast to an
  // unsigned count, undefined for a negative or NaN product.
  if (!(config_.capacity_fraction > 0.0 && config_.capacity_fraction <= 1.0)) {
    throw std::invalid_argument(
        "EpochPipeline: capacity_fraction must be in (0, 1], got " +
        std::to_string(config_.capacity_fraction));
  }
  trace_start_ = trace.blocks.front().btime;
  const double span = trace.blocks.back().btime - trace_start_ + 1.0;
  window_ = span / static_cast<double>(config_.epochs);
}

void EpochPipeline::set_obs(obs::ObsContext obs) {
  obs_ = obs;
  obs_epochs_ = nullptr;
  obs_committed_ = nullptr;
  obs_carried_ = nullptr;
  obs_utility_ = nullptr;
  obs_gap_ = nullptr;
  obs_commit_time_ = nullptr;
  obs_pow_attempts_ = nullptr;
  obs::MetricsRegistry* m = obs_.metrics();
  if (m == nullptr) return;
  obs_epochs_ = &m->counter("mvcom_pipeline_epochs_total",
                            "Epochs the streaming pipeline committed");
  obs_committed_ = &m->counter("mvcom_pipeline_txs_total",
                               "TXs by scheduling outcome per epoch",
                               {{"result", "committed"}});
  obs_carried_ = &m->counter("mvcom_pipeline_txs_total",
                             "TXs by scheduling outcome per epoch",
                             {{"result", "carried"}});
  obs_utility_ = &m->gauge("mvcom_pipeline_epoch_utility",
                           "Eq.-(2) utility of the latest committed epoch");
  obs_gap_ = &m->gauge(
      "mvcom_pipeline_epoch_gap",
      "Relative optimality gap (bound - U)/|bound| of the latest committed "
      "epoch against the fractional-knapsack bound");
  obs_commit_time_ = &m->gauge("mvcom_pipeline_commit_time_seconds",
                               "Commit instant of the latest final block");
  if (config_.pow_grind_bits > 0) {
    obs_pow_attempts_ = &m->counter(
        "mvcom_pipeline_pow_attempts_total",
        "PoW hashes stage A ground: per committee, the winning nonce + 1, or "
        "the budget when it gave up");
  }
}

EpochPipeline::FormedEpoch EpochPipeline::form_epoch(
    std::size_t epoch, common::ThreadPool* pool) const {
  FormedEpoch out;
  out.epoch = epoch;
  out.window_end =
      trace_start_ + static_cast<double>(epoch + 1) * window_;
  const double window_begin =
      trace_start_ + static_cast<double>(epoch) * window_;

  // The trace is btime-sorted, so the epoch window is a contiguous slice —
  // found by binary search, not a shared cursor, which is what lets stage A
  // run for any epoch independently of every other.
  const auto& blocks = trace_->blocks;
  const auto by_btime = [](const txn::BlockRecord& b, double t) {
    return b.btime < t;
  };
  const auto first =
      epoch == 0 ? blocks.begin()
                 : std::lower_bound(blocks.begin(), blocks.end(), window_begin,
                                    by_btime);
  const auto last = std::lower_bound(blocks.begin(), blocks.end(),
                                     out.window_end, by_btime);
  const auto first_block = static_cast<std::size_t>(first - blocks.begin());
  const auto window_blocks = static_cast<std::size_t>(last - first);

  // Fresh blocks are dealt round-robin over this epoch's member committees:
  // committee c holds window slots c, c + C, c + 2C, …, so it is empty iff
  // c >= the window's block count. Only those trailing committees form no
  // shard; the others form in place.
  const std::size_t committees = config_.committees;
  const std::size_t formed = std::min(committees, window_blocks);
  out.shards.resize(formed);
  out.nonces.assign(formed, 0);

  // One pooled batch, nested inside this stage-A task. Task 0 draws the
  // two-phase latencies: they share the formation stream, so one thread
  // draws them in committee order. Task 1 + j forms chunk j: its
  // committees' blocks, ids, TX counts and shard roots, then their real PoW
  // grind — stage A becomes genuinely CPU-bound, and each winning nonce
  // witnesses the work in the epoch digest. Every task writes only its own
  // fields of the shards and its own nonce slots. The difficulty is a model
  // knob, so a bounded give-up keeps the pipeline deterministic either way.
  const std::string randomness = epoch_randomness(config_.seed, epoch);
  const std::uint64_t budget = grind_budget(config_.pow_grind_bits);
  const auto target =
      crypto::PowTarget::from_difficulty_bits(config_.pow_grind_bits);
  const auto form = [&](std::size_t task) {
    if (task == 0) {
      Rng rng = Rng::stream(config_.seed,
                            stream_index(epoch, kFormationSlot));
      // Committees form as soon as the window closes; submission is
      // absolute so later carries rebase exactly, however far stage 4
      // overran.
      for (PendingShard& s : out.shards) {
        s.submit_time = txn::sample_submit_instant(rng, txn::WorkloadConfig{},
                                                   out.window_end);
      }
      return;
    }
    const std::size_t begin = (task - 1) * kGrindChunk;
    const std::size_t end = std::min(formed, begin + kGrindChunk);
    for (std::size_t c = begin; c < end; ++c) {
      PendingShard& s = out.shards[c];
      s.id = static_cast<std::uint32_t>(epoch * committees + c);
      s.block_indices.reserve((window_blocks - c + committees - 1) /
                              committees);
      crypto::Sha256 h;
      h.update("shard|");
      h.update(randomness);
      for (std::size_t slot = c; slot < window_blocks; slot += committees) {
        const std::size_t b = first_block + slot;
        s.block_indices.push_back(b);
        s.txs += blocks[b].tx_count;
        h.update("|");
        h.update(blocks[b].bhash);
      }
      s.root = h.finalize();
      if (config_.pow_grind_bits == 0) continue;
      const auto solution = crypto::solve(
          randomness, "committee-" + std::to_string(s.id), target, budget);
      if (solution) out.nonces[c] = solution->nonce + 1;  // +1: "none" is 0
    }
  };
  const std::size_t tasks = 1 + (formed + kGrindChunk - 1) / kGrindChunk;
  common::parallel_for(pool, tasks, form);
  return out;
}

EpochReport EpochPipeline::schedule_epoch(FormedEpoch&& formed,
                                          common::ThreadPool* pool) {
  EpochReport report;
  report.epoch = formed.epoch;
  report.window_end = formed.window_end;
  report.warm_seed_utility = std::numeric_limits<double>::quiet_NaN();

  // Realized boundary: the final committee cannot start this epoch before
  // its previous block committed. Every latency below is relative to here.
  const double start = std::max(formed.window_end, prev_commit_);
  report.start = start;

  // Carried shards first, then the fresh ones, whose formation digest and
  // grind attempt count fold in committee order on the way in. Stage A
  // leaves the fold to here, where it runs beside the next epoch's
  // formation instead of after it.
  std::vector<PendingShard> shards = std::move(carried_);
  carried_.clear();
  shards.reserve(shards.size() + formed.shards.size());
  const std::uint64_t budget = grind_budget(config_.pow_grind_bits);
  std::uint64_t formation_digest = kDigestBasis;
  for (std::size_t c = 0; c < formed.shards.size(); ++c) {
    PendingShard& s = formed.shards[c];
    const std::uint64_t nonce = formed.nonces[c];
    formation_digest = fnv1a_mix(formation_digest, s.id);
    formation_digest = fnv1a_mix(formation_digest, s.txs);
    formation_digest = fnv1a_mix(formation_digest,
                                 std::bit_cast<std::uint64_t>(s.submit_time));
    formation_digest = fnv1a_mix(formation_digest, nonce);
    if (config_.pow_grind_bits > 0) {
      report.pow_attempts += nonce != 0 ? nonce : budget;
    }
    totals_.ingested_txs += s.txs;
    shards.push_back(std::move(s));
  }
  report.shards_pending = shards.size();

  core::Selection keep(shards.size(), 0);
  if (!shards.empty()) {
    std::uint64_t pending_txs = 0;
    for (const PendingShard& s : shards) pending_txs += s.txs;
    std::vector<core::Committee> committees;
    committees.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const double effective =
          std::max(0.0, shards[i].submit_time - start);
      committees.push_back({static_cast<std::uint32_t>(i), shards[i].txs,
                            effective});
    }
    const auto capacity = static_cast<std::uint64_t>(
        config_.capacity_fraction * static_cast<double>(pending_txs));
    core::EpochInstance instance(std::move(committees), config_.alpha,
                                 capacity, config_.n_min);
    report.utility_bound = core::fractional_bound(instance);
    core::Selection seed;
    if (config_.warm_start && !policy_) {
      seed = greedy_seed(instance);
      if (!seed.empty()) report.warm_seed_utility = instance.utility(seed);
    }
    if (policy_) {
      keep = policy_(instance);
      if (!keep.empty() &&
          (keep.size() != instance.size() || !instance.feasible(keep))) {
        throw std::logic_error(
            "EpochPipeline: epoch " + std::to_string(formed.epoch) +
            "'s policy selection is mis-sized or breaks Eq. (3)/(4)");
      }
      report.feasible = !keep.empty();
      if (report.feasible) report.utility = instance.utility(keep);
    } else if (!seed.empty() &&
               core::certifies(report.utility_bound,
                               report.warm_seed_utility,
                               config_.se.gap_tolerance)) {
      // The seed is within se.gap_tolerance of the bound: commit it and
      // build no scheduler.
      keep = std::move(seed);
      report.certified = true;
      report.feasible = true;
      report.utility = report.warm_seed_utility;
    } else {
      const std::uint64_t se_seed =
          Rng::stream(config_.seed, stream_index(formed.epoch, kSeSeedSlot))();
      core::SeScheduler scheduler(std::move(instance), config_.se, se_seed,
                                  pool);
      if (!seed.empty()) (void)scheduler.warm_start(seed);
      const core::SeResult result = scheduler.run();
      report.se_iterations = result.iterations;
      report.certified = result.certified;
      if (result.feasible) {
        keep = result.best;
        report.feasible = true;
        report.utility = result.utility;
      }
    }
  }

  // DDL = slowest selected submission, relative to the realized boundary.
  double ddl = 0.0;
  std::vector<crypto::Digest> selected_roots;
  std::uint64_t committed_txs = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i < keep.size() && keep[i] != 0) {
      ddl = std::max(ddl, std::max(0.0, shards[i].submit_time - start));
      selected_roots.push_back(shards[i].root);
      committed_txs += shards[i].txs;
    }
  }

  // Stage 4 — final consensus as a real discrete-event PBFT round over the
  // Merkle root of the selected shard roots, the epoch's one Merkle tree
  // (the final block reuses it). Its event-order digest is the epoch's
  // determinism witness.
  sim::Simulator des;
  const auto link = std::make_shared<net::LognormalLatency>(SimTime(0.15),
                                                            SimTime(0.05));
  net::Network network(
      des, Rng::stream(config_.seed, stream_index(formed.epoch, kFinalNetSlot)),
      link, config_.final_replicas);
  std::vector<net::NodeId> members(config_.final_replicas);
  std::iota(members.begin(), members.end(), net::NodeId{0});
  consensus::PbftCluster cluster(
      des, network, consensus::PbftConfig{},
      Rng::stream(config_.seed, stream_index(formed.epoch, kFinalPbftSlot)),
      members);
  const crypto::Digest payload = crypto::MerkleTree(selected_roots).root();
  consensus::PbftResult final_result;
  cluster.start_consensus(payload,
                          [&](const consensus::PbftResult& r) {
                            final_result = r;
                          });
  des.run();
  const double final_latency =
      final_result.committed ? final_result.latency.seconds()
                             : consensus::PbftConfig{}.horizon.seconds();
  report.des_events = des.events_executed();

  const double commit = start + ddl + final_latency;
  report.commit = commit;
  prev_commit_ = commit;

  // Per-TX age accounting for the committed shards; refused shards carry
  // forward with their absolute submission instants intact.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i < keep.size() && keep[i] != 0) {
      txn::ShardBlocks provenance;
      provenance.committee_id = shards[i].id;
      provenance.block_indices = shards[i].block_indices;
      const txn::AgeProfile age =
          txn::shard_age_profile(*trace_, provenance, commit);
      report.total_age += age.total_age;
      ++report.shards_committed;
    } else {
      PendingShard& s = shards[i];
      s.carries += 1;
      totals_.max_shard_carries =
          std::max(totals_.max_shard_carries, s.carries);
      report.carried_txs += s.txs;
      carried_.push_back(std::move(s));
    }
  }
  report.committed_txs = committed_txs;
  totals_.committed_txs += committed_txs;
  totals_.total_age += report.total_age;

  chain_.extend(std::move(selected_roots), payload, committed_txs, commit,
                "final-committee", epoch_randomness(config_.seed, formed.epoch));

  // Epoch digest: formation draws + DES event order + the selection itself.
  std::uint64_t digest = kDigestBasis;
  digest = fnv1a_mix(digest, formation_digest);
  digest = fnv1a_mix(digest, des.order_digest());
  digest = fnv1a_mix(digest, report.des_events);
  digest = fnv1a_mix(digest, std::bit_cast<std::uint64_t>(report.utility));
  digest = fnv1a_mix(digest, std::bit_cast<std::uint64_t>(commit));
  digest = fnv1a_mix(digest, committed_txs);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (keep[i] != 0) digest = fnv1a_mix(digest, i);
  }
  report.event_order_digest = digest;
  totals_.digest = fnv1a_mix(totals_.digest, digest);

  const double gap = core::relative_gap(report.utility_bound, report.utility);
  if (obs_epochs_ != nullptr) {
    obs_epochs_->inc();
    obs_committed_->add(committed_txs);
    obs_carried_->add(report.carried_txs);
    obs_utility_->set(report.utility);
    obs_gap_->set(gap);
    obs_commit_time_->set(commit);
  }
  if (obs_pow_attempts_ != nullptr) obs_pow_attempts_->add(report.pow_attempts);
  if (auto* t = obs_.trace()) {
    t->complete("pipeline", "pipeline/epoch", commit - start,
                {{"epoch", static_cast<double>(report.epoch)},
                 {"utility", report.utility},
                 {"gap", gap},
                 {"committed_txs", static_cast<double>(committed_txs)},
                 {"carried_txs", static_cast<double>(report.carried_txs)}});
  }
  return report;
}

PipelineTotals EpochPipeline::run(
    const std::function<void(const EpochReport&)>& on_epoch) {
  totals_ = PipelineTotals{};
  totals_.digest = kDigestBasis;
  carried_.clear();
  prev_commit_ = 0.0;
  chain_ = chain::RootChain();

  // One pool per run serves the overlap batch and, nested inside the
  // stages, the PoW grind chunks and the SE explorers — at depth 1 only the
  // nested batches.
  std::unique_ptr<common::ThreadPool> pool;
  if (config_.workers > 0) {
    pool = std::make_unique<common::ThreadPool>(config_.workers);
  }

  const bool overlap = config_.overlap_depth == 2;
  // At depth 2, epoch k+1's formation, made during step k.
  std::optional<FormedEpoch> ahead;
  for (std::size_t k = 0; k < config_.epochs; ++k) {
    if (stop_requested()) {
      totals_.stopped_early = true;
      break;
    }
    // The sequential reference forms every epoch here, right before its
    // stage B; the pipelined schedule forms only epoch 0 here.
    FormedEpoch current =
        ahead ? std::move(*ahead) : form_epoch(k, pool.get());
    ahead.reset();
    EpochReport report;
    if (overlap && k + 1 < config_.epochs) {
      // One software-pipelined step: {B(k), A(k+1)} as a single thread-pool
      // batch. Stage A is pure and stage B is the only writer of
      // cross-epoch state, so the batch is data-race-free and the results
      // match the sequential reference bit for bit.
      const auto body = [&](std::size_t which) {
        if (which == 0) {
          report = schedule_epoch(std::move(current), pool.get());
        } else {
          ahead = form_epoch(k + 1, pool.get());
        }
      };
      common::parallel_for(pool.get(), 2, body);
    } else {
      report = schedule_epoch(std::move(current), pool.get());
    }
    ++totals_.epochs_run;
    if (on_epoch) on_epoch(report);
  }

  for (const PendingShard& s : carried_) totals_.pending_txs += s.txs;
  return totals_;
}

}  // namespace mvcom::pipeline
