#include "sharding/elastico.hpp"

#include "sharding/overlay.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "common/fnv.hpp"
#include "common/thread_pool.hpp"
#include "crypto/merkle.hpp"
#include "crypto/pow.hpp"
#include "crypto/sha256.hpp"

namespace mvcom::sharding {
namespace {

/// Minimum PBFT committee: n = 4 tolerates f = 1.
constexpr std::size_t kMinBftMembers = 4;

/// Dispersion of per-node hash rates and processing speeds (log-normal
/// coefficient of variation); the source of straggler committees.
constexpr double kNodeHeterogeneityCv = 0.35;

/// FNV-1a fold used to merge per-lane order digests in committee order.
constexpr std::uint64_t kDigestBasis = common::kFnv1aBasis;
using common::fnv1a_mix;

}  // namespace

std::vector<txn::ShardReport> EpochOutcome::reports() const {
  std::vector<txn::ShardReport> out;
  out.reserve(committees.size());
  for (const CommitteeOutcome& c : committees) {
    if (!c.committed) continue;
    txn::ShardReport r;
    r.committee_id = c.committee_id;
    r.tx_count = c.tx_count;
    r.formation_latency = c.formation_latency.seconds();
    r.consensus_latency = c.consensus_latency.seconds();
    out.push_back(r);
  }
  return out;
}

ElasticoNetwork::ElasticoNetwork(ElasticoConfig config, Rng rng,
                                 common::ThreadPool* pool)
    : config_(config), rng_(rng), pool_(pool) {
  if (config_.num_nodes > std::numeric_limits<net::NodeId>::max()) {
    throw std::invalid_argument(
        "ElasticoNetwork: num_nodes <= 4294967295 (32-bit node ids)");
  }
  if (config_.committee_bits < 1 || config_.committee_bits > 16) {
    throw std::invalid_argument("ElasticoNetwork: committee_bits in [1,16]");
  }
  if (config_.committee_size < kMinBftMembers) {
    throw std::invalid_argument("ElasticoNetwork: committee_size >= 4 (BFT)");
  }
  if (config_.num_nodes < num_committees() * kMinBftMembers) {
    throw std::invalid_argument(
        "ElasticoNetwork: too few nodes to populate every committee");
  }
  // Node heterogeneity — fixed per node for the network's lifetime.
  hash_rates_.reserve(config_.num_nodes);
  verify_speeds_.reserve(config_.num_nodes);
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    hash_rates_.push_back(rng_.lognormal_mean_sd(1.0, kNodeHeterogeneityCv));
    verify_speeds_.push_back(
        rng_.lognormal_mean_sd(1.0, kNodeHeterogeneityCv));
  }
  randomness_ = crypto::to_hex(crypto::Sha256::hash("genesis"));
}

EpochOutcome ElasticoNetwork::run_epoch(const txn::Trace& trace,
                                        CommitteeScheduler scheduler) {
  const std::size_t committees = num_committees();
  const std::size_t member_committees = committees - 1;
  const std::uint32_t final_id = static_cast<std::uint32_t>(member_committees);

  // --- Stage 1: committee formation via PoW ------------------------------
  // Each node grinds the puzzle; the solution digest assigns its committee
  // and the solve latency follows the exponential model (memoryless search).
  // Node identities are "node-<id>", hashed after the epoch randomness's
  // prefix, which is absorbed once.
  struct Solve {
    net::NodeId node;
    SimTime at;
  };
  std::vector<std::vector<Solve>> assignment(committees);
  const crypto::PowPrefix pow(randomness_);
  char identity[16] = "node-";
  for (net::NodeId node = 0; node < config_.num_nodes; ++node) {
    const std::uint64_t nonce = rng_();
    const char* end = std::to_chars(identity + 5, std::end(identity), node).ptr;
    const std::uint32_t committee = pow.committee(
        std::string_view(identity, end), nonce, config_.committee_bits);
    const SimTime solve = crypto::model_solve_latency(
        rng_, config_.pow_expected_solve, hash_rates_[node]);
    assignment[committee].push_back({node, solve});
  }

  // --- Stage 2: overlay configuration ------------------------------------
  // Directory-mediated identity exchange; cost linear in network size.
  const SimTime overlay = SimTime(
      static_cast<double>(config_.num_nodes) *
      config_.overlay_cost_per_node.seconds() * rng_.uniform(0.9, 1.1));

  // Shard workload for member committees.
  const std::vector<std::uint64_t> shard_txs = txn::deal_blocks(
      trace, member_committees, trace.blocks.size(), rng_);

  EpochOutcome outcome;
  outcome.committees.resize(member_committees);

  // --- Membership, per-lane RNG seeds, and lane tasks (serial, committee
  // order) -----------------------------------------------------------------
  std::vector<std::vector<net::NodeId>> participants(committees);
  std::vector<SimTime> formation(committees, SimTime::infinity());

  std::vector<LaneTask> tasks(committees);
  for (std::size_t c = 0; c < committees; ++c) {
    auto& solves = assignment[c];
    std::sort(solves.begin(), solves.end(),
              [](const Solve& a, const Solve& b) { return a.at < b.at; });
    const std::size_t take = std::min(config_.committee_size, solves.size());
    LaneTask& task = tasks[c];
    task.committee_id = static_cast<std::uint32_t>(c);
    task.member_committees = static_cast<std::uint32_t>(member_committees);
    if (take < kMinBftMembers) continue;  // under-populated: cannot run BFT
    for (std::size_t r = 0; r < take; ++r) {
      participants[c].push_back(solves[r].node);
    }
    if (!config_.message_level_overlay) {
      // Formed when the last participant finished PoW, plus the closed-form
      // overlay exchange.
      formation[c] = solves[take - 1].at + overlay;
    }
    // Draw every lane's substream seeds here — serially, in committee order,
    // before any lane runs. This is the whole determinism contract: a lane
    // consumes only its own pre-drawn seeds, so execution order across
    // worker threads — or worker *processes* (src/fabric) — cannot change
    // what any lane draws. Rng(rng_()) is exactly rng_.fork(), so these
    // draws are bit-compatible with the pre-task closure implementation.
    if (config_.message_level_overlay) task.overlay_seed = rng_();
    task.net_seed = rng_();
    task.cluster_seed = rng_();
    task.armed = true;
    task.message_level_overlay = config_.message_level_overlay;
    task.num_nodes = static_cast<std::uint32_t>(config_.num_nodes);
    task.link_latency_mean = config_.link_latency_mean;
    task.pbft = config_.pbft;
    task.formation = formation[c];
    task.participants = participants[c];
    if (config_.message_level_overlay) {
      task.ready_at.reserve(take);
      for (std::size_t r = 0; r < take; ++r) {
        task.ready_at.push_back(solves[r].at);
      }
    }
    task.verify_speeds.reserve(take);
    for (const net::NodeId node : participants[c]) {
      task.verify_speeds.push_back(verify_speeds_[node]);
    }
  }

  // --- Stages 2 (message-level) + 3: one private lane per committee ------
  // Committees are mutually independent until the final consensus (§I), so
  // each formed committee gets a private event fabric + network inside its
  // lane, run until its PBFT decision. The final committee's lane performs
  // only its overlay exchange; its PBFT waits for stage 4. Lane results
  // land in per-committee slots and merge below in committee order, so
  // results are bitwise-identical inline and on any lent pool — and for any
  // executor: a fabric of worker processes runs the same pure tasks and
  // merges the same way (DESIGN.md §17).
  std::vector<LaneResult> results(committees);
  if (lane_executor_) {
    lane_executor_(tasks, results);
  } else {
    common::parallel_for(pool_, committees, [&](std::size_t c) {
      results[c] = run_committee_lane(tasks[c], obs_);
    });
  }

  // --- Merge lane results, in committee order -----------------------------
  outcome.event_order_digest = kDigestBasis;
  for (std::size_t c = 0; c < committees; ++c) {
    const LaneResult& lane = results[c];
    if (tasks[c].armed) formation[c] = lane.formation;
    if (c < member_committees) {
      CommitteeOutcome& co = outcome.committees[c];
      co.committee_id = static_cast<std::uint32_t>(c);
      co.member_count = participants[c].size();
      co.tx_count = shard_txs[c];
      if (tasks[c].armed) {
        co.formation_latency = lane.formation;
        co.committed = lane.committed;
        co.consensus_latency = lane.consensus_latency;
        co.view_changes = lane.view_changes;
      }
    }
    outcome.event_order_digest =
        fnv1a_mix(outcome.event_order_digest, lane.order_digest);
    outcome.events_executed += lane.events_executed;
  }

  // --- Stage 4: final consensus -------------------------------------------
  std::vector<CommitteeOutcome> committed;
  for (const CommitteeOutcome& co : outcome.committees) {
    if (co.committed) committed.push_back(co);
  }
  if (scheduler) {
    outcome.selected = scheduler(committed);
  } else {
    for (const CommitteeOutcome& co : committed) {
      outcome.selected.push_back(co.committee_id);
    }
  }

  // The selected shards' roots: stage 4's Merkle leaves and, once the final
  // block commits, the root chain's block body. Their tree is built once:
  // its root is the final committee's payload and the block's Merkle root.
  std::vector<crypto::Digest> roots;
  crypto::Digest merkle_root{};
  if (!outcome.selected.empty() && participants[final_id].size() >= kMinBftMembers) {
    // DDL: the final committee can start once the last selected shard has
    // been submitted (its two-phase latency) — and no earlier than its own
    // formation.
    SimTime start = formation[final_id];
    std::uint64_t total_txs = 0;
    roots.reserve(outcome.selected.size());
    for (const std::uint32_t id : outcome.selected) {
      const CommitteeOutcome& co = outcome.committees.at(id);
      start = std::max(start, co.two_phase_latency());
      total_txs += co.tx_count;
      roots.push_back(crypto::Sha256::hash("shard-root-" + std::to_string(id)));
    }
    merkle_root = crypto::MerkleTree(roots).root();

    // The final committee runs on its own fresh fabric with the seeds
    // pre-drawn for it above, so its numbers are identical whether the
    // member lanes ran serially, on a pool, or on worker processes.
    const LaneResult round =
        run_pbft_round(tasks[final_id], start, merkle_root, obs_);
    outcome.final_committed = round.committed;
    outcome.final_consensus_latency = round.consensus_latency;
    outcome.event_order_digest =
        fnv1a_mix(outcome.event_order_digest, round.order_digest);
    outcome.events_executed += round.events_executed;
    outcome.final_block_txs = total_txs;
    outcome.epoch_makespan = start + outcome.final_consensus_latency;
  }

  // --- Root chain: the final block joins the ledger ------------------------
  if (outcome.final_committed) {
    chain_.extend(std::move(roots), merkle_root, outcome.final_block_txs,
                  outcome.epoch_makespan.seconds(),
                  "final-committee-" + std::to_string(final_id), randomness_);
  }

  // --- Stage 5: epoch randomness refreshing -------------------------------
  // The next epoch's randomness binds the epoch index and the current tip —
  // an adversary cannot precompute committee assignments before the final
  // block settles. The trailing "|" is part of the hash input: every pinned
  // Elastico digest depends on it.
  randomness_ = crypto::to_hex(crypto::Sha256::hash(
      randomness_ + "|epoch|" + std::to_string(epoch_index_++) + "|" +
      crypto::to_hex(chain_.tip().header.hash()) + "|"));
  outcome.next_epoch_randomness = randomness_;
  return outcome;
}

}  // namespace mvcom::sharding
