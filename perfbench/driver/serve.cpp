// `serve`: the streaming epoch pipeline in block-trace mode, shaped like
// `mvcom serve` at the sustained tier's scale. One op = one epoch step, timed
// between on_epoch callbacks of EpochPipeline::run.
//
// The traced run re-drives the same epochs through the library's public
// layer functions (slicing, latency sampling, shard hashing, PoW, SE, the
// stage-4 PBFT round, age accounting, chain extend) with a span around each
// call, and checks that this replay reproduces the pipeline's per-epoch
// digests — so the layer times describe the work the entry point did.

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "chain/root_chain.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "consensus/pbft.hpp"
#include "crypto/merkle.hpp"
#include "crypto/pow.hpp"
#include "crypto/sha256.hpp"
#include "mvcom/se_scheduler.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "pipeline/epoch_pipeline.hpp"
#include "sim/simulator.hpp"
#include "txn/age.hpp"
#include "txn/trace_generator.hpp"
#include "txn/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mvcom;
using common::fnv1a_mix;
using common::Rng;
using common::SimTime;

/// A run is a sequence of whole episodes: one pipeline over the trace, cut
/// into `episode_epochs` windows. The carried backlog, and with it the SE
/// instance, grows through an episode, so epoch cost rises with its index;
/// timing only whole episodes keeps the op mix, and so the percentiles,
/// independent of how many episodes fit in the run.
struct Shape {
  std::size_t committees;
  std::size_t episode_epochs;
  std::uint64_t blocks_per_epoch;
  std::uint64_t txs_per_epoch;
  std::size_t guard_episodes;  // episodes the quality guards average
  std::size_t setup_reps;
};

Shape shape_for(const Options& options) {
  if (options.tiny) return {30, 4, 40, 200'000, 1, 2};
  return {300, 25, 375, 2'500'000, 3, 9};
}

txn::Trace make_trace(const Shape& shape, std::uint64_t seed) {
  txn::TraceGeneratorConfig tc;
  tc.num_blocks = shape.blocks_per_epoch * shape.episode_epochs;
  tc.target_total_txs = shape.txs_per_epoch * shape.episode_epochs;
  tc.mean_interblock_seconds = 15.0;
  Rng rng(Rng::stream(seed, 0)());
  return txn::generate_trace(tc, rng);
}

/// `mvcom serve --committees 300 --grind-bits 8` with SE Γ = 4.
pipeline::PipelineConfig make_config(const Shape& shape,
                                     std::uint64_t pipeline_seed) {
  pipeline::PipelineConfig c;
  c.committees = shape.committees;
  c.epochs = shape.episode_epochs;
  c.overlap_depth = 2;
  c.workers = 2;
  c.capacity_fraction = 0.6;
  c.se.threads = 4;
  c.se.max_iterations = 2000;
  c.se.convergence_window = 500;
  c.pow_grind_bits = 8;
  c.seed = pipeline_seed;
  return c;
}

/// Every episode replays the trace under its own pipeline seed.
std::uint64_t episode_seed(std::uint64_t seed, std::size_t episode) {
  return Rng::stream(seed, 100 + episode)();
}

/// Eq. (4): Ĉ = ⌊0.6 · pending⌋ and pending = committed + carried.
bool capacity_respected(const pipeline::EpochReport& r, double fraction) {
  const auto capacity = static_cast<std::uint64_t>(
      fraction * static_cast<double>(r.committed_txs + r.carried_txs));
  return r.committed_txs <= capacity;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

void timed(const Options& options, Result& result) {
  const Shape shape = shape_for(options);
  std::vector<double> setups;
  std::optional<txn::Trace> trace;
  for (std::size_t rep = 0; rep < shape.setup_reps; ++rep) {
    // Set-up: the ingest trace, the pipeline, and one cold epoch.
    const auto t0 = Clock::now();
    trace.emplace(make_trace(shape, options.seed));
    pipeline::EpochPipeline warm(*trace,
                                 make_config(shape, episode_seed(options.seed, 0)));
    warm.run([&](const pipeline::EpochReport&) { warm.request_stop(); });
    setups.push_back(seconds_since(t0));
  }

  std::vector<double> op_walls;
  double committed = 0.0;
  // Quality guards come from the first episodes alone, so they depend on
  // the seed and not on how many episodes fit in the run.
  double age_total = 0.0, age_txs = 0.0, utility_total = 0.0;
  double chain_txs = 0.0;
  std::size_t guard_epochs = 0;
  double rss = 0.0;

  const auto start = Clock::now();
  for (std::size_t episode = 0; episode < shape.guard_episodes ||
                                seconds_since(start) < options.seconds;
       ++episode) {
    pipeline::EpochPipeline pipe(
        *trace, make_config(shape, episode_seed(options.seed, episode)));
    std::vector<pipeline::EpochReport> reports;
    auto last = Clock::now();
    const pipeline::PipelineTotals totals =
        pipe.run([&](const pipeline::EpochReport& r) {
          const auto now = Clock::now();
          op_walls.push_back(seconds_between(last, now));
          last = now;
          reports.push_back(r);
        });

    if (options.tamper == "eq4" && episode == 0 && !reports.empty()) {
      reports[0].committed_txs += reports[0].carried_txs + 1;
    }
    std::uint64_t reported = 0;
    for (const pipeline::EpochReport& r : reports) {
      ++result.attempted;
      if (!r.feasible) ++result.failed;
      result.check(capacity_respected(r, 0.6),
                   "serve: Eq. (4) violated at epoch " +
                       std::to_string(r.epoch));
      committed += static_cast<double>(r.committed_txs);
      reported += r.committed_txs;
      if (episode < shape.guard_episodes) {
        age_total += r.total_age;
        age_txs += static_cast<double>(r.committed_txs);
        utility_total += r.utility;
        ++guard_epochs;
      }
    }
    result.check(pipe.chain().validate_full(),
                 "serve: root chain fails validate_full");
    result.check(totals.ingested_txs ==
                     totals.committed_txs + totals.pending_txs,
                 "serve: TX conservation (ingested = committed + pending)");
    result.check(reported == totals.committed_txs &&
                     pipe.chain().total_txs() == totals.committed_txs,
                 "serve: chain TXs differ from the committed epochs");
    result.check(reports.size() == shape.episode_epochs,
                 "serve: an episode stopped early");
    if (episode < shape.guard_episodes) {
      chain_txs += static_cast<double>(pipe.chain().total_txs());
      if (episode + 1 == shape.guard_episodes) rss = peak_rss_mb();
    }
  }
  set_op_metrics(result, op_walls, committed, setups, rss);
  result.set("tx_age_mean_s", age_total / age_txs, "s");
  result.set("utility_mean", utility_total / static_cast<double>(guard_epochs),
             "utility");
  result.set("safety_mean", chain_txs / age_txs, "ratio");
}

/// The benchmark's own copy of the pipeline's stage A and stage B, calling
/// each layer's public functions inside a span. Sequential (depth 1).
class Replay {
 public:
  Replay(const txn::Trace& trace, pipeline::PipelineConfig config,
         Tracer& tracer, obs::MetricsRegistry& registry)
      : trace_(trace), config_(std::move(config)), tracer_(tracer),
        registry_(registry) {
    start_ = trace.blocks.front().btime;
    const double span = trace.blocks.back().btime - start_ + 1.0;
    window_ = span / static_cast<double>(config_.epochs);
  }

  /// Runs epoch `epoch` as op `epoch`; returns its event-order digest.
  std::uint64_t step(std::size_t epoch) {
    Tracer::Scope op(tracer_, "op", epoch, -1, false);
    Formed formed;
    {
      Tracer::Scope a(tracer_, "pipeline.stage_a", epoch, op.id(), false);
      formed = form(epoch, a.id());
    }
    Tracer::Scope b(tracer_, "pipeline.stage_b", epoch, op.id(), false);
    return schedule(std::move(formed), b.id());
  }

  std::uint64_t pow_hashes = 0;
  std::uint64_t se_iterations = 0;
  std::uint64_t final_events = 0;

 private:
  struct Shard {
    std::uint32_t id = 0;
    std::vector<std::size_t> block_indices;
    std::uint64_t txs = 0;
    double submit_time = 0.0;
    crypto::Digest root{};
  };
  struct Formed {
    std::size_t epoch = 0;
    double window_end = 0.0;
    std::vector<Shard> shards;
    std::uint64_t digest = 0;
  };

  [[nodiscard]] std::string randomness(std::size_t epoch) const {
    return "serve|" + std::to_string(config_.seed) + "|" +
           std::to_string(epoch);
  }

  Formed form(std::size_t epoch, int parent) {
    Formed out;
    out.epoch = epoch;
    out.window_end = start_ + static_cast<double>(epoch + 1) * window_;
    const double window_begin = start_ + static_cast<double>(epoch) * window_;
    const auto& blocks = trace_.blocks;
    std::vector<Shard> dealt(config_.committees);
    {
      Tracer::Scope s(tracer_, "txn.slice", epoch, parent);
      const auto by_btime = [](const txn::BlockRecord& b, double t) {
        return b.btime < t;
      };
      const auto first =
          epoch == 0 ? blocks.begin()
                     : std::lower_bound(blocks.begin(), blocks.end(),
                                        window_begin, by_btime);
      const auto last = std::lower_bound(blocks.begin(), blocks.end(),
                                         out.window_end, by_btime);
      std::size_t position = 0;
      for (auto it = first; it != last; ++it, ++position) {
        dealt[position % config_.committees].block_indices.push_back(
            static_cast<std::size_t>(it - blocks.begin()));
      }
    }
    // Only the latency draws consume the formation stream, so sampling them
    // in their own pass keeps every draw where the pipeline makes it.
    {
      Tracer::Scope s(tracer_, "txn.latency", epoch, parent);
      Rng rng = Rng::stream(config_.seed, 4 * epoch);
      txn::WorkloadConfig wc;
      wc.num_committees = config_.committees;
      for (std::size_t c = 0; c < dealt.size(); ++c) {
        if (dealt[c].block_indices.empty()) continue;
        dealt[c].submit_time =
            txn::sample_submit_instant(rng, wc, out.window_end);
        dealt[c].id = static_cast<std::uint32_t>(epoch * config_.committees + c);
      }
    }
    const std::string rand = randomness(epoch);
    {
      Tracer::Scope s(tracer_, "crypto.shard_root", epoch, parent);
      for (Shard& shard : dealt) {
        if (shard.block_indices.empty()) continue;
        crypto::Sha256 h;
        h.update("shard|");
        h.update(rand);
        for (const std::size_t b : shard.block_indices) {
          shard.txs += blocks[b].tx_count;
          h.update("|");
          h.update(blocks[b].bhash);
        }
        shard.root = h.finalize();
      }
    }
    std::vector<std::uint64_t> nonces(dealt.size(), 0);
    if (config_.pow_grind_bits > 0) {
      Tracer::Scope s(tracer_, "crypto.pow", epoch, parent);
      const auto target =
          crypto::PowTarget::from_difficulty_bits(config_.pow_grind_bits);
      const std::uint64_t budget =
          64 * (std::uint64_t{1} << std::min(config_.pow_grind_bits, 24));
      for (std::size_t c = 0; c < dealt.size(); ++c) {
        if (dealt[c].block_indices.empty()) continue;
        const auto solution = crypto::solve(
            rand, "committee-" + std::to_string(dealt[c].id), target, budget);
        pow_hashes += solution ? solution->nonce + 1 : budget;
        if (solution) nonces[c] = solution->nonce + 1;
      }
    }
    out.digest = common::kFnv1aBasis;
    for (std::size_t c = 0; c < dealt.size(); ++c) {
      if (dealt[c].block_indices.empty()) continue;
      out.digest = fnv1a_mix(out.digest, dealt[c].id);
      out.digest = fnv1a_mix(out.digest, dealt[c].txs);
      out.digest = fnv1a_mix(out.digest, bits_of(dealt[c].submit_time));
      out.digest = fnv1a_mix(out.digest, nonces[c]);
      out.shards.push_back(std::move(dealt[c]));
    }
    return out;
  }

  /// The pipeline's greedy cross-epoch warm seed.
  static core::Selection greedy_seed(const core::EpochInstance& instance) {
    const std::size_t n = instance.size();
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const double ga = instance.gain(a);
                const double gb = instance.gain(b);
                if (ga != gb) return ga > gb;
                return a < b;
              });
    core::Selection sel(n, 0);
    std::uint64_t used = 0;
    std::size_t chosen = 0;
    for (const std::uint32_t i : order) {
      const std::uint64_t txs = instance.committees()[i].txs;
      if (instance.gain(i) <= 0.0 && chosen >= instance.n_min()) break;
      if (used + txs > instance.capacity()) continue;
      sel[i] = 1;
      used += txs;
      ++chosen;
    }
    if (chosen < instance.n_min()) {
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const std::uint64_t ta = instance.committees()[a].txs;
                  const std::uint64_t tb = instance.committees()[b].txs;
                  if (ta != tb) return ta < tb;
                  return a < b;
                });
      for (const std::uint32_t i : order) {
        if (chosen >= instance.n_min()) break;
        if (sel[i] != 0) continue;
        const std::uint64_t txs = instance.committees()[i].txs;
        if (used + txs > instance.capacity()) continue;
        sel[i] = 1;
        used += txs;
        ++chosen;
      }
      if (chosen < instance.n_min()) return {};
    }
    if (chosen == 0) return {};
    return sel;
  }

  std::uint64_t schedule(Formed&& formed, int parent) {
    const std::size_t epoch = formed.epoch;
    const double start = std::max(formed.window_end, prev_commit_);
    std::vector<Shard> shards = std::move(carried_);
    carried_.clear();
    for (Shard& s : formed.shards) shards.push_back(std::move(s));

    core::Selection keep(shards.size(), 0);
    double utility = 0.0;
    if (!shards.empty()) {
      std::optional<core::EpochInstance> instance;
      {
        Tracer::Scope s(tracer_, "mvcom.instance", epoch, parent);
        std::uint64_t pending_txs = 0;
        for (const Shard& shard : shards) pending_txs += shard.txs;
        std::vector<core::Committee> committees;
        committees.reserve(shards.size());
        for (std::size_t i = 0; i < shards.size(); ++i) {
          committees.push_back({static_cast<std::uint32_t>(i), shards[i].txs,
                                std::max(0.0, shards[i].submit_time - start)});
        }
        const auto capacity = static_cast<std::uint64_t>(
            config_.capacity_fraction * static_cast<double>(pending_txs));
        instance.emplace(std::move(committees), config_.alpha, capacity,
                         config_.n_min);
      }
      const std::uint64_t se_seed = Rng::stream(config_.seed, 4 * epoch + 1)();
      std::optional<core::SeScheduler> scheduler;
      {
        Tracer::Scope s(tracer_, "mvcom.se_ctor", epoch, parent);
        scheduler.emplace(*instance, config_.se, se_seed);
      }
      scheduler->set_obs(obs::ObsContext{&registry_, nullptr});
      core::Selection seed_sel;
      {
        Tracer::Scope s(tracer_, "mvcom.greedy_seed", epoch, parent);
        seed_sel = greedy_seed(*instance);
      }
      if (config_.warm_start && !seed_sel.empty()) {
        Tracer::Scope s(tracer_, "mvcom.se_warm_start", epoch, parent);
        (void)scheduler->warm_start(seed_sel);
      }
      core::SeResult se;
      {
        Tracer::Scope s(tracer_, "mvcom.se_run", epoch, parent);
        se = scheduler->run();
      }
      se_iterations += se.iterations;
      if (se.feasible) {
        keep = se.best;
        utility = se.utility;
      }
    }

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

    double final_latency = 0.0;
    std::uint64_t des_digest = 0;
    std::uint64_t des_events = 0;
    {
      Tracer::Scope s(tracer_, "consensus.final_pbft", epoch, parent);
      sim::Simulator des;
      const auto link = std::make_shared<net::LognormalLatency>(SimTime(0.15),
                                                                SimTime(0.05));
      net::Network network(des, Rng::stream(config_.seed, 4 * epoch + 2), link,
                           config_.final_replicas);
      std::vector<net::NodeId> members(config_.final_replicas);
      std::iota(members.begin(), members.end(), net::NodeId{0});
      consensus::PbftCluster cluster(des, network, consensus::PbftConfig{},
                                     Rng::stream(config_.seed, 4 * epoch + 3),
                                     members);
      const crypto::Digest payload = crypto::MerkleTree(selected_roots).root();
      consensus::PbftResult final_result;
      cluster.start_consensus(payload, [&](const consensus::PbftResult& r) {
        final_result = r;
      });
      des.run();
      final_latency = final_result.committed
                          ? final_result.latency.seconds()
                          : consensus::PbftConfig{}.horizon.seconds();
      des_digest = des.order_digest();
      des_events = des.events_executed();
    }
    final_events += des_events;
    const double commit = start + ddl + final_latency;
    prev_commit_ = commit;

    {
      Tracer::Scope s(tracer_, "txn.age", epoch, parent);
      for (std::size_t i = 0; i < shards.size(); ++i) {
        if (i < keep.size() && keep[i] != 0) {
          txn::ShardBlocks provenance;
          provenance.committee_id = shards[i].id;
          provenance.block_indices = shards[i].block_indices;
          (void)txn::shard_age_profile(trace_, provenance, commit);
        } else {
          carried_.push_back(std::move(shards[i]));
        }
      }
    }
    {
      Tracer::Scope s(tracer_, "chain.extend", epoch, parent);
      chain_.extend(std::move(selected_roots), committed_txs, commit,
                    "final-committee", randomness(epoch));
    }

    std::uint64_t digest = common::kFnv1aBasis;
    digest = fnv1a_mix(digest, formed.digest);
    digest = fnv1a_mix(digest, des_digest);
    digest = fnv1a_mix(digest, des_events);
    digest = fnv1a_mix(digest, bits_of(utility));
    digest = fnv1a_mix(digest, bits_of(commit));
    digest = fnv1a_mix(digest, committed_txs);
    for (std::size_t i = 0; i < keep.size(); ++i) {
      if (keep[i] != 0) digest = fnv1a_mix(digest, i);
    }
    return digest;
  }

  const txn::Trace& trace_;
  pipeline::PipelineConfig config_;
  Tracer& tracer_;
  obs::MetricsRegistry& registry_;
  double start_ = 0.0;
  double window_ = 0.0;
  std::vector<Shard> carried_;
  double prev_commit_ = 0.0;
  chain::RootChain chain_;
};

/// Runs `epochs` epochs of the pipeline; returns per-op walls and digests.
struct PipelineRun {
  std::vector<double> op_walls;
  std::vector<std::uint64_t> digests;
};

PipelineRun run_pipeline(const txn::Trace& trace,
                         const pipeline::PipelineConfig& config,
                         std::size_t epochs) {
  PipelineRun out;
  pipeline::EpochPipeline pipe(trace, config);
  auto last = Clock::now();
  pipe.run([&](const pipeline::EpochReport& r) {
    const auto now = Clock::now();
    out.op_walls.push_back(seconds_between(last, now));
    last = now;
    out.digests.push_back(r.event_order_digest);
    if (out.digests.size() >= epochs) pipe.request_stop();
  });
  return out;
}

void traced(const Options& options, Result& result) {
  const Shape shape = shape_for(options);
  const txn::Trace trace = make_trace(shape, options.seed);
  const pipeline::PipelineConfig config =
      make_config(shape, episode_seed(options.seed, 0));
  const std::size_t k = shape.episode_epochs;

  // Untraced: the timed configuration over whole episodes until there are
  // enough ops for a p90. The first episode anchors the overlap ratio and
  // the replay's digests.
  const PipelineRun overlapped = run_pipeline(trace, config, k);
  std::vector<double> untraced_walls = overlapped.op_walls;
  for (std::size_t episode = 1; untraced_walls.size() < kMinTimedOps;
       ++episode) {
    const PipelineRun more = run_pipeline(
        trace, make_config(shape, episode_seed(options.seed, episode)),
        shape.episode_epochs);
    untraced_walls.insert(untraced_walls.end(), more.op_walls.begin(),
                          more.op_walls.end());
  }
  pipeline::PipelineConfig sequential_config = config;
  sequential_config.overlap_depth = 1;
  sequential_config.workers = 0;
  const PipelineRun sequential = run_pipeline(trace, sequential_config, k);
  result.check(overlapped.digests == sequential.digests,
               "serve: depth-2 digests differ from the sequential reference");

  Tracer tracer;
  obs::MetricsRegistry registry;
  Replay replay(trace, config, tracer, registry);
  std::vector<std::uint64_t> digests;
  for (std::size_t e = 0; e < k; ++e) digests.push_back(replay.step(e));
  result.attempted += k;
  const bool match = digests == overlapped.digests;

  const double ops = static_cast<double>(k);
  const auto per_op = [&](const char* name) {
    return tracer.total_seconds(name) / ops;
  };
  const double stage_a = tracer.total_seconds("pipeline.stage_a");
  const double stage_b = tracer.total_seconds("pipeline.stage_b");
  const double accepts =
      counter_total(registry, "mvcom_se_transitions_total", "accept");
  const double proposals = counter_total(registry, "mvcom_se_transitions_total");
  result.set("txn.slice_s", per_op("txn.slice"), "s");
  result.set("txn.latency_s", per_op("txn.latency"), "s");
  result.set("crypto.shard_root_s", per_op("crypto.shard_root"), "s");
  result.set("crypto.pow_s", per_op("crypto.pow"), "s");
  result.set("crypto.pow_hashes", static_cast<double>(replay.pow_hashes) / ops,
             "count");
  result.set("mvcom.instance_s", per_op("mvcom.instance"), "s");
  result.set("mvcom.se_ctor_s", per_op("mvcom.se_ctor"), "s");
  result.set("mvcom.greedy_seed_s", per_op("mvcom.greedy_seed"), "s");
  result.set("mvcom.se_warm_start_s", per_op("mvcom.se_warm_start"), "s");
  result.set("mvcom.se_run_s", per_op("mvcom.se_run"), "s");
  result.set("mvcom.se_iterations",
             static_cast<double>(replay.se_iterations) / ops, "count");
  result.set("mvcom.se_iters_per_s",
             static_cast<double>(replay.se_iterations) /
                 tracer.total_seconds("mvcom.se_run"),
             "1/s");
  result.set("mvcom.se_accept_ratio",
             proposals > 0.0 ? accepts / proposals : 0.0, "ratio");
  result.set("consensus.final_pbft_s", per_op("consensus.final_pbft"), "s");
  result.set("sim.final_events", static_cast<double>(replay.final_events) / ops,
             "count");
  result.set("sim.events_per_op", static_cast<double>(replay.final_events) / ops,
             "count");
  result.set("txn.age_s", per_op("txn.age"), "s");
  result.set("chain.extend_s", per_op("chain.extend"), "s");
  result.set("pipeline.stage_a_s", stage_a / ops, "s");
  result.set("pipeline.stage_b_s", stage_b / ops, "s");
  result.set("pipeline.overlap_efficiency",
             (stage_a + stage_b) / sum(overlapped.op_walls), "ratio");
  result.set("op_wall_p90_s", percentile(untraced_walls, 0.9), "s");
  result.set("trace.coverage", tracer.coverage("op"), "ratio");
  result.set("trace.overhead",
             median(tracer.durations("op")) / median(sequential.op_walls) - 1.0,
             "ratio");
  result.set("trace.replay_match", match ? 1.0 : 0.0, "bool");
  result.set("trace.ops", ops, "count");
  tracer.write(options.out_dir + "/spans-serve-seed" +
               std::to_string(options.seed) + ".json");
}

}  // namespace

void run_serve(const Options& options, Result& result) {
  if (options.trace) {
    traced(options, result);
  } else {
    timed(options, result);
  }
}

}  // namespace perfbench
