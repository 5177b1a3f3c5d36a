// mvcom — command-line driver for the library.
//
//   mvcom gen-trace <out.csv> [--blocks N] [--txs N] [--seed S]
//       Generate a synthetic Bitcoin-like transaction trace (DESIGN.md §3).
//
//   mvcom schedule <trace.csv> [--committees N] [--capacity C] [--alpha A]
//                  [--nmin K] [--gamma G] [--iters N] [--seed S]
//       Build one epoch's workload from the trace and run the SE scheduler;
//       prints the permitted committees and the selection's metrics. Exits
//       1 when no selection satisfies Eq. (3)/(4).
//
//   mvcom epoch [--nodes N] [--committee-bits B] [--seed S]
//       Run one full Elastico epoch (PoW election, PBFT committees, final
//       consensus) and print every committee's two-phase latency. Exits 1
//       when the root chain does not validate.
//
//   mvcom bounds [--committees N] [--beta B] [--spread U] [--epsilon E]
//       Evaluate Theorem 1's mixing-time bounds (natural-log scale).
//
//   mvcom serve [--epochs N] [--committees N] [--depth D] [--workers W]
//               [--blocks N] [--txs N] [--seed S] [--stream-seed S]
//               [--iters N] [--capacity-fraction F] [--grind-bits B]
//               [--checkpoint-out <file>] [--checkpoint-every N]
//               [--metrics-out <file.prom>] [--trace-out <file.json>]
//       Long-running streaming mode: ingest a synthetic transaction stream,
//       software-pipeline epoch formation against SE scheduling + final
//       consensus (the default --depth 2 overlaps epoch e+1's formation
//       with epoch e's scheduling, --depth 1 runs the sequential reference,
//       and a depth above 2 exits 1), seed each epoch with a greedy fill of
//       its pending shards and warm-start SE from it, extend the root chain
//       every epoch, and write periodic checkpoints. Each epoch line prints
//       the committed decision's gap to the fractional-knapsack bound; an
//       epoch whose seed is within 1 % of it is certified and commits the
//       seed without building an SE scheduler. A checkpoint or export file
//       that cannot be written makes the run exit 1.
//       --capacity-fraction (default 0.6) sets each epoch's Ĉ to that share
//       of its pending TXs; a value outside (0, 1], or NaN, exits 1. SIGINT
//       stops gracefully at the next epoch boundary and still flushes every
//       export file, complete and valid.
//
//   mvcom chaos [--committees N] [--capacity C] [--seed S] [--ddl T]
//               [--crashes N] [--crash-recovers N] [--stragglers N]
//               [--misreports N] [--equivocations N] [--loss-bursts N]
//       Run one supervised epoch under a randomized fault plan: committee
//       submissions are verified on admission, a heartbeat monitor detects
//       crashes, and the graceful-degradation ladder decides at the DDL.
//       Prints the plan, the utility timeline, the Theorem-2 accounting per
//       failure, and the final tier-attributed decision. Exits 1 when a
//       failure broke its Theorem-2 bound or the ladder reported infeasible
//       while a feasible selection existed.
//
//   mvcom chaos --adversary <strategy> [--epochs N] [--budget B]
//               [--committees N] [--capacity C] [--reserve N] [--risk 0|1]
//               [--inflation X] [--seed S] [--ddl T]
//       Multi-epoch STRATEGIC campaign instead of a random plan: the
//       adversary (targeted-corruption | colluding-misreport | adaptive-dos
//       | churn-storm) observes each epoch's realized decision and aims the
//       next epoch's faults at it, while the supervisor carries strikes,
//       bans, and (with --risk 1, the default) the risk-adaptive N_min
//       policy across epochs. Prints per-epoch utility/safety plus two
//       replay witnesses — the campaign decision digest and the obs
//       event-stream digest — which must be bit-identical across runs with
//       the same seed (the CliChaosDecisionDigest-* CTests pin both).
//
//   mvcom fabric [--nodes N] [--committee-bits B] [--committee-size S]
//                [--epochs N] [--workers W] [--seed S] [--verify 0|1]
//                [--kill-epoch K] [--kill-worker W] [--metrics-dir DIR]
//                [--metrics-out <file.prom>]
//       Run Elastico epochs on the multi-process shard fabric (DESIGN.md
//       §17): W forked worker processes execute the committee lanes,
//       connected by the binary wire protocol. With --verify 1 (default) a
//       second, in-process network replays the identical run and every
//       epoch's event_order_digest / makespan / final block is diffed
//       bitwise — any divergence, or a root chain that does not validate,
//       exits 1. --kill-epoch SIGKILLs a worker
//       right after that epoch's dispatch to exercise the crash-replay
//       path (the digests must STILL match). --metrics-dir makes each
//       worker export its private registry per epoch (per-process
//       Prometheus surface).
//
//   mvcom xshard [--accounts N] [--shards N] [--txs N] [--epochs N]
//                [--skew S] [--ratios 0,0.1,0.3,0.5] [--rounds R]
//                [--capacity C] [--slack K] [--scheduler greedy|dynamic]
//                [--seed S] [--txs-out <file.csv>]
//       Cross-shard ratio sweep (DESIGN.md §15): generate account-model
//       traffic at each requested cross-shard ratio, run both assembler
//       arms (conflict-aware vs random-oblivious) through the x-shard
//       scheduler, and print committed/intra/cross/deferred tallies plus a
//       per-arm ledger digest — a replay witness that must be bit-identical
//       across runs with the same seed (the CliXshardLedgerDigests CTest
//       pins its values).
//       --txs-out dumps the first epoch's AccountTx trace as CSV.
//
// The `schedule`, `chaos`, and `xshard` commands accept observability sinks:
//   --metrics-out <file.prom>   Prometheus text exposition of every counter,
//                               gauge, and histogram the run touched.
//   --trace-out <file.json>     Chrome trace-event JSON (load in Perfetto,
//                               ui.perfetto.dev). Chaos traces are
//                               dual-clocked: simulated time on pid 1, wall
//                               clock on pid 2.
//
// Every subcommand exits 2 on a flag it does not read — a misspelling such
// as --epochz, or a flag only another subcommand reads — and names it.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "analysis/theory.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "mvcom/adversary/campaign.hpp"
#include "mvcom/fault_injection.hpp"
#include "mvcom/se_scheduler.hpp"
#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/serve.hpp"
#include "fabric/coordinator.hpp"
#include "sharding/elastico.hpp"
#include "txn/accounts/model.hpp"
#include "txn/trace_generator.hpp"
#include "txn/trace_io.hpp"
#include "txn/workload.hpp"
#include "txn/xshard/scheduler.hpp"

namespace {

/// A numeric flag value that is not wholly a number of the flag's type;
/// main() prints it and exits 2.
struct BadFlag : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Parses the whole of `text` as a T (std::from_chars: no sign on unsigned
/// types, no leading space or '+', no trailing characters, in range).
template <typename T>
T parse_number(const std::string& key, const std::string& text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) {
    throw BadFlag("--" + key + ": '" + text + "' is not a valid " +
                  (std::is_unsigned_v<T> ? "non-negative integer" : "number"));
  }
  return value;
}

/// Tiny `--flag value` parser: positionals + a string map.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  /// Each subcommand names the flags it reads; any other flag (a typo, or
  /// one another subcommand reads) is a BadFlag rather than ignored.
  void allow(std::initializer_list<std::string_view> known) const {
    for (const auto& [key, value] : flags) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        throw BadFlag("unknown flag --" + key);
      }
    }
  }

  /// The flag parsed as the type of the setting it fills, so a value out
  /// of that type's range is a BadFlag rather than a narrowed number.
  template <typename T>
  [[nodiscard]] T get(const std::string& key, T fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : parse_number<T>(key, it->second);
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    return get<std::uint64_t>(key, fallback);
  }
  [[nodiscard]] double get_f64(const std::string& key,
                               double fallback) const {
    return get<double>(key, fallback);
  }
};

std::optional<Args> parse(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", token.c_str());
        return std::nullopt;
      }
      args.flags[token.substr(2)] = argv[++i];
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

/// Observability sinks requested with --metrics-out / --trace-out. Owns the
/// registry/recorder so a command can thread an ObsContext through its run
/// and flush the export files afterwards.
struct ObsSinks {
  std::string metrics_path;
  std::string trace_path;
  std::optional<mvcom::obs::MetricsRegistry> registry;
  std::optional<mvcom::obs::TraceRecorder> recorder;

  // Registry/recorder hold mutexes, so ObsSinks is neither movable nor
  // copyable — construct it in place from the parsed flags.
  explicit ObsSinks(const Args& args) {
    if (const auto it = args.flags.find("metrics-out");
        it != args.flags.end()) {
      metrics_path = it->second;
      registry.emplace();
    }
    if (const auto it = args.flags.find("trace-out"); it != args.flags.end()) {
      trace_path = it->second;
      recorder.emplace();
    }
  }

  [[nodiscard]] mvcom::obs::ObsContext context() {
    return {registry ? &*registry : nullptr, recorder ? &*recorder : nullptr};
  }

  /// Writes the requested files; an export that fails validation is not
  /// written. Returns false (after printing to stderr) if any export
  /// failed — the CI smoke job keys off the exit code.
  [[nodiscard]] bool flush() {
    bool ok = true;
    std::string error;
    if (registry) {
      if (mvcom::obs::write_prometheus_text(*registry, metrics_path, &error)) {
        std::printf("wrote %zu metric series to %s\n",
                    registry->snapshot().size(), metrics_path.c_str());
      } else {
        std::fprintf(stderr, "metrics export failed: %s\n", error.c_str());
        ok = false;
      }
    }
    if (recorder) {
      if (mvcom::obs::write_chrome_trace_json(*recorder, trace_path, &error)) {
        std::printf("wrote %zu trace events to %s (%llu dropped)\n",
                    recorder->snapshot().size(), trace_path.c_str(),
                    static_cast<unsigned long long>(recorder->dropped()));
      } else {
        std::fprintf(stderr, "trace export failed: %s\n", error.c_str());
        ok = false;
      }
    }
    return ok;
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: mvcom <gen-trace|schedule|epoch|fabric|bounds|serve|chaos|"
               "xshard> [options]\n"
               "see the header of tools/mvcom_cli.cpp for details\n");
  return 2;
}

int cmd_xshard(const Args& args) {
  args.allow({"accounts", "shards", "txs", "skew", "rounds", "capacity",
              "slack", "scheduler", "seed", "epochs", "ratios", "txs-out",
              "metrics-out", "trace-out"});
  mvcom::txn::AccountModelConfig model;
  model.num_accounts = args.get<std::uint32_t>("accounts", 50'000);
  model.num_shards = args.get<std::uint32_t>("shards", 20);
  model.txs_per_epoch = args.get_u64("txs", 20'000);
  model.zipf_skew = args.get_f64("skew", model.zipf_skew);
  mvcom::txn::XShardConfig xc;
  xc.num_shards = model.num_shards;
  xc.rounds_per_epoch = args.get<std::uint32_t>("rounds", xc.rounds_per_epoch);
  xc.shard_round_capacity = args.get_u64("capacity", xc.shard_round_capacity);
  xc.deadline_slack_rounds =
      args.get<std::uint32_t>("slack", xc.deadline_slack_rounds);
  const auto sched_it = args.flags.find("scheduler");
  if (sched_it != args.flags.end()) {
    if (sched_it->second == "greedy") {
      xc.scheduler = mvcom::txn::SchedulerPolicy::kGreedyColoring;
    } else if (sched_it->second == "dynamic") {
      xc.scheduler = mvcom::txn::SchedulerPolicy::kDynamicDeadline;
    } else {
      std::fprintf(stderr, "xshard: unknown scheduler '%s'\n",
                   sched_it->second.c_str());
      return 2;
    }
  }
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::size_t epochs = args.get_u64("epochs", 2);

  std::vector<double> ratios = {0.0, 0.1, 0.3, 0.5};
  if (const auto it = args.flags.find("ratios"); it != args.flags.end()) {
    ratios.clear();
    std::string token;
    for (const char c : it->second + ",") {
      if (c == ',') {
        if (!token.empty()) {
          ratios.push_back(parse_number<double>("ratios", token));
        }
        token.clear();
      } else {
        token += c;
      }
    }
    if (ratios.empty()) {
      std::fprintf(stderr, "xshard: --ratios needs at least one value\n");
      return 2;
    }
  }

  ObsSinks sinks(args);
  auto obs = sinks.context();

  std::printf("x-shard ratio sweep: %u accounts on %u shards, %llu TXs/epoch "
              "x %zu epochs, skew %.2f, scheduler %s, R=%u rounds, C=%llu "
              "legs/shard/round\n",
              model.num_accounts, model.num_shards,
              static_cast<unsigned long long>(model.txs_per_epoch), epochs,
              model.zipf_skew, mvcom::txn::to_string(xc.scheduler),
              xc.rounds_per_epoch,
              static_cast<unsigned long long>(xc.shard_round_capacity));
  for (const double ratio : ratios) {
    model.cross_shard_ratio = ratio;
    const mvcom::txn::AccountTxGenerator generator(model);
    if (const auto it = args.flags.find("txs-out");
        it != args.flags.end() && ratio == ratios.front()) {
      const auto epoch0 = generator.epoch_keyed(seed, 0);
      mvcom::txn::write_account_txs_csv(epoch0.txs, it->second);
      std::printf("wrote %zu account TXs to %s\n", epoch0.txs.size(),
                  it->second.c_str());
    }
    for (const auto policy : {mvcom::txn::AssemblerPolicy::kConflictAware,
                              mvcom::txn::AssemblerPolicy::kRandomOblivious}) {
      xc.assembler = policy;
      std::uint64_t committed = 0, intra = 0, cross = 0, deferred = 0;
      std::uint64_t digest = mvcom::common::kFnv1aBasis;
      for (std::size_t e = 0; e < epochs; ++e) {
        const auto epoch = generator.epoch_keyed(seed, e);
        const auto result = mvcom::txn::run_epoch(epoch, xc, seed);
        committed += result.outcome.committed_txs;
        intra += result.outcome.intra_txs;
        cross += result.outcome.cross_txs;
        deferred += result.outcome.deferred_txs;
        digest = mvcom::common::fnv1a_mix(digest, result.outcome.ledger_digest);
      }
      if (auto* m = obs.metrics()) {
        const std::string arm = mvcom::txn::to_string(policy);
        m->counter("mvcom_xshard_txs_total", "TXs by x-shard classification",
                   {{"class", "intra"}, {"assembler", arm}})
            .add(intra);
        m->counter("mvcom_xshard_txs_total", "TXs by x-shard classification",
                   {{"class", "cross"}, {"assembler", arm}})
            .add(cross);
        m->counter("mvcom_xshard_txs_total", "TXs by x-shard classification",
                   {{"class", "deferred"}, {"assembler", arm}})
            .add(deferred);
      }
      std::printf("  ratio %.2f %-16s committed %8llu (intra %8llu, cross "
                  "%7llu), deferred %7llu | ledger digest %016llx\n",
                  ratio, mvcom::txn::to_string(policy),
                  static_cast<unsigned long long>(committed),
                  static_cast<unsigned long long>(intra),
                  static_cast<unsigned long long>(cross),
                  static_cast<unsigned long long>(deferred),
                  static_cast<unsigned long long>(digest));
    }
  }
  if (!sinks.flush()) return 1;
  return 0;
}

int cmd_gen_trace(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "gen-trace: output path required\n");
    return 2;
  }
  args.allow({"blocks", "txs", "seed"});
  mvcom::txn::TraceGeneratorConfig config;
  config.num_blocks = args.get_u64("blocks", config.num_blocks);
  config.target_total_txs = args.get_u64("txs", config.target_total_txs);
  mvcom::common::Rng rng(args.get_u64("seed", 2016));
  const auto trace = mvcom::txn::generate_trace(config, rng);
  mvcom::txn::write_trace_csv(trace, args.positional[0]);
  std::printf("wrote %zu blocks / %llu TXs to %s\n", trace.blocks.size(),
              static_cast<unsigned long long>(trace.total_txs()),
              args.positional[0].c_str());
  return 0;
}

int cmd_schedule(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "schedule: trace path required\n");
    return 2;
  }
  args.allow({"committees", "seed", "capacity", "alpha", "nmin", "gamma",
              "iters", "metrics-out", "trace-out"});
  const auto trace = mvcom::txn::load_trace_csv(args.positional[0]);
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = args.get_u64("committees", 50);
  const mvcom::txn::WorkloadGenerator gen(trace, wc);
  mvcom::common::Rng rng(args.get_u64("seed", 1));
  const auto workload = gen.epoch(rng);

  const std::uint64_t capacity =
      args.get_u64("capacity", 1000 * wc.num_committees);
  const auto instance = mvcom::core::EpochInstance::from_reports(
      workload.reports, args.get_f64("alpha", 1.5), capacity,
      args.get_u64("nmin", 0));

  mvcom::core::SeParams params;
  params.threads = args.get_u64("gamma", 10);
  params.max_iterations = args.get_u64("iters", 5000);
  mvcom::core::SeScheduler scheduler(instance, params,
                                     args.get_u64("seed", 1));
  ObsSinks sinks(args);
  scheduler.set_obs(sinks.context());
  const auto result = scheduler.run();
  if (!sinks.flush()) return 1;
  if (!result.feasible) {
    std::printf("no feasible selection (capacity %llu, N_min %llu)\n",
                static_cast<unsigned long long>(capacity),
                static_cast<unsigned long long>(args.get_u64("nmin", 0)));
    return 1;
  }
  std::printf("converged after %zu iterations\n", result.iterations);
  std::printf("utility %.1f, valuable degree %.2f\n", result.utility,
              result.valuable_degree);
  std::printf("permitted %llu TXs of capacity %llu using committees:",
              static_cast<unsigned long long>(
                  instance.permitted_txs(result.best)),
              static_cast<unsigned long long>(capacity));
  for (std::size_t i = 0; i < result.best.size(); ++i) {
    if (result.best[i]) {
      std::printf(" %u", instance.committees()[i].id);
    }
  }
  std::printf("\n");
  return 0;
}

int cmd_epoch(const Args& args) {
  args.allow({"nodes", "committee-bits", "committee-size", "seed"});
  mvcom::sharding::ElasticoConfig config;
  config.num_nodes = args.get_u64("nodes", 256);
  config.committee_bits = args.get<int>("committee-bits", 4);
  config.committee_size = args.get_u64("committee-size", 8);
  mvcom::sharding::ElasticoNetwork network(
      config, mvcom::common::Rng(args.get_u64("seed", 1)));

  mvcom::common::Rng trace_rng(args.get_u64("seed", 1) + 1);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = std::max<std::uint64_t>(64, network.num_member_committees());
  tc.target_total_txs = tc.num_blocks * 1000;
  const auto trace = mvcom::txn::generate_trace(tc, trace_rng);

  const auto outcome = network.run_epoch(trace);
  for (const auto& c : outcome.committees) {
    std::printf("committee %2u: formation %8.1fs consensus %7.1fs txs %6llu %s\n",
                c.committee_id, c.formation_latency.seconds(),
                c.consensus_latency.seconds(),
                static_cast<unsigned long long>(c.tx_count),
                c.committed ? "committed" : "FAILED");
  }
  const bool valid = network.root_chain().validate_full();
  std::printf("final block: %zu shards, %llu TXs, makespan %.1fs; "
              "root chain height %llu (valid=%s)\n",
              outcome.selected.size(),
              static_cast<unsigned long long>(outcome.final_block_txs),
              outcome.epoch_makespan.seconds(),
              static_cast<unsigned long long>(network.root_chain().height()),
              valid ? "yes" : "NO");
  return valid ? 0 : 1;
}

int cmd_fabric(const Args& args) {
  args.allow({"nodes", "committee-bits", "committee-size", "failure", "loss",
              "seed", "epochs", "verify", "workers", "metrics-dir",
              "kill-epoch", "kill-worker", "metrics-out", "trace-out"});
  mvcom::sharding::ElasticoConfig config;
  config.num_nodes = args.get_u64("nodes", 128);
  config.committee_bits = args.get<int>("committee-bits", 3);
  config.committee_size = args.get_u64("committee-size", 6);
  config.pbft.verification_mean = mvcom::common::SimTime(0.2);
  config.node_failure_probability = args.get_f64("failure", 0.0);
  config.message_loss_probability = args.get_f64("loss", 0.0);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::uint64_t epochs = args.get_u64("epochs", 4);
  const bool verify = args.get_u64("verify", 1) != 0;

  mvcom::common::Rng trace_rng(seed + 1);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = std::max<std::uint64_t>(
      64, (std::size_t{1} << config.committee_bits) - 1);
  tc.target_total_txs = tc.num_blocks * 1000;
  const auto trace = mvcom::txn::generate_trace(tc, trace_rng);

  ObsSinks sinks(args);
  mvcom::fabric::FabricConfig fabric_config;
  fabric_config.workers = args.get_u64("workers", 2);
  if (const auto it = args.flags.find("metrics-dir");
      it != args.flags.end()) {
    fabric_config.metrics_dir = it->second;
  }
  mvcom::fabric::ProcessFabric fleet(fabric_config, sinks.context());
  if (const auto it = args.flags.find("kill-epoch"); it != args.flags.end()) {
    fleet.inject_kill(args.get_u64("kill-worker", 0),
                      args.get_u64("kill-epoch", 0));
  }

  mvcom::sharding::ElasticoNetwork network(config,
                                           mvcom::common::Rng(seed));
  network.set_obs(sinks.context());
  network.set_lane_executor(fleet.executor());

  // The in-process reference replays the identical epochs: same config,
  // same seed, lanes inline. Its digests are the ground truth the fabric
  // must match bitwise.
  std::optional<mvcom::sharding::ElasticoNetwork> reference;
  if (verify) reference.emplace(config, mvcom::common::Rng(seed));

  bool diverged = false;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    const auto outcome = network.run_epoch(trace);
    std::printf("epoch %llu: digest %016llx makespan %.3fs txs %llu "
                "shards %zu\n",
                static_cast<unsigned long long>(e),
                static_cast<unsigned long long>(outcome.event_order_digest),
                outcome.epoch_makespan.seconds(),
                static_cast<unsigned long long>(outcome.final_block_txs),
                outcome.selected.size());
    if (reference) {
      const auto expected = reference->run_epoch(trace);
      if (!mvcom::sharding::same_epoch(expected, outcome)) {
        diverged = true;
        std::printf("epoch %llu: DIVERGED from in-process reference "
                    "(expected digest %016llx)\n",
                    static_cast<unsigned long long>(e),
                    static_cast<unsigned long long>(
                        expected.event_order_digest));
      }
    }
  }
  const bool valid = network.root_chain().validate_full();
  std::printf("fabric: %llu epochs on %zu workers, %llu respawns, "
              "chain height %llu (valid=%s)\n",
              static_cast<unsigned long long>(epochs), fleet.workers(),
              static_cast<unsigned long long>(fleet.respawns()),
              static_cast<unsigned long long>(network.root_chain().height()),
              valid ? "yes" : "NO");
  if (verify) {
    std::printf("verify: %s\n", diverged ? "DIVERGED" : "identical");
  }
  fleet.shutdown();
  if (!sinks.flush()) return 1;
  return diverged || !valid ? 1 : 0;
}

int cmd_bounds(const Args& args) {
  args.allow({"committees", "beta", "spread", "epsilon"});
  const auto committees = args.get_u64("committees", 500);
  const double beta = args.get_f64("beta", 2.0);
  const double spread = args.get_f64("spread", 100.0);
  const double epsilon = args.get_f64("epsilon", 0.01);
  const auto bounds = mvcom::analysis::mixing_time_bounds(
      committees, beta, 0.0, spread, epsilon);
  std::printf("Theorem 1 mixing-time bounds for |I|=%llu, beta=%.2f, "
              "Umax-Umin=%.1f, eps=%.3f:\n",
              static_cast<unsigned long long>(committees), beta, spread,
              epsilon);
  std::printf("  ln(lower) = %.2f\n  ln(upper) = %.2f\n", bounds.log_lower,
              bounds.log_upper);
  std::printf("  optimality loss (1/beta)·log|F| = %.1f\n",
              mvcom::analysis::log_sum_exp_optimality_loss(committees, beta));
  return 0;
}

int cmd_chaos_adversary(const Args& args, const std::string& strategy_name) {
  args.allow({"adversary", "committees", "seed", "budget", "inflation",
              "epochs", "reserve", "alpha", "capacity", "ddl", "risk",
              "metrics-out", "trace-out"});
  const auto strategy = mvcom::core::parse_adversary_strategy(strategy_name);
  if (!strategy) {
    std::fprintf(stderr,
                 "chaos: unknown adversary '%s' (targeted-corruption | "
                 "colluding-misreport | adaptive-dos | churn-storm)\n",
                 strategy_name.c_str());
    return 2;
  }
  const std::size_t committees = args.get_u64("committees", 20);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const bool churn = *strategy == mvcom::core::AdversaryStrategy::kChurnStorm;

  mvcom::core::CampaignConfig config;
  config.adversary.strategy = *strategy;
  config.adversary.budget = args.get_f64("budget", 0.35);
  config.adversary.inflation = args.get_f64("inflation", 3.0);
  config.committees = committees;
  config.epochs = args.get_u64("epochs", 6);
  config.reserve = args.get_u64("reserve", churn ? committees : 0);

  auto& sched = config.chaos.supervisor.scheduler;
  sched.alpha = args.get_f64("alpha", 1.5);
  // Capacity with modest slack past N_min·E[s_i] (~1088 TXs/shard): a lone
  // inflated claim still fits beside the N_min−1 smallest honest shards —
  // the crowding-out regime the risk-adaptive defense exists for.
  sched.capacity = args.get_u64("capacity", 725 * committees);
  // The whole membership (and any joiner) must be admittable: an N_max
  // listening cutoff below the membership depletes the honest pool, and a
  // depleted pool is exactly what lets a forged claim fit inside the
  // capacity at the feasibility-frontier N_min. Keep the *effective* N_min
  // at 50% of the initial membership.
  sched.expected_committees = committees + config.reserve;
  sched.n_max_fraction = 1.0;
  if (config.reserve > 0) {
    sched.n_min_fraction = 0.5 * static_cast<double>(committees) /
                           static_cast<double>(committees + config.reserve);
  }
  config.chaos.ddl_seconds = args.get_f64("ddl", 1800.0);
  config.chaos.supervisor.risk.enabled = args.get_u64("risk", 1) != 0;
  config.chaos.supervisor.risk.escalation_step = 1.2;
  config.chaos.supervisor.risk.boost_cap = 8;

  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = std::max<std::uint64_t>(64, committees + config.reserve);
  tc.target_total_txs = tc.num_blocks * 1000;
  mvcom::common::Rng trace_rng(seed + 1);
  const auto trace = mvcom::txn::generate_trace(tc, trace_rng);

  // The obs event stream doubles as the replay witness, so a recorder is
  // always attached — the user's --trace-out sink when given, else a local
  // one that only feeds the digest.
  ObsSinks sinks(args);
  std::optional<mvcom::obs::TraceRecorder> local_recorder;
  mvcom::obs::ObsContext obs = sinks.context();
  if (obs.trace() == nullptr) {
    local_recorder.emplace();
    obs = {obs.metrics(), &*local_recorder};
  }
  config.chaos.obs = obs;

  const auto result =
      mvcom::core::run_adversarial_campaign(trace, config, seed);
  if (!sinks.flush()) return 1;

  std::printf("adversary %s, budget %.2f, %zu epochs, %zu committees "
              "(+%zu reserve), risk policy %s\n",
              mvcom::core::to_string(*strategy), config.adversary.budget,
              config.epochs, committees, config.reserve,
              config.chaos.supervisor.risk.enabled ? "on" : "off");
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    const auto& o = result.epochs[e];
    std::printf(
        "  epoch %2zu: %2zu faults  tier %-14s utility %10.1f  safety %.3f  "
        "honest %6llu/%6llu TXs  n_min %2zu  joins %llu  leaves %llu  "
        "skipped %llu  quar %zu  banned %zu  risk %.1f\n",
        e, o.plan.events.size(),
        mvcom::core::to_string(o.report.final_decision.tier), o.utility,
        o.safety, static_cast<unsigned long long>(o.honest_permitted_txs),
        static_cast<unsigned long long>(o.claimed_permitted_txs),
        o.report.effective_n_min,
        static_cast<unsigned long long>(o.report.joins),
        static_cast<unsigned long long>(o.report.leaves),
        static_cast<unsigned long long>(o.report.skipped_events),
        o.report.quarantined_ids.size(), o.report.banned_ids.size(),
        o.report.risk_score);
  }
  std::uint64_t honest_total = 0;
  for (const auto& o : result.epochs) honest_total += o.honest_permitted_txs;
  std::printf("mean utility %.1f, mean safety %.3f, honest permitted TXs "
              "%llu\n",
              result.mean_utility, result.mean_safety,
              static_cast<unsigned long long>(honest_total));
  std::vector<mvcom::obs::TraceEvent> trace_events;
  if (auto* t = obs.trace()) trace_events = t->snapshot();
  const std::uint64_t obs_digest = mvcom::obs::events_digest(trace_events);
  std::printf("decision digest: %016llx\n",
              static_cast<unsigned long long>(result.decision_digest));
  std::printf("obs events digest: %016llx\n",
              static_cast<unsigned long long>(obs_digest));
  std::printf("infeasible-while-feasible: %s\n",
              result.infeasible_while_feasible ? "VIOLATED" : "never");
  return result.infeasible_while_feasible ? 1 : 0;
}

int cmd_chaos(const Args& args) {
  if (const auto it = args.flags.find("adversary"); it != args.flags.end()) {
    return cmd_chaos_adversary(args, it->second);
  }
  args.allow({"committees", "seed", "crashes", "crash-recovers", "stragglers",
              "misreports", "equivocations", "loss-bursts", "alpha",
              "capacity", "ddl", "metrics-out", "trace-out"});
  const std::size_t committees = args.get_u64("committees", 20);
  const std::uint64_t seed = args.get_u64("seed", 1);

  // Calibrated workload (§VI-A): one ~1000-TX block per committee.
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = std::max<std::uint64_t>(64, committees);
  tc.target_total_txs = tc.num_blocks * 1000;
  mvcom::common::Rng trace_rng(seed + 1);
  const auto trace = mvcom::txn::generate_trace(tc, trace_rng);
  mvcom::txn::WorkloadConfig wc;
  wc.num_committees = committees;
  const mvcom::txn::WorkloadGenerator gen(trace, wc);
  mvcom::common::Rng workload_rng(seed + 2);
  const auto chaos_committees = mvcom::core::chaos_committees_from_reports(
      gen.epoch(workload_rng).reports);

  mvcom::core::FaultPlanConfig pc;
  pc.crashes = args.get_u64("crashes", 1);
  pc.crash_recovers = args.get_u64("crash-recovers", 1);
  pc.stragglers = args.get_u64("stragglers", 1);
  pc.misreports = args.get_u64("misreports", 1);
  pc.equivocations = args.get_u64("equivocations", 0);
  pc.loss_bursts = args.get_u64("loss-bursts", 0);
  mvcom::common::Rng plan_rng(seed + 3);
  const auto plan =
      mvcom::core::FaultPlan::randomized(pc, committees, plan_rng);

  mvcom::core::ChaosConfig config;
  config.supervisor.scheduler.alpha = args.get_f64("alpha", 1.5);
  // Default capacity covers ~70% of the calibrated workload (~775 TXs per
  // committee), so the epoch is genuinely capacity-constrained and the SE
  // scheduler bootstraps (bootstrap requires total claimed TXs > capacity)
  // while an N_min-sized selection still fits (feasibility).
  config.supervisor.scheduler.capacity =
      args.get_u64("capacity", 550 * committees);
  config.supervisor.scheduler.expected_committees = committees;
  config.ddl_seconds = args.get_f64("ddl", 1800.0);

  ObsSinks sinks(args);
  config.obs = sinks.context();
  const auto report =
      mvcom::core::run_chaos_epoch(chaos_committees, plan, config, seed);
  if (!sinks.flush()) return 1;

  std::printf("fault plan (%zu events):\n", plan.events.size());
  for (const auto& e : plan.events) {
    std::printf("  t=%7.1fs  %-18s committee %2u  duration %5.0fs  x%.2f\n",
                e.at_seconds, mvcom::core::to_string(e.kind), e.committee_id,
                e.duration_seconds, e.magnitude);
  }
  std::printf("timeline (every %.0fs):\n",
              mvcom::core::kExploreTickSeconds * 4);
  for (std::size_t i = 0; i < report.timeline.size(); i += 4) {
    const auto& p = report.timeline[i];
    std::printf("  t=%7.1fs  %-14s utility %10.1f%s\n", p.at_seconds,
                mvcom::core::to_string(p.tier), p.utility,
                p.feasible ? "" : "  (infeasible)");
  }
  std::printf("admission: %llu admitted, %llu readmitted, %llu quarantined, "
              "%llu refused, %llu dropped sends\n",
              static_cast<unsigned long long>(report.admitted),
              static_cast<unsigned long long>(report.readmitted),
              static_cast<unsigned long long>(report.quarantine_events),
              static_cast<unsigned long long>(report.refused),
              static_cast<unsigned long long>(report.dropped_submissions));
  std::printf("detector: %llu failures, %llu recoveries\n",
              static_cast<unsigned long long>(report.failures_detected),
              static_cast<unsigned long long>(report.recoveries_detected));
  for (const auto& f : report.failures) {
    std::printf("  failure t=%7.1fs committee %2u: utility %9.1f -> %9.1f "
                "(Theorem-2 bound %9.1f, %s)\n",
                f.sim_time_seconds, f.committee_id, f.utility_before,
                f.utility_after, f.perturbation_bound,
                f.within_bound ? "ok" : "VIOLATED");
  }
  const auto& d = report.final_decision;
  if (!d.decision.feasible) {
    std::printf("final decision: INFEASIBLE (%s)\n",
                mvcom::core::to_string(d.reason));
  } else {
    std::printf("final decision [%s]: utility %.1f, %zu committees, "
                "%llu TXs of %llu capacity\n",
                mvcom::core::to_string(d.tier), d.decision.utility,
                d.decision.permitted_ids.size(),
                static_cast<unsigned long long>(d.decision.permitted_txs),
                static_cast<unsigned long long>(
                    config.supervisor.scheduler.capacity));
  }
  std::printf("Theorem 2 respected: %s; infeasible-while-feasible: %s\n",
              d.theorem2_respected ? "yes" : "NO",
              report.infeasible_while_feasible ? "VIOLATED" : "never");
  return report.infeasible_while_feasible || !d.theorem2_respected ? 1 : 0;
}

// The SIGINT handler may only touch lock-free atomics; request_stop() is a
// single relaxed store, so routing the signal through this pointer is
// async-signal-safe.
std::atomic<mvcom::pipeline::ServeSession*> g_serve_session{nullptr};

extern "C" void serve_sigint_handler(int) {
  if (auto* session = g_serve_session.load(std::memory_order_relaxed)) {
    session->request_stop();
  }
}

int cmd_serve(const Args& args) {
  args.allow({"epochs", "committees", "depth", "workers", "seed",
              "capacity-fraction", "iters", "grind-bits", "blocks", "txs",
              "stream-seed", "metrics-out", "trace-out", "checkpoint-out",
              "checkpoint-every"});
  mvcom::pipeline::ServeConfig config;
  config.pipeline.epochs = args.get_u64("epochs", 8);
  config.pipeline.committees = args.get_u64("committees", 50);
  config.pipeline.overlap_depth = args.get_u64("depth", 2);
  config.pipeline.workers = args.get_u64("workers", 2);
  config.pipeline.seed = args.get_u64("seed", 1);
  config.pipeline.capacity_fraction =
      args.get_f64("capacity-fraction", config.pipeline.capacity_fraction);
  config.pipeline.se.max_iterations = args.get_u64("iters", 2000);
  config.pipeline.se.convergence_window =
      std::min<std::size_t>(config.pipeline.se.max_iterations, 500);
  const std::uint64_t grind_bits = args.get_u64("grind-bits", 0);
  if (grind_bits > 63) {
    throw BadFlag("--grind-bits: " + std::to_string(grind_bits) +
                  " is outside 0..63");
  }
  config.pipeline.pow_grind_bits = static_cast<int>(grind_bits);
  config.stream.num_blocks = args.get_u64("blocks", 600);
  config.stream.target_total_txs = args.get_u64("txs", 600'000);
  config.stream_seed = args.get_u64("stream-seed", 2016);
  const auto flag = [&](const char* key) {
    const auto it = args.flags.find(key);
    return it == args.flags.end() ? std::string() : it->second;
  };
  config.metrics_out = flag("metrics-out");
  config.trace_out = flag("trace-out");
  config.checkpoint_out = flag("checkpoint-out");
  config.checkpoint_every = args.get_u64("checkpoint-every", 1);

  mvcom::pipeline::ServeSession session(config);
  g_serve_session.store(&session, std::memory_order_relaxed);
  std::signal(SIGINT, serve_sigint_handler);

  std::printf("serving %llu epochs x %llu committees "
              "(depth %zu, workers %zu, warm start %s)\n",
              static_cast<unsigned long long>(config.pipeline.epochs),
              static_cast<unsigned long long>(config.pipeline.committees),
              config.pipeline.overlap_depth, config.pipeline.workers,
              config.pipeline.warm_start ? "on" : "off");
  std::size_t certified = 0;
  const auto summary =
      session.run([&certified](const mvcom::pipeline::EpochReport& r) {
        if (r.certified) ++certified;
        std::printf("epoch %3zu: start %9.1fs commit %9.1fs  "
                    "utility %12.1f  gap %6.3f%%%s  committed %8llu TXs  "
                    "carried %8llu  digest %016llx\n",
                    r.epoch, r.start, r.commit, r.utility,
                    100.0 * mvcom::core::relative_gap(r.utility_bound,
                                                      r.utility),
                    r.certified ? " (certified)" : "",
                    static_cast<unsigned long long>(r.committed_txs),
                    static_cast<unsigned long long>(r.carried_txs),
                    static_cast<unsigned long long>(r.event_order_digest));
        std::fflush(stdout);
      });
  std::signal(SIGINT, SIG_DFL);
  g_serve_session.store(nullptr, std::memory_order_relaxed);

  const auto& t = summary.totals;
  std::printf("%s after %zu epochs: ingested %llu, committed %llu, "
              "pending %llu TXs (digest %016llx)\n",
              t.stopped_early ? "stopped early" : "stream drained",
              t.epochs_run, static_cast<unsigned long long>(t.ingested_txs),
              static_cast<unsigned long long>(t.committed_txs),
              static_cast<unsigned long long>(t.pending_txs),
              static_cast<unsigned long long>(t.digest));
  std::printf("certified within %.2f%% of the fractional bound: %zu of %zu "
              "epochs (SE skipped or stopped early)\n",
              100.0 * config.pipeline.se.gap_tolerance, certified,
              t.epochs_run);
  std::printf("chain valid: %s; checkpoints written: %zu; "
              "artifacts valid: %s\n",
              summary.chain_valid ? "yes" : "NO", summary.checkpoints_written,
              summary.artifacts_valid ? "yes" : "NO");
  return summary.chain_valid && summary.artifacts_valid ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const auto args = parse(argc, argv, 2);
  if (!args) return 2;
  try {
    if (command == "gen-trace") return cmd_gen_trace(*args);
    if (command == "schedule") return cmd_schedule(*args);
    if (command == "epoch") return cmd_epoch(*args);
    if (command == "fabric") return cmd_fabric(*args);
    if (command == "bounds") return cmd_bounds(*args);
    if (command == "serve") return cmd_serve(*args);
    if (command == "chaos") return cmd_chaos(*args);
    if (command == "xshard") return cmd_xshard(*args);
  } catch (const BadFlag& e) {
    std::fprintf(stderr, "mvcom %s: %s\n", command.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mvcom %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage();
}
