// Cross-epoch carry-over walkthrough — the paper's Fig. 3 rule on the
// streaming epoch pipeline: a shard refused at epoch j stays pending and
// re-enters epoch j+1 with its latency measured from the new epoch's
// realized boundary (max of the window edge and the previous final block's
// commit), so "a refused committee will be more likely to be permitted with
// a new smaller two-phase latency at epoch j+1". The capacity is tight
// enough that every epoch refuses shards and some are carried twice.
//
// Run: ./build/examples/epoch_chain

#include <cstdio>

#include "common/rng.hpp"
#include "pipeline/epoch_pipeline.hpp"
#include "txn/trace_generator.hpp"

int main() {
  mvcom::common::Rng rng(17);
  mvcom::txn::TraceGeneratorConfig tc;
  tc.num_blocks = 400;
  tc.target_total_txs = 400'000;
  const mvcom::txn::Trace trace = mvcom::txn::generate_trace(tc, rng);

  mvcom::pipeline::PipelineConfig config;
  config.committees = 30;
  config.epochs = 5;
  config.n_min = 10;
  config.capacity_fraction = 0.35;  // tight: refusals are guaranteed
  config.se.threads = 4;
  config.se.max_iterations = 2000;
  config.seed = 99;
  mvcom::pipeline::EpochPipeline pipeline(trace, config);

  std::printf("epoch |   utility | committed shards | carried TXs\n");
  const auto totals =
      pipeline.run([](const mvcom::pipeline::EpochReport& r) {
        std::printf("  %2zu  | %9.1f | %7zu of %-5zu | %llu\n", r.epoch,
                    r.utility, r.shards_committed, r.shards_pending,
                    static_cast<unsigned long long>(r.carried_txs));
      });
  std::printf("\n%llu TXs ingested = %llu committed + %llu still pending\n"
              "the most-deferred shard was carried %zu times\n",
              static_cast<unsigned long long>(totals.ingested_txs),
              static_cast<unsigned long long>(totals.committed_txs),
              static_cast<unsigned long long>(totals.pending_txs),
              totals.max_shard_carries);
  std::printf("(refused shards are not lost, just deferred to a later final "
              "block)\n");
  return 0;
}
