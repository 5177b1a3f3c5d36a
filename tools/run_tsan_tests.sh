#!/usr/bin/env bash
# Builds the repository with ThreadSanitizer (-DMVCOM_TSAN=ON) in a separate
# build tree and runs the full tier-1 ctest suite under it.
#
# SE: the scheduler steps its Γ explorers in parallel only on a pool lent to
# its constructor. tests/test_se_parallel.cpp runs that path against the
# serial one, including a join/leave storm interleaved with pool-driven
# stepping and the determinism matrix on lent pools of {1, 2, 8} workers.
# The nested path — parallel_for called from inside a batch on the same
# pool, as the serve pipeline's stage B does for the SE explorers — is
# exercised by the ThreadPoolNestingTest cases in tests/test_thread_pool.cpp
# and by the tests/test_pipeline.cpp matrix (Γ = 4 explorers nested in
# stage B at workers {1, 2, 8}, at gap_tolerance 0 and at the pipeline's
# default). The SE constructor builds its explorers on the lent pool, so
# construction happens inside that nested batch:
# SeParallelTest.CertifiedStopBuildsExplorersLazilyOnANestedLentPool runs
# it on a lent pool, and the SeCertifiedStopTest / PipelineCertifiedStop
# cases cover the serial and pipeline paths. Filter to this set with
#   tools/run_tsan_tests.sh -R 'SeParallel|SeDeterminism|SeCertified|Pipeline'
#
# Helping wait and pooled stage A: a parallel_for submitter whose own
# indices are all claimed runs single indices of other open batches instead
# of sleeping, and the pipeline's stage A is one parallel_for nested inside
# the stage-A task: task 0 draws the latencies into the shards while
# 8-committee chunks deal, hash and grind theirs, each task writing only
# its own fields and nonce slots.
# ThreadPoolHelpingTest.SubmitterRunsTheNestedBatchItsWorkerOpened,
# .HelpedExceptionIsRethrownOnlyByItsSubmitter and
# .ThreeDeepNestingWithHelpersFinishes cover the pool, and
# PipelineDeterminism.PowGrindingKeepsTheContract and
# .SparseWindowsKeepTheContract grind 40 committees (the second with most
# of them empty) at workers {0, 1, 2, 8} x depth {1, 2}. The grind's
# kernel tests (Sha256Test, PowKernelTest, PowTest) run single-threaded.
# PipelinePolicy.* runs a decision policy at workers {0, 1, 2, 8} x depth
# {1, 2}; at depth 2 stage B, and so the policy and the throw of a rejected
# selection, runs on a pool worker.
# Filter to these and the rest of the pool and pipeline suites with
#   tools/run_tsan_tests.sh -R 'ThreadPool|Pipeline|Sha256|Pow'
#
# DES lanes: ElasticoNetwork runs an epoch's committee lanes on a pool its
# caller lends. tests/test_elastico_lanes.cpp runs two scenarios (baseline
# and message-level overlay) on lent pools of {1, 2, 8} workers against the
# inline run, and nests two networks' lane batches inside one batch of the
# pool both borrow.
# Per-lane simulators/networks plus the shared obs sinks run concurrently
# there, so races in the lane substrate surface in this suite. Each lane's
# PBFT round stops its own simulator at the decision (Simulator::stop(), a
# flag of that simulator alone; no thread shares one), and the messages
# still queued are destroyed with the lane. ElasticoLaneRound.* checks a
# stopped round against one drained to quiescence, and
# PbftTest.NothingIsSentAfterTheDecision that a decided round sends nothing.
# Each lane's Simulator orders its queue by one 128-bit key per event in an
# array of its own; SimulatorTest.HeapOrderingStressMatchesReferenceSort
# (bursts and interleaved cancels),
# .NegativeZeroFiresAsPositiveZeroInScheduleOrder,
# .ExtremeInstantsFireInValueOrder and the .Stop* / .RunUntilHonorsStop*
# cases pin that order and the stop single-threaded. Stage 1 takes each
# node's committee from one PowPrefix per epoch (PowTest.PrefixMatches*).
# The fabric tests (FabricDeterminism) fork their workers with no pool
# alive; FabricDeterminism.WorkerCountsOnlyWhenAsked runs the worker loop
# in the test process over a channel pair, with and without its registry.
# Filter to the simulator, the lanes, PBFT, PoW and the fabric with
#   tools/run_tsan_tests.sh -R 'Simulator|ElasticoLane|SimKernelsDifferential|Fabric|Pbft|Pow'
# and add 'ThreadPool|SeParallel|Pipeline' for the pool, SE and the
# pipeline.
#
# Usage: tools/run_tsan_tests.sh [extra ctest args…]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-tsan"

# Fail the run on the first race report instead of only logging it.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

cmake -B "${BUILD}" -S "${ROOT}" -DMVCOM_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j"$(nproc)"
ctest --test-dir "${BUILD}" --output-on-failure -j"$(nproc)" "$@"
