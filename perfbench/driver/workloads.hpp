#pragma once
// The four benchmark workloads. Each fills `result` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) and records
// every correctness check it makes; none throws on a failed check.

#include "harness.hpp"

namespace perfbench {

void run_serve(const Options& options, Result& result);
void run_lanes(const Options& options, bool coarse, Result& result);
void run_campaign(const Options& options, Result& result);

}  // namespace perfbench
