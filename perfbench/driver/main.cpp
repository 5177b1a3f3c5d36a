// perfbench — runs one benchmark workload and prints its result.
//
//   perfbench --workload <serve|lanes_coarse|lanes_fine|campaign>
//             --seed N --seconds S --trace 0|1
//             [--tiny 0|1] [--tamper lane|eq4|digest] [--out-dir DIR]
//
// --trace 0 times the workload's public entry point and prints the
// end-to-end metrics; --trace 1 prints the per-layer metrics of a separate
// traced run and writes its spans to DIR. The last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}; the process
// exits 1 when any correctness check failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <malloc.h>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve|lanes_coarse|lanes_fine|campaign> --seed N --seconds S "
               "--trace 0|1 [--tiny 0|1] [--tamper lane|eq4|digest] "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

std::string result_json(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.problems.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, metric] : result.metrics) {
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena: with per-thread arenas the peak resident set depends
  // on which pool thread ran which stage, and varied 2x between runs of
  // identical serve inputs.
  mallopt(M_ARENA_MAX, 1);
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value != "0";
      } else if (key == "--tiny") {
        options.tiny = value != "0";
      } else if (key == "--tamper") {
        options.tamper = value;
      } else if (key == "--out-dir") {
        options.out_dir = value;
      } else {
        return usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");

  Result result;
  try {
    if (options.workload == "serve") {
      perfbench::run_serve(options, result);
    } else if (options.workload == "lanes_coarse") {
      perfbench::run_lanes(options, true, result);
    } else if (options.workload == "lanes_fine") {
      perfbench::run_lanes(options, false, result);
    } else if (options.workload == "campaign") {
      perfbench::run_campaign(options, result);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    ++result.failed;
    result.problems.push_back(std::string("exception: ") + e.what());
  }
  if (result.attempted == 0) result.problems.push_back("no op attempted");

  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  const std::string host = perfbench::host_facts_json();
  const std::string json = result_json(result);
  perfbench::ensure_directory(options.out_dir);
  const std::string path = options.out_dir + "/result-" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::ofstream file(path);
  file << "{\"host\": " << host << ", \"result\": " << json
       << ", \"op_walls\": [";
  for (std::size_t i = 0; i < result.op_walls.size(); ++i) {
    file << (i ? "," : "") << result.op_walls[i];
  }
  file << "]}\n";
  std::printf("host: %s\n%s\n", host.c_str(), json.c_str());
  return result.problems.empty() ? 0 : 1;
}
