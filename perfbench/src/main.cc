// stalloc_perfbench: the repository benchmark binary. Usually started through perfbench/run.py,
// which builds it first:
//
//   stalloc_perfbench --workload storm-1m|train-fig8|cluster-day [--seed N] [--seconds S]
//                     [--trace 0|1] [--smoke] [--scratch DIR] [--git-sha SHA]
//                     [--source-digest HEX]
//
// Prints the workload's readouts, one provenance line, and as its last line the JSON result
// {"correct", "attempted", "failed", "metrics"}. Refuses (exit 2) to record numbers from a
// non-Release or sanitizer build.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/workloads.h"
#include "src/api/report.h"
#include "src/common/flags.h"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  uint64_t default_seed;
  int (*run)(const Args&);
};

const Workload kWorkloads[] = {
    {"storm-1m", 42, RunStorm},
    {"train-fig8", 2002, RunTrainFig8},
    {"cluster-day", 2002, RunClusterDay},
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string seed;
  int trace = 0;
  std::string git_sha = "none";
  std::string source_digest = "none";
  args.scratch_dir = ".";
  stalloc::FlagParser flags("stalloc_perfbench", "Repository benchmark: one workload per run.");
  flags.Add("--workload", &args.workload, "NAME", "storm-1m | train-fig8 | cluster-day");
  flags.Add("--seed", &seed, "N", "workload seed (default: the workload's pinned seed)");
  flags.Add("--seconds", &args.seconds, "S", "measure for S seconds (at least one pass)");
  flags.Add("--trace", &trace, "0|1", "1 = report per-layer metrics from traced passes");
  flags.AddFlag("--smoke", &args.smoke, "tiny sizes of the workload");
  flags.Add("--scratch", &args.scratch_dir, "DIR", "directory for generated input files");
  flags.Add("--git-sha", &git_sha, "SHA", "provenance: commit of the measured sources");
  flags.Add("--source-digest", &source_digest, "HEX", "provenance: digest of the sources");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (trace != 0 && trace != 1) {
    std::fprintf(stderr, "stalloc_perfbench: --trace must be 0 or 1\n");
    return 2;
  }
  args.trace = trace == 1;

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (build_type != "Release" || !(sanitize.empty() || sanitize == "OFF")) {
    std::fprintf(stderr,
                 "stalloc_perfbench: refusing to record numbers from a %s build with sanitizer "
                 "'%s'; rebuild with CMAKE_BUILD_TYPE=Release and STALLOC_SANITIZE=OFF\n",
                 build_type.c_str(), sanitize.c_str());
    return 2;
  }

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "stalloc_perfbench: unknown --workload '%s'\n", args.workload.c_str());
    return 2;
  }
  args.seed = workload->default_seed;
  if (!seed.empty()) {
    char* end = nullptr;
    args.seed = std::strtoull(seed.c_str(), &end, 10);
    if (end == seed.c_str() || *end != '\0') {
      std::fprintf(stderr, "stalloc_perfbench: --seed must be a non-negative integer\n");
      return 2;
    }
  }

  stalloc::Json provenance = stalloc::Json::Object();
  provenance.Set("git_sha", git_sha);
  provenance.Set("source_digest", source_digest);
  provenance.Set("build_type", build_type);
  provenance.Set("telemetry_compiled", PERFBENCH_TELEMETRY);
  provenance.Set("telemetry_enabled", false);
  provenance.Set("sanitize", sanitize.empty() ? "OFF" : sanitize);
  provenance.Set("compiler", PERFBENCH_COMPILER);
  provenance.Set("nproc", static_cast<long>(::sysconf(_SC_NPROCESSORS_ONLN)));
  provenance.Set("workload", args.workload);
  provenance.Set("seed", static_cast<unsigned long long>(args.seed));
  provenance.Set("seconds", args.seconds);
  provenance.Set("trace", args.trace);
  provenance.Set("smoke", args.smoke);
  std::printf("provenance %s", provenance.Dump(0).c_str());  // Dump ends the line
  return workload->run(args);
}
