// Session: the one runner behind every bench and tool — runs ExperimentSpecs and returns
// uniform RunRecord envelopes.
//
// Every per-device axis (a training rank, each rank of a job, a serving day, a replayed trace)
// runs one pipeline: build the run trace, and for the plan kinds profile, synthesize the plan
// and reserve the pool; then replay through the allocator. The cluster axis runs RunCluster.
// Outcomes are deterministic in the spec and seeds (pinned by tests/session_test.cc).

#ifndef SRC_API_SESSION_H_
#define SRC_API_SESSION_H_

#include <string>
#include <vector>

#include "src/api/spec.h"
#include "src/cluster/cluster_workload.h"
#include "src/trace/trace.h"
#include "src/trace/trace_v2.h"

namespace stalloc {

class Session {
 public:
  Session() = default;

  // Checks every name the spec references (allocators, model, scenario, policy, axis fit —
  // e.g. plan-pipeline allocators cannot front a shared cluster device). Returns false and
  // fills `error` on the first problem; Run/RunOne abort on specs that fail validation.
  static bool Validate(const ExperimentSpec& spec, std::string* error);

  // Runs the full matrix: every allocator in spec.allocators x spec.repeats repeats, in
  // declaration order (repeat-major per allocator).
  std::vector<RunRecord> Run(const ExperimentSpec& spec);

  // Runs one (allocator, repeat) cell of the matrix.
  RunRecord RunOne(const ExperimentSpec& spec, const std::string& allocator, int repeat = 0);

  // Cluster variant over an explicit job queue (benches with bespoke workloads); the spec still
  // provides the fleet shape (devices, capacity, policy, retries, allocator overrides).
  RunRecord RunClusterJobs(const ExperimentSpec& spec, const std::string& allocator,
                           const std::vector<ClusterJob>& jobs, int repeat = 0);

  // Preloads a replay trace for kTrainRank specs: subsequent rank-axis runs replay it instead
  // of building the simulated workload. Baseline kinds replay it straight off the cursor; the
  // plan kinds treat it as its own profile (the self-plan upper bound), with or without phase
  // structure: a phaseless trace plans as one phase group. The session borrows the sealed trace
  // or the view — it must outlive every run. Pass nullptr to clear. The view form replays
  // straight from the mmap'd columnar file.
  void SetReplayTrace(const Trace* trace);
  void SetReplayTrace(const TraceView* view);

 private:
  TraceCursor replay_;  // valid() once a replay trace is set
};

// Folds spec->config_tag into spec->train but keeps train.parallel.vpp_chunks as given, so an
// explicit --vpp wins over the tag's own choice. Returns false and fills `error` on an unknown
// tag (ApplyConfigTag would abort on it); the rest of the spec is left to Validate.
bool PinVppOverConfigTag(ExperimentSpec* spec, std::string* error);

}  // namespace stalloc

#endif  // SRC_API_SESSION_H_
