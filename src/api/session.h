// Session: the one runner behind every bench and tool — dispatches ExperimentSpecs to the
// existing drivers and returns uniform RunRecord envelopes.
//
// Dispatch is deliberately a thin veneer: a Session run is bit-identical to calling the
// underlying driver directly with the same seeds (pinned by tests/session_test.cc), so
// rebasing a binary onto the API layer can never change its numbers.

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

  // Preloads a replay trace for kTrainRank specs: subsequent rank-axis runs replay it through
  // RunTraceReplay instead of building the simulated workload. The session borrows the sealed
  // trace or the view — it must outlive every run. Pass nullptr to clear. The view form
  // replays straight from the mmap'd columnar file.
  void SetReplayTrace(const Trace* trace);
  void SetReplayTrace(const TraceView* view);

 private:
  TraceCursor replay_;  // valid() once a replay trace is set
};

}  // namespace stalloc

#endif  // SRC_API_SESSION_H_
