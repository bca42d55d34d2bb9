// The three perfbench workloads. Each runs in its own process (peak RSS is monotone and set-up
// must not leak across workloads), takes its seed from the command line, and reports through
// one Report: untraced passes through the public Session front door give the end-to-end
// metrics; traced passes call the layers one by one from this directory's code and give the
// per-layer split. Each returns the process exit code.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "perfbench/src/harness.h"

namespace perfbench {

int RunStorm(const Args& args);
int RunTrainFig8(const Args& args);
int RunClusterDay(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
