// Plan serialization: the Plan Synthesizer runs as a standalone offline tool in the paper's
// deployment (§8); plans travel from the planning host to the training job as files.

#ifndef SRC_CORE_PLAN_IO_H_
#define SRC_CORE_PLAN_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/core/dynamic_space.h"
#include "src/core/plan.h"

namespace stalloc {

// Writes plan + dynamic reusable space as CSV with a header comment block.
void WritePlanCsv(const StaticPlan& plan, const DynamicReusableSpace& space, std::ostream& os);
bool WritePlanCsvFile(const StaticPlan& plan, const DynamicReusableSpace& space,
                      const std::string& path);

struct LoadedPlan {
  StaticPlan plan;
  DynamicReusableSpace space;
};

// Error report from a failed plan read: a message plus the 1-based line number of the
// offending input (0 when the file itself cannot be opened).
struct PlanIoError {
  std::string message;
  uint64_t line = 0;

  std::string ToString() const { return message + " (line " + std::to_string(line) + ")"; }
};

// Parses a plan produced by WritePlanCsv. Returns false and fills `err` (may be null) on
// malformed input or a plan whose decisions stomp on each other; never aborts. `*out` is
// unspecified on failure.
bool ReadPlanCsv(std::istream& is, LoadedPlan* out, PlanIoError* err);
bool ReadPlanCsvFile(const std::string& path, LoadedPlan* out, PlanIoError* err);

}  // namespace stalloc

#endif  // SRC_CORE_PLAN_IO_H_
