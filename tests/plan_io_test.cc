#include "src/core/plan_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/planner.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

SynthesisResult SampleSynthesis() {
  TrainConfig c;
  c.parallel.pp = 2;
  c.parallel.ep = 4;
  c.parallel.dp = 4;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  c.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder wb(Qwen15_MoE_A27B(), c);
  return SynthesizePlan(wb.Build(3));
}

TEST(PlanIo, RoundtripPreservesDecisions) {
  SynthesisResult s = SampleSynthesis();
  std::stringstream ss;
  WritePlanCsv(s.plan, s.dyn_space, ss);
  LoadedPlan back;
  PlanIoError err;
  ASSERT_TRUE(ReadPlanCsv(ss, &back, &err)) << err.ToString();

  ASSERT_EQ(back.plan.decisions.size(), s.plan.decisions.size());
  EXPECT_EQ(back.plan.pool_size, s.plan.pool_size);
  EXPECT_EQ(back.plan.lower_bound, s.plan.lower_bound);
  for (size_t i = 0; i < s.plan.decisions.size(); ++i) {
    const auto& a = s.plan.decisions[i];
    const auto& b = back.plan.decisions[i];
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.padded_size, b.padded_size);
    EXPECT_EQ(a.event.id, b.event.id);
    EXPECT_EQ(a.event.size, b.event.size);
    EXPECT_EQ(a.event.ts, b.event.ts);
    EXPECT_EQ(a.event.te, b.event.te);
    EXPECT_EQ(a.event.stream, b.event.stream);
  }
}

TEST(PlanIo, RoundtripPreservesDynamicSpace) {
  SynthesisResult s = SampleSynthesis();
  ASSERT_GT(s.dyn_space.group_count(), 0u);
  std::stringstream ss;
  WritePlanCsv(s.plan, s.dyn_space, ss);
  LoadedPlan back;
  PlanIoError err;
  ASSERT_TRUE(ReadPlanCsv(ss, &back, &err)) << err.ToString();

  ASSERT_EQ(back.space.regions.size(), s.dyn_space.regions.size());
  for (const auto& [key, region] : s.dyn_space.regions) {
    auto it = back.space.regions.find(key);
    ASSERT_NE(it, back.space.regions.end());
    EXPECT_EQ(it->second, region);
  }
  ASSERT_EQ(back.space.expected_le.size(), s.dyn_space.expected_le.size());
  for (const auto& [ls, les] : s.dyn_space.expected_le) {
    ASSERT_EQ(back.space.expected_le.at(ls), les);
  }
}

TEST(PlanIo, LoadedPlanStillValid) {
  SynthesisResult s = SampleSynthesis();
  std::stringstream ss;
  WritePlanCsv(s.plan, s.dyn_space, ss);
  LoadedPlan back;
  ASSERT_TRUE(ReadPlanCsv(ss, &back, nullptr));  // ReadPlanCsv rejects stomping plans
  std::string error;
  EXPECT_TRUE(back.plan.Check(&error)) << error;
}

// A small valid plan: two decisions sharing address 0 at disjoint times.
std::string SmallPlanCsv() {
  return "# stalloc-plan v1\n"
         "# pool,1024,512\n"
         "# region,0,1,0,512,768,1024\n"
         "# expected_le,0,1,1\n"
         "event_id,addr,padded_size,size,ts,te,ps,pe,dyn,ls,le,stream\n"
         "0,0,512,500,0,5,0,0,0,-1,-1,0\n"
         "1,0,1024,1000,5,9,0,1,0,-1,-1,0\n";
}

// Reads `csv`, expecting failure; returns the error.
PlanIoError ExpectRejected(const std::string& csv) {
  std::stringstream ss(csv);
  LoadedPlan out;
  PlanIoError err;
  EXPECT_FALSE(ReadPlanCsv(ss, &out, &err)) << csv;
  EXPECT_FALSE(err.message.empty());
  return err;
}

TEST(PlanIo, ReadsHandWrittenPlan) {
  std::stringstream ss(SmallPlanCsv());
  LoadedPlan out;
  PlanIoError err;
  ASSERT_TRUE(ReadPlanCsv(ss, &out, &err)) << err.ToString();
  EXPECT_EQ(out.plan.pool_size, 1024u);
  ASSERT_EQ(out.plan.decisions.size(), 2u);
  EXPECT_EQ(out.space.regions.at({0, 1}), (std::vector<Interval>{{0, 512}, {768, 1024}}));
  EXPECT_EQ(out.space.expected_le.at(0).size(), 2u);
}

TEST(PlanIo, TruncatedPlanIsAnErrorWithItsLine) {
  const std::string csv = SmallPlanCsv();
  const PlanIoError err = ExpectRejected(csv.substr(0, csv.size() - 12));  // cut mid-row
  EXPECT_EQ(err.line, 7u);
  EXPECT_NE(err.ToString().find("line 7"), std::string::npos);
  ExpectRejected("# stalloc-plan v1\n# pool,1024,512\n");  // cut before the header
  ExpectRejected("");
}

TEST(PlanIo, NonNumericFieldsAreErrors) {
  std::string csv = SmallPlanCsv();
  csv.replace(csv.find("0,0,512,500"), 11, "0,x,512,500");
  EXPECT_EQ(ExpectRejected(csv).line, 6u);
  ExpectRejected("# pool,lots,512\nevent_id,addr\n");
  ExpectRejected("# region,0,1,0,abc\nevent_id,addr\n");
  ExpectRejected("# region,0,1,0\nevent_id,addr\n");  // odd interval list
  ExpectRejected("# expected_le,0,1,-\nevent_id,addr\n");
  ExpectRejected(SmallPlanCsv() + "2,0,512,1,0,5,0,0,0,-1,-1,999\n");   // stream out of range
  ExpectRejected(SmallPlanCsv() + "2,0,512,1,0,5,0,0,0,-1,-1,-1\n");    // negative stream
  ExpectRejected(SmallPlanCsv() + "99999999999999999999,0,512,1,9,10,0,0,0,-1,-1,0\n");  // > 2^64
  ExpectRejected(SmallPlanCsv() + "2,0,512,1,9,10,0,0,0,-1,-1, 0\n");  // stray space
}

TEST(PlanIo, BadRegionRowsAreErrors) {
  const std::string good_row = "# region,0,1,0,512,768,1024";
  for (const std::string row : {"# region,0,1,768,1024,0,512",   // unsorted
                                "# region,0,1,0,512,256,768",    // overlapping
                                "# region,0,1,0,512,768,2048"}) {  // ends past the pool
    std::string csv = SmallPlanCsv();
    csv.replace(csv.find(good_row), good_row.size(), row);
    EXPECT_EQ(ExpectRejected(csv).line, 3u) << row;
  }
  // A second row for the same (ls, le) group.
  std::string csv = SmallPlanCsv();
  csv.insert(csv.find("# expected_le"), "# region,0,1,0,256\n");
  const PlanIoError err = ExpectRejected(csv);
  EXPECT_EQ(err.line, 4u);
  EXPECT_NE(err.message.find("duplicate region"), std::string::npos) << err.message;
}

// Group rows name real layers: a negative ls or le in a region or expected_le row is an error
// with its line. (Decision rows keep -1 for events outside any layer.)
TEST(PlanIo, NegativeLayerIdsInGroupRowsAreErrors) {
  struct Case {
    const char* find;
    const char* replace;
    uint64_t line;
  };
  for (const Case& c : {Case{"# region,0,1,", "# region,-1,1,", 3},
                        Case{"# region,0,1,", "# region,0,-2147483648,", 3},
                        Case{"# expected_le,0,1,1", "# expected_le,-3,1,1", 4},
                        Case{"# expected_le,0,1,1", "# expected_le,0,1,-1", 4}}) {
    std::string csv = SmallPlanCsv();
    csv.replace(csv.find(c.find), std::string(c.find).size(), c.replace);
    const PlanIoError err = ExpectRejected(csv);
    EXPECT_EQ(err.line, c.line) << c.replace;
    EXPECT_NE(err.message.find("negative layer id"), std::string::npos) << err.message;
  }
}

TEST(PlanIo, AdjacentRegionIntervalsMerge) {
  std::string csv = SmallPlanCsv();
  const std::string good_row = "# region,0,1,0,512,768,1024";
  csv.replace(csv.find(good_row), good_row.size(), "# region,0,1,0,256,256,512,768,1024");
  std::stringstream ss(csv);
  LoadedPlan out;
  PlanIoError err;
  ASSERT_TRUE(ReadPlanCsv(ss, &out, &err)) << err.ToString();
  EXPECT_EQ(out.space.regions.at({0, 1}), (std::vector<Interval>{{0, 512}, {768, 1024}}));
}

TEST(PlanIo, ShortRowsAndBadHeadersAreErrors) {
  ExpectRejected(SmallPlanCsv() + "2,0,512,1,0,5\n");
  ExpectRejected("id,size,ts\n0,1,2\n");
  std::string csv = SmallPlanCsv();
  csv.replace(csv.find("event_id"), 8, "eventid_");
  EXPECT_EQ(ExpectRejected(csv).line, 5u);
}

TEST(PlanIo, ImpossibleDecisionsAreErrors) {
  for (const char* row : {"2,0,512,1,7,7,0,0,0,-1,-1,0",      // empty lifespan
                          "2,0,512,600,9,12,0,0,0,-1,-1,0",   // padded below the event size
                          "2,18446744073709551104,1024,1,9,12,0,0,0,-1,-1,0"}) {  // wraps
    const PlanIoError err = ExpectRejected(SmallPlanCsv() + row + "\n");
    EXPECT_NE(err.message.find("impossible decision"), std::string::npos) << err.message;
  }
}

TEST(PlanIo, StompingPlanIsAnError) {
  // A third decision live during [2, 4) at address 256 overlaps decision 0.
  const PlanIoError err = ExpectRejected(SmallPlanCsv() + "2,256,512,512,2,4,0,0,0,-1,-1,0\n");
  EXPECT_NE(err.message.find("overlaps"), std::string::npos) << err.message;
  // A decision beyond the pool.
  ExpectRejected(SmallPlanCsv() + "2,1024,512,512,0,4,0,0,0,-1,-1,0\n");
}

TEST(PlanIo, MissingFileIsAnError) {
  LoadedPlan out;
  PlanIoError err;
  EXPECT_FALSE(ReadPlanCsvFile("/nonexistent/dir/plan.csv", &out, &err));
  EXPECT_EQ(err.line, 0u);
  EXPECT_NE(err.message.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace stalloc
