#include "perfbench/src/harness.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/api/report.h"
#include "src/common/check.h"

namespace perfbench {

const std::vector<std::string>& UnplannedKinds() {
  static const std::vector<std::string> kinds = {"native",  "torch-caching", "torch-expandable",
                                                 "gmlake",  "paged-kv",      "vmm"};
  return kinds;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

uint64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
    }
  }
  return 0;
}

double LayerClock::Ms(const std::string& layer) const {
  auto it = ms_.find(layer);
  return it == ms_.end() ? 0 : it->second;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"run_s", "s"},         {"ns_per_op", "ns"},          {"setup_s", "s"},
      {"peak_rss_mb", "MB"},  {"completed_frac", "ratio"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> m = {
        {"trace.gen_ms", "ms"},           {"trace.open_ms", "ms"},
        {"trace.file_mb", "MB"},          {"trainsim.build_ms", "ms"},
        {"trainsim.events", "count"},     {"servesim.build_ms", "ms"},
        {"servesim.events", "count"},     {"profiler.profile_ms", "ms"},
        {"profiler.native_api_calls", "count"},
        {"planner.plan_ms", "ms"},        {"planner.phase_groups", "count"},
        {"planner.fusions", "count"},     {"planner.layers", "count"},
        {"planner.greedy_win_ratio", "ratio"},
        {"planner.plan_efficiency", "ratio"},
        {"stalloc.init_ms", "ms"},        {"stalloc.static_hit_ratio", "ratio"},
        {"stalloc.dynamic_reuse_ratio", "ratio"},
    };
    std::vector<std::string> kinds = UnplannedKinds();
    kinds.push_back("stalloc");
    for (const std::string& kind : kinds) {
      m.push_back({"replay.ns_per_op." + kind, "ns"});
    }
    m.push_back({"replay.ns_per_op.raw-null", "ns"});
    m.push_back({"replay.ns_per_op.base-null", "ns"});
    m.push_back({"replay.ledger_ns_per_op", "ns"});
    for (const std::string& kind : kinds) {
      m.push_back({"alloc.policy_ns_per_op." + kind, "ns"});
    }
    for (const std::string& kind : kinds) {
      m.push_back({"alloc." + kind + ".frag_ratio", "ratio"});
    }
    for (const std::string& kind : kinds) {
      m.push_back({"gpu." + kind + ".api_calls", "count"});
      m.push_back({"gpu." + kind + ".release_calls", "count"});
      m.push_back({"gpu." + kind + ".api_cost_us", "us"});
    }
    m.insert(m.end(), {{"cluster.gen_ms", "ms"},
                       {"cluster.ops_replayed", "count"},
                       {"cluster.oom_events", "count"},
                       {"cluster.requeues", "count"},
                       {"cluster.rejected_oom", "count"},
                       {"fleet.serial_frac", "ratio"},
                       {"fleet.residual_ms", "ms"},
                       {"api.report_ms", "ms"},
                       {"traced.overhead_pct", "%"},
                       {"traced.unattributed_pct", "%"},
                       {"stalloc_frag_ratio", "ratio"},
                       {"slo_attainment", "ratio"},
                       {"error_rate", "ratio"}});
    return m;
  }();
  return metrics;
}

void SampleTracedMeta(double traced_s, double run_s, double spans_ms, Report* report) {
  report->Sample("traced.overhead_pct", (traced_s - run_s) / run_s * 100);
  report->Sample("traced.unattributed_pct", (run_s * 1e3 - spans_ms) / (run_s * 1e3) * 100);
}

namespace {

const MetricSpec* FindMetric(const std::string& name) {
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *table) {
      if (spec.name == name) {
        return &spec;
      }
    }
  }
  return nullptr;
}

}  // namespace

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Report::Sample(const std::string& name, double value) {
  STALLOC_CHECK(FindMetric(name) != nullptr, << "perfbench: undeclared metric " << name);
  samples_[name].push_back(value);
}

bool Report::HasSamples(const std::string& name) const { return samples_.count(name) > 0; }

void SampleReplaySplit(const std::map<std::string, KindTally>& tallies, Report* report) {
  auto raw = tallies.find("raw-null");
  auto base = tallies.find("base-null");
  const bool split = raw != tallies.end() && base != tallies.end();
  if (split) {
    report->Sample("replay.ledger_ns_per_op", base->second.NsPerOp() - raw->second.NsPerOp());
  }
  for (const auto& [kind, tally] : tallies) {
    report->Sample("replay.ns_per_op." + kind, tally.NsPerOp());
    if (kind == "raw-null" || kind == "base-null") {
      continue;
    }
    if (split) {
      report->Sample("alloc.policy_ns_per_op." + kind, tally.NsPerOp() - base->second.NsPerOp());
    }
    report->Sample("alloc." + kind + ".frag_ratio", Ratio(tally.frag_sum, tally.replays));
    report->Sample("gpu." + kind + ".api_calls", static_cast<double>(tally.api_calls));
    report->Sample("gpu." + kind + ".release_calls", static_cast<double>(tally.release_calls));
    report->Sample("gpu." + kind + ".api_cost_us", tally.api_cost_us);
  }
}

int Report::Finish() {
  Sample("error_rate", Ratio(static_cast<double>(failed_), static_cast<double>(attempted_)));
  auto value = [this](const std::string& name) { return Median(samples_.at(name)); };
  const std::vector<double>& passes = samples_.at("run_s");
  std::printf("%zu untraced passes: run_s min %.6g, median %.6g, max %.6g\n", passes.size(),
              *std::min_element(passes.begin(), passes.end()), value("run_s"),
              *std::max_element(passes.begin(), passes.end()));

  // The eight end-to-end readouts of the workload, printed on every run; the ones a workload
  // has no unit for (no STAlloc cell, no serving SLO) read n/a.
  std::printf("end-to-end (%s, seed %llu):\n", args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed));
  for (const char* name : {"run_s", "ns_per_op", "setup_s", "peak_rss_mb", "stalloc_frag_ratio",
                           "completed_frac", "slo_attainment", "error_rate"}) {
    const MetricSpec& spec = *FindMetric(name);
    if (HasSamples(name)) {
      std::printf("  %-20s %.6g %s\n", name, value(name), spec.unit.c_str());
    } else {
      std::printf("  %-20s n/a\n", name);
    }
  }

  stalloc::Json metrics = stalloc::Json::Object();
  const std::vector<MetricSpec>& table = args_.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (args_.trace) {
    std::printf("per-layer (median of traced passes; 0 = layer not used by this workload):\n");
  }
  for (const MetricSpec& spec : table) {
    // Every end-to-end metric is measured on every workload; a per-layer metric of a layer
    // the workload never calls reads 0.
    STALLOC_CHECK(args_.trace || HasSamples(spec.name),
                  << "perfbench: end-to-end metric " << spec.name << " was not measured");
    const double v = HasSamples(spec.name) ? value(spec.name) : 0.0;
    if (args_.trace) {
      std::printf("  %-36s %.6g %s\n", spec.name.c_str(), v, spec.unit.c_str());
    }
    stalloc::Json entry = stalloc::Json::Object();
    entry.Set("value", v);
    entry.Set("unit", spec.unit);
    metrics.Set(spec.name, std::move(entry));
  }
  stalloc::Json result = stalloc::Json::Object();
  result.Set("correct", failed_ == 0 && attempted_ > 0);
  result.Set("attempted", static_cast<unsigned long long>(attempted_));
  result.Set("failed", static_cast<unsigned long long>(failed_));
  result.Set("metrics", std::move(metrics));
  std::fputs(result.Dump(0).c_str(), stdout);  // Dump ends the line
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
