#include "src/api/serializers.h"

#include <string>

#include "src/trace/trace_stats.h"

namespace stalloc {

Json ToJson(const ExperimentResult& result) {
  Json j = Json::Object();
  j.Set("allocator", result.allocator);
  j.Set("oom", result.oom);
  j.Set("infeasible", result.infeasible);
  j.Set("memory_efficiency", result.memory_efficiency);
  j.Set("fragmentation_ratio", result.fragmentation_ratio);
  j.Set("allocated_peak", result.allocated_peak);
  j.Set("reserved_peak", result.reserved_peak);
  j.Set("fragmentation_bytes", result.fragmentation_bytes);
  j.Set("device_api_calls", result.device_api_calls);
  j.Set("device_api_cost_us", result.device_api_cost_us);
  j.Set("device_release_calls", result.device_release_calls);
  return j;
}

Json ToJson(const PhaseTimings& phases) {
  Json j = Json::Object();
  j.Set("profile_ms", phases.profile_ms);
  j.Set("plan_ms", phases.plan_ms);
  j.Set("replay_ms", phases.replay_ms);
  j.Set("report_ms", phases.report_ms);
  j.Set("total_ms", phases.total_ms);
  return j;
}

Json ToJson(const telemetry::OomReport& report) {
  Json j = Json::Object();
  j.Set("allocator", report.allocator);
  j.Set("ts_us", report.ts_us);
  j.Set("failed_size", report.failed_size);
  j.Set("allocated", report.allocated);
  j.Set("reserved", report.reserved);
  j.Set("fragmentation", report.fragmentation);
  j.Set("num_mallocs", report.num_mallocs);
  j.Set("num_frees", report.num_frees);
  j.Set("num_oom", report.num_oom);
  Json recent = Json::Array();
  for (const telemetry::FlightOp& op : report.recent) {
    Json o = Json::Object();
    o.Set("op", telemetry::FlightOpKindName(op.kind));
    o.Set("size", op.size);
    o.Set("op_index", op.op_index);
    o.Set("allocated", op.allocated_after);
    o.Set("reserved", op.reserved_after);
    o.Set("latency_us", op.latency_us);
    recent.Add(std::move(o));
  }
  j.Set("recent_ops", std::move(recent));
  return j;
}

Json ToJson(const telemetry::FragAttributionRow& row) {
  Json j = Json::Object();
  j.Set("size_group", row.size_group);
  j.Set("phase", row.phase);
  j.Set("tenant", row.tenant);
  j.Set("bytes", row.bytes);
  j.Set("gaps", row.gaps);
  return j;
}

Json ToJson(const telemetry::HeapSnapshot& snapshot) {
  Json j = Json::Object();
  j.Set("allocator", snapshot.allocator);
  j.Set("trigger", telemetry::HeapTriggerName(snapshot.trigger));
  j.Set("seq", snapshot.seq);
  j.Set("op_index", snapshot.op_index);
  j.Set("allocated", snapshot.allocated);
  j.Set("reserved", snapshot.reserved);
  j.Set("num_oom", snapshot.num_oom);
  if (snapshot.failed_size > 0) {
    j.Set("failed_size", snapshot.failed_size);
  }
  j.Set("free_bytes", snapshot.free_bytes);
  j.Set("largest_gap", snapshot.largest_gap);
  j.Set("num_gaps", snapshot.num_gaps);
  Json segments = Json::Array();
  for (const telemetry::HeapSegment& seg : snapshot.segments) {
    Json s = Json::Object();
    s.Set("base", seg.base);
    s.Set("size", seg.size);
    s.Set("stream", seg.stream);
    s.Set("pool", seg.pool);
    segments.Add(std::move(s));
  }
  j.Set("segments", std::move(segments));
  Json blocks = Json::Array();
  for (const telemetry::HeapBlock& block : snapshot.blocks) {
    Json b = Json::Object();
    b.Set("addr", block.addr);
    b.Set("size", block.size);
    b.Set("phase", block.phase);
    b.Set("layer", block.layer);
    b.Set("stream", block.stream);
    b.Set("dyn", block.dyn);
    b.Set("tenant", block.tenant);
    blocks.Add(std::move(b));
  }
  j.Set("blocks", std::move(blocks));
  Json attribution = Json::Array();
  for (const telemetry::FragAttributionRow& row : snapshot.attribution) {
    attribution.Add(ToJson(row));
  }
  j.Set("attribution", std::move(attribution));
  return j;
}

Json ToJson(const ServeSimStats& stats) {
  Json j = Json::Object();
  j.Set("num_requests", stats.num_requests);
  j.Set("completed", stats.completed);
  j.Set("rejected", stats.rejected);
  j.Set("preemptions", stats.preemptions);
  j.Set("recompute_admissions", stats.recompute_admissions);
  j.Set("tokens_admitted", stats.tokens_admitted);
  j.Set("tokens_generated", stats.tokens_generated);
  j.Set("peak_batch", stats.peak_batch);
  j.Set("engine_steps", stats.engine_steps);
  j.Set("kv_blocks_allocated", stats.kv_blocks_allocated);
  j.Set("peak_kv_bytes", stats.peak_kv_bytes);
  return j;
}

Json ToJson(const DeviceMetrics& metrics) {
  Json j = Json::Object();
  j.Set("capacity", metrics.capacity);
  j.Set("peak_used", metrics.peak_used);
  j.Set("avg_utilization", metrics.avg_utilization);
  j.Set("avg_external_frag", metrics.avg_external_frag);
  j.Set("peak_external_frag", metrics.peak_external_frag);
  j.Set("placements", metrics.placements);
  j.Set("oom_events", metrics.oom_events);
  j.Set("memory_efficiency", metrics.memory_efficiency);
  j.Set("bytes_moved", metrics.bytes_moved);
  j.Set("device_api_calls", metrics.device_api_calls);
  j.Set("device_api_cost_us", metrics.device_api_cost_us);
  return j;
}

Json ToJson(const ClusterResult& result) {
  Json j = Json::Object();
  j.Set("policy", SchedulerPolicyName(result.policy));
  j.Set("allocator", result.allocator);
  j.Set("jobs", result.num_jobs);
  j.Set("admitted", result.admitted);
  j.Set("completed", result.completed);
  j.Set("rejected_upfront", result.rejected_upfront);
  j.Set("rejected_oom", result.rejected_oom);
  j.Set("starved", result.starved);
  j.Set("oom_events", result.oom_events);
  j.Set("requeues", result.requeues);
  j.Set("makespan", result.makespan);
  j.Set("queue_wait_p50", result.queue_wait_p50);
  j.Set("queue_wait_p90", result.queue_wait_p90);
  j.Set("queue_wait_p99", result.queue_wait_p99);
  j.Set("fleet_avg_utilization", result.fleet_avg_utilization);
  j.Set("serving_jobs", result.serving_jobs);
  j.Set("serve_slo_attainment", result.serve_slo_attainment);
  j.Set("ops_replayed", result.ops_replayed);
  j.Set("wall_seconds", result.wall_seconds);
  j.Set("digest", result.Digest());
  Json devices = Json::Array();
  for (const DeviceMetrics& m : result.devices) {
    devices.Add(ToJson(m));
  }
  j.Set("device_metrics", std::move(devices));
  return j;
}

Json ToJson(const JobOutcome& outcome) {
  Json j = Json::Object();
  j.Set("id", outcome.id);
  j.Set("type", ClusterJobTypeName(outcome.type));
  j.Set("status", JobStatusName(outcome.status));
  j.Set("submit_time", outcome.submit_time);
  j.Set("admit_time", outcome.admit_time);
  j.Set("finish_time", outcome.finish_time);
  j.Set("attempts", outcome.attempts);
  j.Set("oom_count", outcome.oom_count);
  j.Set("estimate", outcome.estimate);
  j.Set("actual_peak", outcome.actual_peak);
  j.Set("queue_wait", outcome.queue_wait);
  Json devices = Json::Array();
  for (int d : outcome.devices) {
    devices.Add(d);
  }
  j.Set("devices", std::move(devices));
  if (outcome.slo_attainment >= 0) {
    j.Set("slo_attainment", outcome.slo_attainment);
  }
  return j;
}

Json ToJson(const TraceStats& stats) {
  Json j = Json::Object();
  j.Set("events", stats.num_events);
  j.Set("static_events", stats.num_static);
  j.Set("dynamic_events", stats.num_dynamic);
  j.Set("total_bytes", stats.total_bytes);
  j.Set("peak_allocated", stats.peak_allocated);
  j.Set("peak_time", stats.peak_time);
  j.Set("distinct_sizes", stats.distinct_sizes);
  Json lifespans = Json::Object();
  lifespans.Set("persistent", stats.persistent_count);
  lifespans.Set("scoped", stats.scoped_count);
  lifespans.Set("transient", stats.transient_count);
  lifespans.Set("persistent_bytes", stats.persistent_bytes);
  lifespans.Set("scoped_bytes", stats.scoped_bytes);
  lifespans.Set("transient_bytes", stats.transient_bytes);
  j.Set("lifespans", std::move(lifespans));
  Json peaks = Json::Array();
  for (const PhasePeak& p : stats.phase_peaks) {
    Json peak = Json::Object();
    peak.Set("phase", p.phase);
    peak.Set("kind", PhaseKindName(p.kind));
    peak.Set("start", p.start);
    peak.Set("end", p.end);
    peak.Set("peak_live", p.peak_live);
    peaks.Add(std::move(peak));
  }
  j.Set("phase_peaks", std::move(peaks));
  return j;
}

Json ToJson(const PlanStats& stats) {
  Json j = Json::Object();
  j.Set("static_events", stats.num_static_events);
  j.Set("dynamic_events", stats.num_dynamic_events);
  j.Set("phase_groups", stats.num_phase_groups);
  j.Set("fusions", stats.num_fusions);
  j.Set("layers", stats.num_layers);
  j.Set("homolayer_groups", stats.num_homolayer_groups);
  j.Set("used_greedy_refinement", stats.used_greedy_refinement);
  j.Set("synthesis_ms", stats.synthesis_ms);
  j.Set("pool_size", stats.pool_size);
  j.Set("lower_bound", stats.lower_bound);
  j.Set("plan_efficiency", stats.PlanEfficiency());
  return j;
}

Json ToJson(const RunRecord& record) {
  Json j = Json::Object();
  j.Set("axis", WorkloadAxisName(record.axis));
  j.Set("allocator", record.allocator);
  j.Set("model", record.model);
  j.Set("variant", record.variant);
  j.Set("repeat", record.repeat);
  j.Set("run_seed", record.run_seed);
  j.Set("profile_seed", record.profile_seed);
  j.Set("capacity_bytes", record.capacity_bytes);
  j.Set("status", RunStatusName(record.status));
  j.Set("oom", record.status == RunStatus::kOom);
  j.Set("infeasible", record.status == RunStatus::kInfeasible);
  j.Set("allocated_peak", record.allocated_peak);
  j.Set("reserved_peak", record.reserved_peak);
  j.Set("memory_efficiency", record.memory_efficiency);
  j.Set("fragmentation_bytes", record.fragmentation_bytes);
  j.Set("device_api_calls", record.device_api_calls);
  j.Set("device_api_cost_us", record.device_api_cost_us);
  j.Set("device_release_calls", record.device_release_calls);
  j.Set("oom_events", record.oom_events);
  j.Set("phases", ToJson(record.phases));
  if (!record.oom_flight.empty()) {
    Json flight = Json::Array();
    for (const telemetry::OomReport& report : record.oom_flight) {
      flight.Add(ToJson(report));
    }
    j.Set("oom_flight", std::move(flight));
  }
  if (!record.heap_timeline.empty()) {
    Json timeline = Json::Array();
    for (const telemetry::HeapSnapshot& snapshot : record.heap_timeline) {
      timeline.Add(ToJson(snapshot));
    }
    j.Set("heap_timeline", std::move(timeline));
    Json attribution = Json::Array();
    for (const telemetry::FragAttributionRow& row : record.frag_attribution) {
      attribution.Add(ToJson(row));
    }
    j.Set("frag_attribution", std::move(attribution));
  }
  if (record.serve.has_value()) {
    j.Set("serve", ToJson(record.serve->serve));
    j.Set("trace_events", record.serve->trace_events);
  }
  if (record.job.has_value()) {
    Json ranks = Json::Array();
    for (const ExperimentResult& rank : record.job->ranks) {
      ranks.Add(ToJson(rank));
    }
    j.Set("ranks", std::move(ranks));
    j.Set("limiting_rank", record.job->limiting_rank);
    j.Set("total_reserved", record.job->total_reserved);
  }
  if (record.cluster.has_value()) {
    j.Set("cluster", ToJson(*record.cluster));
    j.Set("slo_attainment", record.slo_attainment);
    j.Set("queue_wait_p99", record.queue_wait_p99);
  }
  return j;
}

Json SpecMetaJson(const ExperimentSpec& spec) {
  Json j = Json::Object();
  j.Set("axis", WorkloadAxisName(spec.axis));
  j.Set("model", spec.model);
  j.Set("variant", spec.Variant());
  Json allocators = Json::Array();
  for (const std::string& name : spec.allocators) {
    allocators.Add(name);
  }
  j.Set("allocators", std::move(allocators));
  if (!spec.trace_file.empty()) {
    j.Set("trace_file", spec.trace_file);
  }
  j.Set("capacity_bytes", spec.options.capacity_bytes);
  j.Set("profile_seed", spec.options.profile_seed);
  j.Set("run_seed", spec.options.run_seed);
  j.Set("repeats", spec.repeats);
  return j;
}

}  // namespace stalloc
