#include "src/replay/replay_engine.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {

size_t ReplayEngine::AddSource(const ReplaySource& source) {
  STALLOC_CHECK(source.trace.valid(), << "replay source needs a trace");
  STALLOC_CHECK(source.alloc != nullptr, << "replay source needs an allocator");
  STALLOC_CHECK_GE(source.iterations, 0);
  SourceState s;
  s.spec = source;
  s.period = source.period != 0 ? source.period : source.trace.end_time();
  s.iter_base = source.start;
  s.addr_of.assign(source.trace.num_events(), kNoAddr);
  const size_t id = sources_.size();
  sources_.push_back(std::move(s));
  tenants_[source.tenant].push_back(id);
  SourceState& added = sources_.back();
  if (added.TotalOps() == 0) {
    added.progress.done = true;
    if (observer_ != nullptr) {
      observer_->OnSourceDone(*this, id, now_);
    }
    return id;
  }
  added.progress.active = true;
  ++active_sources_;
  Schedule(added, id);
  return id;
}

const std::vector<size_t>& ReplayEngine::tenant_sources(uint64_t tenant) const {
  static const std::vector<size_t> kEmpty;
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? kEmpty : it->second;
}

void ReplayEngine::UnwindSource(size_t sid) {
  SourceState& s = sources_[sid];
  if (s.progress.live_bytes == 0) {
    return;
  }
  for (uint64_t id = 0; id < s.addr_of.size(); ++id) {
    if (s.addr_of[id] != kNoAddr) {
      s.spec.alloc->Free(s.addr_of[id]);
      s.addr_of[id] = kNoAddr;
    }
  }
  s.progress.live_bytes = 0;
}

void ReplayEngine::AbortTenant(uint64_t tenant) {
  auto it = tenants_.find(tenant);
  STALLOC_CHECK(it != tenants_.end(), << "abort of unknown tenant " << tenant);
  for (size_t sid : it->second) {
    SourceState& s = sources_[sid];
    if (!s.progress.active && !s.progress.parked) {
      continue;
    }
    if (observer_ != nullptr) {
      observer_->OnSourceAborted(*this, sid, now_);
    }
    UnwindSource(sid);
    if (s.progress.active) {
      --active_sources_;  // parked sources were already descheduled when they parked
    }
    s.progress.active = false;
    s.progress.parked = false;
    s.progress.aborted = true;
    ++s.epoch;  // invalidates any pending heap entry
  }
  if (telemetry::Enabled()) {
    static telemetry::Counter* aborts =
        telemetry::MetricsRegistry::Global().GetCounter("replay.tenant_aborts");
    aborts->Add();
    auto& tracer = telemetry::Tracer::Global();
    Json args = Json::Object();
    args.Set("tenant", tenant);
    args.Set("sim_time", now_);
    tracer.ThreadTrack()->Instant("abort tenant", telemetry::kCatReplay, tracer.NowUs(),
                                  std::move(args));
  }
}

void ReplayEngine::FinishSource(size_t sid) {
  SourceState& s = sources_[sid];
  STALLOC_DCHECK_EQ(s.progress.live_bytes, 0u, << "source finished with live blocks");
  s.progress.active = false;
  s.progress.done = true;
  --active_sources_;
  if (observer_ != nullptr) {
    observer_->OnSourceDone(*this, sid, now_);
  }
}

ReplayEngine::OpOutcome ReplayEngine::ApplyOp(size_t sid, uint64_t op_idx) {
  // Observer callbacks (BeforeOp, OnOom, After*) may AddSource and reallocate sources_:
  // capture the stable spec values (and the cursor, whose pointers live in the trace/view, not
  // in sources_) up front and re-fetch sources_[sid] after every callback.
  Allocator* const alloc = sources_[sid].spec.alloc;
  const uint64_t tenant = sources_[sid].spec.tenant;
  const TraceCursor tc = sources_[sid].spec.trace;
  const bool is_free = tc.OpIsFree(op_idx);
  const uint64_t eid = tc.OpEventId(op_idx);

  ReplayOpView view;
  MemoryEvent gathered;  // observer-visible event; only materialized when someone listens
  const bool observed = observer_ != nullptr;
  if (observed) {
    gathered = tc.Event(eid);
    view.source = sid;
    view.tenant = tenant;
    view.time = now_;
    view.kind = is_free ? TraceOp::Kind::kFree : TraceOp::Kind::kMalloc;
    view.event = &gathered;
    view.alloc = alloc;
    observer_->BeforeOp(*this, view);
  }

  if (!is_free) {
    ++sources_[sid].progress.num_mallocs;
    ++result_.num_mallocs;
    const uint64_t size = tc.EventSize(eid);
    RequestContext ctx;
    ctx.dyn = tc.EventDyn(eid);
    ctx.phase = tc.EventPs(eid);
    ctx.layer = tc.EventLs(eid);
    ctx.stream = tc.EventStream(eid);
    ctx.tenant = tenant;  // owning job/request, for heap-map frag attribution
    const auto addr = alloc->Malloc(size, ctx);
    if (!addr.has_value()) {
      if (!result_.oom) {
        result_.oom = true;
        result_.first_failed_event = eid;
      }
      ++result_.oom_events;
      if (telemetry::Enabled()) {
        static telemetry::Counter* ooms =
            telemetry::MetricsRegistry::Global().GetCounter("replay.oom_events");
        ooms->Add();
        auto& tracer = telemetry::Tracer::Global();
        Json args = Json::Object();
        args.Set("tenant", tenant);
        args.Set("source", static_cast<unsigned long long>(sid));
        args.Set("size", size);
        args.Set("sim_time", now_);
        tracer.ThreadTrack()->Instant("replay oom", telemetry::kCatReplay, tracer.NowUs(),
                                      std::move(args));
      }
      const OomAction action = observed ? observer_->OnOom(*this, view) : OomAction::kAbortRun;
      switch (action) {
        case OomAction::kAbortRun:
          run_aborted_ = true;
          result_.aborted = true;
          return OpOutcome::kRunAborted;
        case OomAction::kParkSource: {
          SourceState& sp = sources_[sid];  // re-fetch: OnOom may have added sources
          sp.progress.active = false;
          sp.progress.parked = true;
          ++sp.epoch;  // the cursor stays put; the coordinator unwinds via AbortTenant
          --active_sources_;
          return OpOutcome::kSourceParked;
        }
      }
    } else {
      SourceState& sr = sources_[sid];  // re-fetch: observer callbacks may add sources
      sr.addr_of[eid] = *addr;
      sr.progress.live_bytes += size;
      sr.progress.peak_live_bytes = std::max(sr.progress.peak_live_bytes, sr.progress.live_bytes);
      if (observed) {
        observer_->AfterMalloc(*this, view, *addr);
      }
    }
  } else {
    SourceState& sr = sources_[sid];
    const uint64_t addr = sr.addr_of[eid];
    if (addr != kNoAddr) {
      sr.spec.alloc->Free(addr);
      sr.addr_of[eid] = kNoAddr;
      sr.progress.live_bytes -= tc.EventSize(eid);
      ++sr.progress.num_frees;
      ++result_.num_frees;
      if (observed) {
        observer_->AfterFree(*this, view, addr);
      }
    }
  }

  SourceState& sa = sources_[sid];
  ++sa.progress.ops_replayed;
  ++result_.ops_replayed;
  ++sa.cursor;
  ++sa.pos;
  if (sa.pos == sa.spec.trace.num_ops()) {  // iteration boundary: wrap without dividing
    sa.pos = 0;
    sa.iter_base += sa.period;
  }
  if (sa.cursor >= sa.TotalOps()) {
    FinishSource(sid);
    return OpOutcome::kSourceDone;
  }
  return OpOutcome::kContinue;
}

void ReplayEngine::DropStaleHeapEntries() {
  while (!heap_.empty()) {
    const auto& [time, sid, epoch] = heap_.top();
    const SourceState& s = sources_[sid];
    if (s.progress.active && s.epoch == epoch) {
      return;
    }
    heap_.pop();
  }
}

uint64_t ReplayEngine::NextOpTime() {
  DropStaleHeapEntries();
  return heap_.empty() ? kNoPendingOp : std::get<0>(heap_.top());
}

void ReplayEngine::StepUntil(uint64_t horizon_excl) {
  while (!run_aborted_ && NextOpTime() < horizon_excl) {
    Step();
  }
}

uint64_t ReplayEngine::SourceEndTime(size_t sid) const {
  const SourceState& s = sources_[sid];
  const size_t total = s.TotalOps();
  if (total == 0) {
    return s.spec.start;
  }
  const uint64_t n = s.spec.trace.num_ops();
  const uint64_t last_iter = static_cast<uint64_t>((total - 1) / n);
  return s.spec.start + last_iter * s.period + s.spec.trace.OpTime(n - 1);
}

uint64_t ReplayEngine::MinActiveEndTime() const {
  uint64_t min_end = kNoPendingOp;
  for (size_t sid = 0; sid < sources_.size(); ++sid) {
    if (sources_[sid].progress.active) {
      min_end = std::min(min_end, SourceEndTime(sid));
    }
  }
  return min_end;
}

bool ReplayEngine::Step() {
  DropStaleHeapEntries();
  if (heap_.empty()) {
    return false;
  }
  const auto [time, sid, epoch] = heap_.top();
  heap_.pop();
  now_ = std::max(now_, time);
  const OpOutcome outcome = ApplyOp(sid, sources_[sid].pos);
  if (outcome == OpOutcome::kContinue) {
    Schedule(sources_[sid], sid);
  }
  return true;
}

void ReplayEngine::RunSingleSourceFast() {
  // One active source: its ops are already time-ordered, so the scheduling heap is pure
  // overhead. Drain the source inline; fall back to the heap as soon as a callback admits
  // another source (or aborts this one).
  const size_t sid = 0;
  {
    DropStaleHeapEntries();
    if (heap_.empty()) {
      return;
    }
    heap_.pop();  // the source's own entry — re-pushed on exit if still active
  }
  while (!run_aborted_) {
    SourceState& s = sources_[sid];
    if (!s.progress.active) {
      return;
    }
    // Ops within one iteration are time-sorted and pos/iter_base advance incrementally, so the
    // clock only moves forward and the loop is free of divisions and heap traffic.
    const uint64_t t = s.iter_base + s.spec.trace.OpTime(s.pos);
    now_ = std::max(now_, t);
    const OpOutcome outcome = ApplyOp(sid, s.pos);
    if (outcome != OpOutcome::kContinue) {
      return;
    }
    if (sources_.size() > 1) {
      // A callback added sources: restore the heap discipline.
      Schedule(sources_[sid], sid);
      return;
    }
  }
}

const ReplayEngineResult& ReplayEngine::Run() {
  Stopwatch timer;
  telemetry::ScopedSpan span(telemetry::kCatReplay, "replay.run");
  span.Arg("sources", static_cast<unsigned long long>(sources_.size()));
  if (sources_.size() == 1) {
    RunSingleSourceFast();
  }
  while (!run_aborted_ && Step()) {
  }
  // An aborted run (or an externally driven partial replay) may leave live blocks; release
  // them so a shared device stays balanced. These frees are cleanup, not replayed ops.
  for (size_t sid = 0; sid < sources_.size(); ++sid) {
    SourceState& s = sources_[sid];
    if (s.progress.active || s.progress.parked) {
      UnwindSource(sid);
      if (s.progress.active) {
        --active_sources_;
      }
      s.progress.active = false;
      s.progress.parked = false;
      s.progress.aborted = true;
      ++s.epoch;
    }
  }
  result_.end_time = now_;
  result_.wall_seconds += timer.ElapsedSeconds();
  if (telemetry::Enabled()) {
    static telemetry::Counter* ops =
        telemetry::MetricsRegistry::Global().GetCounter("replay.ops_replayed");
    ops->Add(result_.ops_replayed);
    span.Arg("ops", result_.ops_replayed);
    span.Arg("oom", result_.oom);
  }
  return result_;
}

// --- PlacementDigestObserver ---

void PlacementDigestObserver::Mix(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    digest_ = (digest_ ^ ((value >> shift) & 0xff)) * 1099511628211ull;  // FNV-1a prime
  }
}

void PlacementDigestObserver::AfterMalloc(ReplayEngine& engine, const ReplayOpView& op,
                                          uint64_t addr) {
  (void)engine;
  Mix(0x4d);  // 'M'
  Mix(op.event->id);
  Mix(addr);
  Mix(op.event->size);
}

void PlacementDigestObserver::AfterFree(ReplayEngine& engine, const ReplayOpView& op,
                                        uint64_t addr) {
  (void)engine;
  Mix(0x46);  // 'F'
  Mix(op.event->id);
  Mix(addr);
  Mix(op.event->size);
}

}  // namespace stalloc
