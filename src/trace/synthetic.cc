#include "src/trace/synthetic.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/trace/event.h"
#include "src/trace/trace_v2.h"

namespace stalloc {

namespace {

struct XorShift {
  uint64_t s;
  explicit XorShift(uint64_t seed) : s(seed != 0 ? seed : 1) {}
  uint64_t operator()() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

// The storm request sizes: a small pool (<= 1 MiB) and a large pool.
std::vector<uint64_t> StormPalette() {
  std::vector<uint64_t> palette;
  for (uint64_t k = 1; k <= 8; ++k) {
    palette.push_back(k * 64 * KiB);
  }
  for (uint64_t mib : {2, 3, 4, 6, 8, 12, 16, 20, 24, 32}) {
    palette.push_back(mib * MiB);
  }
  return palette;
}

}  // namespace

Trace BuildStormTrace(uint64_t num_events, uint64_t seed) {
  XorShift rnd(seed);
  const std::vector<uint64_t> palette = StormPalette();
  constexpr uint64_t kTargetLive = 1500;
  Trace trace;
  trace.set_name("storm");
  std::vector<uint64_t> open;  // ids of events not yet closed
  LogicalTime t = 0;
  while (trace.size() < num_events) {
    const bool do_malloc = open.size() < 64 || rnd() % (2 * kTargetLive) >= open.size();
    if (do_malloc) {
      const uint64_t size = palette[rnd() % palette.size()];
      open.push_back(
          trace.OpenEvent(size, t++, kInvalidPhase, kInvalidLayer, false, kComputeStream));
    } else {
      const size_t pick = rnd() % open.size();
      trace.CloseEvent(open[pick], t++, kInvalidPhase, kInvalidLayer);
      open[pick] = open.back();
      open.pop_back();
    }
  }
  for (uint64_t id : open) {
    trace.CloseEvent(id, t++, kInvalidPhase, kInvalidLayer);
  }
  trace.Validate();
  return trace;
}

// ---------------------------------------------------------------------------
// Parameterized mixes: one generator per mix, templated over the sink it opens and closes
// events in — a Trace or a TraceV2StreamWriter, which share those calls.
// ---------------------------------------------------------------------------

const char* SyntheticMixName(SyntheticMix mix) {
  switch (mix) {
    case SyntheticMix::kStorm:
      return "storm";
    case SyntheticMix::kTraining:
      return "train";
    case SyntheticMix::kServing:
      return "serve";
  }
  return "?";
}

bool ParseSyntheticMix(const std::string& name, SyntheticMix* out) {
  if (name == "storm") {
    *out = SyntheticMix::kStorm;
  } else if (name == "train" || name == "training") {
    *out = SyntheticMix::kTraining;
  } else if (name == "serve" || name == "serving") {
    *out = SyntheticMix::kServing;
  } else {
    return false;
  }
  return true;
}

namespace {

uint64_t NumEventsFor(const SyntheticSpec& spec) {
  return spec.num_ops / 2 > 0 ? spec.num_ops / 2 : 1;
}

// Budget identity used by every mix: with M = num mallocs and one op per tick,
//   ops_remaining == open_blocks + 2 * (M - mallocs_used)
// holds throughout, so draining whenever mallocs are exhausted lands exactly on the op budget.

// Cache storm, op-budgeted: same steering policy as BuildStormTrace, but parameterized on the
// total op count.
template <typename Sink>
void GenStorm(uint64_t num_events, uint64_t seed, Sink* sink) {
  XorShift rnd(seed);
  const std::vector<uint64_t> palette = StormPalette();

  constexpr uint64_t kTargetLive = 1500;
  std::vector<uint64_t> open;  // event ids not yet closed
  uint64_t mallocs_used = 0;
  LogicalTime t = 0;
  const uint64_t total_ops = num_events * 2;
  while (t < total_ops) {
    const bool can_malloc = mallocs_used < num_events;
    const bool can_free = !open.empty();
    bool do_malloc =
        can_malloc && (open.size() < 64 || rnd() % (2 * kTargetLive) >= open.size());
    if (!can_free) {
      do_malloc = true;
    }
    if (do_malloc) {
      const uint64_t size = palette[rnd() % palette.size()];
      open.push_back(
          sink->OpenEvent(size, t++, kInvalidPhase, kInvalidLayer, false, kComputeStream));
      ++mallocs_used;
    } else {
      const size_t pick = rnd() % open.size();
      sink->CloseEvent(open[pick], t++, kInvalidPhase, kInvalidLayer);
      open[pick] = open.back();
      open.pop_back();
    }
  }
}

// Iteration-shaped mix: weights allocated in an init phase and held to the end; per-microbatch
// forward passes push activations (LIFO), backward passes pop them in reverse interleaved with
// transient workspace pairs; an optimizer phase of transient pairs every 4 microbatches. Every
// 6th activation is a dynamic (expert) event bound to its microbatch's layer. When the malloc
// budget runs out the generator drains all live blocks in LIFO order under a final phase, so
// weights are freed last — the persistent/scoped/transient census of a real iteration.
template <typename Sink>
void GenTraining(uint64_t num_events, uint64_t seed, Sink* sink) {
  XorShift rnd(seed);
  const uint64_t weight_sizes[] = {4 * MiB, 8 * MiB, 16 * MiB, 64 * MiB};
  const uint64_t act_sizes[] = {512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB};
  const uint64_t tmp_sizes[] = {64 * KiB, 128 * KiB, 256 * KiB};

  constexpr uint64_t kActsPerMb = 24;
  constexpr uint64_t kOptimPairs = 8;
  constexpr int kMbPerIter = 4;
  // Fixed model footprint: weights don't scale with trace length (a longer trace is more
  // iterations, not a bigger model).
  const uint64_t kMaxWeights = 64;
  const uint64_t scaled = num_events / 32 > 0 ? num_events / 32 : 1;
  const uint64_t num_weights = scaled < kMaxWeights ? scaled : kMaxWeights;

  enum State { kInit, kFwd, kBwd, kOptim, kDrain };
  State state = kInit;
  struct OpenRec {
    uint64_t id;
    LayerId layer;  // kInvalidLayer for non-dynamic events
  };
  std::vector<OpenRec> act_stack;  // LIFO across fwd -> bwd
  std::vector<uint64_t> weight_ids;
  PhaseId cur_phase = kInvalidPhase;
  LayerId cur_layer = kInvalidLayer;
  int mb = 0;
  uint64_t acts_opened = 0;  // in the current fwd
  uint64_t acts_closed = 0;  // in the current bwd
  uint64_t optim_opened = 0;
  bool bwd_transient_done = false;  // workspace pair emitted before the current act close
  bool pending_close = false;       // a transient opened last tick must close this tick
  uint64_t pending_id = 0;

  uint64_t mallocs_used = 0;
  const uint64_t total_ops = num_events * 2;

  auto switch_phase = [&](PhaseKind kind, int microbatch, LogicalTime t) {
    if (cur_phase != kInvalidPhase) {
      sink->MutablePhase(cur_phase).end = t;
    }
    cur_phase = sink->AddPhase({kind, microbatch, -1, t, t + 1});
  };

  for (LogicalTime t = 0; t < total_ops; ++t) {
    const bool can_malloc = mallocs_used < num_events;
    if (pending_close) {
      sink->CloseEvent(pending_id, t, cur_phase, kInvalidLayer);
      pending_close = false;
      continue;
    }
    // Transitions consume no ticks; loop until this tick's op is chosen.
    bool emitted = false;
    while (!emitted) {
      switch (state) {
        case kInit: {
          if (cur_phase == kInvalidPhase) {
            switch_phase(PhaseKind::kIterInit, -1, t);
          }
          if (weight_ids.size() < num_weights && can_malloc) {
            const uint64_t size = weight_sizes[rnd() % 4];
            weight_ids.push_back(
                sink->OpenEvent(size, t, cur_phase, kInvalidLayer, false, kComputeStream));
            ++mallocs_used;
            emitted = true;
          } else if (!can_malloc) {
            state = kDrain;
          } else {
            state = kFwd;
            switch_phase(PhaseKind::kForward, mb, t);
            cur_layer = sink->AddLayer({"mb" + std::to_string(mb), t, t + 1});
            acts_opened = 0;
          }
          break;
        }
        case kFwd: {
          if (!can_malloc) {
            state = kDrain;
          } else if (acts_opened < kActsPerMb) {
            const bool dyn = acts_opened % 6 == 5;
            const StreamId stream = acts_opened % 5 == 4 ? kP2pStream : kComputeStream;
            const uint64_t size = act_sizes[rnd() % 5];
            const uint64_t id =
                sink->OpenEvent(size, t, cur_phase, dyn ? cur_layer : kInvalidLayer, dyn, stream);
            act_stack.push_back({id, dyn ? cur_layer : kInvalidLayer});
            ++mallocs_used;
            ++acts_opened;
            emitted = true;
          } else {
            state = kBwd;
            switch_phase(PhaseKind::kBackward, mb, t);
            acts_closed = 0;
            bwd_transient_done = false;
          }
          break;
        }
        case kBwd: {
          if (acts_closed < kActsPerMb) {
            if (acts_closed % 3 == 2 && !bwd_transient_done && can_malloc) {
              pending_id = sink->OpenEvent(tmp_sizes[rnd() % 3], t, cur_phase, kInvalidLayer,
                                           false, kComputeStream);
              ++mallocs_used;
              pending_close = true;
              bwd_transient_done = true;
              emitted = true;
            } else {
              const OpenRec rec = act_stack.back();
              act_stack.pop_back();
              sink->CloseEvent(rec.id, t, cur_phase, rec.layer);
              ++acts_closed;
              bwd_transient_done = false;
              emitted = true;
            }
          } else {
            sink->MutableLayer(cur_layer).end = t;
            ++mb;
            if (mb % kMbPerIter == 0) {
              state = kOptim;
              switch_phase(PhaseKind::kOptimizer, -1, t);
              optim_opened = 0;
            } else {
              state = kFwd;
              switch_phase(PhaseKind::kForward, mb, t);
              cur_layer = sink->AddLayer({"mb" + std::to_string(mb), t, t + 1});
              acts_opened = 0;
            }
          }
          break;
        }
        case kOptim: {
          if (!can_malloc) {
            state = kDrain;
          } else if (optim_opened < kOptimPairs) {
            pending_id = sink->OpenEvent(tmp_sizes[rnd() % 3], t, cur_phase, kInvalidLayer,
                                         false, kDpCommStream);
            ++mallocs_used;
            pending_close = true;
            ++optim_opened;
            emitted = true;
          } else {
            state = kFwd;
            switch_phase(PhaseKind::kForward, mb, t);
            cur_layer = sink->AddLayer({"mb" + std::to_string(mb), t, t + 1});
            acts_opened = 0;
          }
          break;
        }
        case kDrain: {
          // Entered with the malloc budget exhausted; close everything LIFO so weights,
          // opened first, are freed last. Frees stay attributed to the phase that was
          // current when the budget ran out.
          if (!act_stack.empty()) {
            const OpenRec rec = act_stack.back();
            act_stack.pop_back();
            sink->CloseEvent(rec.id, t, cur_phase, rec.layer);
          } else {
            STALLOC_CHECK(!weight_ids.empty(), << "training drain with nothing open");
            sink->CloseEvent(weight_ids.back(), t, cur_phase, kInvalidLayer);
            weight_ids.pop_back();
          }
          emitted = true;
          break;
        }
      }
    }
  }
  if (cur_phase != kInvalidPhase) {
    sink->MutablePhase(cur_phase).end = total_ops;
  }
  if (cur_layer != kInvalidLayer) {
    sink->MutableLayer(cur_layer).end = total_ops;
  }
}

// Inference-shaped mix: each request grows a sequence of KV-cache blocks on its own stream,
// holds them while "decoding", then frees the whole sequence en masse on completion (the
// pending-free queue spreads that burst over consecutive ticks, one op per tick). Bursty
// arrivals and whole-sequence frees are the fragmentation pattern paged serving allocators
// are built around.
template <typename Sink>
void GenServing(uint64_t num_events, uint64_t seed, Sink* sink) {
  XorShift rnd(seed);
  const uint64_t block_sizes[] = {64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 2 * MiB};
  constexpr uint64_t kTargetRequests = 192;

  struct Request {
    std::vector<uint64_t> blocks;
    uint64_t target_len;
    StreamId stream;
  };
  std::vector<Request> active;
  std::vector<uint64_t> pending;  // block ids queued for freeing, FIFO
  size_t pending_head = 0;
  uint64_t next_stream = 0;

  auto complete = [&](size_t idx) {
    Request& r = active[idx];
    pending.insert(pending.end(), r.blocks.begin(), r.blocks.end());
    active.erase(active.begin() + idx);
  };

  uint64_t mallocs_used = 0;
  const uint64_t total_ops = num_events * 2;
  for (LogicalTime t = 0; t < total_ops; ++t) {
    const bool can_malloc = mallocs_used < num_events;
    const bool have_pending = pending_head < pending.size();
    const bool want_free = have_pending && rnd() % 4 != 0;
    if (!can_malloc || want_free) {
      if (pending_head == pending.size()) {
        complete(0);  // budget exhausted with only in-flight requests: retire the oldest
      }
      sink->CloseEvent(pending[pending_head++], t, kInvalidPhase, kInvalidLayer);
      if (pending_head == pending.size()) {
        pending.clear();
        pending_head = 0;
      }
      continue;
    }
    const bool start_new =
        active.size() < kTargetRequests && (active.empty() || rnd() % 3 == 0);
    size_t idx;
    if (start_new) {
      Request r;
      r.target_len = 1 + rnd() % 16;
      r.stream = static_cast<StreamId>(next_stream++ % 4);
      active.push_back(std::move(r));
      idx = active.size() - 1;
    } else {
      idx = rnd() % active.size();
    }
    const uint64_t size = block_sizes[rnd() % 5];
    active[idx].blocks.push_back(
        sink->OpenEvent(size, t, kInvalidPhase, kInvalidLayer, false, active[idx].stream));
    ++mallocs_used;
    if (active[idx].blocks.size() >= active[idx].target_len) {
      complete(idx);
    }
  }
}

template <typename Sink>
void GenerateInto(const SyntheticSpec& spec, Sink* sink) {
  const uint64_t num_events = NumEventsFor(spec);
  switch (spec.mix) {
    case SyntheticMix::kStorm:
      GenStorm(num_events, spec.seed, sink);
      break;
    case SyntheticMix::kTraining:
      GenTraining(num_events, spec.seed, sink);
      break;
    case SyntheticMix::kServing:
      GenServing(num_events, spec.seed, sink);
      break;
  }
}

}  // namespace

Trace BuildSyntheticTrace(const SyntheticSpec& spec) {
  Trace trace;
  trace.set_name(SyntheticMixName(spec.mix));
  GenerateInto(spec, &trace);
  trace.Validate();
  return trace;
}

bool GenerateSyntheticV2File(const SyntheticSpec& spec, const std::string& path) {
  TraceV2StreamWriter writer(path, NumEventsFor(spec), SyntheticMixName(spec.mix));
  if (!writer.ok()) {
    return false;
  }
  GenerateInto(spec, &writer);
  return writer.Finish();
}

}  // namespace stalloc
