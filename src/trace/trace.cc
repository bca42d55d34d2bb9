#include "src/trace/trace.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

const char* PhaseKindName(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kIterInit:
      return "init";
    case PhaseKind::kForward:
      return "fwd";
    case PhaseKind::kBackward:
      return "bwd";
    case PhaseKind::kOptimizer:
      return "opt";
  }
  return "?";
}

std::string PhaseInfo::ToString() const {
  std::string out = PhaseKindName(kind);
  if (microbatch >= 0) {
    out += "/mb" + std::to_string(microbatch);
  }
  if (chunk >= 0) {
    out += "/c" + std::to_string(chunk);
  }
  return out;
}

std::vector<uint64_t> OrderOps(const std::vector<LogicalTime>& ts,
                               const std::vector<LogicalTime>& te,
                               std::vector<LogicalTime>* op_time) {
  // Seed with every free and then every malloc, each in index order: a stable sort by time then
  // keeps exactly (frees first, index) among equal times.
  const size_t n = ts.size();
  std::vector<LogicalTime> time(2 * n);
  std::vector<uint64_t> ref(2 * n);
  for (size_t i = 0; i < n; ++i) {
    time[i] = te[i];
    ref[i] = (i << 1) | 1;
    time[n + i] = ts[i];
    ref[n + i] = i << 1;
  }
  uint64_t varying = 0;  // bits that differ between some op time and the first one
  for (const LogicalTime t : time) {
    varying |= t ^ time[0];
  }
  // LSD radix in 11-bit digits, skipping the digits every op shares: a trace of one op per tick
  // sorts in two passes.
  constexpr int kDigitBits = 11;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  std::vector<LogicalTime> next_time(2 * n);
  std::vector<uint64_t> next_ref(2 * n);
  std::vector<size_t> start(kDigitMask + 1);
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if (((varying >> shift) & kDigitMask) == 0) {
      continue;
    }
    std::fill(start.begin(), start.end(), 0);
    for (const LogicalTime t : time) {
      ++start[(t >> shift) & kDigitMask];
    }
    size_t sum = 0;
    for (size_t& s : start) {
      sum += std::exchange(s, sum);
    }
    for (size_t i = 0; i < time.size(); ++i) {
      const size_t at = start[(time[i] >> shift) & kDigitMask]++;
      next_time[at] = time[i];
      next_ref[at] = ref[i];
    }
    time.swap(next_time);
    ref.swap(next_ref);
  }
  if (op_time != nullptr) {
    *op_time = std::move(time);
  }
  return ref;
}

Trace::Trace(const TraceCursor& source)
    : name_(source.name()),
      phases_(source.phases()),
      layers_(source.layers()),
      end_time_(source.end_time()),
      sealed_(true) {
  const uint64_t n = source.num_events();
  ts_.assign(source.ts_, source.ts_ + n);
  te_.assign(source.te_, source.te_ + n);
  size_.assign(source.size_, source.size_ + n);
  ps_.assign(source.ps_, source.ps_ + n);
  pe_.assign(source.pe_, source.pe_ + n);
  ls_.assign(source.ls_, source.ls_ + n);
  le_.assign(source.le_, source.le_ + n);
  flags_.assign(source.flags_, source.flags_ + n);
  stream_.assign(source.stream_, source.stream_ + n);
  op_time_.assign(source.op_time_, source.op_time_ + 2 * n);
  op_ref_.assign(source.op_ref_, source.op_ref_ + 2 * n);
}

PhaseId Trace::AddPhase(PhaseInfo info) {
  phases_.push_back(std::move(info));
  return static_cast<PhaseId>(phases_.size() - 1);
}

LayerId Trace::AddLayer(LayerInfo info) {
  layers_.push_back(std::move(info));
  return static_cast<LayerId>(layers_.size() - 1);
}

uint64_t Trace::OpenEvent(uint64_t size, LogicalTime ts, PhaseId ps, LayerId ls, bool dyn,
                          StreamId stream) {
  STALLOC_CHECK(!sealed_, << "OpenEvent on a sealed trace");
  ts_.push_back(ts);
  te_.push_back(0);
  size_.push_back(size);
  ps_.push_back(ps);
  pe_.push_back(kInvalidPhase);
  ls_.push_back(ls);
  le_.push_back(kInvalidLayer);
  flags_.push_back(dyn ? 1 : 0);
  stream_.push_back(stream);
  return ts_.size() - 1;
}

void Trace::CloseEvent(uint64_t id, LogicalTime te, PhaseId pe, LayerId le) {
  STALLOC_CHECK(id < ts_.size() && te_[id] == 0,
                << "CloseEvent on event " << id << ", which is not open");
  STALLOC_CHECK(ts_[id] < te, << "event must have positive lifespan: ts=" << ts_[id]
                              << " te=" << te);
  end_time_ = std::max(end_time_, te);
  te_[id] = te;
  pe_[id] = pe;
  le_[id] = le;
}

uint64_t Trace::AddEvent(const MemoryEvent& event) {
  const uint64_t id = OpenEvent(event.size, event.ts, event.ps, event.ls, event.dyn, event.stream);
  CloseEvent(id, event.te, event.pe, event.le);
  return id;
}

PhaseInfo& Trace::MutablePhase(PhaseId id) {
  STALLOC_CHECK(id >= 0 && static_cast<size_t>(id) < phases_.size());
  return phases_[static_cast<size_t>(id)];
}

LayerInfo& Trace::MutableLayer(LayerId id) {
  STALLOC_CHECK(id >= 0 && static_cast<size_t>(id) < layers_.size());
  return layers_[static_cast<size_t>(id)];
}

const PhaseInfo& Trace::phase(PhaseId id) const {
  STALLOC_CHECK(id >= 0 && static_cast<size_t>(id) < phases_.size());
  return phases_[static_cast<size_t>(id)];
}

const LayerInfo& Trace::layer(LayerId id) const {
  STALLOC_CHECK(id >= 0 && static_cast<size_t>(id) < layers_.size());
  return layers_[static_cast<size_t>(id)];
}

LifespanClass Trace::Classify(const MemoryEvent& event) const {
  if (event.ps == event.pe) {
    // Same-phase alloc+free. Init-to-init with full lifespan is persistent bookkeeping, but the
    // init phase only hosts persistent tensors in practice; treat init==init as persistent.
    if (event.ps >= 0 && phases_[static_cast<size_t>(event.ps)].kind == PhaseKind::kIterInit) {
      return LifespanClass::kPersistent;
    }
    return LifespanClass::kTransient;
  }
  if (event.ps >= 0 && phases_[static_cast<size_t>(event.ps)].kind == PhaseKind::kIterInit) {
    return LifespanClass::kPersistent;
  }
  return LifespanClass::kScoped;
}

void Trace::CheckSealed(const char* what) const {
  STALLOC_CHECK(sealed_, << what << " on a trace that is not sealed: call Validate() first");
}

TraceOps Trace::Ops() const {
  CheckSealed("Ops()");
  return TraceOps{op_time_.data(), op_ref_.data(), op_ref_.size()};
}

TraceCursor Trace::Columns() const {
  TraceCursor c;
  c.name_ = &name_;
  c.phases_ = &phases_;
  c.layers_ = &layers_;
  c.num_events_ = ts_.size();
  c.end_time_ = end_time_;
  c.op_time_ = op_time_.data();
  c.op_ref_ = op_ref_.data();
  c.ts_ = ts_.data();
  c.te_ = te_.data();
  c.size_ = size_.data();
  c.ps_ = ps_.data();
  c.pe_ = pe_.data();
  c.ls_ = ls_.data();
  c.le_ = le_.data();
  c.flags_ = flags_.data();
  c.stream_ = stream_.data();
  return c;
}

TraceCursor Trace::Cursor() const {
  CheckSealed("Cursor()");
  return Columns();
}

void Trace::Validate() {
  std::string error;
  STALLOC_CHECK(Valid(&error), << error);
}

bool Trace::Valid(std::string* error) {
  auto fail = [error](std::string msg) {
    if (error != nullptr) {
      *error = std::move(msg);
    }
    return false;
  };
  // CloseEvent already enforces ts < te, and OpenEvent assigns dense ids.
  const int32_t np = static_cast<int32_t>(phases_.size());
  const int32_t nl = static_cast<int32_t>(layers_.size());
  for (size_t i = 0; i < ts_.size(); ++i) {
    if (te_[i] == 0) {
      return fail("event " + std::to_string(i) + " was opened but never closed");
    }
    if (size_[i] == 0) {
      return fail("zero-size event " + std::to_string(i));
    }
    if (ps_[i] < kInvalidPhase || ps_[i] >= np || pe_[i] < kInvalidPhase || pe_[i] >= np) {
      return fail("event " + std::to_string(i) + " references invalid phase (ps=" +
                  std::to_string(ps_[i]) + " pe=" + std::to_string(pe_[i]) + ")");
    }
    if ((flags_[i] & 1) != 0 && (ls_[i] < 0 || ls_[i] >= nl || le_[i] < 0 || le_[i] >= nl)) {
      return fail("dynamic event " + std::to_string(i) + " references invalid layer (ls=" +
                  std::to_string(ls_[i]) + " le=" + std::to_string(le_[i]) + ")");
    }
  }
  if (!sealed_) {
    op_ref_ = OrderOps(ts_, te_, &op_time_);
    sealed_ = true;
  }
  return true;
}

}  // namespace stalloc
