// FNV-1a-64 digest of everything a trace builder produces: the name, the phase and layer tables,
// every event column and the op columns of a sealed Trace. Two builds share the digest iff they
// produced the same events under the same ids, in the same op order, with the same metadata.

#ifndef TESTS_SUPPORT_TRACE_DIGEST_H_
#define TESTS_SUPPORT_TRACE_DIGEST_H_

#include <cstdint>
#include <string>

#include "src/trace/trace.h"

namespace stalloc {

class TraceDigest {
 public:
  void Add(uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ = (hash_ ^ ((value >> shift) & 0xff)) * 1099511628211ull;
    }
  }
  void Add(const std::string& bytes) {
    Add(bytes.size());
    for (const char c : bytes) {
      hash_ = (hash_ ^ static_cast<uint8_t>(c)) * 1099511628211ull;
    }
  }
  template <typename T>
  void AddColumn(const T* column, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      Add(static_cast<uint64_t>(column[i]));
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

inline uint64_t TraceColumnsDigest(const Trace& trace) {
  TraceDigest d;
  d.Add(trace.name());
  d.Add(trace.phases().size());
  for (const PhaseInfo& p : trace.phases()) {
    d.Add(static_cast<uint64_t>(p.kind));
    d.Add(static_cast<uint64_t>(p.microbatch));
    d.Add(static_cast<uint64_t>(p.chunk));
    d.Add(p.start);
    d.Add(p.end);
  }
  d.Add(trace.layers().size());
  for (const LayerInfo& l : trace.layers()) {
    d.Add(l.name);
    d.Add(l.start);
    d.Add(l.end);
  }
  const uint64_t n = trace.size();
  d.Add(n);
  d.Add(trace.end_time());
  d.AddColumn(trace.ts(), n);
  d.AddColumn(trace.te(), n);
  d.AddColumn(trace.sizes(), n);
  d.AddColumn(trace.ps(), n);
  d.AddColumn(trace.pe(), n);
  d.AddColumn(trace.ls(), n);
  d.AddColumn(trace.le(), n);
  d.AddColumn(trace.flags(), n);
  d.AddColumn(trace.stream(), n);
  d.AddColumn(trace.op_time(), 2 * n);
  d.AddColumn(trace.op_ref(), 2 * n);
  return d.value();
}

}  // namespace stalloc

#endif  // TESTS_SUPPORT_TRACE_DIGEST_H_
