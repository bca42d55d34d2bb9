#include "src/core/plan_io.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

namespace stalloc {

namespace {

std::vector<std::string> Split(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

// Parses the whole field as a decimal T or fails; never throws.
template <typename T>
bool Parse(const std::string& field, T* out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool Fail(PlanIoError* err, std::string message, uint64_t line) {
  if (err != nullptr) {
    err->message = std::move(message);
    err->line = line;
  }
  return false;
}

}  // namespace

void WritePlanCsv(const StaticPlan& plan, const DynamicReusableSpace& space, std::ostream& os) {
  os << "# stalloc-plan v1\n";
  os << "# pool," << plan.pool_size << "," << plan.lower_bound << "\n";
  for (const auto& [key, region] : space.regions) {
    os << "# region," << key.first << "," << key.second;
    for (const auto& iv : region) {
      os << "," << iv.lo << "," << iv.hi;
    }
    os << "\n";
  }
  for (const auto& [ls, les] : space.expected_le) {
    os << "# expected_le," << ls;
    for (LayerId le : les) {
      os << "," << le;
    }
    os << "\n";
  }
  os << "event_id,addr,padded_size,size,ts,te,ps,pe,dyn,ls,le,stream\n";
  for (const auto& d : plan.decisions) {
    const MemoryEvent& e = d.event;
    os << e.id << "," << d.addr << "," << d.padded_size << "," << e.size << "," << e.ts << ","
       << e.te << "," << e.ps << "," << e.pe << "," << (e.dyn ? 1 : 0) << "," << e.ls << ","
       << e.le << "," << static_cast<int>(e.stream) << "\n";
  }
}

bool WritePlanCsvFile(const StaticPlan& plan, const DynamicReusableSpace& space,
                      const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  WritePlanCsv(plan, space, os);
  return static_cast<bool>(os);
}

bool ReadPlanCsv(std::istream& is, LoadedPlan* out, PlanIoError* err) {
  *out = LoadedPlan();
  std::string line;
  uint64_t line_no = 0;
  auto fail = [&](std::string message) { return Fail(err, std::move(message), line_no); };
  bool header_seen = false;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      auto fields = Split(line.size() >= 2 ? line.substr(2) : std::string());
      if (fields[0] == "pool") {
        if (fields.size() < 3 || !Parse(fields[1], &out->plan.pool_size) ||
            !Parse(fields[2], &out->plan.lower_bound)) {
          return fail("malformed pool row: " + line);
        }
      } else if (fields[0] == "region") {
        LayerId ls = 0;
        LayerId le = 0;
        if (fields.size() < 3 || fields.size() % 2 == 0 || !Parse(fields[1], &ls) ||
            !Parse(fields[2], &le)) {
          return fail("malformed region row: " + line);
        }
        if (ls < 0 || le < 0) {
          return fail("negative layer id in region row: " + line);
        }
        // Intervals ascend and stay inside the pool (its row comes first); touching ones merge.
        std::vector<Interval> region;
        for (size_t i = 3; i + 1 < fields.size(); i += 2) {
          uint64_t lo = 0;
          uint64_t hi = 0;
          if (!Parse(fields[i], &lo) || !Parse(fields[i + 1], &hi) || lo >= hi) {
            return fail("malformed region interval: " + line);
          }
          if (!region.empty() && lo < region.back().hi) {
            return fail("region intervals unsorted or overlapping: " + line);
          }
          if (hi > out->plan.pool_size) {
            return fail("region interval ends past the pool size: " + line);
          }
          InsertMerged(&region, lo, hi);
        }
        if (!out->space.regions.emplace(std::make_pair(ls, le), std::move(region)).second) {
          return fail("duplicate region row: " + line);
        }
      } else if (fields[0] == "expected_le") {
        LayerId ls = 0;
        if (fields.size() < 2 || !Parse(fields[1], &ls)) {
          return fail("malformed expected_le row: " + line);
        }
        if (ls < 0) {
          return fail("negative layer id in expected_le row: " + line);
        }
        auto& les = out->space.expected_le[ls];
        for (size_t i = 2; i < fields.size(); ++i) {
          LayerId le = 0;
          if (!Parse(fields[i], &le)) {
            return fail("malformed expected_le row: " + line);
          }
          if (le < 0) {
            return fail("negative layer id in expected_le row: " + line);
          }
          les.push_back(le);
        }
      }
      continue;
    }
    if (!header_seen) {
      header_seen = true;
      if (line.rfind("event_id,", 0) != 0) {
        return fail("unexpected plan CSV header: " + line);
      }
      continue;
    }
    auto fields = Split(line);
    PlanDecision d;
    MemoryEvent& e = d.event;
    int dyn = 0;
    int stream = 0;
    if (fields.size() < 12 || !Parse(fields[0], &e.id) || !Parse(fields[1], &d.addr) ||
        !Parse(fields[2], &d.padded_size) || !Parse(fields[3], &e.size) ||
        !Parse(fields[4], &e.ts) || !Parse(fields[5], &e.te) || !Parse(fields[6], &e.ps) ||
        !Parse(fields[7], &e.pe) || !Parse(fields[8], &dyn) || !Parse(fields[9], &e.ls) ||
        !Parse(fields[10], &e.le) || !Parse(fields[11], &stream) || stream < 0 ||
        stream > 255) {
      return fail("malformed plan CSV row: " + line);
    }
    e.dyn = dyn != 0;
    e.stream = static_cast<StreamId>(stream);
    if (e.ts >= e.te || d.padded_size < e.size || d.addr + d.padded_size < d.addr) {
      return fail("impossible decision: " + line);
    }
    out->plan.decisions.push_back(d);
  }
  if (!header_seen) {
    return fail("missing plan CSV header");
  }
  std::string error;
  if (!out->plan.Check(&error)) {
    return fail("invalid static plan: " + error);
  }
  return true;
}

bool ReadPlanCsvFile(const std::string& path, LoadedPlan* out, PlanIoError* err) {
  std::ifstream is(path);
  if (!is) {
    return Fail(err, "cannot open plan file " + path, 0);
  }
  return ReadPlanCsv(is, out, err);
}

}  // namespace stalloc
