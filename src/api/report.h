// ReportSink: the one report writer behind every bench and tool binary — an aligned text table
// stream for humans plus a single versioned JSON document for machines, replacing the 18
// hand-rolled `--json` printer blocks that used to live in the bench tree.
//
// Conventions (shared by every binary):
//   * no --json           -> tables to stdout, no JSON;
//   * --json FILE         -> tables to stdout, JSON written to FILE (+ "wrote FILE" line);
//   * --json -            -> JSON owns stdout, tables move to stderr so the output stays
//                            pipeable into `python3 -m json.tool` etc.
// Every JSON document carries "bench" (the binary's report name) and "schema_version" at the
// root, so downstream scrapers can detect shape changes instead of silently misparsing.

#ifndef SRC_API_REPORT_H_
#define SRC_API_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/table.h"

namespace stalloc {

// Bumped whenever the JSON shape of any bench/tool changes incompatibly.
//   1 — the historical hand-rolled per-bench blocks (pre-ReportSink);
//   2 — unified ReportSink output: schema_version + run metadata (seeds, capacity, allocator
//       names) at the root, RunRecord-shaped result objects.
inline constexpr int kReportSchemaVersion = 2;

// A minimal ordered JSON value tree: emission for every bench/tool, plus just enough parsing
// and read access for the tools that consume those documents back (stalloc_diff, --heapmap).
// Objects preserve insertion order so emitted documents are stable across runs.
class Json {
 public:
  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool v) : type_(Type::kBool), bool_(v) {}
  // Integer constructors are declared over the fundamental types (always six distinct types),
  // never the int64_t/uint64_t typedefs — a typedef-based overload set would redeclare the same
  // signature on platforms where int64_t is `long long` instead of `long`.
  Json(int v) : type_(Type::kInt), int_(v) {}
  Json(unsigned int v) : type_(Type::kUint), uint_(v) {}
  Json(long v) : type_(Type::kInt), int_(v) {}
  Json(unsigned long v) : type_(Type::kUint), uint_(v) {}
  Json(long long v) : type_(Type::kInt), int_(v) {}
  Json(unsigned long long v) : type_(Type::kUint), uint_(v) {}
  Json(double v) : type_(Type::kDouble), double_(v) {}
  Json(const char* v) : type_(Type::kString), string_(v) {}
  Json(std::string v) : type_(Type::kString), string_(std::move(v)) {}

  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  // Object member set (insertion-ordered; a repeated key overwrites in place). Aborts when
  // called on a non-object.
  Json& Set(const std::string& key, Json value);

  // Array append. Aborts when called on a non-array.
  Json& Add(Json value);

  bool IsObject() const { return type_ == Type::kObject; }
  bool IsArray() const { return type_ == Type::kArray; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsNumber() const {
    return type_ == Type::kInt || type_ == Type::kUint || type_ == Type::kDouble;
  }
  size_t size() const;

  // Object member lookup: the value for `key`, or nullptr when absent / not an object.
  const Json* Find(const std::string& key) const;

  // Array element access; aborts when out of range or not an array.
  const Json& at(size_t i) const;

  // Object iteration (empty on non-objects) — key order is document/insertion order.
  const std::vector<std::pair<std::string, Json>>& items() const { return object_; }

  // Value readers with a fallback on type mismatch. AsInt/AsUint saturate through the numeric
  // types (a parsed 3.0 reads as 3); AsString never stringifies numbers.
  double AsDouble(double fallback = 0) const;
  int64_t AsInt(int64_t fallback = 0) const;
  uint64_t AsUint(uint64_t fallback = 0) const;
  bool AsBool(bool fallback = false) const;
  const std::string& AsString() const { return string_; }

  // Parses a JSON document. On failure returns nullopt and, when `error` is non-null, stores a
  // message with the byte offset of the problem.
  static std::optional<Json> Parse(const std::string& text, std::string* error = nullptr);

  // Serializes the tree; `indent` spaces per nesting level (0 = compact one-line output).
  std::string Dump(int indent = 2) const;

  static std::string Escape(const std::string& s);

 private:
  enum class Type : uint8_t { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

class ReportSink {
 public:
  // `name` identifies the binary in the JSON root ("bench" key). `json_path`: "" disables JSON,
  // "-" sends it to stdout (tables fall back to stderr), anything else is a file path.
  ReportSink(std::string name, std::string json_path);

  // Stream for human-readable output (headlines and tables).
  std::FILE* out() const { return json_to_stdout_ ? stderr : stdout; }

  bool json_enabled() const { return !json_path_.empty(); }

  // The JSON root object; pre-seeded with {"bench": name, "schema_version": N}.
  Json& root() { return root_; }

  // Shorthand for root().Set — run metadata (seeds, capacity, allocator names, ...).
  void Meta(const std::string& key, Json value) { root_.Set(key, std::move(value)); }

  // Renders `table` (plus a trailing blank line) to out().
  void Print(const TextTable& table);

  // printf-style headline to out().
  void Printf(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  // Emits the JSON document (no-op when JSON is disabled). Returns the process exit code:
  // 0 on success, 1 when the output file cannot be written.
  int Finish();

 private:
  std::string json_path_;
  bool json_to_stdout_ = false;
  Json root_ = Json::Object();
};

// Writes `value` (with a trailing newline) to `path` following the --json conventions above:
// "-" sends it to stdout, anything else is a file path (confirmed with a "wrote PATH" line).
// Returns false — with a message on stderr — when the file cannot be opened.
bool WriteJsonFile(const Json& value, const std::string& path);

}  // namespace stalloc

#endif  // SRC_API_REPORT_H_
