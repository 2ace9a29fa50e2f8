// Minimal streaming JSON writer used by the telemetry layer, the CLI's
// --stats-json output and the bench JSON reports, plus the matching
// reader (Value + parse) used by tools/bench_diff to load documents the
// writer produced. The writer emits compact (no whitespace) JSON; commas
// and nesting are tracked automatically so call sites read like the
// document they produce.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adlsym::json {

/// JSON string escaping (quotes, backslash, control characters).
std::string escape(std::string_view s);

class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  Writer& beginObject();
  Writer& endObject();
  Writer& beginArray();
  Writer& endArray();

  /// Key inside an object; must be followed by exactly one value or
  /// begin{Object,Array}.
  Writer& key(std::string_view k);

  Writer& value(std::string_view v);
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(uint64_t v);
  Writer& value(int64_t v);
  Writer& value(int v) { return value(static_cast<int64_t>(v)); }
  Writer& value(unsigned v) { return value(static_cast<uint64_t>(v)); }
  Writer& value(double v);
  Writer& value(bool v);
  /// Pre-rendered JSON (e.g. a nested document from another writer).
  Writer& rawValue(std::string_view jsonText);

  // key+value in one call.
  template <typename T>
  Writer& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

 private:
  void preValue();  // comma / separator bookkeeping

  std::ostream& os_;
  /// One frame per open container: true = object, false = array.
  std::vector<bool> stack_;
  std::vector<uint32_t> counts_;
  bool pendingKey_ = false;
};

/// Parsed JSON value — the reader counterpart of Writer. A tagged struct
/// rather than a variant so consumers stay simple; object members keep
/// their document order (the writer emits deterministic orders, and
/// bench_diff reports drift in that order).
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  /// Exact integer payload, set when the number token was a pure integer
  /// (no fraction or exponent) that fits the type: `number` alone is a
  /// double and silently loses precision past 2^53, which matters for the
  /// 64-bit counters the stats and event schemas carry.
  bool intExact = false;
  uint64_t uintValue = 0;  // exact when intExact and the token was >= 0
  int64_t intValue = 0;    // exact when intExact and the token fit int64
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool isNull() const { return kind == Kind::Null; }
  bool isBool() const { return kind == Kind::Bool; }
  bool isNumber() const { return kind == Kind::Number; }
  bool isString() const { return kind == Kind::String; }
  bool isArray() const { return kind == Kind::Array; }
  bool isObject() const { return kind == Kind::Object; }

  /// An integer token in [0, 2^64): the values asU64() reads exactly.
  bool isU64() const { return intExact && number >= 0; }

  /// Exact unsigned / signed reads preferring the integer payload; fall
  /// back to truncating the double for non-integer tokens.
  uint64_t asU64() const {
    return intExact ? uintValue : static_cast<uint64_t>(number);
  }
  int64_t asI64() const {
    return intExact ? intValue : static_cast<int64_t>(number);
  }

  /// First member with this key, or null when absent / not an object.
  const Value* find(std::string_view key) const;
};

/// Parse one complete JSON document (trailing whitespace allowed, trailing
/// garbage is not). Throws adlsym::InputError with a byte offset on
/// malformed input — truncated documents fail, they never parse partially.
Value parse(std::string_view text);

}  // namespace adlsym::json
