// Unified telemetry layer (docs/observability.md): a metrics registry of
// named counters / gauges / fixed-bucket latency histograms and RAII
// scoped timers. Structured events go through the flight recorder
// (obs/events.h), not through this layer. Every hot layer (engine,
// explorer, solver) takes an optional Telemetry* and is zero-cost when it
// is null: call sites branch on the pointer and no clock is read, nothing
// allocates.
//
// The clock is injectable (ManualClock) so wall-budget paths and timer
// assertions are deterministic in tests.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace adlsym::json {
class Writer;
struct Value;
}

namespace adlsym::telemetry {

// ---- clock ------------------------------------------------------------

/// Monotonic microsecond clock. The process-wide default wraps
/// std::chrono::steady_clock; tests inject a ManualClock.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual uint64_t nowMicros() = 0;
  static Clock& system();
};

/// Deterministic clock for tests: starts at 0 and advances only when told
/// to — either explicitly or by `stepMicros` on every read (so code that
/// polls elapsed time makes reproducible progress).
class ManualClock final : public Clock {
 public:
  explicit ManualClock(uint64_t stepMicros = 0) : step_(stepMicros) {}
  uint64_t nowMicros() override {
    const uint64_t t = now_;
    now_ += step_;
    return t;
  }
  void advance(uint64_t micros) { now_ += micros; }
  /// Value the next nowMicros() will return, without advancing. The
  /// checkpoint writer records the clock position this way so writing a
  /// checkpoint never consumes a read — a checkpointed run and its
  /// kill/resume replay see the same read sequence.
  uint64_t peekMicros() const { return now_; }

 private:
  uint64_t now_ = 0;
  uint64_t step_;
};

// ---- metrics ----------------------------------------------------------

struct Counter {
  uint64_t value = 0;
  void add(uint64_t d = 1) { value += d; }
};

struct Gauge {
  int64_t value = 0;
  void set(int64_t v) { value = v; }
  void setMax(int64_t v) {
    if (v > value) value = v;
  }
};

/// Fixed-bucket histogram for latency-like values (microseconds). Bucket i
/// counts values v with bit_width(v) == i, i.e. v in [2^(i-1), 2^i - 1]
/// (bucket 0 counts v == 0); the last bucket absorbs everything larger.
class Histogram {
 public:
  static constexpr size_t kBuckets = 24;  // last finite bound ~8.4 s

  void record(uint64_t v);
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  double mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }
  /// Inclusive upper bound of bucket i (UINT64_MAX for the overflow bucket).
  static uint64_t bucketUpperBound(size_t i);

  /// Overwrite with recorded totals — checkpoint restore (adlsym-ckpt-v6).
  void restore(uint64_t count, uint64_t sum, uint64_t max,
               const std::array<uint64_t, kBuckets>& buckets) {
    count_ = count;
    sum_ = sum;
    max_ = max;
    buckets_ = buckets;
  }

  /// Fold another histogram in (bucket-wise sums; max of maxes). Used to
  /// merge per-worker registries after a parallel run.
  void merge(const Histogram& o) {
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.max_ > max_) max_ = o.max_;
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  }

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
  std::array<uint64_t, kBuckets> buckets_{};
};

/// Named metrics, created on first use. References returned remain valid
/// for the registry's lifetime (node-stable map storage), so hot paths
/// resolve a metric once and keep the pointer.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Fold another registry in: counters add, gauges keep the maximum,
  /// histograms merge bucket-wise. Names only present in `o` are created.
  /// Used to merge per-worker registries into the main one after a
  /// parallel run (std::map keeps the union's JSON order canonical).
  void mergeFrom(const MetricsRegistry& o) {
    for (const auto& [name, c] : o.counters_) counters_[name].add(c.value);
    for (const auto& [name, g] : o.gauges_) gauges_[name].setMax(g.value);
    for (const auto& [name, h] : o.histograms_) histograms_[name].merge(h);
  }

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,max,
  /// mean,buckets:[...]}}} — the "metrics" object of the stats schema.
  void writeJson(json::Writer& w) const;
  std::string toJson() const;

  /// Fold a parsed writeJson() document in, with mergeFrom() semantics
  /// (counters add, gauges setMax, histograms merge). Checkpoint restore:
  /// the consumed-budget baseline of a resumed run. Throws InputError on a
  /// malformed document.
  void mergeFromJson(const json::Value& v);

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// ---- the bundle ---------------------------------------------------------

/// What components hold a pointer to: registry + clock. Injectable
/// everywhere; Session wires one per SessionOptions::telemetry.
class Telemetry {
 public:
  Telemetry() : clock_(&Clock::system()) {}
  explicit Telemetry(Clock& clock) : clock_(&clock) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  Clock& clock() { return *clock_; }
  uint64_t nowMicros() { return clock_->nowMicros(); }

 private:
  MetricsRegistry metrics_;
  Clock* clock_;
};

/// RAII timer: records elapsed microseconds into a histogram at scope
/// exit. Both pointers may be null — the timer is then a no-op and never
/// reads the clock.
class ScopedTimer {
 public:
  ScopedTimer(Telemetry* t, Histogram* h) : t_(t), h_(h) {
    if (t_ && h_) start_ = t_->nowMicros();
  }
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Record now instead of at scope exit; returns elapsed micros (0 when
  /// disabled). Idempotent.
  uint64_t stop();

 private:
  Telemetry* t_;
  Histogram* h_;
  uint64_t start_ = 0;
  bool done_ = false;
};

}  // namespace adlsym::telemetry
