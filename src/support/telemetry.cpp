#include "support/telemetry.h"

#include <bit>
#include <chrono>
#include <sstream>

#include "support/error.h"
#include "support/json.h"

namespace adlsym::telemetry {

namespace {

class SystemClock final : public Clock {
 public:
  uint64_t nowMicros() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

}  // namespace

Clock& Clock::system() {
  static SystemClock clock;
  return clock;
}

// ---- histogram ----------------------------------------------------------

void Histogram::record(uint64_t v) {
  ++count_;
  sum_ += v;
  if (v > max_) max_ = v;
  size_t i = static_cast<size_t>(std::bit_width(v));
  if (i >= kBuckets) i = kBuckets - 1;
  ++buckets_[i];
}

uint64_t Histogram::bucketUpperBound(size_t i) {
  if (i + 1 >= kBuckets) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

// ---- registry -----------------------------------------------------------

void MetricsRegistry::writeJson(json::Writer& w) const {
  w.beginObject();
  w.key("counters").beginObject();
  for (const auto& [name, c] : counters_) w.kv(name, c.value);
  w.endObject();
  w.key("gauges").beginObject();
  for (const auto& [name, g] : gauges_) w.kv(name, g.value);
  w.endObject();
  w.key("histograms").beginObject();
  for (const auto& [name, h] : histograms_) {
    w.key(name).beginObject();
    w.kv("count", h.count());
    w.kv("sum", h.sum());
    w.kv("max", h.max());
    w.kv("mean", h.mean());
    w.key("buckets").beginArray();
    for (const uint64_t b : h.buckets()) w.value(b);
    w.endArray();
    w.endObject();
  }
  w.endObject();
  w.endObject();
}

std::string MetricsRegistry::toJson() const {
  std::ostringstream os;
  json::Writer w(os);
  writeJson(w);
  return os.str();
}

void MetricsRegistry::mergeFromJson(const json::Value& v) {
  const auto section = [&](const char* name) -> const json::Value* {
    const json::Value* s = v.find(name);
    if (s && !s->isObject()) {
      throw InputError(std::string("metrics: '") + name + "' is not an object");
    }
    return s;
  };
  if (const json::Value* cs = section("counters")) {
    for (const auto& [name, val] : cs->object) counters_[name].add(val.asU64());
  }
  if (const json::Value* gs = section("gauges")) {
    for (const auto& [name, val] : gs->object) gauges_[name].setMax(val.asI64());
  }
  if (const json::Value* hs = section("histograms")) {
    for (const auto& [name, val] : hs->object) {
      const json::Value* buckets = val.find("buckets");
      if (!buckets || !buckets->isArray() ||
          buckets->array.size() != Histogram::kBuckets) {
        throw InputError("metrics: histogram '" + name + "' has bad buckets");
      }
      std::array<uint64_t, Histogram::kBuckets> b{};
      for (size_t i = 0; i < b.size(); ++i) b[i] = buckets->array[i].asU64();
      const json::Value* count = val.find("count");
      const json::Value* sum = val.find("sum");
      const json::Value* max = val.find("max");
      if (!count || !sum || !max) {
        throw InputError("metrics: histogram '" + name + "' missing totals");
      }
      Histogram h;
      h.restore(count->asU64(), sum->asU64(), max->asU64(), b);
      histograms_[name].merge(h);
    }
  }
}

uint64_t ScopedTimer::stop() {
  if (done_ || !t_ || !h_) return 0;
  done_ = true;
  const uint64_t elapsed = t_->nowMicros() - start_;
  h_->record(elapsed);
  return elapsed;
}

}  // namespace adlsym::telemetry
