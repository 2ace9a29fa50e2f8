// Live progress heartbeat (docs/observability.md): an ExploreObserver
// that periodically reports frontier size, finished paths, step
// throughput, coverage (count and percent of decodable code pcs), the
// solver's share of wall time, the stepped state's fork depth and the
// frontier's resident bytes — one
// "[progress] ..." line on a stream (the CLI points it at stderr). When
// an EventBus is attached, every beat is also emitted as a heartbeat
// event on the stream, so --progress and --events always agree.
// Time comes from the injectable telemetry clock, so tests drive it with
// a ManualClock and never sleep.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>

#include "core/observer.h"
#include "support/telemetry.h"

namespace adlsym::obs {

class EventBus;  // obs/events.h

class ProgressMeter final : public core::ExploreObserver {
 public:
  /// Emits at most one beat per `intervalSeconds` of clock time, checked
  /// after every step. `tel` supplies the clock (null = system clock);
  /// `os` is borrowed and must outlive the meter. `bus` (optional, also
  /// borrowed) receives one heartbeat event per beat; `codePcs` is the
  /// coverage-percent denominator (0 = unknown, percent omitted).
  ProgressMeter(telemetry::Telemetry* tel, std::ostream& os,
                double intervalSeconds = 1.0, EventBus* bus = nullptr,
                uint64_t codePcs = 0);

  /// Thread-safe: parallel exploration workers report steps concurrently
  /// (an internal mutex serializes clock reads, state and the stream).
  void onStepEnd(const StepInfo& info) override;

  uint64_t beats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return beats_;
  }

 private:
  mutable std::mutex mu_;
  telemetry::Telemetry* tel_;
  std::ostream& os_;
  EventBus* bus_;
  uint64_t codePcs_;
  uint64_t intervalMicros_;
  uint64_t startMicros_ = 0;
  uint64_t lastBeatMicros_ = 0;
  uint64_t lastBeatSteps_ = 0;
  bool started_ = false;
  uint64_t beats_ = 0;
};

}  // namespace adlsym::obs
