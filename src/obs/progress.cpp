#include "obs/progress.h"

#include <cstdio>

#include "obs/events.h"
#include "support/bits.h"

namespace adlsym::obs {

ProgressMeter::ProgressMeter(telemetry::Telemetry* tel, std::ostream& os,
                             double intervalSeconds, EventBus* bus,
                             uint64_t codePcs)
    : tel_(tel), os_(os), bus_(bus), codePcs_(codePcs) {
  if (!(intervalSeconds >= 0.001)) intervalSeconds = 0.001;  // NaN too
  intervalMicros_ = saturatingCast(intervalSeconds * 1e6);
}

void ProgressMeter::onStepEnd(const StepInfo& info) {
  std::lock_guard<std::mutex> lk(mu_);
  telemetry::Clock& clock =
      tel_ ? tel_->clock() : telemetry::Clock::system();
  const uint64_t now = clock.nowMicros();
  if (!started_) {
    started_ = true;
    startMicros_ = now;
    lastBeatMicros_ = now;
    return;
  }
  if (now - lastBeatMicros_ < intervalMicros_) return;

  const uint64_t sinceBeat = now - lastBeatMicros_;
  const uint64_t sinceStart = now - startMicros_;
  const double stepsPerSec =
      sinceBeat ? double(info.totalSteps - lastBeatSteps_) * 1e6 /
                      double(sinceBeat)
                : 0.0;
  const double solverShare =
      sinceStart ? double(info.runSolverMicros) / double(sinceStart) : 0.0;

  char cov[48];
  if (codePcs_ != 0) {
    std::snprintf(cov, sizeof cov, "%zu(%.0f%%)", info.coveredPcs,
                  100.0 * double(info.coveredPcs) / double(codePcs_));
  } else {
    std::snprintf(cov, sizeof cov, "%zu", info.coveredPcs);
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "[progress] t=%.1fs frontier=%zu paths=%zu steps=%llu "
                "steps/s=%.0f covered=%s solver=%.0f%% "
                "depth=%llu fmem=%lluKiB\n",
                double(sinceStart) / 1e6, info.frontierSize, info.pathsDone,
                static_cast<unsigned long long>(info.totalSteps), stepsPerSec,
                cov, solverShare * 100.0,
                static_cast<unsigned long long>(info.depth),
                static_cast<unsigned long long>(info.frontierBytes / 1024));
  os_ << line;
  os_.flush();

  // The event stream sees the same beat the terminal does, so --events
  // and --progress never disagree about the run's live trajectory.
  if (bus_ != nullptr) {
    bus_->heartbeat(info.frontierSize, info.pathsDone, info.totalSteps,
                    stepsPerSec, info.coveredPcs, solverShare, info.depth,
                    info.frontierBytes);
  }

  ++beats_;
  lastBeatMicros_ = now;
  lastBeatSteps_ = info.totalSteps;
}

}  // namespace adlsym::obs
