// Per-RTL-statement execution counts for the deterministic profiler
// (docs/observability.md). An RtlProfile indexes every semantic statement
// of an ArchModel in a stable preorder (insns in model order; within an
// instruction: statement, then-body, else-body), so statement ids — and
// therefore the emitted profile rows — are identical across runs and
// across --jobs counts.
//
// Counting is two-level to stay cheap and race-free under the parallel
// engine: each ADL executor increments a private counts vector and flushes
// it into the shared accumulator under a mutex (explicitly, or from its
// destructor — parallel workers die before ParallelExplorer::run()
// returns, so the accumulator is complete by the time anyone reads it).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "adl/model.h"

namespace adlsym::core {

/// Human-readable name of an RTL statement op ("assign_reg", "if", ...).
const char* stmtOpName(adl::rtl::StmtOp op);

class RtlProfile {
 public:
  /// One row per statement of the model, in stable preorder.
  struct StmtSite {
    const char* insn = nullptr;  // mnemonic (borrowed from the model)
    uint32_t stmtIdx = 0;        // preorder index within the instruction
    adl::rtl::StmtOp op;
    unsigned line = 0;           // ADL source location
    unsigned col = 0;
  };

  explicit RtlProfile(const adl::ArchModel& model);

  size_t size() const { return sites_.size(); }
  const std::vector<StmtSite>& sites() const { return sites_; }

  /// Dense id of a statement, or size() when the pointer is not part of
  /// the indexed model (defensive; never expected for an ADL executor).
  uint32_t indexOf(const adl::rtl::Stmt* s) const {
    auto it = index_.find(s);
    return it == index_.end() ? static_cast<uint32_t>(sites_.size())
                              : it->second;
  }

  /// Fold an executor-local counts vector into the shared totals.
  void addCounts(const std::vector<uint64_t>& local);

  /// Aggregated executed-statement counts, id-indexed. Read after all
  /// executors flushed.
  std::vector<uint64_t> counts() const;
  /// Sum of all counts == total evaluator ticks attributed to RTL sites.
  uint64_t total() const;

 private:
  std::vector<StmtSite> sites_;
  std::unordered_map<const adl::rtl::Stmt*, uint32_t> index_;

  mutable std::mutex mu_;
  std::vector<uint64_t> counts_;
};

}  // namespace adlsym::core
