// Tseitin bit-blaster: lowers bitvector terms to CNF over the SAT solver.
// Each term is translated once (results cached); gate literals are
// structurally hashed so shared subcircuits produce shared clauses. This is
// the eager QF_BV pipeline of the SMT substrate (DESIGN.md S2).
#pragma once

#include <unordered_map>
#include <vector>

#include "smt/sat.h"
#include "smt/term.h"

namespace adlsym::smt {

class BitBlaster {
 public:
  BitBlaster(TermManager& tm, SatSolver& sat);

  /// SAT literal representing a width-1 term; encodes the term's cone into
  /// the solver on first use.
  Lit litFor(TermRef t);

  /// Bits of an arbitrary term, LSB first.
  const std::vector<Lit>& bitsFor(TermRef t);

  /// Concrete value of a term under the solver's current model (call only
  /// after SatResult::Sat; the term must have been blasted).
  uint64_t modelValueOf(TermRef t);

  /// The gates a blasted term requested when it was built: two-input AND
  /// and XOR gates left after constant folding, whether the structural
  /// cache already held them or not. Its own operator only, not its
  /// operands'. So it depends on the term's structure alone, never on what
  /// was blasted before it (0 for a term not blasted).
  uint64_t gatesOf(TermId id) const {
    return id < termGates_.size() ? termGates_[id] : 0;
  }

  /// Every Var term that has been blasted so far, with its SAT bits. Used to
  /// snapshot a full model right after a Sat answer, before any further
  /// incremental blasting disturbs the assignment trail.
  const std::vector<std::pair<TermId, std::vector<Lit>>>& varTerms() const {
    return varTerms_;
  }

  struct Stats {
    uint64_t gates = 0;      // fresh gate variables introduced
    uint64_t cacheHits = 0;  // structural gate-cache hits
    uint64_t termsBlasted = 0;

    /// Aggregate another blaster's stats (a parallel run sums its
    /// workers').
    Stats& operator+=(const Stats& o) {
      gates += o.gates;
      cacheHits += o.cacheHits;
      termsBlasted += o.termsBlasted;
      return *this;
    }
  };
  const Stats& stats() const { return stats_; }

 private:
  Lit trueLit() const { return trueLit_; }
  Lit falseLit() const { return ~trueLit_; }
  bool isTrueLit(Lit l) const { return l == trueLit_; }
  bool isFalseLit(Lit l) const { return l == ~trueLit_; }

  Lit freshLit();
  Lit mkAnd2(Lit a, Lit b);
  Lit mkOr2(Lit a, Lit b) { return ~mkAnd2(~a, ~b); }
  Lit mkXor2(Lit a, Lit b);
  Lit mkXnor2(Lit a, Lit b) { return ~mkXor2(a, b); }
  Lit mkMux(Lit c, Lit t, Lit e);
  Lit andAll(const std::vector<Lit>& ls);

  using Bits = std::vector<Lit>;
  Bits addCirc(const Bits& a, const Bits& b, Lit carryIn);
  Bits negCirc(const Bits& a);
  Bits mulCirc(const Bits& a, const Bits& b);
  /// Restoring divider; outputs quotient and remainder (SMT-LIB div-by-zero
  /// semantics already applied).
  void divremCirc(const Bits& a, const Bits& b, Bits& quot, Bits& rem);
  Bits shiftCirc(Kind kind, const Bits& a, const Bits& sh);
  Lit ultCirc(const Bits& a, const Bits& b);
  Lit uleCirc(const Bits& a, const Bits& b);
  Bits muxBits(Lit c, const Bits& t, const Bits& e);

  const Bits& blast(TermId id);

  TermManager& tm_;
  SatSolver& sat_;
  Lit trueLit_;
  std::unordered_map<TermId, Bits> blasted_;
  std::vector<std::pair<TermId, Bits>> varTerms_;

  struct PairHash {
    size_t operator()(const std::pair<uint32_t, uint32_t>& p) const {
      return (static_cast<uint64_t>(p.first) << 32 | p.second) * 0x9e3779b97f4a7c15ull >> 16;
    }
  };
  std::unordered_map<std::pair<uint32_t, uint32_t>, Lit, PairHash> andCache_;
  std::unordered_map<std::pair<uint32_t, uint32_t>, Lit, PairHash> xorCache_;
  Stats stats_;
  /// Gate requests so far (see gatesOf), and each blasted term's share.
  uint64_t gateRequests_ = 0;
  std::vector<uint32_t> termGates_;
};

}  // namespace adlsym::smt
