#include "smt/term.h"

#include <algorithm>

#include "support/bits.h"

namespace adlsym::smt {

const char* kindName(Kind k) {
  switch (k) {
    case Kind::Const: return "const";
    case Kind::Var: return "var";
    case Kind::Not: return "bvnot";
    case Kind::Neg: return "bvneg";
    case Kind::And: return "bvand";
    case Kind::Or: return "bvor";
    case Kind::Xor: return "bvxor";
    case Kind::Add: return "bvadd";
    case Kind::Sub: return "bvsub";
    case Kind::Mul: return "bvmul";
    case Kind::UDiv: return "bvudiv";
    case Kind::URem: return "bvurem";
    case Kind::SDiv: return "bvsdiv";
    case Kind::SRem: return "bvsrem";
    case Kind::Shl: return "bvshl";
    case Kind::LShr: return "bvlshr";
    case Kind::AShr: return "bvashr";
    case Kind::Concat: return "concat";
    case Kind::Extract: return "extract";
    case Kind::Eq: return "=";
    case Kind::Ult: return "bvult";
    case Kind::Ule: return "bvule";
    case Kind::Slt: return "bvslt";
    case Kind::Sle: return "bvsle";
    case Kind::Ite: return "ite";
  }
  return "?";
}

const std::string& TermManager::varName(TermId id) const {
  const TermNode& n = nodes_[id];
  check(n.kind == Kind::Var, "varName on non-variable");
  return varNames_[static_cast<size_t>(n.aux)];
}

uint32_t TermManager::varIndex(TermId id) const {
  const TermNode& n = nodes_[id];
  check(n.kind == Kind::Var, "varIndex on non-variable");
  return static_cast<uint32_t>(n.aux);
}

namespace {

constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;

// splitmix64's finalizer: a bijective, well-spread 64-bit mix.
uint64_t mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// FNV-1a: a variable's name, hashed the same way on every platform.
uint64_t hashName(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : name) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

TermRef TermManager::intern(Kind kind, unsigned width, TermId a, TermId b,
                            TermId c, uint64_t aux) {
  check(width >= 1 && width <= 64, "term width out of range");
  TermNode n{kind, static_cast<uint8_t>(width), a, b, c, aux};
  // A variable's aux is its pool-local index: the named hash takes its
  // name instead, the blind hash nothing more than its width.
  uint64_t named = (static_cast<uint64_t>(kind) << 8 | width) * kMul;
  uint64_t blind = named;
  if (kind == Kind::Var) {
    named = named * kMul + hashName(varNames_[aux]);
  } else {
    named = blind = named * kMul + aux;
    for (const TermId op : {a, b, c}) {
      if (op == kInvalidTerm) continue;
      named = named * kMul + nodes_[op].named;
      blind = blind * kMul + nodes_[op].blind;
    }
  }
  n.named = mix(named);
  n.blind = mix(blind);
  // The table is keyed by the named hash. A 64-bit collision moves the
  // later node to the next free key, so a lookup probes until it finds
  // its node or a free key.
  for (uint64_t key = n.named;; ++key) {
    const auto [it, inserted] =
        internMap_.try_emplace(key, static_cast<TermId>(nodes_.size()));
    if (inserted) {
      nodes_.push_back(n);
      return TermRef(this, it->second);
    }
    if (nodes_[it->second] == n) return TermRef(this, it->second);
  }
}

TermRef TermManager::mkConst(unsigned width, uint64_t value) {
  return intern(Kind::Const, width, kInvalidTerm, kInvalidTerm, kInvalidTerm,
                truncTo(value, width));
}

TermRef TermManager::mkVar(unsigned width, const std::string& name) {
  auto it = varMap_.find(name);
  if (it != varMap_.end()) {
    TermRef existing(this, it->second);
    check(existing.width() == width, "variable redeclared at different width");
    return existing;
  }
  const uint64_t idx = varNames_.size();
  varNames_.push_back(name);
  TermRef t = intern(Kind::Var, width, kInvalidTerm, kInvalidTerm, kInvalidTerm, idx);
  varMap_.emplace(name, t.id());
  return t;
}

uint64_t TermManager::evalOp(Kind k, unsigned width, uint64_t a, uint64_t b,
                             uint64_t aux) {
  const uint64_t mask = lowMask(width);
  a &= mask;
  // Operand b is masked per-op: shifts interpret the full value.
  switch (k) {
    case Kind::Const: return a;
    case Kind::Not: return ~a & mask;
    case Kind::Neg: return (0 - a) & mask;
    case Kind::And: return a & b & mask;
    case Kind::Or: return (a | b) & mask;
    case Kind::Xor: return (a ^ b) & mask;
    case Kind::Add: return (a + b) & mask;
    case Kind::Sub: return (a - b) & mask;
    case Kind::Mul: return (a * (b & mask)) & mask;
    case Kind::UDiv: {
      b &= mask;
      return b == 0 ? mask : (a / b);
    }
    case Kind::URem: {
      b &= mask;
      return b == 0 ? a : (a % b);
    }
    case Kind::SDiv: {
      b &= mask;
      const int64_t sa = asSigned(a, width);
      const int64_t sb = asSigned(b, width);
      if (sb == 0) return sa >= 0 ? mask : 1;  // SMT-LIB by-translation
      // INT_MIN / -1 overflows in C++; in modular BV arithmetic the result
      // is INT_MIN again.
      if (sb == -1) return (0 - a) & mask;
      return static_cast<uint64_t>(sa / sb) & mask;
    }
    case Kind::SRem: {
      b &= mask;
      const int64_t sa = asSigned(a, width);
      const int64_t sb = asSigned(b, width);
      if (sb == 0) return a;
      if (sb == -1) return 0;
      return static_cast<uint64_t>(sa % sb) & mask;
    }
    case Kind::Shl: {
      b &= mask;
      return b >= width ? 0 : (a << b) & mask;
    }
    case Kind::LShr: {
      b &= mask;
      return b >= width ? 0 : (a >> b);
    }
    case Kind::AShr: {
      b &= mask;
      const int64_t sa = asSigned(a, width);
      if (b >= width) return sa < 0 ? mask : 0;
      return static_cast<uint64_t>(sa >> b) & mask;
    }
    case Kind::Eq: return a == (b & mask) ? 1 : 0;
    case Kind::Ult: return a < (b & mask) ? 1 : 0;
    case Kind::Ule: return a <= (b & mask) ? 1 : 0;
    case Kind::Slt: return asSigned(a, width) < asSigned(b, width) ? 1 : 0;
    case Kind::Sle: return asSigned(a, width) <= asSigned(b, width) ? 1 : 0;
    case Kind::Extract: {
      const unsigned hi = static_cast<unsigned>(aux >> 8);
      const unsigned lo = static_cast<unsigned>(aux & 0xff);
      return bitSlice(a, hi, lo);
    }
    default:
      throw Error("evalOp: unsupported kind");
  }
}

void TermManager::evalReserve() {
  if (evalStamps_.size() < nodes_.size()) {
    evalStamps_.resize(nodes_.size(), 0);
    evalValues_.resize(nodes_.size(), 0);
  }
}

void TermManager::evalBegin() {
  if (++evalEpoch_ == 0) {
    // The stamp wrapped: clear every stamp so no stale entry reads live.
    std::fill(evalStamps_.begin(), evalStamps_.end(), 0);
    evalEpoch_ = 1;
  }
}

void TermManager::evalBind(TermRef var, uint64_t value) {
  check(var.manager() == this && var.isVar(), "evalBind: not a variable here");
  evalReserve();
  evalValues_[var.id()] = truncTo(value, nodes_[var.id()].width);
  evalStamps_[var.id()] = evalEpoch_;
}

uint64_t TermManager::evalMemo(
    TermRef t, const std::function<uint64_t(uint32_t)>* varValue) {
  check(t.manager() == this, "evalTerm: foreign term");
  if (evalEpoch_ == 0) evalBegin();
  evalReserve();
  const uint32_t epoch = evalEpoch_;
  uint64_t* memo = evalValues_.data();
  uint32_t* stamps = evalStamps_.data();
  // Iterative post-order to survive deep path-condition chains.
  std::vector<std::pair<TermId, bool>>& stack = evalStack_;
  stack.clear();
  stack.emplace_back(t.id(), false);
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    if (stamps[id] == epoch) continue;
    const TermNode& n = nodes_[id];
    if (!expanded) {
      stack.emplace_back(id, true);
      if (n.a != kInvalidTerm) stack.emplace_back(n.a, false);
      if (n.b != kInvalidTerm) stack.emplace_back(n.b, false);
      if (n.c != kInvalidTerm) stack.emplace_back(n.c, false);
      continue;
    }
    uint64_t value = 0;
    switch (n.kind) {
      case Kind::Const: value = n.aux; break;
      case Kind::Var:
        if (varValue != nullptr) {
          value = truncTo((*varValue)(static_cast<uint32_t>(n.aux)), n.width);
        }
        break;
      case Kind::Concat: {
        const unsigned loW = nodes_[n.b].width;
        value = truncTo((memo[n.a] << loW) | memo[n.b], n.width);
        break;
      }
      case Kind::Ite:
        value = memo[n.a] ? memo[n.b] : memo[n.c];
        break;
      default: {
        const uint64_t a = n.a != kInvalidTerm ? memo[n.a] : 0;
        const uint64_t b = n.b != kInvalidTerm ? memo[n.b] : 0;
        // Width for Extract/comparisons is the operand width.
        unsigned w = n.width;
        switch (n.kind) {
          case Kind::Eq: case Kind::Ult: case Kind::Ule:
          case Kind::Slt: case Kind::Sle: case Kind::Extract:
            w = nodes_[n.a].width;
            break;
          default: break;
        }
        value = evalOp(n.kind, w, a, b, n.aux);
        break;
      }
    }
    memo[id] = value;
    stamps[id] = epoch;
  }
  return memo[t.id()];
}

TermRef TermManager::import(TermRef src,
                            std::unordered_map<TermId, TermId>& memo) {
  check(src.valid(), "import: invalid term");
  const TermManager& from = *src.manager();
  if (&from == this) return src;
  // Iterative post-order; raw intern() (not the simplifying builders) so
  // the copy is structurally byte-identical — the source pool already ran
  // the rewriter, and re-simplifying here could diverge across pools.
  std::vector<TermId> stack{src.id()};
  while (!stack.empty()) {
    const TermId id = stack.back();
    if (memo.count(id) != 0) {
      stack.pop_back();
      continue;
    }
    const TermNode& n = from.node(id);
    const TermId ops[3] = {n.a, n.b, n.c};
    bool ready = true;
    for (const TermId o : ops) {
      if (o != kInvalidTerm && memo.count(o) == 0) {
        stack.push_back(o);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    TermRef dst;
    switch (n.kind) {
      case Kind::Const:
        dst = mkConst(n.width, n.aux);
        break;
      case Kind::Var:
        dst = mkVar(n.width, from.varName(id));
        break;
      default: {
        const TermId a = n.a != kInvalidTerm ? memo.at(n.a) : kInvalidTerm;
        const TermId b = n.b != kInvalidTerm ? memo.at(n.b) : kInvalidTerm;
        const TermId c = n.c != kInvalidTerm ? memo.at(n.c) : kInvalidTerm;
        dst = intern(n.kind, n.width, a, b, c, n.aux);
        break;
      }
    }
    memo.emplace(id, dst.id());
  }
  return TermRef(this, memo.at(src.id()));
}

}  // namespace adlsym::smt
