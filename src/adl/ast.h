// Parse-tree for the ADL. The parser builds this untyped tree; sema.cpp
// resolves names and widths into the executable ArchModel IR (model.h).
//
// The tree is built once, read once by sema and dropped, so it lives in
// one arena: ArchDecl::arena holds a copy of the source text, every
// expression and statement node and every node list. Names and strings
// are views into that copy (or, for an escaped string literal, into its
// un-escaped copy in the arena), and nodes are trivially destructible, so
// nothing in the tree is freed one piece at a time.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <new>
#include <optional>
#include <string_view>
#include <vector>

#include "support/diag.h"

namespace adlsym::adl::ast {

/// A read-only run of arena-owned nodes: an expression's operands or a
/// block's statements.
template <typename T>
class NodeList {
 public:
  NodeList() = default;
  NodeList(T* const* data, size_t size) : data_(data), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* operator[](size_t i) const { return data_[i]; }
  T* const* begin() const { return data_; }
  T* const* end() const { return data_ + size_; }

 private:
  T* const* data_ = nullptr;
  size_t size_ = 0;
};

// ---------------------------------------------------------------- exprs --

enum class UnOp { Not, Neg, LogicalNot };

enum class BinOp {
  Add, Sub, Mul, UDiv, URem,
  And, Or, Xor,
  Shl, LShr, AShr,
  Eq, Ne, Ult, Ule, Ugt, Uge, Slt, Sle, Sgt, Sge,
  LogicalAnd, LogicalOr,
};

struct Expr;
using ExprPtr = Expr*;  // owned by the ArchDecl's arena
using ExprList = NodeList<Expr>;

struct Expr {
  enum class Kind { IntLit, NameRef, Index, Unary, Binary, Call } kind;
  SourceLoc loc;

  // IntLit
  uint64_t intValue = 0;
  // NameRef / Index (base name) / Call (callee)
  std::string_view name;
  // Index subscript, Unary operand, Binary lhs/rhs, Call args
  UnOp unop{};
  BinOp binop{};
  ExprList args;
};

// ---------------------------------------------------------------- stmts --

struct Stmt;
using StmtPtr = Stmt*;  // owned by the ArchDecl's arena
using StmtList = NodeList<Stmt>;

struct Stmt {
  enum class Kind {
    AssignReg,      // name = expr           (reg / flag / pc)
    AssignIndexed,  // name[idx] = expr      (regfile element)
    Let,            // let name = expr
    If,             // if (cond) {...} else {...}
    CallStmt,       // intrinsic(...): store8/16/32, output, halt, ...
  } kind;
  SourceLoc loc;

  std::string_view name;     // target / let name / callee
  ExprPtr index = nullptr;   // AssignIndexed subscript
  ExprPtr value = nullptr;   // assignment / let value / If condition
  ExprList args;             // CallStmt arguments
  StmtList thenBody;
  StmtList elseBody;
};

// ---------------------------------------------------------- declarations --

struct ConstDecl {
  SourceLoc loc;
  std::string_view name;
  uint64_t value = 0;
};

struct RegDecl {
  SourceLoc loc;
  std::string_view name;
  unsigned width = 0;
};

struct RegFileDecl {
  SourceLoc loc;
  std::string_view name;
  unsigned count = 0;
  unsigned width = 0;
  std::optional<unsigned> zeroReg;  // index hardwired to zero
};

struct FlagDecl {
  SourceLoc loc;
  std::string_view name;
};

struct MemDecl {
  SourceLoc loc;
  std::string_view name;
  unsigned addrWidth = 0;
};

struct EncFieldDecl {
  SourceLoc loc;
  std::string_view name;
  unsigned width = 0;
};

struct EncodingDecl {
  SourceLoc loc;
  std::string_view name;
  std::vector<EncFieldDecl> fields;  // MSB-first as written
};

struct FieldFix {
  SourceLoc loc;
  std::string_view field;
  uint64_t value = 0;
  std::string_view ref;  // nonempty: value comes from a named `const`
};

struct InsnDecl {
  SourceLoc loc;
  std::string_view name;
  std::string_view syntax;   // assembly template, e.g. "add %r(rd), %r(rs1)"
  std::string_view encodingName;
  std::vector<FieldFix> fixes;
  StmtList body;
};

struct ArchDecl {
  /// Backs the source copy, the nodes and the node lists. Declared first,
  /// so it is destroyed last.
  std::pmr::monotonic_buffer_resource arena;

  SourceLoc loc;
  std::string_view name;
  bool endianLittle = true;
  bool endianSeen = false;
  unsigned wordSize = 0;
  std::vector<ConstDecl> consts;
  std::vector<RegDecl> regs;
  std::vector<RegFileDecl> regfiles;
  std::vector<FlagDecl> flags;
  std::vector<MemDecl> mems;
  std::vector<EncodingDecl> encodings;
  std::vector<InsnDecl> insns;

  explicit ArchDecl(size_t arenaBytes = 4096) : arena(arenaBytes) {}

  /// A default-initialized node of the tree.
  template <typename Node>
  Node* make() {
    return new (arena.allocate(sizeof(Node), alignof(Node))) Node();
  }
  /// An arena copy of `text`.
  std::string_view keep(std::string_view text);
  /// Move `stack[mark..]` into an arena list and pop it.
  template <typename Node>
  NodeList<Node> popSince(std::vector<Node*>& stack, size_t mark);
};

inline std::string_view ArchDecl::keep(std::string_view text) {
  if (text.empty()) return {};
  auto* copy = static_cast<char*>(arena.allocate(text.size(), 1));
  std::memcpy(copy, text.data(), text.size());
  return {copy, text.size()};
}

template <typename Node>
NodeList<Node> ArchDecl::popSince(std::vector<Node*>& stack, size_t mark) {
  const size_t n = stack.size() - mark;
  if (n == 0) return {};
  auto** data = static_cast<Node**>(
      arena.allocate(n * sizeof(Node*), alignof(Node*)));
  for (size_t i = 0; i < n; ++i) data[i] = stack[mark + i];
  stack.resize(mark);
  return {data, n};
}

}  // namespace adlsym::adl::ast
