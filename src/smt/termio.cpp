#include "smt/termio.h"

#include <charconv>

#include "support/error.h"

namespace adlsym::smt {

namespace {

void appendNum(std::string& out, uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void appendRef(std::string& out, TermId id) {
  if (id == kInvalidTerm) {
    out += '-';
  } else {
    appendNum(out, id);
  }
}

constexpr int kMaxKind = static_cast<int>(Kind::Ite);

// ---- reader ----------------------------------------------------------

struct Cursor {
  std::string_view s;
  size_t pos = 0;
  size_t slot = 0;  // descriptor being parsed, for error context

  [[noreturn]] void fail(const std::string& what) const {
    throw InputError("term table, slot " + std::to_string(slot) + ": " + what);
  }

  bool done() const { return pos >= s.size(); }

  char take() {
    if (done()) fail("unexpected end of table");
    return s[pos++];
  }

  void expect(char c) {
    const char got = take();
    if (got != c) {
      fail(std::string("expected '") + c + "', got '" + got + "'");
    }
  }

  uint64_t number() {
    uint64_t v = 0;
    const auto res = std::from_chars(s.data() + pos, s.data() + s.size(), v);
    if (res.ec != std::errc() || res.ptr == s.data() + pos) {
      fail("expected a number");
    }
    pos = static_cast<size_t>(res.ptr - s.data());
    return v;
  }

  /// An operand slot, as the pool id of the term read for it.
  TermId ref(const std::vector<TermRef>& slots) {
    if (!done() && s[pos] == '-') {
      ++pos;
      return kInvalidTerm;
    }
    const uint64_t v = number();
    // Forward references would make the table non-topological.
    if (v >= slots.size()) {
      fail("operand slot " + std::to_string(v) + " out of range");
    }
    return slots[v].id();
  }

  std::string until(char stop) {
    const size_t end = s.find(stop, pos);
    if (end == std::string_view::npos) fail("unexpected end of table");
    std::string out(s.substr(pos, end - pos));
    pos = end + 1;
    return out;
  }
};

unsigned widthOrFail(Cursor& c, uint64_t w) {
  if (w < 1 || w > 64) c.fail("bad width " + std::to_string(w));
  return static_cast<unsigned>(w);
}

}  // namespace

void appendDescriptor(std::string& out, const TermNode& n, TermId a,
                      TermId b, TermId c, std::string_view varText) {
  switch (n.kind) {
    case Kind::Const:
      out += 'C';
      appendNum(out, n.width);
      out += ':';
      appendNum(out, n.aux);
      break;
    case Kind::Var:
      out += 'V';
      appendNum(out, n.width);
      out += ':';
      out += varText;
      break;
    default:
      out += 'O';
      appendNum(out, static_cast<uint64_t>(n.kind));
      out += ':';
      appendNum(out, n.width);
      out += ':';
      appendRef(out, a);
      out += ',';
      appendRef(out, b);
      out += ',';
      appendRef(out, c);
      out += ':';
      appendNum(out, n.aux);
      break;
  }
  out += ';';
}

uint32_t TermTableWriter::slot(TermRef t) {
  check(t.valid(), "TermTableWriter::slot on invalid term");
  const TermRef local = scratch_.import(t, memos_[t.manager()]);
  // import() only appends to an (initially empty) pool, so scratch ids
  // are dense creation-order slots; describe whatever is new.
  for (; described_ < scratch_.numTerms(); ++described_) {
    const TermId id = static_cast<TermId>(described_);
    const TermNode& n = scratch_.node(id);
    std::string_view name;
    if (n.kind == Kind::Var) {
      name = scratch_.varName(id);
      check(name.find(';') == std::string_view::npos,
            "term table: variable name contains the ';' delimiter");
    }
    appendDescriptor(table_, n, n.a, n.b, n.c, name);
  }
  return local.id();
}

std::vector<TermRef> TermTableReader::read(std::string_view table,
                                           TermManager& tm) {
  std::vector<TermRef> slots;
  Cursor c{table};
  try {
    while (!c.done()) {
      c.slot = slots.size();
      const char tag = c.take();
      switch (tag) {
        case 'C': {
          const unsigned w = widthOrFail(c, c.number());
          c.expect(':');
          const uint64_t value = c.number();
          slots.push_back(tm.mkConst(w, value));
          break;
        }
        case 'V': {
          const unsigned w = widthOrFail(c, c.number());
          c.expect(':');
          slots.push_back(tm.mkVar(w, c.until(';')));
          continue;  // until() consumed the ';'
        }
        case 'O': {
          const uint64_t kindNum = c.number();
          if (kindNum <= static_cast<uint64_t>(Kind::Var) ||
              kindNum > static_cast<uint64_t>(kMaxKind)) {
            c.fail("bad operator kind " + std::to_string(kindNum));
          }
          c.expect(':');
          const unsigned w = widthOrFail(c, c.number());
          c.expect(':');
          const TermId a = c.ref(slots);
          c.expect(',');
          const TermId b = c.ref(slots);
          c.expect(',');
          const TermId cc = c.ref(slots);
          c.expect(':');
          const uint64_t aux = c.number();
          slots.push_back(
              tm.internRaw(static_cast<Kind>(kindNum), w, a, b, cc, aux));
          break;
        }
        default:
          c.fail(std::string("unknown descriptor tag '") + tag + "'");
      }
      c.expect(';');
    }
  } catch (const InputError&) {
    throw;
  } catch (const Error& e) {
    // mkVar/intern invariant violations on corrupt input are still *input*
    // problems at this boundary (exit 2, not exit 4).
    c.fail(e.what());
  }
  return slots;
}

}  // namespace adlsym::smt
