// Front-end pins and robustness.
//
// Fingerprints: every shipped ISA's ArchModel and every lint fixture's
// diagnostics are dumped canonically and compared by SHA-256 against
// pinned constants, so a change to the lexer, parser or sema that moves
// any model field, RTL node, source location or diagnostic byte fails
// here. A deliberate change to the language, an ISA or a fixture
// re-pins the constants (the failure message prints the new digest).
//
// Mutation fuzz: seeded byte mutations (flip, insert, delete, truncate) of
// the shipped sources and the lint fixtures must each either load or
// report at least one error, and never crash; loaded mutants also go
// through every model-level lint pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "adl/model.h"
#include "analysis/lint.h"
#include "isa/registry.h"
#include "support/hash.h"
#include "support/rng.h"

namespace adlsym::adl {
namespace {

void dumpExpr(std::ostream& os, const rtl::Expr& e) {
  os << '(' << static_cast<unsigned>(e.op) << ':' << unsigned{e.width} << ':'
     << e.aux;
  for (const auto& a : e.args) {
    os << ' ';
    dumpExpr(os, *a);
  }
  os << ')';
}

void dumpBlock(std::ostream& os, const std::vector<rtl::StmtPtr>& body,
               unsigned indent) {
  for (const auto& s : body) {
    os << std::string(indent, ' ') << "stmt " << static_cast<unsigned>(s->op)
       << " @" << s->loc.line << ':' << s->loc.col << " aux=" << s->aux;
    for (const auto& a : s->args) {
      os << ' ';
      dumpExpr(os, *a);
    }
    os << '\n';
    if (!s->thenBody.empty() || !s->elseBody.empty()) {
      os << std::string(indent, ' ') << "then\n";
      dumpBlock(os, s->thenBody, indent + 2);
      os << std::string(indent, ' ') << "else\n";
      dumpBlock(os, s->elseBody, indent + 2);
    }
  }
}

/// Every field of the model, in declaration order. Operand-field pointers
/// are written as indices into their encoding's field list.
std::string dumpModel(const ArchModel& m) {
  std::ostringstream os;
  os << "arch " << m.name << " little=" << m.endianLittle
     << " word=" << m.wordSize << " pc=" << m.pcIndex
     << " insn-bytes=" << m.minInsnBytes << ".." << m.maxInsnBytes << '\n';
  for (const RegInfo& r : m.regs) {
    os << "reg " << r.name << ':' << r.width << " pc=" << r.isPC
       << " flag=" << r.isFlag << '\n';
  }
  if (m.regfile) {
    os << "regfile " << m.regfile->name << '[' << m.regfile->count << "]:"
       << m.regfile->width << " zero="
       << (m.regfile->zeroReg ? std::to_string(*m.regfile->zeroReg) : "-")
       << '\n';
  }
  os << "mem " << m.mem.name << ':' << m.mem.addrWidth << '\n';
  for (const EncodingInfo& e : m.encodings) {
    os << "enc " << e.name << ' ' << e.totalWidth << ':';
    for (const EncFieldInfo& f : e.fields) {
      os << " [" << f.name << ':' << f.width << '@' << f.lo << ']';
    }
    os << '\n';
  }
  for (const InsnInfo& i : m.insns) {
    os << "insn " << i.name << " \"" << i.syntax << "\" enc=" << i.encodingIdx
       << " len=" << i.lengthBytes << " mask=" << i.fixedMask
       << " match=" << i.fixedMatch << " lets=" << i.numLetSlots << '\n';
    const auto& fields = m.encodings.at(i.encodingIdx).fields;
    os << "  fields";
    for (const EncFieldInfo* f : i.operandFields) {
      const bool inside = !fields.empty() && f >= &fields.front() &&
                          f <= &fields.back();
      os << ' ' << (inside ? std::to_string(f - &fields.front()) : "?");
    }
    os << "\n  operands";
    for (const OperandInfo& o : i.operands) {
      os << ' ' << o.fieldName << '#' << o.fieldIndex << ':'
         << static_cast<unsigned>(o.kind) << '/' << o.relScale;
    }
    os << "\n  syntax";
    for (const SyntaxPiece& p : i.syntaxPieces) {
      if (p.isOperand) {
        os << " {" << p.operandIdx << '}';
      } else {
        os << " '" << p.literal << '\'';
      }
    }
    os << '\n';
    dumpBlock(os, i.semantics, 2);
  }
  return os.str();
}

const std::map<std::string, std::string>& isaDigests() {
  static const std::map<std::string, std::string> digests = {
      {"acc8", "6691c038723d0f421c20784bc3fdb92e9b05c47e99822d17ec6c9d7ba3de0cbb"},
      {"m16", "19de1c8f22e63b3ef76817e13d1601eacb01e7a38c36f945e483e8fe2fae4903"},
      {"rv32e", "5db40451d728d686cd5328cfde2185997a48e446b0df1b3cafe1c9a3e464e5d7"},
      {"stk16", "3d447b899403e67a32541f50ede6e5e5ea034033ecd15438384ac8478f91dc94"},
  };
  return digests;
}

const std::map<std::string, std::string>& fixtureDigests() {
  static const std::map<std::string, std::string> digests = {
      {"adl001.adl",
       "3bf39f321b4151f7c66bff768b69b93d474ce6576e949893dfafcb89dafee00a"},
      {"adl002.adl",
       "3b3f3813f25c15461c37d4c97aa1a96d31d083318668d336a7d98a986cfd3ffc"},
      {"adl003.adl",
       "eae55335e48f6a3263207621f617e0f01a13deadd22acb40d6903fff6734d710"},
      {"adl010.adl",
       "cde4cbe7b71457fb0bec3d57650a8418e9f22124655670d2750132d54692495d"},
      {"adl011.adl",
       "89a57cac67b87c4edbad248adadff6c359cfb36aca19ddbd2dc06b2a5a49a3dd"},
      {"adl012.adl",
       "2d1fab8e68488bdd1b8a00b9d432670d7336e65a5fa7bd72ae5b3a9c926c48de"},
      {"adl013.adl",
       "f4ac762de3d82f9ea7599838f65eee8244bbe6d18691060c4d0bb00779d38705"},
      {"adl014.adl",
       "137f541817133b08a0e952a2245a1c2e19dc3a425cf120ddcbf9a39a1168e7b9"},
      {"adl015.adl",
       "b5b9e835f40afc84e5c375d2234320d29135660462b994d735ed6b3acfdeca55"},
      {"adl016.adl",
       "dfb880b60677d549c5931217096c5a8c5ac0350fa40aa7ef905b900f8220a403"},
      {"adl017.adl",
       "dd3dd07aaf9b2d4b40b1b4ba5e93a30c9ca93e4ac3309996cc0d70c816760bd3"},
      {"clean.adl",
       "9314e467463285aa6586c53c45157e5c78899372ed70b998cce9fe02112adfec"},
  };
  return digests;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::filesystem::path> lintFixtures() {
  std::vector<std::filesystem::path> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(ADLSYM_LINT_FIXTURE_DIR)) {
    if (entry.path().extension() == ".adl") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The diagnostics of one load, then the model (if any): the bytes the
/// fixture digests pin.
std::string loadTranscript(const std::string& bufferName,
                           std::string_view source) {
  DiagEngine diags(bufferName);
  auto model = loadArchModel(source, diags);
  return diags.str() + "--\n" + (model ? dumpModel(*model) : "<no model>\n");
}

TEST(AdlFingerprint, ShippedModelsAreUnchanged) {
  for (const std::string& name : isa::allIsaNames()) {
    const std::string dump = dumpModel(*isa::loadIsa(name));
    const auto it = isaDigests().find(name);
    const std::string digest = hash::sha256Hex(dump);
    EXPECT_TRUE(it != isaDigests().end() && it->second == digest)
        << name << " model dump digest is " << digest << "; dump:\n"
        << dump.substr(0, 2000);
  }
}

TEST(AdlFingerprint, LintFixtureDiagnosticsAreUnchanged) {
  const auto fixtures = lintFixtures();
  ASSERT_FALSE(fixtures.empty());
  for (const auto& path : fixtures) {
    const std::string file = path.filename().string();
    const std::string transcript = loadTranscript(file, slurp(path));
    const auto it = fixtureDigests().find(file);
    const std::string digest = hash::sha256Hex(transcript);
    EXPECT_TRUE(it != fixtureDigests().end() && it->second == digest)
        << file << " transcript digest is " << digest << "; transcript:\n"
        << transcript.substr(0, 2000);
  }
}

// ------------------------------------------------------- mutation fuzz --

std::string mutate(std::string src, Rng& rng) {
  static constexpr char kAlphabet[] = "(){}[];:,=\"/*%@\\0x_ \n9zZ<>!&|^~-+";
  const unsigned edits = 1 + static_cast<unsigned>(rng.below(4));
  for (unsigned e = 0; e < edits; ++e) {
    const size_t pos = src.empty() ? 0 : rng.below(src.size() + 1);
    // Truncation is the rarest edit: most of its mutants fail in the
    // parser, and the others reach sema and the lint passes.
    switch (rng.below(8)) {
      case 0:
      case 1:  // flip one bit
        if (pos < src.size()) {
          src[pos] = static_cast<char>(src[pos] ^ (1u << rng.below(8)));
        }
        break;
      case 2:
      case 3:  // insert a syntax-relevant byte
        src.insert(pos, 1, kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
        break;
      case 4:  // insert an arbitrary byte
        src.insert(pos, 1, static_cast<char>(rng.below(256)));
        break;
      case 5:
      case 6:  // delete a short run
        if (pos < src.size()) src.erase(pos, 1 + rng.below(8));
        break;
      default:  // truncate
        src.resize(pos);
        break;
    }
  }
  return src;
}

void fuzzSource(const std::string& name, const std::string& source,
                uint64_t seed, unsigned mutants) {
  Rng rng(seed);
  for (unsigned i = 0; i < mutants; ++i) {
    const std::string mutant = mutate(source, rng);
    DiagEngine diags(name);
    auto model = loadArchModel(mutant, diags);
    if (model) {
      EXPECT_FALSE(diags.hasErrors()) << name << " mutant " << i;
      (void)analysis::lintModel(*model);
    } else {
      EXPECT_TRUE(diags.hasErrors())
          << name << " mutant " << i << " failed to load without an error";
    }
  }
}

TEST(AdlMutationFuzz, ShippedSourcesLoadOrReportErrors) {
  uint64_t seed = 1;
  for (const std::string& name : isa::allIsaNames()) {
    fuzzSource(name, isa::isaSource(name), seed++, 300);
  }
}

TEST(AdlMutationFuzz, LintFixturesLoadOrReportErrors) {
  uint64_t seed = 100;
  for (const auto& path : lintFixtures()) {
    fuzzSource(path.filename().string(), slurp(path), seed++, 100);
  }
}

}  // namespace
}  // namespace adlsym::adl
