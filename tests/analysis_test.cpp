#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "analysis/cfg.h"
#include "analysis/lint.h"
#include "analysis/ternary.h"
#include "asmgen/assembler.h"
#include "driver/cli.h"
#include "isa/registry.h"

namespace adlsym::analysis {
namespace {

// ------------------------------------------------------ ternary algebra --

TEST(Ternary, IntersectionIsExact) {
  // 8-bit cubes: a = 0011xxxx, b = xxxx0101.
  const TernaryPattern a{8, 0xf0, 0x30};
  const TernaryPattern b{8, 0x0f, 0x05};
  ASSERT_TRUE(a.intersects(b));
  const auto c = a.intersect(b);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->care, 0xffu);
  EXPECT_EQ(c->value, 0x35u);
  EXPECT_EQ(static_cast<uint64_t>(c->count()), 1u);
  EXPECT_EQ(c->str(), "00110101");

  // Disjoint: both fix bit 7 to opposite values.
  const TernaryPattern d{8, 0x80, 0x80};
  const TernaryPattern e{8, 0xc0, 0x40};
  EXPECT_FALSE(d.intersects(e));
  EXPECT_EQ(d.intersect(e), std::nullopt);
}

TEST(Ternary, CountAndRender) {
  const TernaryPattern p{8, 0xf0, 0x30};
  EXPECT_EQ(p.freeBits(), 4u);
  EXPECT_EQ(static_cast<uint64_t>(p.count()), 16u);
  EXPECT_EQ(p.str(), "0011xxxx");
  EXPECT_TRUE(p.matches(0x3a));
  EXPECT_FALSE(p.matches(0x4a));
  EXPECT_EQ(p.sample(), 0x30u);
}

TEST(Ternary, SubtractPartitionsExactly) {
  // |a| must equal |a ∩ b| + |a \ b|, and the difference cubes must be
  // pairwise disjoint and inside a but outside b.
  const TernaryPattern a{8, 0xc0, 0x40};  // 01xxxxxx: 64 words
  const TernaryPattern b{8, 0x0c, 0x04};  // xxxx01xx: 64 words
  const auto diff = subtract(a, b);
  unsigned long long total = 0;
  for (const auto& c : diff) total += static_cast<uint64_t>(c.count());
  EXPECT_EQ(total, 64u - 16u);  // |a| - |a∩b|
  for (unsigned w = 0; w < 256; ++w) {
    unsigned hits = 0;
    for (const auto& c : diff) hits += c.matches(w);
    EXPECT_LE(hits, 1u) << w;  // disjoint
    EXPECT_EQ(hits == 1, a.matches(w) && !b.matches(w)) << w;
  }
}

TEST(Ternary, SubtractEdgeCases) {
  const TernaryPattern a{8, 0xf0, 0x30};
  // a ⊆ b → empty difference.
  EXPECT_TRUE(subtract(a, TernaryPattern{8, 0x30, 0x30}).empty());
  // Disjoint → {a} unchanged.
  const auto same = subtract(a, TernaryPattern{8, 0xf0, 0x40});
  ASSERT_EQ(same.size(), 1u);
  EXPECT_EQ(same[0].care, a.care);
  EXPECT_EQ(same[0].value, a.value);
}

TEST(Ternary, SetSubtractAndCount) {
  TernarySet s = TernarySet::universe(16);
  EXPECT_EQ(static_cast<uint64_t>(s.count()), 65536u);
  s.subtract(TernaryPattern{16, 0xff00, 0x4200});  // one opcode byte
  EXPECT_EQ(static_cast<uint64_t>(s.count()), 65536u - 256u);
  s.subtract(TernaryPattern{16, 0xff00, 0x4200});  // idempotent
  EXPECT_EQ(static_cast<uint64_t>(s.count()), 65536u - 256u);
  ASSERT_TRUE(s.first().has_value());
  EXPECT_FALSE(s.empty());
  for (unsigned op = 0; op < 256; ++op) {
    s.subtract(TernaryPattern{16, 0xff00, static_cast<uint64_t>(op) << 8});
  }
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.first(), std::nullopt);
}

TEST(Ternary, FormatCountHandles128Bits) {
  EXPECT_EQ(formatCount(0), "0");
  EXPECT_EQ(formatCount(12345), "12345");
  // 2^64 does not fit in uint64_t.
  const unsigned __int128 big = static_cast<unsigned __int128>(1) << 64;
  EXPECT_EQ(formatCount(big), "18446744073709551616");
}

// ------------------------------------------------------ model-level lints --

std::unique_ptr<adl::ArchModel> loadOk(std::string_view src) {
  DiagEngine diags;
  auto m = adl::loadArchModel(src, diags);
  EXPECT_TRUE(m != nullptr) << diags.str();
  return m;
}

std::vector<LintCode> codesOf(const LintReport& report) {
  std::vector<LintCode> codes;
  for (const Finding& f : report.findings()) codes.push_back(f.code);
  return codes;
}

bool hasCode(const LintReport& report, LintCode code) {
  const auto codes = codesOf(report);
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

// Little-endian scaffold used by the dataflow tests.
std::string arch(const std::string& items) {
  return "arch t { endian little; wordsize 8; reg pc : 16; reg A : 8;\n"
         "mem M : byte[16];\n" + items + "\n}";
}

TEST(DecodeSpace, AmbiguityIsPromotedToLoadError) {
  DiagEngine diags;
  auto m = adl::loadArchModel(
      arch(R"q(enc F = [op:4][v:4];
        insn a "a %i(v)" : F(op=3) { A = zext(v, 8); }
        insn b "b %i(v)" : F(op=3) { A = zext(v, 8); })q"),
      diags);
  EXPECT_EQ(m, nullptr);
  EXPECT_NE(diags.str().find("[ADL001]"), std::string::npos) << diags.str();
  EXPECT_NE(diags.str().find("overlapping encodings"), std::string::npos);
  EXPECT_NE(diags.str().find("16 bit pattern(s)"), std::string::npos);
}

TEST(DecodeSpace, CrossLengthShadowingLittleEndian) {
  // 2-byte long_i (first byte 0x42) claims every window 1-byte short_i
  // could match: in a little-endian decode word the first byte is the
  // low byte.
  auto m = loadOk(
      arch(R"q(enc S = [op:8]; enc L = [v:8][op:8];
        insn long_i "long_i %i(v)" : L(op=0x42) { A = v; }
        insn short_i "short_i" : S(op=0x42) { A = 0; })q"));
  const LintReport r = lintModel(*m);
  EXPECT_TRUE(hasCode(r, LintCode::UnreachableEncoding)) << r.formatText("t");
  EXPECT_TRUE(hasCode(r, LintCode::DecodeSpaceGap));
}

TEST(DecodeSpace, CrossLengthDistinctOpcodesReachable) {
  auto m = loadOk(
      arch(R"q(enc S = [op:8]; enc L = [v:8][op:8];
        insn long_i "long_i %i(v)" : L(op=0x42) { A = v; }
        insn short_i "short_i" : S(op=0x43) { A = 0; })q"));
  EXPECT_FALSE(hasCode(lintModel(*m), LintCode::UnreachableEncoding));
}

TEST(DecodeSpace, CrossLengthShadowingBigEndian) {
  // Big-endian: the first byte of the instruction is the HIGH byte of the
  // decode word, so widening a 1-byte pattern shifts it up. The 2-byte
  // insn fixes its first byte to the same 0x42 → short is shadowed.
  const std::string src =
      "arch t { endian big; wordsize 8; reg pc : 16; reg A : 8;\n"
      "mem M : byte[16];\n"
      R"q(enc S = [op:8]; enc L = [op:8][v:8];
        insn long_i "long_i %i(v)" : L(op=0x42) { A = v; }
        insn short_i "short_i" : S(op=0x42) { A = 0; })q"
      "\n}";
  auto m = loadOk(src);
  EXPECT_TRUE(hasCode(lintModel(*m), LintCode::UnreachableEncoding));
}

TEST(DecodeSpace, FullCoverageHasNoGapNote) {
  auto m = loadOk(
      arch(R"q(enc F = [op:1][v:7];
        insn z "z %i(v)" : F(op=0) { A = zext(v, 8); }
        insn o "o %i(v)" : F(op=1) { A = zext(v, 8); })q"));
  const LintReport r = lintModel(*m);
  EXPECT_TRUE(r.findings().empty()) << r.formatText("t");
}

TEST(DecodeSpace, GapNoteCountsExactly) {
  auto m = loadOk(
      arch(R"q(enc F = [op:4][v:4];
        insn only "only %i(v)" : F(op=0) { A = zext(v, 8); })q"));
  const LintReport r = lintModel(*m);
  ASSERT_TRUE(hasCode(r, LintCode::DecodeSpaceGap));
  for (const Finding& f : r.findings()) {
    if (f.code != LintCode::DecodeSpaceGap) continue;
    EXPECT_NE(f.message.find("240 of 256"), std::string::npos) << f.message;
    EXPECT_EQ(f.severity, Severity::Note);
  }
}

TEST(Dataflow, DeadLetAndLiveLet) {
  auto m = loadOk(
      arch(R"q(enc F = [op:8];
        insn d "d" : F(op=0) { let t = A + 1; output(A); }
        insn l "l" : F(op=1) { let t = A + 1; A = t; })q"));
  const LintReport r = lintModel(*m);
  unsigned deadLets = 0;
  for (const Finding& f : r.findings()) {
    if (f.code != LintCode::DeadLet) continue;
    ++deadLets;
    EXPECT_EQ(f.insn, "d");
    EXPECT_TRUE(f.loc.valid());  // points at the let statement
  }
  EXPECT_EQ(deadLets, 1u);
}

TEST(Dataflow, UnreadAndPartialFieldUse) {
  auto m = loadOk(
      arch(R"q(enc F = [op:4][v:4];
        insn ign "ign %i(v)" : F(op=1) { output(A); }
        insn low "low %i(v)" : F(op=2) { A = zext(trunc(v, 2), 8); }
        insn all "all %i(v)" : F(op=3) { A = zext(v, 8); })q"));
  const LintReport r = lintModel(*m);
  bool sawUnread = false, sawPartial = false;
  for (const Finding& f : r.findings()) {
    if (f.code == LintCode::UnreadOperandField) {
      sawUnread = true;
      EXPECT_EQ(f.insn, "ign");
    }
    if (f.code == LintCode::PartialFieldUse) {
      sawPartial = true;
      EXPECT_EQ(f.insn, "low");
      EXPECT_NE(f.message.find("0x3"), std::string::npos) << f.message;
    }
  }
  EXPECT_TRUE(sawUnread);
  EXPECT_TRUE(sawPartial);
}

TEST(Dataflow, BitsSliceOfFieldIsPartialUse) {
  // bits(v, 2, 1) lowers to Extract directly on the field: uses 0b110.
  auto m = loadOk(
      arch(R"q(enc F = [op:4][v:4];
        insn mid "mid %i(v)" : F(op=1) { A = zext(bits(v, 2, 1), 8); })q"));
  const LintReport r = lintModel(*m);
  ASSERT_TRUE(hasCode(r, LintCode::PartialFieldUse));
  for (const Finding& f : r.findings()) {
    if (f.code != LintCode::PartialFieldUse) continue;
    EXPECT_NE(f.message.find("0x6"), std::string::npos) << f.message;
  }
}

TEST(Dataflow, UnreachableAfterUnconditionalHalt) {
  auto m = loadOk(
      arch(R"q(enc F = [op:8];
        insn stop "stop" : F(op=0) { A = input8(); halt(0); output(A); })q"));
  EXPECT_TRUE(hasCode(lintModel(*m), LintCode::UnreachableStmt));
}

TEST(Dataflow, HaltInOneArmOnlyIsNotUnreachable) {
  auto m = loadOk(
      arch(R"q(enc F = [op:8];
        insn cond "cond" : F(op=0) {
          A = input8();
          if (A == 0) { halt(1); }
          output(A);
        })q"));
  EXPECT_FALSE(hasCode(lintModel(*m), LintCode::UnreachableStmt));
}

TEST(Dataflow, HaltInBothArmsMakesRestUnreachable) {
  auto m = loadOk(
      arch(R"q(enc F = [op:8];
        insn cond "cond" : F(op=0) {
          A = input8();
          if (A == 0) { halt(1); } else { halt(2); }
          output(A);
        })q"));
  EXPECT_TRUE(hasCode(lintModel(*m), LintCode::UnreachableStmt));
}

TEST(Dataflow, RelOperandWithoutPcWrite) {
  auto m = loadOk(
      arch(R"q(enc R = [off:8][op:8];
        insn bnop "bnop %rel(off)" : R(op=1) { A = off; })q"));
  const LintReport r = lintModel(*m);
  ASSERT_TRUE(hasCode(r, LintCode::RelWithoutPcWrite));
  EXPECT_TRUE(r.hasErrors());  // error severity fails the lint
}

TEST(Dataflow, RelOperandWithConditionalPcWriteIsClean) {
  auto m = loadOk(
      arch(R"q(enc R = [off:8][op:8];
        insn br "br %rel(off)" : R(op=1) {
          if (A == 0) { pc = pc + sext(off, 16); }
        })q"));
  EXPECT_FALSE(hasCode(lintModel(*m), LintCode::RelWithoutPcWrite));
}

TEST(Dataflow, ReadNeverWrittenNamesRegisterAndReader) {
  auto m = loadOk(
      arch(R"q(reg B : 8; enc F = [op:8];
        insn rd "rd" : F(op=0) { output(B); }
        insn wr "wr" : F(op=1) { A = input8(); output(A); })q"));
  const LintReport r = lintModel(*m);
  ASSERT_TRUE(hasCode(r, LintCode::ReadNeverWritten));
  for (const Finding& f : r.findings()) {
    if (f.code != LintCode::ReadNeverWritten) continue;
    EXPECT_NE(f.message.find("'B'"), std::string::npos) << f.message;
    EXPECT_NE(f.message.find("'rd'"), std::string::npos) << f.message;
  }
}

TEST(Dataflow, PcReadAloneIsExempt) {
  // Reading pc without any instruction writing it is how straight-line
  // ISAs work (the engine advances pc); must not fire ADL010.
  auto m = loadOk(
      arch(R"q(enc F = [op:8];
        insn here "here" : F(op=0) { A = trunc(pc, 8); })q"));
  EXPECT_FALSE(hasCode(lintModel(*m), LintCode::ReadNeverWritten));
}

// ---------------------------------------------------------- CFG recovery --

loader::Image assembleOrDie(const adl::ArchModel& model,
                            const std::string& src) {
  DiagEngine diags("<test>");
  asmgen::Assembler assembler(model);
  auto image = assembler.assemble(src, diags);
  EXPECT_TRUE(image.has_value()) << diags.str();
  return *image;
}

TEST(CfgRecovery, BranchyProgramCleanAndBlocksSplit) {
  auto model = isa::loadIsa("acc8");
  const loader::Image image = assembleOrDie(*model,
                                            "start:\n"
                                            "  in\n"         // 0x0, 1 byte
                                            "  bne skip\n"   // 0x1, 2 bytes
                                            "  hlt 3\n"      // 0x3, 2 bytes
                                            "skip:\n"
                                            "  out\n"        // 0x5
                                            "  hlt 0\n");    // 0x6
  const Cfg cfg = recoverCfg(*model, image);
  EXPECT_TRUE(cfg.report.findings().empty()) << cfg.report.formatText("t");
  EXPECT_EQ(cfg.insns.size(), 5u);

  // The conditional branch has a static target and may fall through.
  const CfgInsn& bne = cfg.insns.at(0x1);
  EXPECT_TRUE(bne.mayFallThrough);
  EXPECT_FALSE(bne.indirect);
  ASSERT_EQ(bne.targets.size(), 1u);
  EXPECT_EQ(bne.targets[0], 0x5u);

  // Blocks: [0,3) branch, [3,5) hlt, [5,8) out+hlt.
  ASSERT_EQ(cfg.blocks.size(), 3u);
  EXPECT_EQ(cfg.blocks[0].start, 0x0u);
  EXPECT_EQ(cfg.blocks[0].end, 0x3u);
  ASSERT_EQ(cfg.blocks[0].succs.size(), 2u);
  EXPECT_EQ(cfg.blocks[1].start, 0x3u);
  EXPECT_TRUE(cfg.blocks[1].succs.empty());  // halts
  EXPECT_EQ(cfg.blocks[2].start, 0x5u);
}

TEST(CfgRecovery, FallThroughOffEndIsError) {
  auto model = isa::loadIsa("acc8");
  const loader::Image image = assembleOrDie(*model, "start:\n  in\n  out\n");
  const LintReport r = lintImage(*model, image);
  ASSERT_TRUE(hasCode(r, LintCode::FallThroughOffEnd)) << r.formatText("t");
  EXPECT_TRUE(r.hasErrors());
  for (const Finding& f : r.findings()) {
    if (f.code != LintCode::FallThroughOffEnd) continue;
    ASSERT_TRUE(f.addr.has_value());
    EXPECT_EQ(*f.addr, 0x1u);  // the final `out`
  }
}

TEST(CfgRecovery, UnreachableCodeAfterHalt) {
  auto model = isa::loadIsa("acc8");
  const loader::Image image =
      assembleOrDie(*model, "start:\n  hlt 0\n  out\n  hlt 1\n");
  const LintReport r = lintImage(*model, image);
  ASSERT_TRUE(hasCode(r, LintCode::UnreachableBlock));
  EXPECT_FALSE(r.hasErrors());          // warning only
  EXPECT_TRUE(r.hasErrors(/*werror=*/true));
}

TEST(CfgRecovery, JumpOutsideCodeIsError) {
  auto model = isa::loadIsa("acc8");
  const loader::Image image = assembleOrDie(*model, "start:\n  jmp 4096\n");
  const LintReport r = lintImage(*model, image);
  ASSERT_TRUE(hasCode(r, LintCode::JumpOutsideCode));
  EXPECT_TRUE(r.hasErrors());
}

TEST(CfgRecovery, UndecodableReachableByte) {
  auto model = isa::loadIsa("acc8");
  loader::Image image;
  loader::Section text;
  text.name = "text";
  text.base = 0;
  text.bytes = {0x00};  // opcode 0x00 is not assigned in acc8
  image.addSection(std::move(text));
  image.setEntry(0);
  const LintReport r = lintImage(*model, image);
  ASSERT_TRUE(hasCode(r, LintCode::UndecodableReachable));
  EXPECT_TRUE(r.hasErrors());
}

TEST(CfgRecovery, EntryOutsideCodeIsError) {
  auto model = isa::loadIsa("acc8");
  loader::Image image;
  loader::Section data;
  data.name = "data";
  data.base = 0x100;
  data.bytes = {0, 0, 0, 0};
  data.writable = true;
  image.addSection(std::move(data));
  image.setEntry(0x100);  // entry in a writable section
  const LintReport r = lintImage(*model, image);
  ASSERT_TRUE(hasCode(r, LintCode::JumpOutsideCode));
  EXPECT_TRUE(r.hasErrors());
}

TEST(CfgRecovery, IndirectBranchSetsFlagNotTargets) {
  auto model = isa::loadIsa("rv32e");
  const loader::Image image = assembleOrDie(*model,
                                            "_start:\n"
                                            "  jalr x0, x1, 0\n"
                                            "  halti 0\n");
  const Cfg cfg = recoverCfg(*model, image);
  const CfgInsn& jalr = cfg.insns.at(0x0);
  EXPECT_TRUE(jalr.indirect);
  EXPECT_TRUE(jalr.targets.empty());
  EXPECT_FALSE(jalr.mayFallThrough);  // jalr always writes pc
}

TEST(CfgRecovery, Rv32eBranchTargetsEvaluate) {
  auto model = isa::loadIsa("rv32e");
  const loader::Image image = assembleOrDie(*model,
                                            "_start:\n"
                                            "  in8 x5\n"
                                            "  beq x5, x0, done\n"
                                            "  out x5\n"
                                            "done:\n"
                                            "  halti 0\n");
  const Cfg cfg = recoverCfg(*model, image);
  EXPECT_TRUE(cfg.report.findings().empty()) << cfg.report.formatText("t");
  const CfgInsn& beq = cfg.insns.at(0x4);
  ASSERT_EQ(beq.targets.size(), 1u);
  EXPECT_EQ(beq.targets[0], 0xcu);
  EXPECT_TRUE(beq.mayFallThrough);
}

// sdiv(INT64_MIN, -1) at width 64 is INT64_MIN (TermManager::evalOp's
// modular rule), not a host division trap: the jump's static target is
// 0x8000000000000000, outside the image's code.
TEST(CfgRecovery, SignedDivisionOverflowTargetIsOutsideCode) {
  const std::string adl = R"q(arch sdiv64 {
  endian little;
  wordsize 64;
  reg pc : 64;
  mem M : byte[64];
  enc E = [imm8:8][opcode:8];
  insn jx "jx %i(imm8)" : E(opcode=1) {
    pc = sdiv(0x8000000000000000, zext(imm8, 64) - 2);
  }
  insn hlt "hlt %i(imm8)" : E(opcode=2) { halt(imm8); }
})q";
  const std::string img =
      "image v1\nentry 0x0\nsection text 0x0 ro 4\n01 01 02 00\n";
  const std::string adlPath = testing::TempDir() + "cfg_sdiv64.adl";
  const std::string imgPath = testing::TempDir() + "cfg_sdiv64.img";
  std::ofstream(adlPath, std::ios::binary) << adl;
  std::ofstream(imgPath, std::ios::binary) << img;

  const driver::cli::CommandResult r =
      driver::cli::dispatch({"lint", adlPath, imgPath});
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("[IMG003] 'jx' at 0x0 jumps to 0x8000000000000000"),
            std::string::npos)
      << r.output;
}

// ------------------------------------------------------------- reporting --

TEST(Report, TextAndJsonRenderings) {
  LintReport r;
  Finding f;
  f.code = LintCode::DeadLet;
  f.severity = lintDefaultSeverity(LintCode::DeadLet);
  f.message = "let binding (slot 0) is never used";
  f.insn = "foo";
  f.loc = {12, 5};
  r.add(std::move(f));

  const std::string text = r.formatText("unit");
  EXPECT_NE(text.find("unit:12:5: warning: [ADL011] insn 'foo':"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("0 error(s), 1 warning(s), 0 note(s)"),
            std::string::npos);

  const std::string json = r.formatJson("unit");
  EXPECT_NE(json.find("\"schema\":\"adlsym-lint-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"ADL011\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"warning\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":12"), std::string::npos);
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
}

TEST(Report, CodeNamesRoundTrip) {
  for (const LintCode c :
       {LintCode::ModelError, LintCode::AmbiguousEncodings,
        LintCode::UnreachableEncoding, LintCode::DecodeSpaceGap,
        LintCode::ReadNeverWritten, LintCode::DeadLet,
        LintCode::UnreadOperandField, LintCode::PartialFieldUse,
        LintCode::UnreachableStmt, LintCode::RelWithoutPcWrite,
        LintCode::UnreachableBlock, LintCode::FallThroughOffEnd,
        LintCode::JumpOutsideCode, LintCode::UndecodableReachable}) {
    EXPECT_EQ(lintCodeFromName(lintCodeName(c)), c);
    EXPECT_NE(std::string(lintCodeSummary(c)), "");
  }
  EXPECT_EQ(lintCodeFromName("ADL999"), std::nullopt);
}

TEST(Report, ShippedIsasLintClean) {
  for (const std::string& name : isa::allIsaNames()) {
    auto model = isa::loadIsa(name);
    const LintReport r = lintModel(*model);
    EXPECT_FALSE(r.hasErrors(/*werror=*/true)) << name << ":\n"
                                               << r.formatText(name);
  }
}

}  // namespace
}  // namespace adlsym::analysis
