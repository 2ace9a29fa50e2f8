// Crash-safe checkpoint/resume (adlsym-ckpt-v6, docs/robustness.md):
// term-table round-trips, file framing + corruption rejection, state and
// path-result serializers, and the end-to-end kill/resume byte-identity
// contract driven through the CLI — crash via --inject=ckpt.write, resume,
// and every final artifact must match the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/memory.h"
#include "core/state.h"
#include "driver/cli.h"
#include "driver/session.h"
#include "obs/events.h"
#include "obs/profile.h"
#include "smt/printer.h"
#include "smt/term.h"
#include "smt/termio.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/stop.h"
#include "workloads/programs.h"

namespace adlsym {
namespace {

using driver::Session;
using driver::cli::dispatch;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Canonicalized view of an adlsym-events-v3 stream — the cross-schedule
/// identity the kill/resume contract is defined on (raw line order is
/// schedule-dependent).
std::string canonEvents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  obs::canonicalizeEvents(in, out);
  return out.str();
}

// ---------------------------------------------------------------------
// Term-table serialization (smt/termio.h)
// ---------------------------------------------------------------------

std::string reserialized(const std::string& table) {
  smt::TermManager tm;
  const std::vector<smt::TermRef> slots = smt::TermTableReader::read(table, tm);
  smt::TermTableWriter tw;
  for (const smt::TermRef t : slots) tw.slot(t);
  return tw.table();
}

TEST(TermTable, ConstBoundaryRoundTrip) {
  smt::TermManager tm;
  smt::TermTableWriter tw;
  for (const uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{1} << 63, UINT64_MAX}) {
    tw.slot(tm.mkConst(64, v));
  }
  tw.slot(tm.mkConst(1, 1));
  tw.slot(tm.mkConst(63, UINT64_MAX));  // truncates to 2^63-1
  const std::string table = tw.table();
  EXPECT_NE(table.find("C64:18446744073709551615;"), std::string::npos);
  EXPECT_NE(table.find("C64:9223372036854775808;"), std::string::npos);
  EXPECT_EQ(reserialized(table), table);
}

TEST(TermTable, DeepSharedDagStaysLinear) {
  // x_{i+1} = x_i + x_i, 64 levels deep: 2^64 tree nodes but 66 DAG
  // nodes. The table must describe each node once and round-trip.
  smt::TermManager tm;
  smt::TermRef t = tm.mkVar(32, "v");
  for (int i = 0; i < 64; ++i) t = tm.mkAdd(t, t);
  smt::TermTableWriter tw;
  tw.slot(t);
  EXPECT_LE(tw.size(), 70u);
  const std::string table = tw.table();
  smt::TermManager tm2;
  const auto slots = smt::TermTableReader::read(table, tm2);
  smt::TermTableWriter tw2;
  EXPECT_EQ(tw2.slot(slots.back()), tw.size() - 1);
  EXPECT_EQ(tw2.table(), table);
}

TEST(TermTable, CrossPoolStructuralDedup) {
  // The same structure built in two different pools collapses to one
  // slot — the property that makes checkpoint bytes -jN independent.
  smt::TermManager tm1, tm2;
  const auto build = [](smt::TermManager& tm) {
    return tm.mkEq(tm.mkAdd(tm.mkVar(8, "in0"), tm.mkConst(8, 7)),
                   tm.mkConst(8, 9));
  };
  // Pool 2 interns extra garbage first so raw ids differ between pools.
  tm2.mkVar(8, "noise");
  tm2.mkConst(8, 250);
  smt::TermTableWriter tw;
  const uint32_t s1 = tw.slot(build(tm1));
  const size_t after1 = tw.size();
  const uint32_t s2 = tw.slot(build(tm2));
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(tw.size(), after1);  // nothing new described
  EXPECT_EQ(reserialized(tw.table()), tw.table());
}

TEST(TermTable, ReadIntoNonEmptyPool) {
  // Operand references are table slots, not pool ids: a pool that already
  // holds terms must still get the table's structure.
  smt::TermManager src;
  const auto t = src.mkEq(src.mkAdd(src.mkVar(8, "in0"), src.mkConst(8, 7)),
                          src.mkVar(8, "in1"));
  smt::TermTableWriter tw;
  tw.slot(t);
  smt::TermManager dst;
  dst.mkVar(8, "noise");
  dst.mkConst(16, 3);
  const auto slots = smt::TermTableReader::read(tw.table(), dst);
  EXPECT_EQ(smt::toString(slots.back()), smt::toString(t));
}

TEST(TermTable, MalformedTablesRejected) {
  smt::TermManager tm;
  const auto rejects = [&](const std::string& table) {
    EXPECT_THROW(smt::TermTableReader::read(table, tm), InputError) << table;
  };
  rejects("X8:0;");       // unknown tag
  rejects("C65:0;");      // width out of range
  rejects("C8");          // truncated mid-descriptor
  rejects("O0:8:-,-,-:0;");   // Const is not an operator kind
  rejects("O9:8:5,-,-:0;");   // forward/out-of-range operand slot
  rejects("V8:a;C8:1");       // missing final ';'
}

// ---------------------------------------------------------------------
// File framing (core/checkpoint.h)
// ---------------------------------------------------------------------

TEST(CkptFile, RoundTripAndTrailer) {
  const std::string path = testing::TempDir() + "ckpt_frame.ckpt";
  core::ckpt::writeCheckpointFile(
      path, "{\"schema\":\"adlsym-ckpt-v6\",\"n\":7}");
  const std::string blob = slurp(path);
  EXPECT_NE(blob.find("#adlsym-ckpt-v6 sha256="), std::string::npos);
  EXPECT_EQ(blob.back(), '\n');
  const json::Value v = core::ckpt::loadCheckpointFile(path);
  EXPECT_EQ(core::ckpt::fieldU64(v, "n"), 7u);
  EXPECT_EQ(core::ckpt::fieldStr(v, "schema"), "adlsym-ckpt-v6");
}

TEST(CkptFile, CorruptionRejectedWithContext) {
  const std::string good = testing::TempDir() + "ckpt_good.ckpt";
  core::ckpt::writeCheckpointFile(
      good, "{\"schema\":\"adlsym-ckpt-v6\",\"n\":7}");
  const std::string blob = slurp(good);

  const auto expectRejected = [](const std::string& path,
                                 const std::string& needle) {
    try {
      core::ckpt::loadCheckpointFile(path);
      FAIL() << "expected InputError for " << path;
    } catch (const InputError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("checkpoint "), std::string::npos) << msg;
      EXPECT_NE(msg.find("line "), std::string::npos) << msg;
      EXPECT_NE(msg.find(needle), std::string::npos) << msg;
    }
  };

  // Single flipped byte in the document: self-hash mismatch.
  std::string flipped = blob;
  flipped[flipped.find("\"n\":7") + 4] = '8';
  const std::string flippedPath = testing::TempDir() + "ckpt_flip.ckpt";
  spit(flippedPath, flipped);
  expectRejected(flippedPath, "hash mismatch");

  // Truncation (simulated torn write): trailer gone.
  const std::string cutPath = testing::TempDir() + "ckpt_cut.ckpt";
  spit(cutPath, blob.substr(0, blob.size() / 2));
  expectRejected(cutPath, "truncated");

  // Wrong schema tag, valid hash.
  const std::string wrongPath = testing::TempDir() + "ckpt_schema.ckpt";
  core::ckpt::writeCheckpointFile(wrongPath, "{\"schema\":\"bogus-v9\"}");
  expectRejected(wrongPath, "schema");

  // Valid trailer over non-JSON content.
  const std::string notJsonPath = testing::TempDir() + "ckpt_notjson.ckpt";
  core::ckpt::writeCheckpointFile(notJsonPath, "not json at all");
  expectRejected(notJsonPath, "line 1");
}

// ---------------------------------------------------------------------
// State-level serializers
// ---------------------------------------------------------------------

TEST(CkptState, MachineStateRoundTrip) {
  auto s = Session::forPortable(workloads::progBitcount(2), "rv32e");
  const loader::Image& img = s->image();

  smt::TermManager tm;
  core::MachineState st;
  st.memory = core::SymMemory(&img);
  st.pc = 12;
  st.steps = 5;
  st.forks = 2;
  st.inputCounter = 1;
  const smt::TermRef in0 = tm.mkVar(8, "in0");
  const smt::TermRef sum = tm.mkAdd(tm.mkZExt(in0, 32), tm.mkConst(32, 3));
  st.regs = {tm.mkConst(32, 0), sum};
  st.regfile = {sum, tm.mkConst(32, 1)};
  st.pathCond = {tm.mkEq(in0, tm.mkConst(8, 4))};
  st.inputs.push_back({"in0", 8, in0});
  st.outputs.push_back({sum, 8});
  st.memory.writeByte(64, tm.mkExtract(in0, 7, 0));

  const auto render = [&](const core::MachineState& m, smt::TermManager& pool,
                          std::string* tableOut) {
    smt::TermTableWriter tw;
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject();
    core::ckpt::writeMachineStateFields(w, m, pool, tw);
    w.endObject();
    *tableOut = tw.table();
    return os.str();
  };

  std::string table1;
  const std::string doc1 = render(st, tm, &table1);

  smt::TermManager tm2;
  const auto slots = smt::TermTableReader::read(table1, tm2);
  const core::MachineState back =
      core::ckpt::readMachineState(json::parse(doc1), slots, &img);
  EXPECT_EQ(back.pc, st.pc);
  EXPECT_EQ(back.steps, st.steps);
  EXPECT_EQ(back.forks, st.forks);
  EXPECT_EQ(back.inputCounter, st.inputCounter);
  ASSERT_EQ(back.inputs.size(), 1u);
  EXPECT_EQ(back.inputs[0].name, "in0");

  // Re-serializing the restored state reproduces both byte streams.
  std::string table2;
  const std::string doc2 = render(back, tm2, &table2);
  EXPECT_EQ(doc2, doc1);
  EXPECT_EQ(table2, table1);
}

TEST(CkptState, PathResultRoundTrip) {
  core::PathResult r;
  r.status = core::PathStatus::Defect;
  r.truncReason = core::TruncReason::None;
  r.finalPc = 40;
  r.steps = 17;
  r.forks = 3;
  r.outputs = {1, 255, 0};
  r.test.inputs.push_back({"in0", 8, 200});
  core::Defect d;
  d.kind = core::DefectKind::Trap;
  d.pc = 40;
  d.mnemonic = "div";
  d.message = "division by zero";
  d.trapClass = 2;
  d.witness.inputs.push_back({"in1", 8, 0});
  r.defect = d;
  r.pathKey = "1L0R";

  const auto render = [](const core::PathResult& pr) {
    std::ostringstream os;
    json::Writer w(os);
    core::ckpt::writePathResult(w, pr);
    return os.str();
  };
  const std::string doc = render(r);
  const core::PathResult back = core::ckpt::readPathResult(json::parse(doc));
  EXPECT_EQ(render(back), doc);
  EXPECT_EQ(back.pathKey, "1L0R");
  ASSERT_TRUE(back.defect.has_value());
  EXPECT_EQ(back.defect->message, "division by zero");

  // Signal-truncated results (graceful-stop paths) survive too.
  core::PathResult t;
  t.status = core::PathStatus::Truncated;
  t.truncReason = core::TruncReason::Signal;
  t.pathKey = "0L";
  const core::PathResult tb = core::ckpt::readPathResult(json::parse(render(t)));
  EXPECT_EQ(tb.truncReason, core::TruncReason::Signal);
}

TEST(CkptState, SitesSectionRoundTrip) {
  auto s = Session::forPortable(workloads::progBitcount(3), "rv32e");
  const uint64_t entry = s->image().entry();
  obs::ProfileCollector prof(s->model(), s->image());
  core::ExploreObserver::StepInfo info;
  info.pc = entry;
  info.numSuccessors = 1;
  prof.onStepEnd(info);
  info.pc = entry + 4;
  info.numSuccessors = 2;
  prof.onStepEnd(info);
  info.numSuccessors = 0;
  prof.onDrop(0, info.pc);
  prof.onStepEnd(info);

  const auto section = [](const obs::ProfileCollector& p) {
    std::ostringstream os;
    json::Writer w(os);
    p.writeCkptJson(w);
    return os.str();
  };
  const std::string first = section(prof);
  obs::ProfileCollector restored(s->model(), s->image());
  restored.restoreFromCkpt(json::parse(first));
  EXPECT_EQ(section(restored), first);
  for (const auto& [pc, site] : restored.sites()) {
    EXPECT_EQ(site.opcode, prof.sites().at(pc).opcode) << pc;
  }
  EXPECT_THROW(restored.restoreFromCkpt(json::parse("{\"sites\":[]}")),
               InputError);
}

// ---------------------------------------------------------------------
// End-to-end kill/resume determinism through the CLI
// ---------------------------------------------------------------------

struct CliRun {
  std::string ckpt, stats, forest, events;
  std::vector<std::string> args;
  int exitCode = 0;
  std::string stdoutText;
};

class CkptResume : public testing::Test {
 protected:
  static std::string imageFor(const std::string& isa) {
    auto s = Session::forPortable(workloads::progBitcount(3), isa);
    const std::string path = testing::TempDir() + "ckpt_" + isa + ".img";
    std::ofstream(path) << s->image().serialize();
    return path;
  }

  static CliRun makeRun(const std::string& tag, const std::string& isa,
                     const std::string& img, unsigned jobs) {
    CliRun r;
    const std::string base = testing::TempDir() + "ckpt_" + tag;
    r.ckpt = base + ".ckpt";
    r.stats = base + ".stats.json";
    r.forest = base + ".forest.json";
    r.events = base + ".events.jsonl";
    r.args = {"explore",
              isa,
              img,
              "--clock=manual",
              "--jobs",
              std::to_string(jobs),
              "--checkpoint=" + r.ckpt,
              "--checkpoint-every=2",
              "--stats-json=" + r.stats,
              "--path-forest=" + r.forest,
              "--events=" + r.events};
    return r;
  }

  static void exec(CliRun& r, const std::vector<std::string>& extra = {}) {
    std::vector<std::string> args = r.args;
    args.insert(args.end(), extra.begin(), extra.end());
    const auto res = dispatch(args);
    r.exitCode = res.exitCode;
    r.stdoutText = res.output;
  }

  static void expectSameFinalArtifacts(const CliRun& ref, const CliRun& got,
                                       const std::string& where) {
    EXPECT_EQ(got.exitCode, ref.exitCode) << where;
    EXPECT_EQ(got.stdoutText, ref.stdoutText) << where;
    EXPECT_EQ(slurp(got.stats), slurp(ref.stats)) << where;
    EXPECT_EQ(slurp(got.forest), slurp(ref.forest)) << where;
    EXPECT_EQ(canonEvents(got.events), canonEvents(ref.events)) << where;
    EXPECT_EQ(slurp(got.ckpt), slurp(ref.ckpt)) << where;
  }
};

TEST_F(CkptResume, CrashResumeByteIdentity) {
  const std::string img = imageFor("rv32e");
  CliRun ref = makeRun("ref", "rv32e", img, 1);
  exec(ref);
  ASSERT_EQ(ref.exitCode, 0) << ref.stdoutText;
  ASSERT_FALSE(slurp(ref.stats).empty());

  std::string survivorBytes;  // barrier-1 ckpt, compared across jobs
  for (const unsigned jobs : {1u, 8u}) {
    const std::string tag = "crash_j" + std::to_string(jobs);
    CliRun crash = makeRun(tag, "rv32e", img, jobs);
    exec(crash, {"--inject=ckpt.write:2"});
    EXPECT_EQ(crash.exitCode, 4) << crash.stdoutText;

    // Satellite contract: the fault fired before the temp file existed,
    // so the previous (barrier-1) checkpoint is intact and loadable.
    const json::Value v = core::ckpt::loadCheckpointFile(crash.ckpt);
    EXPECT_EQ(core::ckpt::field(v, "complete").boolean, false);
    EXPECT_EQ(core::ckpt::fieldStr(v, "isa"), "rv32e");

    // Checkpoint *content* is a level-barrier snapshot: byte-identical
    // across -jN.
    const std::string bytes = slurp(crash.ckpt);
    if (survivorBytes.empty()) {
      survivorBytes = bytes;
    } else {
      EXPECT_EQ(bytes, survivorBytes) << "ckpt bytes differ at -j" << jobs;
    }

    // Resume from the survivor with identical flags: every final
    // artifact must match the uninterrupted reference run.
    CliRun resumed = crash;
    exec(resumed, {"--resume=" + crash.ckpt});
    expectSameFinalArtifacts(ref, resumed, tag + " resume");
  }
}

TEST_F(CkptResume, MidRunCheckpointsAgreeAcrossJobs) {
  // sort4's deep frontier is stolen (and so rebuilt in the thief's pool)
  // at -j2/-j8. The checkpoint of the third level barrier, events gauges
  // included, must not depend on which states moved; only the raw event
  // stream's byte offset may differ.
  const std::regex offset(R"("offset":[0-9]+)");
  for (const std::string isa : {"acc8", "m16", "rv32e", "stk16"}) {
    auto s = Session::forPortable(workloads::progSort(4), isa);
    const std::string img = testing::TempDir() + "ckpt_sort4_" + isa + ".img";
    std::ofstream(img) << s->image().serialize();
    std::string first;
    for (const unsigned jobs : {1u, 2u, 8u}) {
      const std::string base = testing::TempDir() + "ckpt_mid_" + isa +
                               "_j" + std::to_string(jobs);
      const auto res = dispatch(
          {"explore", isa, img, "--clock=manual", "--jobs",
           std::to_string(jobs), "--checkpoint=" + base + ".ckpt",
           "--checkpoint-every=40", "--events=" + base + ".events.jsonl",
           "--inject=ckpt.write:3"});
      EXPECT_EQ(res.exitCode, 4) << isa << " -j" << jobs << ": " << res.output;
      const std::string blob = slurp(base + ".ckpt");
      const std::string doc =
          std::regex_replace(blob.substr(0, blob.find('\n')), offset, "");
      ASSERT_NE(doc.find("\"frontier_bytes\":"), std::string::npos) << doc;
      if (first.empty()) {
        first = doc;
      } else {
        EXPECT_EQ(doc, first) << isa << " checkpoint differs at -j" << jobs;
      }
    }
  }
}

TEST_F(CkptResume, ResumeFromCompleteCheckpointReplaysNothing) {
  const std::string img = imageFor("m16");
  CliRun ref = makeRun("m16_ref", "m16", img, 2);
  exec(ref);
  ASSERT_EQ(ref.exitCode, 0) << ref.stdoutText;
  const std::string finalCkpt = slurp(ref.ckpt);
  EXPECT_NE(finalCkpt.find("\"complete\":true"), std::string::npos);

  CliRun again = ref;
  exec(again, {"--resume=" + ref.ckpt});
  expectSameFinalArtifacts(ref, again, "complete-resume");
}

TEST_F(CkptResume, GracefulStopWritesSignalCheckpointAndResumes) {
  const std::string img = imageFor("acc8");
  CliRun ref = makeRun("sig_ref", "acc8", img, 2);
  exec(ref);
  ASSERT_EQ(ref.exitCode, 0) << ref.stdoutText;

  CliRun stopped = makeRun("sig_stop", "acc8", img, 2);
  support::requestGracefulStop();
  exec(stopped);
  support::clearGracefulStop();
  EXPECT_EQ(stopped.exitCode, 3) << stopped.stdoutText;
  EXPECT_NE(slurp(stopped.stats).find("\"stop_reason\":\"signal\""),
            std::string::npos);
  const json::Value v = core::ckpt::loadCheckpointFile(stopped.ckpt);
  EXPECT_EQ(core::ckpt::fieldStr(v, "stop_reason"), "signal");
  EXPECT_EQ(core::ckpt::field(v, "complete").boolean, false);

  CliRun resumed = stopped;
  exec(resumed, {"--resume=" + stopped.ckpt});
  expectSameFinalArtifacts(ref, resumed, "signal resume");
}

TEST_F(CkptResume, FlagValidationAndIdentityMismatch) {
  const std::string img = imageFor("stk16");
  const std::string ckpt = testing::TempDir() + "ckpt_valid.ckpt";

  // --checkpoint-every without --checkpoint.
  EXPECT_EQ(dispatch({"explore", "stk16", img, "--clock=manual",
                      "--checkpoint-every=2"})
                .exitCode,
            2);
  // Checkpointing requires the deterministic clock.
  EXPECT_EQ(dispatch({"explore", "stk16", img, "--checkpoint=" + ckpt})
                .exitCode,
            2);
  // Events-to-stdout cannot be spliced on resume.
  EXPECT_EQ(dispatch({"explore", "stk16", img, "--clock=manual",
                      "--checkpoint=" + ckpt, "--events=-"})
                .exitCode,
            2);

  // Build a real checkpoint, then violate the run identity on resume.
  CliRun ref = makeRun("stk16_id", "stk16", img, 1);
  exec(ref);
  ASSERT_EQ(ref.exitCode, 0) << ref.stdoutText;
  CliRun wrong = ref;
  exec(wrong, {"--resume=" + ref.ckpt, "--strategy", "bfs"});
  EXPECT_EQ(wrong.exitCode, 2);
  EXPECT_NE(wrong.stdoutText.find("mismatch"), std::string::npos)
      << wrong.stdoutText;

  // Corrupt checkpoints are rejected through the CLI with exit 2.
  const std::string blob = slurp(ref.ckpt);
  const std::string cut = testing::TempDir() + "ckpt_cli_cut.ckpt";
  spit(cut, blob.substr(0, blob.size() - 20));
  CliRun broken = ref;
  exec(broken, {"--resume=" + cut});
  EXPECT_EQ(broken.exitCode, 2);
  EXPECT_NE(broken.stdoutText.find("checkpoint"), std::string::npos);
}

// A checkpoint comes from outside the program, so a field of the wrong
// JSON type is bad input (exit 2), never a silent default. Each case
// rewrites one field of a real checkpoint and re-frames the document with
// a valid trailer, so only the type check can reject it.
TEST_F(CkptResume, IllTypedFieldsRejected) {
  const std::string img = imageFor("rv32e");
  CliRun ref = makeRun("typed_ref", "rv32e", img, 1);
  exec(ref);
  ASSERT_EQ(ref.exitCode, 0) << ref.stdoutText;
  const std::string blob = slurp(ref.ckpt);
  const std::string doc = blob.substr(0, blob.find('\n'));

  const struct {
    const char* field;
    std::regex from;
    const char* to;
  } cases[] = {
      {"complete", std::regex(R"("complete":true)"), R"("complete":1)"},
      {"steps", std::regex(R"("counters":\{"steps":\d+)"),
       R"("counters":{"steps":"7")"},
  };
  for (const auto& c : cases) {
    const std::string bad = std::regex_replace(
        doc, c.from, c.to, std::regex_constants::format_first_only);
    ASSERT_NE(bad, doc) << c.field;
    const std::string path =
        testing::TempDir() + "ckpt_typed_" + c.field + ".ckpt";
    core::ckpt::writeCheckpointFile(path, bad);
    CliRun resumed = ref;
    exec(resumed, {"--resume=" + path});
    EXPECT_EQ(resumed.exitCode, 2) << c.field << ": " << resumed.stdoutText;
    EXPECT_NE(resumed.stdoutText.find(std::string("'") + c.field + "'"),
              std::string::npos)
        << resumed.stdoutText;
  }
}

// Every older schema is refused with exit 2, whether its document is
// re-framed with a valid trailer or framed exactly as that version did.
// A v1 file holds its term table in pool order. A v3 file's solver
// baseline and site costs counted Unsat verdicts that --jobs workers now
// answer warm at cost 0, and its run had the shared query cache on by
// default, which this build no longer offers, so resuming it would give
// a document no uninterrupted run writes. A v4 file was written with the
// abstract prefilter on: its solver baseline counts prefilter
// consultations and its events section per-issuance prefilter counts and
// cache hits, none of which a run of this build makes. A v5 file's solver
// baseline counts SAT and blast work and canonical conflicts, and its
// frontier witnesses came from a reset fresh core, not the nearest
// models this build's states carry.
TEST_F(CkptResume, OlderSchemaRejected) {
  const std::string img = imageFor("rv32e");
  CliRun ref = makeRun("schema_ref", "rv32e", img, 1);
  exec(ref);
  ASSERT_EQ(ref.exitCode, 0) << ref.stdoutText;
  const std::string blob = slurp(ref.ckpt);
  for (const std::string version : {"v1", "v3", "v4", "v5"}) {
    const std::string tag = "adlsym-ckpt-" + version;
    const std::string doc = std::regex_replace(
        blob.substr(0, blob.find('\n')),
        std::regex(R"("schema":"adlsym-ckpt-v\d+")"),
        "\"schema\":\"" + tag + "\"");

    const std::string retagged =
        testing::TempDir() + "ckpt_" + version + "_retagged.ckpt";
    core::ckpt::writeCheckpointFile(retagged, doc);
    CliRun resumed = ref;
    exec(resumed, {"--resume=" + retagged});
    EXPECT_EQ(resumed.exitCode, 2) << version << ": " << resumed.stdoutText;
    EXPECT_NE(resumed.stdoutText.find(std::string("schema is not ") +
                                      core::ckpt::kSchema),
              std::string::npos)
        << resumed.stdoutText;

    const std::string framed =
        testing::TempDir() + "ckpt_" + version + "_framed.ckpt";
    spit(framed, doc + "\n#" + tag + " sha256=" +
                     hash::sha256Hex(doc + "\n") + "\n");
    CliRun old = ref;
    exec(old, {"--resume=" + framed});
    EXPECT_EQ(old.exitCode, 2) << version << ": " << old.stdoutText;
    EXPECT_NE(old.stdoutText.find(std::string("schema is not ") +
                                  core::ckpt::kSchema),
              std::string::npos)
        << old.stdoutText;
  }
}

// A v2 file carries no per-state witnesses: a state resumed from one would
// solve both sides of its next branch, so its counters, witnesses and
// forest would differ from the uninterrupted run. v2 is refused with exit
// 2 and the schema message, whether re-framed with a valid trailer or
// framed exactly as v2 wrote it.
TEST_F(CkptResume, V2WithoutWitnessesRejected) {
  const std::string img = imageFor("rv32e");
  CliRun ref = makeRun("v2_ref", "rv32e", img, 1);
  exec(ref, {"--inject=ckpt.write:2"});
  ASSERT_EQ(ref.exitCode, 4) << ref.stdoutText;
  const std::string blob = slurp(ref.ckpt);
  std::string doc = blob.substr(0, blob.find('\n'));
  ASSERT_NE(doc.find("\"w\":["), std::string::npos) << doc;
  doc = std::regex_replace(doc, std::regex(R"(,"w":\[[0-9,]*\])"), "");
  doc = std::regex_replace(doc, std::regex(R"("schema":"adlsym-ckpt-v\d+")"),
                           R"("schema":"adlsym-ckpt-v2")");
  const std::string want = std::string("schema is not ") + core::ckpt::kSchema;

  const std::string retagged = testing::TempDir() + "ckpt_v2_retagged.ckpt";
  core::ckpt::writeCheckpointFile(retagged, doc);
  CliRun resumed = ref;
  exec(resumed, {"--resume=" + retagged});
  EXPECT_EQ(resumed.exitCode, 2) << resumed.stdoutText;
  EXPECT_NE(resumed.stdoutText.find(want), std::string::npos)
      << resumed.stdoutText;

  const std::string framed = testing::TempDir() + "ckpt_v2_framed.ckpt";
  spit(framed, doc + "\n#adlsym-ckpt-v2 sha256=" +
                   hash::sha256Hex(doc + "\n") + "\n");
  CliRun v2 = ref;
  exec(v2, {"--resume=" + framed});
  EXPECT_EQ(v2.exitCode, 2) << v2.stdoutText;
  EXPECT_NE(v2.stdoutText.find(want), std::string::npos) << v2.stdoutText;
}

// Every state carries its witness, so a frontier state without `w` is
// malformed: resuming it is refused with exit 2 and a message naming the
// field, never resumed with a witness made up.
TEST_F(CkptResume, FrontierStateWithoutWitnessRejected) {
  const std::string img = imageFor("rv32e");
  CliRun ref = makeRun("now_ref", "rv32e", img, 1);
  exec(ref, {"--inject=ckpt.write:2"});
  ASSERT_EQ(ref.exitCode, 4) << ref.stdoutText;
  const std::string blob = slurp(ref.ckpt);
  std::string doc = blob.substr(0, blob.find('\n'));
  ASSERT_NE(doc.find("\"w\":["), std::string::npos) << doc;
  doc = std::regex_replace(doc, std::regex(R"(,"w":\[[0-9,]*\])"), "");
  ASSERT_EQ(doc.find("\"w\":"), std::string::npos) << doc;

  const std::string path = testing::TempDir() + "ckpt_no_witness.ckpt";
  core::ckpt::writeCheckpointFile(path, doc);
  CliRun resumed = ref;
  exec(resumed, {"--resume=" + path});
  EXPECT_EQ(resumed.exitCode, 2) << resumed.stdoutText;
  EXPECT_NE(resumed.stdoutText.find("missing field 'w'"), std::string::npos)
      << resumed.stdoutText;
}

}  // namespace
}  // namespace adlsym
