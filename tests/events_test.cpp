// Flight recorder (src/obs/events.h, src/obs/manifest.h,
// docs/observability.md): the adlsym-events-v3 stream, its canonicalizer
// and summarizer, the adlsym-run-v1 manifest + verify-run, the tail
// dashboard state machine, and the SHA-256 underneath it all.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "driver/cli.h"
#include "driver/session.h"
#include "obs/events.h"
#include "obs/manifest.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/json.h"
#include "workloads/programs.h"

namespace adlsym {
namespace {

namespace fs = std::filesystem;
using driver::cli::dispatch;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string tmpPath(const std::string& name) {
  return testing::TempDir() + name;
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

constexpr char kBranchy[] =
    "_start:\n"
    "  in8 x5\n"
    "  beq x5, x0, zero\n"
    "  out x5\n"
    "  halti 1\n"
    "zero:\n"
    "  halti 2\n";

// Assemble kBranchy once per process; returns the image path.
const std::string& branchyImage() {
  static const std::string path = [] {
    const std::string p = tmpPath("events_branchy.img");
    const auto r = driver::cli::cmdAsm("rv32e", kBranchy);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    spit(p, r.output);
    return p;
  }();
  return path;
}

// ---- SHA-256 (FIPS 180-4 vectors) --------------------------------------

TEST(Sha256, FipsVectors) {
  EXPECT_EQ(hash::sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hash::sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hash::sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomn"
                            "opnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingMatchesOneShotAcrossBlockBoundaries) {
  // 200 bytes crosses the 64-byte block boundary at every update split.
  std::string data;
  for (int i = 0; i < 200; ++i) data.push_back(char('a' + i % 26));
  const std::string want = hash::sha256Hex(data);
  for (size_t split : {1u, 63u, 64u, 65u, 127u, 199u}) {
    hash::Sha256 h;
    h.update(data.data(), split);
    h.update(data.data() + split, data.size() - split);
    EXPECT_EQ(h.hexDigest(), want) << "split at " << split;
  }
}

TEST(Sha256, FileDigestMatchesStringDigest) {
  const std::string path = tmpPath("sha_file.bin");
  spit(path, "the quick brown fox");
  EXPECT_EQ(hash::sha256File(path), hash::sha256Hex("the quick brown fox"));
  EXPECT_THROW(hash::sha256File(tmpPath("no_such_file.bin")), InputError);
}

// ---- EventBus emission -------------------------------------------------

TEST(EventBus, EmitsVersionedLinesWithMonotoneSeq) {
  std::ostringstream os;
  obs::EventBus bus(os, nullptr, {});
  bus.runBegin({"explore", "rv32e", "dfs", "prog.img"});
  core::ExploreObserver::StepInfo si;
  si.pathKey = "";
  si.pathSteps = 0;
  si.pc = 0;
  si.numSuccessors = 2;
  bus.onStepEnd(si);
  bus.onMerge(1, 2, 0x10);
  core::ExploreSummary sum;
  bus.runEnd(sum, {}, 0);

  uint64_t expectSeq = 0;
  std::istringstream in(os.str());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    const json::Value ev = json::parse(line);
    ASSERT_TRUE(ev.isObject()) << line;
    EXPECT_EQ(ev.find("v")->asU64(), 1u) << line;
    EXPECT_EQ(ev.find("seq")->asU64(), expectSeq++) << line;
    ASSERT_NE(ev.find("type"), nullptr) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 4u);
  const auto c = bus.counts();
  EXPECT_EQ(c.runBegin, 1u);
  EXPECT_EQ(c.step, 1u);
  EXPECT_EQ(c.merge, 1u);
  EXPECT_EQ(c.runEnd, 1u);
  EXPECT_EQ(c.dropped, 0u);
}

TEST(EventBus, SnapshotCadenceCountsStepEvents) {
  std::ostringstream os;
  obs::EventBusOptions opts;
  opts.snapshotEverySteps = 3;
  obs::EventBus bus(os, nullptr, opts);
  core::ExploreObserver::StepInfo si;
  si.numSuccessors = 1;
  for (int i = 0; i < 10; ++i) {
    si.pathSteps = uint64_t(i);
    bus.onStepEnd(si);
  }
  EXPECT_EQ(bus.counts().snapshot, 3u);  // after steps 3, 6, 9
  EXPECT_EQ(bus.counts().step, 10u);
}

TEST(EventBus, TracksDropsOnFailedStream) {
  std::ofstream dead(testing::TempDir());  // a directory: every write fails
  ASSERT_FALSE(dead.good() && (dead << "x").good());
  obs::EventBus bus(dead, nullptr, {});
  bus.runBegin({"explore", "rv32e", "dfs", "p"});
  core::ExploreObserver::StepInfo si;
  si.numSuccessors = 1;
  bus.onStepEnd(si);
  const auto c = bus.counts();
  EXPECT_EQ(c.dropped, 2u);
  EXPECT_EQ(c.runBegin, 0u);
  EXPECT_EQ(c.step, 0u);
}

// ---- canonicalizer -----------------------------------------------------

TEST(EventsCanon, DropsLiveTypesStripsSeqAndSorts) {
  const std::string stream =
      "{\"v\":1,\"seq\":0,\"t\":5,\"type\":\"run_begin\",\"isa\":\"rv32e\"}\n"
      "{\"v\":1,\"seq\":1,\"t\":6,\"type\":\"query\",\"result\":\"sat\"}\n"
      "{\"v\":1,\"seq\":2,\"t\":7,\"type\":\"step\",\"path\":\"1\",\"n\":2}\n"
      "{\"v\":1,\"seq\":3,\"t\":8,\"type\":\"snapshot\",\"steps\":1}\n"
      "{\"v\":1,\"seq\":4,\"t\":9,\"type\":\"step\",\"path\":\"\",\"n\":0}\n"
      "{\"v\":1,\"seq\":5,\"t\":10,\"type\":\"heartbeat\"}\n"
      "{\"v\":1,\"seq\":6,\"t\":11,\"type\":\"path_done\",\"path\":\"0\"}\n"
      "{\"v\":1,\"seq\":7,\"t\":12,\"type\":\"step\",\"path\":\"0.2\",\"n\":"
      "3}\n"
      "{\"v\":1,\"seq\":8,\"t\":13,\"type\":\"run_end\",\"paths\":2}\n";
  std::istringstream in(stream);
  std::ostringstream out;
  const size_t n = obs::canonicalizeEvents(in, out);
  EXPECT_EQ(n, 6u);
  EXPECT_EQ(out.str(),
            "{\"v\":1,\"type\":\"run_begin\",\"isa\":\"rv32e\"}\n"
            "{\"v\":1,\"type\":\"step\",\"path\":\"\",\"n\":0}\n"
            "{\"v\":1,\"type\":\"step\",\"path\":\"0.2\",\"n\":3}\n"
            "{\"v\":1,\"type\":\"step\",\"path\":\"1\",\"n\":2}\n"
            "{\"v\":1,\"type\":\"path_done\",\"path\":\"0\"}\n"
            "{\"v\":1,\"type\":\"run_end\",\"paths\":2}\n");
}

TEST(EventsCanon, PathKeysSortNumericallyNotLexically) {
  // "10" must sort after "2" (numeric component order), and "1.2" between
  // "1" and "2".
  const std::string stream =
      "{\"v\":1,\"seq\":0,\"t\":0,\"type\":\"step\",\"path\":\"10\",\"n\":0}\n"
      "{\"v\":1,\"seq\":1,\"t\":0,\"type\":\"step\",\"path\":\"2\",\"n\":0}\n"
      "{\"v\":1,\"seq\":2,\"t\":0,\"type\":\"step\",\"path\":\"1.2\",\"n\":0}"
      "\n"
      "{\"v\":1,\"seq\":3,\"t\":0,\"type\":\"step\",\"path\":\"1\",\"n\":0}\n";
  std::istringstream in(stream);
  std::ostringstream out;
  obs::canonicalizeEvents(in, out);
  EXPECT_EQ(out.str(),
            "{\"v\":1,\"type\":\"step\",\"path\":\"1\",\"n\":0}\n"
            "{\"v\":1,\"type\":\"step\",\"path\":\"1.2\",\"n\":0}\n"
            "{\"v\":1,\"type\":\"step\",\"path\":\"2\",\"n\":0}\n"
            "{\"v\":1,\"type\":\"step\",\"path\":\"10\",\"n\":0}\n");
}

TEST(EventsCanon, Sixty4BitCountersSurviveByteExactly) {
  // The canonicalizer must never re-serialize numbers: 2^64-1 would come
  // back 1.8446744073709552e19 through a double.
  const std::string line =
      "{\"v\":1,\"seq\":9,\"t\":3,\"type\":\"run_end\",\"queries\":"
      "18446744073709551615}\n";
  std::istringstream in(line);
  std::ostringstream out;
  obs::canonicalizeEvents(in, out);
  EXPECT_EQ(out.str(),
            "{\"v\":1,\"type\":\"run_end\",\"queries\":"
            "18446744073709551615}\n");
}

TEST(EventsCanon, MalformedLineThrowsWithLineNumber) {
  std::istringstream in("{\"v\":1,\"type\":\"step\"}\nnot json\n");
  std::ostringstream out;
  try {
    obs::canonicalizeEvents(in, out);
    FAIL() << "expected InputError";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// ---- summarize + reconcile over a real run -----------------------------

struct RunFiles {
  std::string events;
  std::string stats;
  std::string manifest;
  std::string forest;
  driver::cli::CommandResult result;
};

RunFiles exploreWithRecorder(const std::string& tag,
                             const std::vector<std::string>& extra = {}) {
  RunFiles rf;
  rf.events = tmpPath(tag + ".events.jsonl");
  rf.stats = tmpPath(tag + ".stats.json");
  rf.manifest = tmpPath(tag + ".manifest.json");
  rf.forest = tmpPath(tag + ".forest.json");
  std::vector<std::string> args = {"explore",
                                   "rv32e",
                                   branchyImage(),
                                   "--clock=manual",
                                   "--events=" + rf.events,
                                   "--stats-json=" + rf.stats,
                                   "--manifest=" + rf.manifest,
                                   "--path-forest=" + rf.forest};
  args.insert(args.end(), extra.begin(), extra.end());
  rf.result = dispatch(args);
  return rf;
}

TEST(EventsSummarize, ReconcilesAgainstItselfAndStats) {
  const RunFiles rf = exploreWithRecorder("summarize");
  ASSERT_EQ(rf.result.exitCode, 0) << rf.result.output;

  std::ifstream in(rf.events, std::ios::binary);
  const obs::EventsSummary es = obs::summarizeEvents(in);
  EXPECT_TRUE(es.ok()) << es.formatText();
  EXPECT_TRUE(es.sawRunBegin);
  EXPECT_TRUE(es.sawRunEnd);
  EXPECT_EQ(es.pathsDone, 2u);
  EXPECT_EQ(es.forks, 1u);
  EXPECT_EQ(es.steps, 5u);

  const json::Value stats = json::parse(slurp(rf.stats));
  const auto problems = obs::reconcileWithStats(es, stats);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
}

TEST(EventsSummarize, DetectsTamperedCounters) {
  const RunFiles rf = exploreWithRecorder("tampered");
  ASSERT_EQ(rf.result.exitCode, 0) << rf.result.output;
  // Double the steps total in the run_end echo: the identity steps ==
  // endSteps must now fail.
  std::string text = slurp(rf.events);
  const size_t at = text.find("\"type\":\"run_end\"");
  ASSERT_NE(at, std::string::npos);
  const size_t st = text.find("\"steps\":5", at);
  ASSERT_NE(st, std::string::npos);
  text.replace(st, 9, "\"steps\":9");
  std::istringstream in(text);
  const obs::EventsSummary es = obs::summarizeEvents(in);
  EXPECT_FALSE(es.ok());
}

TEST(EventsSummarize, StatsSchemaMismatchIsAProblem) {
  const RunFiles rf = exploreWithRecorder("schema");
  ASSERT_EQ(rf.result.exitCode, 0) << rf.result.output;
  std::ifstream in(rf.events, std::ios::binary);
  const obs::EventsSummary es = obs::summarizeEvents(in);
  const json::Value stats =
      json::parse("{\"schema\":\"adlsym-stats-v6\"}");
  const auto problems = obs::reconcileWithStats(es, stats);
  EXPECT_FALSE(problems.empty());
}

// ---- stats v7 events block ---------------------------------------------

TEST(StatsV7, EventsBlockMatchesEmittedCounts) {
  const RunFiles rf = exploreWithRecorder("statsblock");
  ASSERT_EQ(rf.result.exitCode, 0) << rf.result.output;
  const json::Value stats = json::parse(slurp(rf.stats));
  ASSERT_EQ(stats.find("schema")->str, "adlsym-stats-v9");
  const json::Value* events = stats.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->find("enabled")->boolean);
  EXPECT_EQ(events->find("schema")->str, "adlsym-events-v3");
  EXPECT_EQ(events->find("dropped")->asU64(), 0u);
  const json::Value* emitted = events->find("emitted");
  ASSERT_NE(emitted, nullptr);
  EXPECT_EQ(emitted->find("step")->asU64(), 5u);
  EXPECT_EQ(emitted->find("path_done")->asU64(), 2u);
  EXPECT_EQ(emitted->find("run_begin")->asU64(), 1u);
  EXPECT_EQ(emitted->find("run_end")->asU64(), 1u);
}

TEST(StatsV7, EventsBlockPresentButDisabledWithoutFlag) {
  const std::string stats = tmpPath("noevents.stats.json");
  const auto r = dispatch({"explore", "rv32e", branchyImage(),
                           "--clock=manual", "--stats-json=" + stats});
  ASSERT_EQ(r.exitCode, 0) << r.output;
  const json::Value doc = json::parse(slurp(stats));
  const json::Value* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->find("enabled")->boolean);
}

// ---- determinism across jobs -------------------------------------------

TEST(EventsDeterminism, CanonicalStreamIdenticalAcrossJobs) {
  auto canonOf = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    obs::canonicalizeEvents(in, out);
    return out.str();
  };
  const RunFiles j1 = exploreWithRecorder("det_j1", {"--jobs", "1"});
  ASSERT_EQ(j1.result.exitCode, 0) << j1.result.output;
  const std::string base = canonOf(j1.events);
  ASSERT_FALSE(base.empty());
  for (const char* jobs : {"2", "8"}) {
    const RunFiles jn =
        exploreWithRecorder(std::string("det_j") + jobs, {"--jobs", jobs});
    ASSERT_EQ(jn.result.exitCode, 0) << jn.result.output;
    EXPECT_EQ(canonOf(jn.events), base) << "-j" << jobs;
  }
  // The sequential engine emits the same deterministic set.
  const RunFiles seq = exploreWithRecorder("det_seq");
  ASSERT_EQ(seq.result.exitCode, 0) << seq.result.output;
  EXPECT_EQ(canonOf(seq.events), base) << "sequential vs -j1";
}

TEST(EventsDeterminism, CanonicalStreamIdenticalAcrossJobsOnAllIsas) {
  // The acceptance bar for the flight recorder: every shipped ISA, a
  // forking workload, canonical streams byte-identical for -j1/-j2/-j8.
  for (const char* isa : {"rv32e", "m16", "acc8", "stk16"}) {
    const std::string img = tmpPath(std::string("det_") + isa + ".img");
    {
      auto s = driver::Session::forPortable(workloads::progBitcount(3), isa);
      std::ofstream(img, std::ios::binary) << s->image().serialize();
    }
    std::string base;
    for (const char* jobs : {"1", "2", "8"}) {
      const std::string ev =
          tmpPath(std::string("det_") + isa + "_j" + jobs + ".jsonl");
      const auto r = dispatch({"explore", isa, img, "--clock=manual",
                               "--jobs", jobs, "--events=" + ev});
      ASSERT_EQ(r.exitCode, 0) << isa << ": " << r.output;
      std::ifstream in(ev, std::ios::binary);
      std::ostringstream canon;
      obs::canonicalizeEvents(in, canon);
      ASSERT_FALSE(canon.str().empty()) << isa;
      if (base.empty()) {
        base = canon.str();
      } else {
        EXPECT_EQ(canon.str(), base) << isa << " -j" << jobs;
      }
    }
  }
}

// ---- manifest + verify-run ---------------------------------------------

TEST(Manifest, RecordsArtifactsWithHashes) {
  const RunFiles rf = exploreWithRecorder("manifest");
  ASSERT_EQ(rf.result.exitCode, 0) << rf.result.output;
  const json::Value man = json::parse(slurp(rf.manifest));
  EXPECT_EQ(man.find("schema")->str, "adlsym-run-v1");
  EXPECT_EQ(man.find("isa")->str, "rv32e");
  EXPECT_EQ(man.find("stats_schema")->str, "adlsym-stats-v9");
  EXPECT_EQ(man.find("events_schema")->str, "adlsym-events-v3");
  const json::Value* arts = man.find("artifacts");
  ASSERT_NE(arts, nullptr);
  ASSERT_EQ(arts->array.size(), 3u);  // stats, forest, events
  for (const json::Value& a : arts->array) {
    const std::string path = a.find("path")->str;
    EXPECT_EQ(a.find("sha256")->str, hash::sha256File(path)) << path;
    EXPECT_EQ(a.find("bytes")->asU64(), fs::file_size(path)) << path;
  }
}

TEST(Manifest, VerifyRunPassesThenCatchesCorruption) {
  const RunFiles rf = exploreWithRecorder("verify");
  ASSERT_EQ(rf.result.exitCode, 0) << rf.result.output;

  obs::VerifyReport rep = obs::verifyRun(rf.manifest);
  EXPECT_TRUE(rep.ok()) << rep.formatText();
  EXPECT_EQ(rep.artifacts.size(), 3u);

  // Flip one byte in the stats document: the hash check must fail.
  std::string stats = slurp(rf.stats);
  stats[stats.size() / 2] ^= 1;
  spit(rf.stats, stats);
  rep = obs::verifyRun(rf.manifest);
  EXPECT_FALSE(rep.ok());

  // Deleting an artifact is a problem too.
  fs::remove(rf.events);
  rep = obs::verifyRun(rf.manifest);
  EXPECT_FALSE(rep.ok());
}

TEST(Manifest, VerifyRunCatchesCrossArtifactMismatch) {
  const RunFiles rf = exploreWithRecorder("crosscheck");
  ASSERT_EQ(rf.result.exitCode, 0) << rf.result.output;
  // Rewrite the events stream with one fewer step event AND update the
  // manifest hash to match: the per-artifact hashes then pass but the
  // events-vs-stats reconciliation must fail.
  std::string events = slurp(rf.events);
  const size_t at = events.find("\"type\":\"step\"");
  ASSERT_NE(at, std::string::npos);
  const size_t lineStart = events.rfind('\n', at) + 1;
  const size_t lineEnd = events.find('\n', at);
  events.erase(lineStart, lineEnd - lineStart + 1);
  spit(rf.events, events);

  std::string man = slurp(rf.manifest);
  const json::Value manDoc = json::parse(man);
  for (const json::Value& a : manDoc.find("artifacts")->array) {
    const std::string old = a.find("sha256")->str;
    if (a.find("role")->str == "events") {
      const size_t pos = man.find(old);
      ASSERT_NE(pos, std::string::npos);
      man.replace(pos, old.size(), hash::sha256File(rf.events));
      const std::string oldBytes =
          "\"bytes\":" + std::to_string(a.find("bytes")->asU64());
      const size_t bp = man.find(oldBytes, pos);
      ASSERT_NE(bp, std::string::npos);
      man.replace(bp, oldBytes.size(),
                  "\"bytes\":" + std::to_string(fs::file_size(rf.events)));
    }
  }
  spit(rf.manifest, man);
  const obs::VerifyReport rep = obs::verifyRun(rf.manifest);
  EXPECT_FALSE(rep.ok());
}

TEST(Manifest, MalformedManifestThrows) {
  const std::string path = tmpPath("bad.manifest.json");
  spit(path, "{\"schema\":\"something-else\"}");
  EXPECT_THROW(obs::verifyRun(path), InputError);
  spit(path, "not json at all");
  EXPECT_THROW(obs::verifyRun(path), InputError);
}

// ---- tail dashboard state machine --------------------------------------

TEST(TailState, RendersRunMetadataAndGauges) {
  obs::TailState ts;
  ts.apply(json::parse(
      "{\"v\":1,\"seq\":0,\"t\":0,\"type\":\"run_begin\",\"command\":"
      "\"explore\",\"isa\":\"m16\",\"strategy\":\"bfs\",\"program\":\"p.img\","
      "\"code_pcs\":10}"));
  ts.apply(json::parse(
      "{\"v\":1,\"seq\":1,\"t\":5,\"type\":\"snapshot\",\"steps\":7,"
      "\"frontier\":3,\"frontier_bytes\":2048,\"paths_done\":1,"
      "\"covered_pcs\":5,\"code_pcs\":10,\"queries\":4,"
      "\"solver_share\":0.5,\"depth_hist\":[1,2,0,0,0,0,0,0]}"));
  EXPECT_FALSE(ts.done());
  const std::string dash = ts.render();
  EXPECT_EQ(dash.find("qcache"), std::string::npos) << dash;
  EXPECT_NE(dash.find("explore"), std::string::npos) << dash;
  EXPECT_NE(dash.find("m16"), std::string::npos) << dash;
  EXPECT_NE(dash.find("bfs"), std::string::npos) << dash;
  EXPECT_NE(dash.find("frontier: 3"), std::string::npos) << dash;
  EXPECT_NE(dash.find("5/10"), std::string::npos) << dash;

  ts.apply(json::parse(
      "{\"v\":1,\"seq\":2,\"t\":9,\"type\":\"run_end\",\"stop_reason\":\"\","
      "\"paths\":2,\"defects\":0,\"queries\":4}"));
  EXPECT_TRUE(ts.done());
  EXPECT_EQ(ts.eventsSeen(), 3u);
  EXPECT_NE(ts.render().find("done"), std::string::npos);
}

TEST(TailState, JoinsMidStreamFromSnapshot) {
  obs::TailState ts;
  // No run_begin: the snapshot's metadata echo seeds the dashboard.
  ts.apply(json::parse(
      "{\"v\":1,\"seq\":40,\"t\":100,\"type\":\"snapshot\",\"command\":"
      "\"profile\",\"isa\":\"acc8\",\"strategy\":\"coverage\",\"steps\":99}"));
  const std::string dash = ts.render();
  EXPECT_NE(dash.find("profile"), std::string::npos) << dash;
  EXPECT_NE(dash.find("acc8"), std::string::npos) << dash;
  EXPECT_NE(dash.find("coverage"), std::string::npos) << dash;
}

TEST(TailState, UnknownEventTypesAreCountedNotFatal) {
  obs::TailState ts;
  ts.apply(json::parse("{\"v\":1,\"seq\":0,\"t\":0,\"type\":\"wormhole\"}"));
  EXPECT_EQ(ts.eventsSeen(), 1u);
  EXPECT_FALSE(ts.done());
}

}  // namespace
}  // namespace adlsym
