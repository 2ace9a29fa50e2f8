#include "obs/events.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <initializer_list>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "core/testgen.h"
#include "support/error.h"
#include "support/json.h"

namespace adlsym::obs {

namespace {

/// Snapshot depth-histogram bucket: 0 = depth 0, k = [2^(k-1), 2^k) for
/// k in 1..6, 7 = 64 and deeper.
size_t depthBucket(uint64_t depth) {
  size_t b = 0;
  while (depth != 0 && b < 7) {
    depth >>= 1;
    ++b;
  }
  return b;
}

void appendU64(std::string* out, uint64_t v) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out->append(buf, end);
}

/// True when the string can go between quotes verbatim (the hot-path
/// case: path keys, status names, ISA names).
bool plainJsonString(std::string_view s) {
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || c == '"' || c == '\\') return false;
  }
  return true;
}

}  // namespace

EventBus::EventBus(std::ostream& os, telemetry::Telemetry* tel,
                   EventBusOptions opts)
    : os_(os), tel_(tel), opts_(opts) {}

void EventBus::appendJsonString(std::string_view v) {
  if (plainJsonString(v)) {
    line_ += v;
  } else {
    line_ += json::escape(v);
  }
}

void EventBus::kvD(const char* key, double v) {
  line_ += ",\"";
  line_ += key;
  line_ += "\":";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  line_ += buf;
}

void EventBus::kvB(const char* key, bool v) {
  line_ += ",\"";
  line_ += key;
  line_ += "\":";
  line_ += v ? "true" : "false";
}

void EventBus::commit(uint64_t& counter, bool flushNow) {
  line_ += "}\n";
  os_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  if (flushNow) os_.flush();
  if (os_.good()) {
    ++counter;
  } else {
    ++counts_.dropped;
    os_.clear();  // keep trying: later writes may succeed (pipe reopened)
  }
}

void EventBus::runBegin(const RunMeta& meta) {
  std::lock_guard<std::mutex> lk(mu_);
  meta_ = meta;
  lineBegin("run_begin");
  kvS("schema", "adlsym-events-v3");
  kvS("command", meta_.command);
  kvS("isa", meta_.isa);
  kvS("strategy", meta_.strategy);
  kvS("program", meta_.program);
  kvU("snapshot_every_steps", opts_.snapshotEverySteps);
  kvU("code_pcs", opts_.codePcs);
  commit(counts_.runBegin, /*flushNow=*/true);
}

void EventBus::runEnd(const core::ExploreSummary& summary,
                      const smt::SolverTelemetry& solver,
                      uint64_t engineRtlTicks) {
  std::lock_guard<std::mutex> lk(mu_);
  lineBegin("run_end");
  kvS("stop_reason", summary.stopReason);
  kvU("paths", uint64_t(summary.paths.size()));
  kvU("exited", uint64_t(summary.numExited()));
  kvU("defects", uint64_t(summary.numDefects()));
  kvU("steps", summary.totalSteps);
  kvU("forks", summary.totalForks);
  kvU("dropped", summary.statesDropped);
  kvU("merged", summary.statesMerged);
  kvU("truncated", summary.statesTruncated);
  kvU("unknowns", summary.solverUnknowns);
  kvU("covered_pcs", uint64_t(summary.coveredPcs));
  kvU("queries", solver.queries);
  kvU("sat", solver.sat);
  kvU("unsat", solver.unsat);
  kvU("unknown", solver.unknown);
  kvU("cache_hits", solver.cacheHits);
  kvU("pre_shortcircuit", solver.preShortcircuit);
  kvU("pre_consulted", solver.preConsulted);
  kvU("direct_solves", solver.directSolves);
  kvU("canon_terms", solver.canon.terms);
  kvU("canon_gates", solver.canon.gates);
  if (engineRtlTicks != 0) kvU("rtl_ticks", engineRtlTicks);
  commit(counts_.runEnd, /*flushNow=*/true);
}

void EventBus::onStepEnd(const StepInfo& info) {
  std::lock_guard<std::mutex> lk(mu_);
  // Roll the live gauges forward (snapshot feedstock).
  liveSteps_ = info.totalSteps;
  liveFrontier_ = info.frontierSize;
  liveFrontierBytes_ = info.frontierBytes;
  livePathsDone_ = info.pathsDone;
  liveCovered_ = info.coveredPcs;
  liveQueries_ = info.runSolverQueries;
  liveSolverMicros_ = info.runSolverMicros;
  ++depthHist_[depthBucket(info.depth)];

  // Deterministic fields only: everything below is attributed to the
  // structural (pathKey, pathSteps) coordinate and is schedule-independent
  // by the canonical-cost contract (docs/observability.md).
  lineBegin("step");
  kvS("path", info.pathKey);
  kvU("n", info.pathSteps);
  kvU("pc", info.pc);
  kvU("succ", uint64_t(info.numSuccessors));
  kvU("depth", info.depth);
  kvU("rtl_ticks", info.stepRtlTicks);
  kvU("queries", info.stepSolverQueries);
  kvU("canon_terms", info.stepCanonTerms);
  kvU("canon_gates", info.stepCanonGates);
  commit(counts_.step);

  ++stepEvents_;
  if (opts_.snapshotEverySteps != 0 &&
      stepEvents_ % opts_.snapshotEverySteps == 0) {
    emitSnapshot();
  }
}

void EventBus::onMerge(uint64_t host, uint64_t incoming, uint64_t pc) {
  std::lock_guard<std::mutex> lk(mu_);
  // Merging is sequential-only (the CLI rejects --merge with --jobs), so
  // the node ids here are deterministic.
  lineBegin("merge");
  kvU("host", host);
  kvU("incoming", incoming);
  kvU("pc", pc);
  commit(counts_.merge);
}

void EventBus::onPathDone(uint64_t /*node*/, const core::PathResult& result) {
  std::lock_guard<std::mutex> lk(mu_);
  lineBegin("path_done");
  kvS("path", result.pathKey);
  kvS("status", core::pathStatusName(result.status));
  if (result.status == core::PathStatus::Truncated) {
    kvS("trunc_reason", core::truncReasonName(result.truncReason));
  }
  kvU("final_pc", result.finalPc);
  kvU("steps", result.steps);
  kvU("forks", uint64_t(result.forks));
  if (result.exitCode.has_value()) kvU("exit", *result.exitCode);
  if (result.defect.has_value()) {
    kvS("defect", core::defectKindName(result.defect->kind));
    kvU("defect_pc", result.defect->pc);
  }
  commit(counts_.pathDone);
}

void EventBus::onCheck(const std::vector<smt::TermRef>& /*permanent*/,
                       const std::vector<smt::TermRef>& assumptions,
                       smt::CheckResult result, uint64_t micros, bool cached) {
  std::lock_guard<std::mutex> lk(mu_);
  // Live event: micros and the solve/cache split depend on the schedule.
  // The *count* of query events is still deterministic (one per check).
  lineBegin("query");
  kvS("result", smt::checkResultName(result));
  kvU("micros", micros);
  kvB("cached", cached);
  kvU("assumptions", uint64_t(assumptions.size()));
  commit(counts_.query);
}

void EventBus::heartbeat(size_t frontier, size_t pathsDone, uint64_t steps,
                         double stepsPerSec, size_t coveredPcs,
                         double solverShare, uint64_t depth,
                         uint64_t frontierBytes) {
  std::lock_guard<std::mutex> lk(mu_);
  lineBegin("heartbeat");
  kvU("frontier", uint64_t(frontier));
  kvU("paths", uint64_t(pathsDone));
  kvU("steps", steps);
  kvD("steps_per_sec", stepsPerSec);
  kvU("covered", uint64_t(coveredPcs));
  if (opts_.codePcs != 0) {
    kvD("coverage_pct", 100.0 * double(coveredPcs) / double(opts_.codePcs));
  }
  kvD("solver_share", solverShare);
  kvU("depth", depth);
  kvU("frontier_bytes", frontierBytes);
  commit(counts_.heartbeat, /*flushNow=*/true);
}

void EventBus::emitSnapshot() {
  // An extra clock read for elapsed time; under --clock=manual this just
  // advances the work index by one tick.
  const uint64_t now =
      tel_ != nullptr ? tel_->nowMicros() : telemetry::Clock::system().nowMicros();
  const uint64_t elapsed = now > startMicros_ ? now - startMicros_ : 0;

  lineBegin("snapshot");
  // Self-describing: enough metadata that `adlsym tail` can join mid-run.
  kvS("command", meta_.command);
  kvS("isa", meta_.isa);
  kvS("strategy", meta_.strategy);
  kvU("steps", liveSteps_);
  kvU("frontier", liveFrontier_);
  kvU("frontier_bytes", liveFrontierBytes_);
  kvU("paths_done", livePathsDone_);
  kvU("covered_pcs", liveCovered_);
  kvU("code_pcs", opts_.codePcs);
  if (opts_.codePcs != 0) {
    kvD("coverage_pct", 100.0 * double(liveCovered_) / double(opts_.codePcs));
  }
  kvU("queries", liveQueries_);
  kvD("solver_share",
      elapsed != 0 ? double(liveSolverMicros_) / double(elapsed) : 0.0);
  kvU("max_frontier", opts_.maxFrontier);
  kvU("mem_budget_bytes", opts_.memBudgetBytes);
  line_ += ",\"depth_hist\":[";
  for (size_t i = 0; i < 8; ++i) {
    if (i != 0) line_ += ',';
    appendU64(&line_, depthHist_[i]);
  }
  line_ += ']';
  commit(counts_.snapshot, /*flushNow=*/true);
  // The histogram covers steps *since the previous snapshot*.
  for (uint64_t& b : depthHist_) b = 0;
}

EventBus::Counts EventBus::counts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counts_;
}

void EventBus::writeStatsJson(json::Writer& w) const {
  std::lock_guard<std::mutex> lk(mu_);
  w.beginObject();
  w.kv("enabled", true);
  w.kv("schema", "adlsym-events-v3");
  w.kv("snapshot_every_steps", opts_.snapshotEverySteps);
  w.key("emitted");
  w.beginObject();
  w.kv("run_begin", counts_.runBegin);
  w.kv("step", counts_.step);
  w.kv("snapshot", counts_.snapshot);
  w.kv("merge", counts_.merge);
  w.kv("path_done", counts_.pathDone);
  w.kv("query", counts_.query);
  w.kv("heartbeat", counts_.heartbeat);
  w.kv("run_end", counts_.runEnd);
  w.endObject();
  w.kv("dropped", counts_.dropped);
  w.endObject();
}

void EventBus::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  os_.flush();
}

void EventBus::writeCkptJson(json::Writer& w, const CkptGauges& g) const {
  std::lock_guard<std::mutex> lk(mu_);
  w.beginObject();
  w.kv("seq", seq_);
  w.kv("step_events", stepEvents_);
  w.kv("start_micros", startMicros_);
  w.kv("started", started_);
  w.key("counts").beginObject();
  w.kv("run_begin", counts_.runBegin);
  w.kv("step", counts_.step);
  w.kv("snapshot", counts_.snapshot);
  w.kv("merge", counts_.merge);
  w.kv("path_done", counts_.pathDone);
  w.kv("query", counts_.query);
  w.kv("heartbeat", counts_.heartbeat);
  w.kv("run_end", counts_.runEnd);
  w.kv("dropped", counts_.dropped);
  w.endObject();
  w.key("live").beginObject();
  w.kv("steps", g.steps);
  w.kv("frontier", g.frontier);
  w.kv("frontier_bytes", g.frontierBytes);
  w.kv("paths_done", g.pathsDone);
  w.kv("covered", g.covered);
  w.kv("queries", g.queries);
  w.kv("solver_micros", g.solverMicros);
  w.endObject();
  w.endObject();
}

void EventBus::resumeRun(const RunMeta& meta, const json::Value& v) {
  const auto u64 = [&](const json::Value& obj, const char* name) -> uint64_t {
    const json::Value* f = obj.find(name);
    if (f == nullptr || !f->isU64()) {
      throw InputError(std::string("events section: '") + name +
                       "' is missing or not a non-negative integer");
    }
    return f->asU64();
  };
  std::lock_guard<std::mutex> lk(mu_);
  meta_ = meta;
  seq_ = u64(v, "seq");
  stepEvents_ = u64(v, "step_events");
  startMicros_ = u64(v, "start_micros");
  const json::Value* started = v.find("started");
  if (started != nullptr && !started->isBool()) {
    throw InputError("events section: 'started' is not a boolean");
  }
  started_ = started != nullptr && started->boolean;
  const json::Value* counts = v.find("counts");
  const json::Value* live = v.find("live");
  if (counts == nullptr || !counts->isObject() || live == nullptr ||
      !live->isObject()) {
    throw InputError("events section: missing 'counts'/'live'");
  }
  counts_.runBegin = u64(*counts, "run_begin");
  counts_.step = u64(*counts, "step");
  counts_.snapshot = u64(*counts, "snapshot");
  counts_.merge = u64(*counts, "merge");
  counts_.pathDone = u64(*counts, "path_done");
  counts_.query = u64(*counts, "query");
  counts_.heartbeat = u64(*counts, "heartbeat");
  counts_.runEnd = u64(*counts, "run_end");
  counts_.dropped = u64(*counts, "dropped");
  liveSteps_ = u64(*live, "steps");
  liveFrontier_ = u64(*live, "frontier");
  liveFrontierBytes_ = u64(*live, "frontier_bytes");
  livePathsDone_ = u64(*live, "paths_done");
  liveCovered_ = u64(*live, "covered");
  liveQueries_ = u64(*live, "queries");
  liveSolverMicros_ = u64(*live, "solver_micros");
  for (uint64_t& b : depthHist_) b = 0;
}

// ---- stream tools -----------------------------------------------------

namespace {

/// Canonical sort rank of a deterministic event type. Unknown types (from
/// a future schema revision) sort between the known record kinds and the
/// run_end trailer.
int typeRank(const std::string& type) {
  if (type == "run_begin") return 0;
  if (type == "step") return 1;
  if (type == "merge") return 2;
  if (type == "path_done") return 3;
  if (type == "run_end") return 5;
  return 4;
}

bool isLiveType(const std::string& type) {
  return type == "snapshot" || type == "heartbeat" || type == "query";
}

/// Remove the schedule-dependent `"seq":N` / `"t":N` members from the
/// original line *textually*. Working on the original bytes (instead of
/// re-serializing the parsed value) keeps 64-bit integers exact: the
/// parsed representation stores numbers as doubles. Safe because a raw
/// `,"seq":` / `,"t":` cannot occur inside a JSON string (its quote would
/// be escaped) and both members are integer-valued by construction.
std::string stripSeqAndTime(const std::string& line) {
  std::string out = line;
  for (const char* member : {",\"seq\":", ",\"t\":"}) {
    const size_t p = out.find(member);
    if (p == std::string::npos) continue;
    size_t q = p + std::string_view(member).size();
    while (q < out.size() && out[q] >= '0' && out[q] <= '9') ++q;
    out.erase(p, q - p);
  }
  return out;
}

/// Parse a dotted structural path key ("", "0", "1.0.2") into its numeric
/// components for ordering ("10" must sort after "2").
std::vector<uint32_t> parsePathKey(const std::string& key) {
  std::vector<uint32_t> out;
  if (key.empty()) return out;
  uint32_t cur = 0;
  for (const char c : key) {
    if (c == '.') {
      out.push_back(cur);
      cur = 0;
    } else if (c >= '0' && c <= '9') {
      cur = cur * 10 + uint32_t(c - '0');
    }
  }
  out.push_back(cur);
  return out;
}

uint64_t u64Field(const json::Value& ev, const char* key) {
  const json::Value* f = ev.find(key);
  return f != nullptr && f->isNumber() ? f->asU64() : 0;
}

std::string strField(const json::Value& ev, const char* key) {
  const json::Value* f = ev.find(key);
  return f != nullptr && f->isString() ? f->str : std::string();
}

/// Parse one event line, enforcing the version envelope. `lineNo` is
/// 1-based for error messages.
json::Value parseEventLine(const std::string& line, size_t lineNo) {
  json::Value ev;
  try {
    ev = json::parse(line);
  } catch (const Error& e) {
    throw InputError("events line " + std::to_string(lineNo) + ": " +
                     e.what());
  }
  if (!ev.isObject()) {
    throw InputError("events line " + std::to_string(lineNo) +
                     ": not a JSON object");
  }
  const json::Value* v = ev.find("v");
  if (v == nullptr || !v->isNumber() || v->asU64() != 1) {
    throw InputError("events line " + std::to_string(lineNo) +
                     ": unsupported event version (want v=1)");
  }
  if (strField(ev, "type").empty()) {
    throw InputError("events line " + std::to_string(lineNo) +
                     ": missing \"type\"");
  }
  return ev;
}

struct CanonEntry {
  int rank = 0;
  std::vector<uint32_t> path;
  uint64_t n = 0;
  std::string line;

  bool operator<(const CanonEntry& o) const {
    if (rank != o.rank) return rank < o.rank;
    if (path != o.path) return path < o.path;
    if (n != o.n) return n < o.n;
    return line < o.line;
  }
};

}  // namespace

size_t canonicalizeEvents(std::istream& in, std::ostream& out) {
  std::vector<CanonEntry> entries;
  std::string line;
  size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    const json::Value ev = parseEventLine(line, lineNo);
    const std::string type = strField(ev, "type");
    if (isLiveType(type)) continue;
    CanonEntry e;
    e.rank = typeRank(type);
    e.path = parsePathKey(strField(ev, "path"));
    e.n = u64Field(ev, "n");
    e.line = stripSeqAndTime(line);
    entries.push_back(std::move(e));
  }
  std::sort(entries.begin(), entries.end());
  for (const CanonEntry& e : entries) out << e.line << '\n';
  return entries.size();
}

EventsSummary summarizeEvents(std::istream& in) {
  EventsSummary es;
  std::string line;
  size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    const json::Value ev = parseEventLine(line, lineNo);
    const std::string type = strField(ev, "type");
    if (type == "run_begin") {
      es.sawRunBegin = true;
      es.command = strField(ev, "command");
      es.isa = strField(ev, "isa");
      es.strategy = strField(ev, "strategy");
      const std::string schema = strField(ev, "schema");
      if (schema != "adlsym-events-v3") {
        es.problems.push_back("run_begin schema is '" + schema +
                              "', want adlsym-events-v3");
      }
    } else if (type == "step") {
      ++es.steps;
      const uint64_t succ = u64Field(ev, "succ");
      if (succ == 0) {
        ++es.dropped;
      } else if (succ > 1) {
        es.forks += succ - 1;
      }
      es.stepQueries += u64Field(ev, "queries");
      es.rtlTicks += u64Field(ev, "rtl_ticks");
      es.canonTerms += u64Field(ev, "canon_terms");
      es.canonGates += u64Field(ev, "canon_gates");
    } else if (type == "merge") {
      ++es.merges;
    } else if (type == "path_done") {
      ++es.pathsDone;
      const std::string status = strField(ev, "status");
      ++es.pathStatuses[status];
      if (status == "truncated") ++es.truncated;
      if (status == "exited") ++es.exited;
      if (ev.find("defect") != nullptr) ++es.defects;
    } else if (type == "run_end") {
      es.sawRunEnd = true;
      es.stopReason = strField(ev, "stop_reason");
      es.endSteps = u64Field(ev, "steps");
      es.endForks = u64Field(ev, "forks");
      es.endDropped = u64Field(ev, "dropped");
      es.endMerged = u64Field(ev, "merged");
      es.endPaths = u64Field(ev, "paths");
      es.endTruncated = u64Field(ev, "truncated");
      es.endCoveredPcs = u64Field(ev, "covered_pcs");
      es.endQueries = u64Field(ev, "queries");
      es.endCacheHits = u64Field(ev, "cache_hits");
      es.endPreShortcircuit = u64Field(ev, "pre_shortcircuit");
      es.endPreConsulted = u64Field(ev, "pre_consulted");
      es.endDirectSolves = u64Field(ev, "direct_solves");
      es.endCanonTerms = u64Field(ev, "canon_terms");
      es.endCanonGates = u64Field(ev, "canon_gates");
      es.endHasRtlTicks = ev.find("rtl_ticks") != nullptr;
      es.endRtlTicks = u64Field(ev, "rtl_ticks");
    } else if (type == "query") {
      ++es.queryEvents;
    } else if (type == "snapshot") {
      ++es.snapshotEvents;
    } else if (type == "heartbeat") {
      ++es.heartbeatEvents;
    }
  }

  // Reconciliation identities (docs/observability.md). Every mismatch is a
  // dropped/duplicated/corrupted record somewhere.
  auto expect = [&es](uint64_t got, uint64_t want, const char* what) {
    if (got != want) {
      es.problems.push_back(std::string(what) + ": stream has " +
                            std::to_string(got) + ", run_end says " +
                            std::to_string(want));
    }
  };
  if (!es.sawRunBegin) es.problems.push_back("missing run_begin event");
  if (!es.sawRunEnd) {
    es.problems.push_back("missing run_end event (truncated stream?)");
  } else {
    expect(es.steps, es.endSteps, "steps");
    expect(es.forks, es.endForks, "forks");
    expect(es.dropped, es.endDropped, "dropped states");
    expect(es.merges, es.endMerged, "merges");
    expect(es.pathsDone, es.endPaths, "completed paths");
    expect(es.truncated, es.endTruncated, "truncated paths");
    expect(es.canonTerms, es.endCanonTerms, "canonical terms");
    expect(es.canonGates, es.endCanonGates, "canonical gates");
    if (1 + es.forks != es.pathsDone + es.dropped + es.merges) {
      es.problems.push_back(
          "paths identity violated: 1 + " + std::to_string(es.forks) +
          " forks != " + std::to_string(es.pathsDone) + " paths + " +
          std::to_string(es.dropped) + " dropped + " +
          std::to_string(es.merges) + " merged");
    }
    if (es.stepQueries != es.endQueries) {
      es.problems.push_back(
          "query attribution violated: " + std::to_string(es.stepQueries) +
          " step queries != " + std::to_string(es.endQueries) + " total");
    }
    if (es.endCacheHits + es.endPreShortcircuit + es.endPreConsulted +
            es.endDirectSolves !=
        es.endQueries) {
      es.problems.push_back(
          "4-bucket accounting violated: " + std::to_string(es.endCacheHits) +
          " cached + " + std::to_string(es.endPreShortcircuit) +
          " shortcircuit + " + std::to_string(es.endPreConsulted) +
          " consulted + " + std::to_string(es.endDirectSolves) +
          " direct != " + std::to_string(es.endQueries) + " queries");
    }
    if (es.endHasRtlTicks && es.rtlTicks != es.endRtlTicks) {
      es.problems.push_back(
          "profile tick totals violated: step events carry " +
          std::to_string(es.rtlTicks) + " rtl ticks, run_end says " +
          std::to_string(es.endRtlTicks));
    }
    if (es.queryEvents != 0) {
      // query events are only present when the bus listened to the solver;
      // when they are, one event per check must have been recorded.
      expect(es.queryEvents, es.endQueries, "query events");
    }
  }
  return es;
}

std::string EventsSummary::formatText() const {
  std::ostringstream os;
  os << "run: " << (command.empty() ? "?" : command) << " isa=" << isa
     << " strategy=" << strategy;
  if (sawRunEnd) {
    os << " stop=" << (stopReason.empty() ? "complete" : stopReason);
  }
  os << '\n';
  os << "steps: " << steps << "  forks: " << forks << "  dropped: " << dropped
     << "  merged: " << merges << "  paths: " << pathsDone << '\n';
  os << "statuses:";
  for (const auto& [status, n] : pathStatuses) {
    os << ' ' << status << '=' << n;
  }
  if (pathStatuses.empty()) os << " (none)";
  os << '\n';
  os << "queries: step=" << stepQueries;
  if (sawRunEnd) os << " (run_end: " << endQueries << ")";
  os << '\n';
  os << "canon: terms=" << canonTerms << " gates=" << canonGates << '\n';
  if (rtlTicks != 0 || endHasRtlTicks) {
    os << "rtl ticks: " << rtlTicks;
    if (endHasRtlTicks) os << " (run_end: " << endRtlTicks << ")";
    os << '\n';
  }
  os << "live: query=" << queryEvents << " snapshot=" << snapshotEvents
     << " heartbeat=" << heartbeatEvents << '\n';
  if (problems.empty()) {
    os << "reconciliation: OK\n";
  } else {
    os << "reconciliation: " << problems.size() << " problem(s)\n";
    for (const std::string& p : problems) os << "  - " << p << '\n';
  }
  return os.str();
}

std::vector<std::string> reconcileWithStats(const EventsSummary& es,
                                            const json::Value& stats) {
  std::vector<std::string> out;
  if (!stats.isObject()) {
    out.push_back("stats document is not a JSON object");
    return out;
  }
  auto statU64 = [&stats](std::initializer_list<const char*> path,
                          uint64_t& dst) {
    const json::Value* v = &stats;
    for (const char* key : path) {
      v = v->find(key);
      if (v == nullptr) return false;
    }
    if (!v->isNumber()) return false;
    dst = v->asU64();
    return true;
  };
  auto check = [&out, &statU64](std::initializer_list<const char*> path,
                                uint64_t want, const char* what) {
    uint64_t got = 0;
    std::string dotted;
    for (const char* key : path) {
      if (!dotted.empty()) dotted += '.';
      dotted += key;
    }
    if (!statU64(path, got)) {
      out.push_back("stats missing " + dotted);
      return;
    }
    if (got != want) {
      out.push_back("stats " + dotted + "=" + std::to_string(got) + " but " +
                    what + "=" + std::to_string(want));
    }
  };

  const json::Value* schema = stats.find("schema");
  if (schema == nullptr || !schema->isString() ||
      schema->str != "adlsym-stats-v9") {
    out.push_back("stats schema is not adlsym-stats-v9");
  }
  check({"summary", "total_steps"}, es.steps, "event steps");
  check({"summary", "total_forks"}, es.forks, "event forks");
  check({"summary", "states_dropped"}, es.dropped, "event drops");
  check({"summary", "states_merged"}, es.merges, "event merges");
  check({"summary", "states_truncated"}, es.truncated, "event truncations");
  check({"summary", "paths"}, es.pathsDone, "event path_dones");
  check({"summary", "exited"}, es.exited, "event exits");
  check({"summary", "defects"}, es.defects, "event defects");
  check({"summary", "covered_pcs"}, es.endCoveredPcs, "run_end covered_pcs");
  const json::Value* stop = stats.find("summary");
  stop = stop != nullptr ? stop->find("stop_reason") : nullptr;
  if (stop == nullptr || !stop->isString()) {
    out.push_back("stats missing summary.stop_reason");
  } else if (stop->str != es.stopReason) {
    out.push_back("stats summary.stop_reason='" + stop->str +
                  "' but run_end stop_reason='" + es.stopReason + "'");
  }
  check({"solver", "queries"}, es.stepQueries, "attributed event queries");
  check({"solver", "cache_hits"}, es.endCacheHits, "run_end cache_hits");
  check({"solver", "canon", "terms"}, es.canonTerms, "event canon terms");
  check({"solver", "canon", "gates"}, es.canonGates, "event canon gates");
  check({"prefilter", "shortcircuit"}, es.endPreShortcircuit,
        "run_end pre_shortcircuit");
  check({"prefilter", "consulted"}, es.endPreConsulted,
        "run_end pre_consulted");
  check({"prefilter", "direct"}, es.endDirectSolves, "run_end direct_solves");
  if (es.endHasRtlTicks && stats.find("profile") != nullptr) {
    check({"profile", "rtl_ticks"}, es.rtlTicks, "event rtl ticks");
  }
  // The stats "events" block must agree with the stream itself (modulo
  // drops: a dropped write is counted in neither).
  uint64_t dropped = 0;
  if (statU64({"events", "dropped"}, dropped) && dropped == 0) {
    check({"events", "emitted", "run_begin"}, es.sawRunBegin ? 1 : 0,
          "run_begin events");
    check({"events", "emitted", "step"}, es.steps, "step events");
    check({"events", "emitted", "merge"}, es.merges, "merge events");
    check({"events", "emitted", "path_done"}, es.pathsDone,
          "path_done events");
    check({"events", "emitted", "query"}, es.queryEvents, "query events");
    check({"events", "emitted", "snapshot"}, es.snapshotEvents,
          "snapshot events");
    check({"events", "emitted", "heartbeat"}, es.heartbeatEvents,
          "heartbeat events");
    check({"events", "emitted", "run_end"}, es.sawRunEnd ? 1 : 0,
          "run_end events");
  }
  return out;
}

// ---- live inspector ----------------------------------------------------

void TailState::apply(const json::Value& ev) {
  if (!ev.isObject()) return;
  ++events_;
  lastSeq_ = u64Field(ev, "seq");
  lastMicros_ = u64Field(ev, "t");
  const std::string type = strField(ev, "type");
  ++typeCounts_[type.empty() ? "?" : type];
  if (type == "run_begin") {
    command_ = strField(ev, "command");
    isa_ = strField(ev, "isa");
    strategy_ = strField(ev, "strategy");
    program_ = strField(ev, "program");
    codePcs_ = u64Field(ev, "code_pcs");
  } else if (type == "step") {
    depth_ = u64Field(ev, "depth");
  } else if (type == "snapshot") {
    if (command_.empty()) {  // mid-stream join: adopt the echoed metadata
      command_ = strField(ev, "command");
      isa_ = strField(ev, "isa");
      strategy_ = strField(ev, "strategy");
    }
    steps_ = u64Field(ev, "steps");
    frontier_ = u64Field(ev, "frontier");
    frontierBytes_ = u64Field(ev, "frontier_bytes");
    pathsDone_ = u64Field(ev, "paths_done");
    covered_ = u64Field(ev, "covered_pcs");
    if (const json::Value* c = ev.find("code_pcs");
        c != nullptr && c->isNumber()) {
      codePcs_ = c->asU64();
    }
    if (const json::Value* h = ev.find("depth_hist");
        h != nullptr && h->isArray()) {
      depthHist_.clear();
      for (const json::Value& b : h->array) depthHist_.push_back(b.asU64());
    }
  } else if (type == "heartbeat") {
    steps_ = u64Field(ev, "steps");
    frontier_ = u64Field(ev, "frontier");
    frontierBytes_ = u64Field(ev, "frontier_bytes");
    pathsDone_ = u64Field(ev, "paths");
    covered_ = u64Field(ev, "covered");
    depth_ = u64Field(ev, "depth");
    if (const json::Value* s = ev.find("steps_per_sec");
        s != nullptr && s->isNumber()) {
      stepsPerSec_ = s->number;
    }
  } else if (type == "path_done") {
    pathsDone_ = typeCounts_["path_done"];
  } else if (type == "run_end") {
    done_ = true;
    stopReason_ = strField(ev, "stop_reason");
    steps_ = u64Field(ev, "steps");
    covered_ = u64Field(ev, "covered_pcs");
    endPaths_ = u64Field(ev, "paths");
    endDefects_ = u64Field(ev, "defects");
    endQueries_ = u64Field(ev, "queries");
    pathsDone_ = endPaths_;
    frontier_ = 0;
  }
}

std::string TailState::render() const {
  std::ostringstream os;
  os << "run: " << (command_.empty() ? "?" : command_);
  if (!isa_.empty()) os << "  isa=" << isa_;
  if (!strategy_.empty()) os << "  strategy=" << strategy_;
  if (!program_.empty()) os << "  program=" << program_;
  os << '\n';
  os << "events: " << events_ << " (seq " << lastSeq_ << ", t=" << lastMicros_
     << "us)\n";
  os << "steps: " << steps_ << "  frontier: " << frontier_;
  if (frontierBytes_ != 0) {
    os << " (" << frontierBytes_ / 1024 << " KiB)";
  }
  os << "  paths: " << pathsDone_ << "  depth: " << depth_ << '\n';
  os << "coverage: " << covered_;
  if (codePcs_ != 0) {
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%.1f",
                  100.0 * double(covered_) / double(codePcs_));
    os << "/" << codePcs_ << " pcs (" << pct << "%)";
  } else {
    os << " pcs";
  }
  if (stepsPerSec_ > 0.0) {
    char sps[32];
    std::snprintf(sps, sizeof(sps), "%.0f", stepsPerSec_);
    os << "  steps/s: " << sps;
  }
  os << '\n';
  if (!depthHist_.empty()) {
    os << "depth hist:";
    for (const uint64_t b : depthHist_) os << ' ' << b;
    os << '\n';
  }
  os << "counts:";
  for (const auto& [type, n] : typeCounts_) os << ' ' << type << '=' << n;
  os << '\n';
  if (done_) {
    os << "done: stop=" << (stopReason_.empty() ? "complete" : stopReason_)
       << "  paths=" << endPaths_ << "  defects=" << endDefects_
       << "  queries=" << endQueries_ << '\n';
  }
  return os.str();
}

}  // namespace adlsym::obs
