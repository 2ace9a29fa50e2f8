#include "oracle.h"

#include <sstream>

#include "refinterp.h"

namespace perfbench {

namespace {

bool startsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::optional<uint64_t> parseU64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  try {
    size_t used = 0;
    const uint64_t v = std::stoull(s, &used, 0);
    if (used != s.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// One indented path line: "<status> steps=.. forks=.. [exit=..]
/// [defect=K pc=.. insn=..] [out=[a,b]]  in0_w8=0x5 ...".
std::optional<PathRow> parseRow(const std::string& line) {
  std::istringstream in(line);
  PathRow row;
  if (!(in >> row.status)) return std::nullopt;
  std::string tok;
  while (in >> tok) {
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "steps" || key == "forks" || key == "reason" || key == "pc" ||
        key == "insn") {
      continue;
    }
    if (key == "exit") {
      row.exitCode = parseU64(val);
      if (!row.exitCode) return std::nullopt;
    } else if (key == "defect") {
      row.defectKind = val;
    } else if (key == "out") {
      if (val.size() < 2 || val.front() != '[' || val.back() != ']') return std::nullopt;
      std::istringstream outs(val.substr(1, val.size() - 2));
      std::string item;
      while (std::getline(outs, item, ',')) {
        const auto v = parseU64(item);
        if (!v) return std::nullopt;
        row.outputs.push_back(*v);
      }
    } else {
      const auto v = parseU64(val);  // witness input "inK_wW=0x.."
      if (!v) return std::nullopt;
      row.inputs.push_back(*v);
    }
  }
  return row;
}

const char* endName(RefResult::End e) {
  switch (e) {
    case RefResult::End::Exited: return "exited";
    case RefResult::End::Defect: return "defect";
    case RefResult::End::InputExhausted: return "input-exhausted";
    case RefResult::End::StepLimit: return "step-limit";
  }
  return "?";
}

std::string replayRow(const Job& job, const PathRow& row, size_t index) {
  const RefResult ref = runReference(job.program, row.inputs);
  const std::string where = "path " + std::to_string(index) + ": ";
  if (row.status == "exited") {
    if (ref.end != RefResult::End::Exited) {
      return where + "witness replays to " + endName(ref.end) + ", engine says exited";
    }
    if (!row.exitCode || *row.exitCode != ref.exitCode) {
      return where + "exit code differs from the reference (" +
             std::to_string(ref.exitCode) + ")";
    }
    if (row.outputs != ref.outputs) return where + "outputs differ from the reference";
    if (ref.inputsConsumed != row.inputs.size()) {
      return where + "witness has unread inputs";
    }
    return "";
  }
  if (row.status == "defect") {
    if (ref.end != RefResult::End::Defect) {
      return where + "witness replays to " + endName(ref.end) + ", engine reports a defect";
    }
    if (row.defectKind != adlsym::core::defectKindName(*ref.defect)) {
      return where + "defect kind " + row.defectKind + " but the reference hits " +
             adlsym::core::defectKindName(*ref.defect);
    }
    return "";
  }
  return where + "unexpected path status '" + row.status + "'";
}

}  // namespace

ExploreReport parseExploreOutput(const std::string& text) {
  ExploreReport rep;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!rep.parsed) {
      if (startsWith(line, "paths=")) {
        rep.parsed = true;
        const auto n = parseU64(line.substr(6, line.find(' ') - 6));
        rep.paths = n.value_or(0);
      }
      continue;
    }
    if (!startsWith(line, "  ")) break;  // the path table ends
    auto row = parseRow(line.substr(2));
    if (!row) {
      rep.parsed = false;
      return rep;
    }
    rep.rows.push_back(std::move(*row));
  }
  return rep;
}

std::string judgeJob(const Job& job, int exitCode, const ExploreReport& report) {
  if (exitCode != job.expectedExit) {
    return "exit code " + std::to_string(exitCode) + ", expected " +
           std::to_string(job.expectedExit);
  }
  if (!report.parsed) return "path table did not parse";
  if (report.rows.size() != report.paths) return "path table is incomplete";
  if (job.expectedPaths && report.paths != *job.expectedPaths) {
    return "path count " + std::to_string(report.paths) + ", closed form " +
           std::to_string(*job.expectedPaths);
  }
  for (size_t k = 0; k < report.rows.size(); ++k) {
    std::string err = replayRow(job, report.rows[k], k);
    if (!err.empty()) return err;
  }
  if (job.defectCase) {
    size_t defects = 0;
    for (const PathRow& r : report.rows) {
      if (r.status != "defect") continue;
      ++defects;
      if (!job.expectedDefect ||
          r.defectKind != adlsym::core::defectKindName(*job.expectedDefect)) {
        return "unexpected defect " + r.defectKind;
      }
    }
    if (job.expectedDefect && defects == 0) return "expected defect not reported";
  }
  return "";
}

std::vector<std::string> crossIsaMismatches(
    const std::vector<Job>& jobs, const std::map<std::string, uint64_t>& paths) {
  std::map<std::string, std::map<uint64_t, size_t>> byKey;
  for (const Job& j : jobs) {
    const auto it = paths.find(j.id);
    if (it != paths.end()) ++byKey[j.programKey][it->second];
  }
  std::vector<std::string> bad;
  for (const Job& j : jobs) {
    const auto it = paths.find(j.id);
    if (it == paths.end()) continue;
    const auto& counts = byKey[j.programKey];
    if (counts.size() <= 1) continue;
    // The majority count is taken as right; every other job is flagged.
    uint64_t majority = 0;
    size_t best = 0;
    for (const auto& [n, c] : counts) {
      if (c > best) {
        best = c;
        majority = n;
      }
    }
    if (it->second != majority) bad.push_back(j.id);
  }
  return bad;
}

}  // namespace perfbench
