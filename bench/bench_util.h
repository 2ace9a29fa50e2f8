// Shared helpers for the experiment benches (E1..E8): simple aligned table
// printing, wall-clock timing (rows as the fastest of several runs), and a
// JSON report in the adlsym stats
// schema (docs/observability.md). Every bench prints a paper-style table
// to stdout; EXPERIMENTS.md records the measured rows. When the
// ADLSYM_BENCH_JSON environment variable names a directory, every printed
// table is also mirrored into <dir>/BENCH_<name>.json so the perf
// trajectory (BENCH_*.json) is produced mechanically —
// tools/bench_to_json.sh drives this for the whole suite.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "support/json.h"

namespace benchutil {

struct RecordedTable {
  std::string label;
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

/// Every Table printed so far (process-global; consumed by
/// writeJsonReport).
inline std::vector<RecordedTable>& recordedTables() {
  static std::vector<RecordedTable> tables;
  return tables;
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers, std::string label = "")
      : headers_(std::move(headers)), label_(std::move(label)) {}

  void addRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto line = [&](const std::vector<std::string>& cells) {
      std::string out;
      for (size_t c = 0; c < width.size(); ++c) {
        const std::string& s = c < cells.size() ? cells[c] : std::string();
        out += s;
        out.append(width[c] - s.size() + 2, ' ');
      }
      std::printf("%s\n", out.c_str());
    };
    line(headers_);
    std::string rule;
    for (size_t c = 0; c < width.size(); ++c) rule.append(width[c] + 2, '-');
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) line(row);
    recordedTables().push_back(RecordedTable{
        label_.empty() ? "table" + std::to_string(recordedTables().size() + 1)
                       : label_,
        headers_, rows_});
  }

 private:
  std::vector<std::string> headers_;
  std::string label_;
  std::vector<std::vector<std::string>> rows_;
};

/// Cell renderer for the JSON mirror: integers and plain floats become
/// JSON numbers, everything else ("85%", "rv32e", "1.2x") stays a string.
inline void writeCell(adlsym::json::Writer& w, const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    const unsigned long long u = std::strtoull(cell.c_str(), &end, 10);
    if (end && *end == '\0') {
      w.value(static_cast<uint64_t>(u));
      return;
    }
    const double d = std::strtod(cell.c_str(), &end);
    if (end && *end == '\0') {
      w.value(d);
      return;
    }
  }
  w.value(std::string_view(cell));
}

/// Mirror every printed table into $ADLSYM_BENCH_JSON/BENCH_<name>.json
/// ({"schema":"adlsym-stats-v9","command":"bench",...}); no-op when the
/// env var is unset. Call once at the end of each bench's main().
/// tools/bench_diff ignores the schema tag when diffing against committed
/// baselines, so older BENCH_*.json stay comparable across bumps.
inline void writeJsonReport(const std::string& benchName) {
  const char* dir = std::getenv("ADLSYM_BENCH_JSON");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/BENCH_" + benchName + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  adlsym::json::Writer w(out);
  w.beginObject();
  w.kv("schema", "adlsym-stats-v9");
  w.kv("command", "bench");
  w.kv("bench", std::string_view(benchName));
  w.key("tables").beginArray();
  for (const RecordedTable& t : recordedTables()) {
    w.beginObject();
    w.kv("label", std::string_view(t.label));
    w.key("rows").beginArray();
    for (const auto& row : t.rows) {
      w.beginObject();
      for (size_t c = 0; c < row.size() && c < t.headers.size(); ++c) {
        w.key(t.headers[c]);
        writeCell(w, row[c]);
      }
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  out << '\n';
  std::printf("json report: %s\n", path.c_str());
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double millis() const { return seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

inline std::string num(uint64_t v) { return std::to_string(v); }

/// Runs per timed table row. A row's exploration takes well under a
/// millisecond to a few milliseconds, so one run times the machine's noise
/// as much as the code; on a shared machine noise only ever adds time, so
/// the fastest run is the stable statistic (bench_retarget and perfbench
/// take minima for the same reason).
inline constexpr int kRowRuns = 7;

/// The fastest of kRowRuns calls of `run`, each of which sets its row up,
/// times its own region and returns that region's wall ms. The row's other
/// columns come from the last call: they are deterministic.
template <typename F>
double fastestRunMs(F&& run) {
  double best = 1e300;
  for (int i = 0; i < kRowRuns; ++i) best = std::min(best, run());
  return best;
}

}  // namespace benchutil
