// stats_strip — canonicalize an adlsym stats JSON document for the
// bytecode/interp byte-identity smoke (CI, docs/bytecode.md). The engine
// contract says the stats documents of --engine=bytecode and
// --engine=interp differ only in the "engine" block that names the
// engine. This tool parses a stats document, drops that block together
// with the metrics registry and the solver's canonical costs, and
// re-emits the rest deterministically so `cmp` can assert the remainder
// is byte-identical across engines.
//
//   stats_strip <stats.json>               # stripped document on stdout
//   stats_strip --check-keys <stats.json>  # schema gate: exit 1 when the
//                                          # document declares an unknown
//                                          # schema version or contains a
//                                          # top-level key outside the
//                                          # adlsym-stats-v9 allowlist
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "support/json.h"

using adlsym::json::Value;

namespace {

void emitValue(const Value& v, std::string* out, bool inSolver);

void emitNumber(double d, std::string* out) {
  char buf[64];
  // Counters dominate; print integral values without a fraction so the
  // output is stable and diff-friendly.
  if (std::nearbyint(d) == d && std::fabs(d) <= 9007199254740992.0) {
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<int64_t>(d));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  *out += buf;
}

bool dropTopLevel(const std::string& key) {
  // "engine" (v8): which ADL engine ran — the one field allowed to differ
  // in the bytecode/interp byte-identity smoke (docs/bytecode.md).
  return key == "metrics" || key == "engine";
}

bool dropInSolver(const std::string& key) { return key == "canon"; }

void emitObject(const Value& v, std::string* out, bool topLevel) {
  *out += '{';
  bool first = true;
  for (const auto& [key, member] : v.object) {
    if (topLevel && dropTopLevel(key)) continue;
    if (!first) *out += ',';
    first = false;
    *out += '"';
    *out += adlsym::json::escape(key);
    *out += "\":";
    emitValue(member, out, topLevel && key == "solver");
  }
  *out += '}';
}

void emitValue(const Value& v, std::string* out, bool inSolver) {
  switch (v.kind) {
    case Value::Kind::Null:
      *out += "null";
      break;
    case Value::Kind::Bool:
      *out += v.boolean ? "true" : "false";
      break;
    case Value::Kind::Number:
      emitNumber(v.number, out);
      break;
    case Value::Kind::String:
      *out += '"';
      *out += adlsym::json::escape(v.str);
      *out += '"';
      break;
    case Value::Kind::Array:
      *out += '[';
      for (size_t i = 0; i < v.array.size(); ++i) {
        if (i) *out += ',';
        emitValue(v.array[i], out, false);
      }
      *out += ']';
      break;
    case Value::Kind::Object: {
      *out += '{';
      bool first = true;
      for (const auto& [key, member] : v.object) {
        if (inSolver && dropInSolver(key)) continue;
        if (!first) *out += ',';
        first = false;
        *out += '"';
        *out += adlsym::json::escape(key);
        *out += "\":";
        emitValue(member, out, false);
      }
      *out += '}';
      break;
    }
  }
}

// Every top-level key any adlsym command may write into an
// adlsym-stats-v9 document. The --check-keys gate fails CI when a new
// block lands without being registered here (and documented in
// docs/observability.md).
int checkKeys(const Value& doc, const char* path) {
  static const std::set<std::string> kKnown = {
      "schema",   "command", "isa",          "strategy", "summary",
      "solver",   "prefilter", "qcache",     "opcodes",  "branch_sites",
      "profile",  "metrics", "lint",         "run",      "outputs",
      "events",   "engine",
  };
  int rc = 0;
  const Value* schema = nullptr;
  for (const auto& [key, member] : doc.object) {
    if (key == "schema") schema = &member;
    if (!kKnown.count(key)) {
      std::fprintf(stderr, "stats_strip: %s: unknown top-level key '%s'\n",
                   path, key.c_str());
      rc = 1;
    }
  }
  if (schema == nullptr || schema->kind != Value::Kind::String) {
    std::fprintf(stderr, "stats_strip: %s: missing schema key\n", path);
    rc = 1;
  } else if (schema->str != "adlsym-stats-v9") {
    std::fprintf(stderr, "stats_strip: %s: unexpected schema '%s'\n", path,
                 schema->str.c_str());
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool checkOnly = false;
  const char* path = nullptr;
  if (argc == 2) {
    path = argv[1];
  } else if (argc == 3 && std::string(argv[1]) == "--check-keys") {
    checkOnly = true;
    path = argv[2];
  } else {
    std::fprintf(stderr, "usage: stats_strip [--check-keys] <stats.json>\n");
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "stats_strip: cannot read %s\n", path);
    return 2;
  }
  std::ostringstream os;
  os << in.rdbuf();
  std::string out;
  try {
    const Value doc = adlsym::json::parse(os.str());
    if (doc.kind != Value::Kind::Object) {
      std::fprintf(stderr, "stats_strip: %s: not a JSON object\n", path);
      return 1;
    }
    if (checkOnly) return checkKeys(doc, path);
    emitObject(doc, &out, /*topLevel=*/true);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stats_strip: %s: %s\n", path, e.what());
    return 1;
  }
  out += '\n';
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}
