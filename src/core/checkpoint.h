// adlsym-ckpt-v6 (docs/robustness.md): durable exploration checkpoints.
// A checkpoint is one compact JSON document (line 1) plus a self-hash
// trailer (line 2):
//
//   {"schema":"adlsym-ckpt-v6", ...}\n
//   #adlsym-ckpt-v6 sha256=<64 hex of everything before this line>\n
//
// Files are replaced atomically (support/atomicio), so the previous
// checkpoint survives any crash during a write, and the trailer rejects
// truncated or bit-flipped files with exit 2 before a single field is
// consumed. This header owns the file framing plus the state-level
// (de)serializers shared by the parallel engine and the tests; the engine
// assembles the document itself (core/pexplorer).
#pragma once

#include <string>
#include <vector>

#include "core/state.h"
#include "smt/termio.h"
#include "support/json.h"

namespace adlsym::core::ckpt {

inline constexpr const char* kSchema = "adlsym-ckpt-v6";

/// Append the trailer to `doc` and replace `path` crash-safely.
/// Fault site: ckpt.write (fires before the temp file exists, so an
/// injected fault provably leaves the previous checkpoint intact).
void writeCheckpointFile(const std::string& path, const std::string& doc);

/// Load and verify a checkpoint: trailer present, self-hash matches,
/// JSON parses, schema tag matches. Throws InputError (exit 2) with
/// file/line context on any mismatch. Fault site: ckpt.read.
json::Value loadCheckpointFile(const std::string& path);

/// Required-field lookups with checkpoint-flavored InputErrors: a missing
/// field, or one of the wrong JSON type (fieldU64 takes only non-negative
/// integer tokens), is bad input.
const json::Value& field(const json::Value& v, const char* name);
uint64_t fieldU64(const json::Value& v, const char* name);
bool fieldBool(const json::Value& v, const char* name);
std::string fieldStr(const json::Value& v, const char* name);

/// Serialize the fields of a frontier (Running) MachineState, its carried
/// witness included, into an open JSON object — the caller adds the
/// structural key. All terms are
/// routed through `tw`, whose scratch-pool dedup makes the resulting
/// bytes independent of which worker pool owned the state.
void writeMachineStateFields(json::Writer& w, const MachineState& st,
                             smt::TermManager& tm, smt::TermTableWriter& tw);

/// Rebuild a frontier state from a parsed entry: `slots` is the term
/// table mapping (TermTableReader::read), `image` backs the rebuilt
/// symbolic memory. Throws InputError on malformed input, a state
/// without its witness (`w`) included: every state carries one.
MachineState readMachineState(const json::Value& v,
                              const std::vector<smt::TermRef>& slots,
                              const loader::Image* image);

/// PathResult round-trip for the path-forest-so-far ("recs" results).
/// Everything in a PathResult is concrete, so no term table is involved.
void writePathResult(json::Writer& w, const PathResult& r);
PathResult readPathResult(const json::Value& v);

}  // namespace adlsym::core::ckpt
