#include "core/checkpoint.h"

#include <algorithm>
#include <string_view>

#include "support/atomicio.h"
#include "support/fault.h"
#include "support/hash.h"

namespace adlsym::core::ckpt {

namespace {

// The trailer names the schema too, so it is derived from kSchema.
const std::string kTrailerPrefix = std::string("#") + kSchema + " sha256=";

[[noreturn]] void badFile(const std::string& path, int line,
                          const std::string& what) {
  throw InputError("checkpoint " + path + ": line " + std::to_string(line) +
                   ": " + what);
}

smt::TermRef slotRef(const json::Value& v, const std::vector<smt::TermRef>& slots) {
  const uint64_t s = v.asU64();
  if (!v.isNumber() || s >= slots.size()) {
    throw InputError("checkpoint state: term slot out of range");
  }
  return slots[s];
}

void writeTestCase(json::Writer& w, const TestCase& tc) {
  w.beginArray();
  for (const TestCase::Value& in : tc.inputs) {
    w.beginArray();
    w.value(std::string_view(in.name)).value(in.width).value(in.value);
    w.endArray();
  }
  w.endArray();
}

TestCase readTestCase(const json::Value& v) {
  TestCase tc;
  if (!v.isArray()) throw InputError("checkpoint state: bad test case");
  for (const json::Value& row : v.array) {
    if (!row.isArray() || row.array.size() != 3 || !row.array[0].isString()) {
      throw InputError("checkpoint state: bad test-case row");
    }
    tc.inputs.push_back({row.array[0].str,
                         static_cast<unsigned>(row.array[1].asU64()),
                         row.array[2].asU64()});
  }
  return tc;
}

}  // namespace

void writeCheckpointFile(const std::string& path, const std::string& doc) {
  fault::hit("ckpt.write");
  std::string blob = doc;
  blob += '\n';
  const std::string digest = hash::sha256Hex(blob);
  blob += kTrailerPrefix;
  blob += digest;
  blob += '\n';
  support::writeFileAtomic(path, blob);
}

json::Value loadCheckpointFile(const std::string& path) {
  fault::hit("ckpt.read");
  const std::string blob = support::readFileBytes(path);
  if (blob.empty() || blob.back() != '\n') {
    badFile(path, 2, "missing trailer line (truncated checkpoint?)");
  }
  const size_t prevNl = blob.rfind('\n', blob.size() - 2);
  if (prevNl == std::string::npos) {
    badFile(path, 2, "missing trailer line (truncated checkpoint?)");
  }
  const std::string_view trailer(blob.data() + prevNl + 1,
                                 blob.size() - prevNl - 2);
  if (trailer.substr(0, kTrailerPrefix.size()) != kTrailerPrefix) {
    // Another schema version names itself in its trailer: report the
    // version, not a truncation.
    const size_t sha = trailer.find(" sha256=");
    if (trailer.substr(0, 13) == "#adlsym-ckpt-" &&
        sha != std::string_view::npos) {
      badFile(path, 2,
              "schema is not " + std::string(kSchema) + " (the trailer names " +
                  std::string(trailer.substr(1, sha - 1)) + ")");
    }
    badFile(path, 2, "bad trailer (want '" + kTrailerPrefix +
                         "<hex>'; truncated checkpoint?)");
  }
  const std::string_view recorded = trailer.substr(kTrailerPrefix.size());
  if (recorded.size() != 64) {
    badFile(path, 2, "bad trailer digest length");
  }
  const std::string computed =
      hash::sha256Hex(std::string_view(blob.data(), prevNl + 1));
  if (computed != recorded) {
    badFile(path, 2,
            "content hash mismatch (recorded " + std::string(recorded) +
                ", computed " + computed +
                ") — truncated or corrupted checkpoint");
  }
  json::Value v;
  try {
    v = json::parse(std::string_view(blob.data(), prevNl));
  } catch (const InputError& e) {
    badFile(path, 1, e.what());
  }
  const json::Value* schema = v.find("schema");
  if (schema == nullptr || !schema->isString() || schema->str != kSchema) {
    badFile(path, 1, "schema is not " + std::string(kSchema));
  }
  return v;
}

const json::Value& field(const json::Value& v, const char* name) {
  const json::Value* f = v.find(name);
  if (f == nullptr) {
    throw InputError(std::string("checkpoint: missing field '") + name + "'");
  }
  return *f;
}

uint64_t fieldU64(const json::Value& v, const char* name) {
  const json::Value& f = field(v, name);
  if (!f.isU64()) {
    throw InputError(std::string("checkpoint: field '") + name +
                     "' is not a non-negative integer");
  }
  return f.asU64();
}

bool fieldBool(const json::Value& v, const char* name) {
  const json::Value& f = field(v, name);
  if (!f.isBool()) {
    throw InputError(std::string("checkpoint: field '") + name +
                     "' is not a boolean");
  }
  return f.boolean;
}

std::string fieldStr(const json::Value& v, const char* name) {
  const json::Value& f = field(v, name);
  if (!f.isString()) {
    throw InputError(std::string("checkpoint: field '") + name +
                     "' is not a string");
  }
  return f.str;
}

void writeMachineStateFields(json::Writer& w, const MachineState& st,
                             smt::TermManager& tm, smt::TermTableWriter& tw) {
  w.kv("pc", st.pc);
  w.kv("steps", st.steps);
  w.kv("forks", st.forks);
  w.kv("ic", st.inputCounter);
  w.key("regs").beginArray();
  for (const smt::TermRef r : st.regs) w.value(tw.slot(r));
  w.endArray();
  w.key("regfile").beginArray();
  for (const smt::TermRef r : st.regfile) w.value(tw.slot(r));
  w.endArray();
  // Overlay bytes in address order — canonical regardless of write order.
  std::vector<uint64_t> addrs = st.memory.overlayAddresses();
  std::sort(addrs.begin(), addrs.end());
  w.key("mem").beginArray();
  for (const uint64_t addr : addrs) {
    const smt::TermRef byte = st.memory.readByte(tm, addr);
    check(byte.valid(), "checkpoint: overlay byte unreadable");
    w.beginArray();
    w.value(addr).value(tw.slot(byte));
    w.endArray();
  }
  w.endArray();
  w.key("cond").beginArray();
  for (const smt::TermRef c : st.pathCond) w.value(tw.slot(c));
  w.endArray();
  w.key("in").beginArray();
  for (const InputRecord& in : st.inputs) {
    w.beginArray();
    w.value(std::string_view(in.name)).value(in.width).value(tw.slot(in.term));
    w.endArray();
  }
  w.endArray();
  w.key("out").beginArray();
  for (const OutputRecord& o : st.outputs) {
    w.beginArray();
    w.value(tw.slot(o.term)).value(o.pc);
    w.endArray();
  }
  w.endArray();
  if (st.exitCode.valid()) w.kv("exit", tw.slot(st.exitCode));
  // The carried witness, by input position.
  w.key("w").beginArray();
  for (const uint64_t v : st.witness) w.value(v);
  w.endArray();
}

MachineState readMachineState(const json::Value& v,
                              const std::vector<smt::TermRef>& slots,
                              const loader::Image* image) {
  MachineState st;
  st.memory = SymMemory(image);
  st.pc = fieldU64(v, "pc");
  st.steps = fieldU64(v, "steps");
  st.forks = static_cast<unsigned>(fieldU64(v, "forks"));
  st.inputCounter = static_cast<unsigned>(fieldU64(v, "ic"));
  const auto arrayField = [&](const char* name) -> const json::Value& {
    const json::Value& f = field(v, name);
    if (!f.isArray()) {
      throw InputError(std::string("checkpoint state: '") + name +
                       "' is not an array");
    }
    return f;
  };
  for (const json::Value& r : arrayField("regs").array) {
    st.regs.push_back(slotRef(r, slots));
  }
  for (const json::Value& r : arrayField("regfile").array) {
    st.regfile.push_back(slotRef(r, slots));
  }
  for (const json::Value& row : arrayField("mem").array) {
    if (!row.isArray() || row.array.size() != 2) {
      throw InputError("checkpoint state: bad mem row");
    }
    st.memory.writeByte(row.array[0].asU64(), slotRef(row.array[1], slots));
  }
  for (const json::Value& c : arrayField("cond").array) {
    st.pathCond.push_back(slotRef(c, slots));
  }
  for (const json::Value& row : arrayField("in").array) {
    if (!row.isArray() || row.array.size() != 3 || !row.array[0].isString()) {
      throw InputError("checkpoint state: bad input row");
    }
    st.inputs.push_back({row.array[0].str,
                         static_cast<unsigned>(row.array[1].asU64()),
                         slotRef(row.array[2], slots)});
  }
  for (const json::Value& row : arrayField("out").array) {
    if (!row.isArray() || row.array.size() != 2) {
      throw InputError("checkpoint state: bad output row");
    }
    st.outputs.push_back({slotRef(row.array[0], slots), row.array[1].asU64()});
  }
  if (const json::Value* exit = v.find("exit")) {
    st.exitCode = slotRef(*exit, slots);
  }
  for (const json::Value& x : arrayField("w").array) {
    if (!x.isU64()) throw InputError("checkpoint state: bad witness value");
    st.witness.push_back(x.asU64());
  }
  st.status = PathStatus::Running;
  return st;
}

void writePathResult(json::Writer& w, const PathResult& r) {
  w.beginObject();
  w.kv("status", static_cast<uint64_t>(r.status));
  w.kv("trunc", static_cast<uint64_t>(r.truncReason));
  w.kv("final_pc", r.finalPc);
  w.kv("steps", r.steps);
  w.kv("forks", r.forks);
  if (r.exitCode) w.kv("exit", *r.exitCode);
  w.key("out").beginArray();
  for (const uint64_t o : r.outputs) w.value(o);
  w.endArray();
  w.key("test");
  writeTestCase(w, r.test);
  if (r.defect) {
    w.key("defect").beginObject();
    w.kv("kind", static_cast<uint64_t>(r.defect->kind));
    w.kv("pc", r.defect->pc);
    w.kv("mn", std::string_view(r.defect->mnemonic));
    w.kv("msg", std::string_view(r.defect->message));
    w.kv("tc", r.defect->trapClass);
    w.key("wit");
    writeTestCase(w, r.defect->witness);
    w.endObject();
  }
  w.kv("pk", std::string_view(r.pathKey));
  w.endObject();
}

PathResult readPathResult(const json::Value& v) {
  PathResult r;
  const uint64_t status = fieldU64(v, "status");
  const uint64_t trunc = fieldU64(v, "trunc");
  if (status > static_cast<uint64_t>(PathStatus::Truncated) ||
      trunc > static_cast<uint64_t>(TruncReason::Signal)) {
    throw InputError("checkpoint: bad path status/trunc reason");
  }
  r.status = static_cast<PathStatus>(status);
  r.truncReason = static_cast<TruncReason>(trunc);
  r.finalPc = fieldU64(v, "final_pc");
  r.steps = fieldU64(v, "steps");
  r.forks = static_cast<unsigned>(fieldU64(v, "forks"));
  if (const json::Value* exit = v.find("exit")) r.exitCode = exit->asU64();
  const json::Value& out = field(v, "out");
  if (!out.isArray()) throw InputError("checkpoint: bad result outputs");
  for (const json::Value& o : out.array) r.outputs.push_back(o.asU64());
  r.test = readTestCase(field(v, "test"));
  if (const json::Value* defect = v.find("defect")) {
    Defect d;
    const uint64_t kind = fieldU64(*defect, "kind");
    if (kind > static_cast<uint64_t>(DefectKind::IllegalInsn)) {
      throw InputError("checkpoint: bad defect kind");
    }
    d.kind = static_cast<DefectKind>(kind);
    d.pc = fieldU64(*defect, "pc");
    d.mnemonic = fieldStr(*defect, "mn");
    d.message = fieldStr(*defect, "msg");
    d.trapClass = fieldU64(*defect, "tc");
    d.witness = readTestCase(field(*defect, "wit"));
    r.defect = std::move(d);
  }
  r.pathKey = fieldStr(v, "pk");
  return r;
}

}  // namespace adlsym::core::ckpt
