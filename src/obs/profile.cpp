#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "support/error.h"
#include "support/json.h"

namespace adlsym::obs {

ProfileCollector::SiteCost& ProfileCollector::siteAt(uint64_t pc) {
  SiteCost& site = sites_[pc];
  if (site.opcode.empty()) {
    // Drops and checkpoint restores can name a pc no step has reported
    // yet, so every entry point decodes on first use.
    const decode::DecodedInsn* d = decoder_.decodeAt(image_, pc);
    site.opcode = d != nullptr ? d->insn->name : "<illegal>";
  }
  return site;
}

void ProfileCollector::onStepEnd(const StepInfo& info) {
  std::lock_guard<std::mutex> lk(mu_);
  SiteCost& site = siteAt(info.pc);
  ++site.steps;
  site.rtlTicks += info.stepRtlTicks;
  if (info.numSuccessors > 1) ++site.forks;
  site.queries += info.stepSolverQueries;
  site.canon.terms += info.stepCanonTerms;
  site.canon.gates += info.stepCanonGates;
  ++totalSteps_;
  totalTicks_ += info.stepRtlTicks;
  totalQueries_ += info.stepSolverQueries;
}

void ProfileCollector::onDrop(uint64_t /*node*/, uint64_t pc) {
  std::lock_guard<std::mutex> lk(mu_);
  ++siteAt(pc).infeasible;
}

std::map<std::string, uint64_t> ProfileCollector::opcodeSteps() const {
  std::map<std::string, uint64_t> ops;
  for (const auto& [pc, s] : sites_) {
    if (s.steps != 0) ops[s.opcode] += s.steps;
  }
  return ops;
}

void ProfileCollector::writeJson(json::Writer& w) const {
  std::lock_guard<std::mutex> lk(mu_);
  w.key("opcodes").beginObject();
  for (const auto& [name, steps] : opcodeSteps()) w.kv(name, steps);
  w.endObject();
  w.key("branch_sites").beginArray();
  for (const auto& [pc, s] : sites_) {
    if (s.forks == 0 && s.infeasible == 0) continue;
    w.beginObject();
    w.kv("pc", pc);
    w.kv("hits", s.steps);
    w.kv("forks", s.forks);
    w.kv("infeasible", s.infeasible);
    w.endObject();
  }
  w.endArray();
}

void ProfileCollector::writeCkptJson(json::Writer& w) const {
  std::lock_guard<std::mutex> lk(mu_);
  w.beginObject();
  w.key("opcodes").beginObject();
  for (const auto& [name, steps] : opcodeSteps()) w.kv(name, steps);
  w.endObject();
  w.key("sites").beginArray();
  for (const auto& [pc, s] : sites_) {
    if (s.steps == 0 && s.infeasible == 0) continue;
    w.beginArray();
    w.value(pc).value(s.steps).value(s.forks).value(s.infeasible);
    w.endArray();
  }
  w.endArray();
  w.endObject();
}

void ProfileCollector::restoreFromCkpt(const json::Value& v) {
  const json::Value* opcodes = v.find("opcodes");
  const json::Value* sites = v.find("sites");
  if (opcodes == nullptr || !opcodes->isObject() || sites == nullptr ||
      !sites->isArray()) {
    throw InputError("sites section: missing 'opcodes'/'sites'");
  }
  // The opcode table is derived from the per-pc rows, so only the rows
  // are folded in.
  std::lock_guard<std::mutex> lk(mu_);
  for (const json::Value& row : sites->array) {
    if (!row.isArray() || row.array.size() != 4) {
      throw InputError("sites section: malformed site row");
    }
    SiteCost& site = siteAt(row.array[0].asU64());
    site.steps += row.array[1].asU64();
    site.forks += row.array[2].asU64();
    site.infeasible += row.array[3].asU64();
  }
}

namespace {

void writeCanon(json::Writer& w, const smt::QueryCost& c) {
  w.key("canon").beginObject();
  w.kv("terms", c.terms);
  w.kv("gates", c.gates);
  w.endObject();
}

/// Per-mnemonic rollup of the per-pc sites; std::map keeps emission
/// canonical.
struct OpRow {
  uint64_t steps = 0;
  uint64_t rtlTicks = 0;
  uint64_t forks = 0;
  uint64_t queries = 0;
  smt::QueryCost canon;
};

std::map<std::string, OpRow> rollupOpcodes(const ProfileCollector& prof) {
  std::map<std::string, OpRow> ops;
  for (const auto& [pc, s] : prof.sites()) {
    OpRow& row = ops[s.opcode];
    row.steps += s.steps;
    row.rtlTicks += s.rtlTicks;
    row.forks += s.forks;
    row.queries += s.queries;
    row.canon += s.canon;
  }
  return ops;
}

std::string hexPc(uint64_t pc) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(pc));
  return buf;
}

}  // namespace

ProfileReport::Reconcile ProfileReport::reconcile() const {
  Reconcile r;
  r.siteRtlTicks = prof != nullptr ? prof->totalRtlTicks() : 0;
  r.engineRtlTicks = engineRtlTicks;
  r.siteQueries = prof != nullptr ? prof->totalQueries() : 0;
  r.solverQueries = solver.queries;
  return r;
}

void ProfileReport::writeJson(std::ostream& os) const {
  json::Writer w(os);
  w.beginObject();
  w.kv("schema", "adlsym-profile-v5");
  w.kv("isa", isa);
  w.kv("program", program);

  w.key("engine").beginObject();
  w.kv("steps", engineSteps);
  w.kv("rtl_ticks", engineRtlTicks);
  w.endObject();

  w.key("sites").beginArray();
  if (prof != nullptr) {
    for (const auto& [pc, s] : prof->sites()) {
      w.beginObject();
      w.kv("pc", pc);
      w.kv("opcode", s.opcode);
      w.kv("steps", s.steps);
      w.kv("rtl_ticks", s.rtlTicks);
      w.kv("forks", s.forks);
      w.kv("queries", s.queries);
      writeCanon(w, s.canon);
      w.endObject();
    }
  }
  w.endArray();

  w.key("opcodes").beginArray();
  if (prof != nullptr) {
    for (const auto& [name, row] : rollupOpcodes(*prof)) {
      w.beginObject();
      w.kv("opcode", name);
      w.kv("steps", row.steps);
      w.kv("rtl_ticks", row.rtlTicks);
      w.kv("forks", row.forks);
      w.kv("queries", row.queries);
      writeCanon(w, row.canon);
      w.endObject();
    }
  }
  w.endArray();

  if (rtl != nullptr) {
    w.key("rtl").beginArray();
    const auto& counts = rtl->counts();
    const auto& sites = rtl->sites();
    for (size_t i = 0; i < sites.size(); ++i) {
      if (counts[i] == 0) continue;
      w.beginObject();
      w.kv("insn", sites[i].insn);
      w.kv("stmt", sites[i].stmtIdx);
      w.kv("op", core::stmtOpName(sites[i].op));
      w.kv("line", sites[i].line);
      w.kv("col", sites[i].col);
      w.kv("count", counts[i]);
      w.endObject();
    }
    w.endArray();
  }

  // Canonical solver fields only — wall micros are schedule-dependent
  // (cache hits are cheaper than the miss that filled them), so they are
  // excluded to keep the document byte-identical across --jobs.
  w.key("solver").beginObject();
  w.kv("queries", solver.queries);
  w.kv("sat", solver.sat);
  w.kv("unsat", solver.unsat);
  w.kv("unknown", solver.unknown);
  w.kv("cache_hits", solver.cacheHits);
  writeCanon(w, solver.canon);
  w.key("prefilter");
  solver.writePrefilterJson(w);
  if (shapes != nullptr) {
    w.key("shapes").beginArray();
    for (const auto& [bucket, row] : *shapes) {
      w.beginObject();
      w.kv("terms_bits", bucket);  // bit_width(canonical terms blasted)
      w.kv("queries", row.queries);
      w.kv("hits", row.hits);
      w.kv("sat", row.sat);
      w.kv("unsat", row.unsat);
      w.kv("unknown", row.unknown);
      writeCanon(w, row.cost);
      w.endObject();
    }
    w.endArray();
  }
  w.endObject();

  const Reconcile r = reconcile();
  w.key("reconcile").beginObject();
  w.kv("site_rtl_ticks", r.siteRtlTicks);
  w.kv("engine_rtl_ticks", r.engineRtlTicks);
  w.kv("rtl_ticks_ok", r.ticksOk());
  w.kv("site_queries", r.siteQueries);
  w.kv("solver_queries", r.solverQueries);
  w.kv("queries_ok", r.queriesOk());
  w.endObject();

  w.endObject();
  os << '\n';
}

void ProfileReport::writeFolded(std::ostream& os) const {
  if (prof == nullptr) return;
  // One line per leaf frame: "root;frame;frame value". Roots carry the
  // sample unit so mixed stacks stay interpretable in flamegraph tools.
  for (const auto& [pc, s] : prof->sites()) {
    if (s.rtlTicks != 0) {
      os << "exec_ticks;" << isa << ";" << s.opcode << ";pc=" << hexPc(pc)
         << " " << s.rtlTicks << "\n";
    }
  }
  if (rtl != nullptr) {
    const auto& counts = rtl->counts();
    const auto& sites = rtl->sites();
    for (size_t i = 0; i < sites.size(); ++i) {
      if (counts[i] == 0) continue;
      os << "rtl_ticks;" << isa << ";" << sites[i].insn << ";s"
         << sites[i].stmtIdx << ":" << core::stmtOpName(sites[i].op) << " "
         << counts[i] << "\n";
    }
  }
  for (const auto& [pc, s] : prof->sites()) {
    if (s.canon.gates != 0) {
      os << "solver_gates;" << isa << ";" << s.opcode << ";pc=" << hexPc(pc)
         << " " << s.canon.gates << "\n";
    }
  }
}

void ProfileReport::writeSummary(json::Writer& w) const {
  const Reconcile r = reconcile();
  w.key("profile").beginObject();
  w.kv("schema", "adlsym-profile-v5");
  w.kv("rtl_ticks", engineRtlTicks);
  w.kv("sites", static_cast<uint64_t>(prof != nullptr ? prof->sites().size()
                                                      : 0));
  w.kv("attributed_queries",
       prof != nullptr ? prof->totalQueries() : uint64_t{0});
  w.kv("reconciled", r.ok());
  w.endObject();
}

std::string ProfileReport::formatText() const {
  std::ostringstream os;
  const Reconcile r = reconcile();
  os << "profile: " << isa << " " << program << "\n";
  os << "engine: steps=" << engineSteps << " rtl_ticks=" << engineRtlTicks
     << "\n";
  os << "solver: queries=" << solver.queries << " sat=" << solver.sat
     << " unsat=" << solver.unsat << " unknown=" << solver.unknown
     << " cache_hits=" << solver.cacheHits << " canon(terms=" << solver.canon.terms
     << " gates=" << solver.canon.gates << ")\n";
  os << "prefilter: " << (solver.preEnabled ? "on" : "off")
     << " consulted=" << solver.preConsulted << " sat=" << solver.preSat
     << " unsat=" << solver.preUnsat << " fallbacks=" << solver.preFallback
     << " direct=" << solver.directSolves << "\n";

  if (prof != nullptr) {
    // Hottest opcodes by RTL ticks.
    std::vector<std::pair<std::string, OpRow>> ops;
    for (auto& kv : rollupOpcodes(*prof)) ops.push_back(kv);
    std::stable_sort(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
      return a.second.rtlTicks > b.second.rtlTicks;
    });
    os << "hot opcodes (ticks | steps | queries | canon gates):\n";
    size_t shown = 0;
    for (const auto& [name, row] : ops) {
      if (shown++ == 10) break;
      os << "  " << name << "  " << row.rtlTicks << " | " << row.steps
         << " | " << row.queries << " | " << row.canon.gates << "\n";
    }

    // Most expensive branch sites by canonical solver gates.
    std::vector<std::pair<uint64_t, ProfileCollector::SiteCost>> hot;
    for (const auto& kv : prof->sites()) {
      if (kv.second.queries != 0) hot.push_back(kv);
    }
    std::stable_sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      return a.second.canon.gates > b.second.canon.gates;
    });
    os << "hot solver sites (gates | queries | terms):\n";
    shown = 0;
    for (const auto& [pc, s] : hot) {
      if (shown++ == 10) break;
      os << "  " << hexPc(pc) << " " << s.opcode << "  " << s.canon.gates
         << " | " << s.queries << " | " << s.canon.terms << "\n";
    }
  }

  if (shapes != nullptr && !shapes->empty()) {
    os << "query shapes (2^k terms: queries hits sat/unsat/unknown gates):\n";
    for (const auto& [bucket, row] : *shapes) {
      os << "  2^" << bucket << "  " << row.queries << " " << row.hits << " "
         << row.sat << "/" << row.unsat << "/" << row.unknown << " "
         << row.cost.gates << "\n";
    }
  }

  os << "reconcile: rtl_ticks " << r.siteRtlTicks << "/" << r.engineRtlTicks
     << (r.ticksOk() ? " ok" : " MISMATCH") << ", queries " << r.siteQueries
     << "/" << r.solverQueries << (r.queriesOk() ? " ok" : " MISMATCH")
     << "\n";
  return os.str();
}

}  // namespace adlsym::obs
