#include "driver/cli.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "analysis/lint.h"
#include "asmgen/assembler.h"
#include "asmgen/disasm.h"
#include "core/checkpoint.h"
#include "core/pexplorer.h"
#include "core/rtlc.h"
#include "core/rtlprofile.h"
#include "core/testgen.h"
#include "decode/decoder.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "obs/events.h"
#include "obs/manifest.h"
#include "obs/pathforest.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/querylog.h"
#include "obs/replay.h"
#include "support/atomicio.h"
#include "support/bits.h"
#include "support/error.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/strings.h"
#include "support/telemetry.h"

namespace adlsym::driver::cli {

namespace {

/// Bad input (usage, unknown names, malformed values): exit code 2, per
/// the exit-code table in docs/robustness.md.
CommandResult fail(std::string msg) {
  return CommandResult{2, std::move(msg) + "\n"};
}

/// A count flag's value: parseInt, minus the negatives it wraps around
/// to huge counts.
std::optional<uint64_t> parseCount(const std::string& s) {
  if (s.find('-') != std::string::npos) return std::nullopt;
  return parseInt(s);
}

/// Per-command telemetry plumbing for --stats-json and --clock=manual:
/// owns the bundle, the manual clock and the stats document. `get()` is
/// null when neither was requested, so the engine stays on its zero-cost
/// path.
class CommandTelemetry {
 public:
  /// `manualClockStepUs` > 0 swaps the system clock for a ManualClock so
  /// every recorded duration is deterministic (byte-identical stats
  /// documents across runs).
  explicit CommandTelemetry(const std::string& statsJsonPath,
                            uint64_t manualClockStepUs = 0)
      : statsJsonPath_(statsJsonPath) {
    if (manualClockStepUs != 0) {
      clock_ = std::make_unique<telemetry::ManualClock>(manualClockStepUs);
      tel_ = std::make_unique<telemetry::Telemetry>(*clock_);
    } else if (!statsJsonPath.empty()) {
      tel_ = std::make_unique<telemetry::Telemetry>();
    }
  }

  telemetry::Telemetry* get() { return tel_.get(); }
  bool wantsStatsJson() const { return !statsJsonPath_.empty(); }
  /// Non-null iff --clock=manual: --resume advances it to the
  /// checkpoint's recorded clock position before any component reads it.
  telemetry::ManualClock* manualClock() { return clock_.get(); }

  /// Write the aggregated stats document. `writeBody` fills the
  /// command-specific objects of the already-open top-level object.
  template <typename Fn>
  void writeStatsJson(const std::string& command, const std::string& isa,
                      Fn writeBody) {
    if (statsJsonPath_.empty()) return;
    fault::hit("obs.write");
    std::ofstream out(statsJsonPath_, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw InputError("cannot open stats file '" + statsJsonPath_ + "'");
    }
    json::Writer w(out);
    w.beginObject();
    w.kv("schema", "adlsym-stats-v9");
    w.kv("command", std::string_view(command));
    w.kv("isa", std::string_view(isa));
    writeBody(w);
    w.key("metrics");
    tel_->metrics().writeJson(w);
    w.endObject();
    out << '\n';
  }

 private:
  std::string statsJsonPath_;
  std::unique_ptr<telemetry::ManualClock> clock_;
  std::unique_ptr<telemetry::Telemetry> tel_;
};

loader::Image parseImageArg(const std::string& imageText) {
  return loader::Image::deserialize(imageText);
}

std::string readFileOrThrow(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw InputError("cannot open file '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Writes the --profile / --profile-folded artifacts; returns an error
/// message ("" on success) so cmdExplore maps it to exit code 2.
std::string writeProfileArtifacts(const obs::ProfileReport& rep,
                                  const ExploreOptions& opt) {
  if (!opt.profilePath.empty()) {
    fault::hit("obs.write");
    std::ofstream out(opt.profilePath, std::ios::binary | std::ios::trunc);
    if (!out) return "cannot open profile file '" + opt.profilePath + "'";
    rep.writeJson(out);
  }
  if (!opt.profileFoldedPath.empty()) {
    fault::hit("obs.write");
    std::ofstream out(opt.profileFoldedPath,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
      return "cannot open profile-folded file '" + opt.profileFoldedPath + "'";
    }
    rep.writeFolded(out);
  }
  return "";
}

/// Decodable instruction count over the image's non-writable sections —
/// the coverage-percent denominator for heartbeats and snapshot events
/// (the same decoder walk `--coverage` renders).
uint64_t countCodePcs(const adl::ArchModel& model, const loader::Image& image) {
  decode::Decoder decoder(model);
  uint64_t total = 0;
  for (const loader::Section& s : image.sections()) {
    if (s.writable) continue;
    uint64_t addr = s.base;
    while (addr < s.end()) {
      const decode::DecodedInsn* d = decoder.decodeAt(image, addr);
      if (d == nullptr) {
        ++addr;
        continue;
      }
      ++total;
      addr += d->lengthBytes;
    }
  }
  return total;
}

/// --events / --manifest plumbing shared by both engine paths: owns the
/// event stream file and the flight recorder, and assembles the run
/// manifest at the end.
struct FlightRecorder {
  std::ofstream file;
  std::unique_ptr<obs::EventBus> bus;
  uint64_t codePcs = 0;

  /// Throws adlsym::InputError when the events file cannot be opened.
  /// `append` (--resume) keeps the spliced stream prefix and continues
  /// after it instead of truncating.
  void open(const ExploreOptions& opt, const adl::ArchModel& model,
            const loader::Image& image, telemetry::Telemetry* tel,
            bool append = false) {
    if (opt.eventsPath.empty() && opt.manifestPath.empty() &&
        opt.progressSeconds <= 0.0) {
      return;
    }
    codePcs = countCodePcs(model, image);
    if (opt.eventsPath.empty()) return;
    std::ostream* os = &std::cout;
    if (opt.eventsPath != "-") {
      fault::hit("obs.write");
      file.open(opt.eventsPath, std::ios::binary |
                                    (append ? std::ios::app : std::ios::trunc));
      if (!file) {
        throw InputError("cannot open events file '" + opt.eventsPath + "'");
      }
      os = &file;
    }
    obs::EventBusOptions bopt;
    bopt.snapshotEverySteps = opt.eventsSnapshotEvery;
    bopt.maxFrontier = opt.maxFrontier;
    bopt.memBudgetBytes = saturatingMul(opt.memBudgetMb, uint64_t{1} << 20);
    bopt.codePcs = codePcs;
    bus = std::make_unique<obs::EventBus>(*os, tel, bopt);
  }

  /// Emit run_begin. On --resume (`resumed` = the checkpoint's bus
  /// section) the spliced stream prefix already carries it, so the bus
  /// adopts the checkpoint's watermarks instead.
  void runBegin(const std::string& isaName, const ExploreOptions& opt,
                const json::Value* resumed = nullptr) {
    if (!bus) return;
    obs::EventBus::RunMeta rm;
    rm.command = opt.profileStdout ? "profile" : "explore";
    rm.isa = isaName;
    rm.strategy = opt.strategy;
    rm.program = opt.programLabel;
    if (resumed != nullptr) {
      bus->resumeRun(rm, *resumed);
    } else {
      bus->runBegin(rm);
    }
  }

  /// Close the stream so the manifest hashes the final bytes.
  void close() {
    if (bus) bus->flush();
    if (file.is_open()) file.close();
  }

  /// The stats document's "events" block (always present for explore:
  /// {"enabled":false} when the recorder is off).
  void writeStatsJson(json::Writer& w) const {
    w.key("events");
    if (bus) {
      bus->writeStatsJson(w);
    } else {
      w.beginObject();
      w.kv("enabled", false);
      w.endObject();
    }
  }
};

/// Write the adlsym-run-v1 manifest recording every artifact this run
/// produced. Called after all artifact streams are closed; throws
/// adlsym::InputError (exit 2) when an artifact is unreadable or the
/// manifest path is unwritable.
void writeRunManifest(const std::string& isaName, const ExploreOptions& opt) {
  if (opt.manifestPath.empty()) return;
  fault::hit("obs.write");
  obs::RunManifest man;
  man.command = opt.profileStdout ? "profile" : "explore";
  man.isa = isaName;
  man.strategy = opt.strategy;
  man.program = opt.programLabel;
  man.argv = opt.argvEcho;
  man.addArtifact("stats", opt.statsJsonPath);
  man.addArtifact("forest", opt.pathForestPath);
  man.addArtifact("forest_dot", opt.pathDotPath);
  man.addArtifact("profile", opt.profilePath);
  man.addArtifact("profile_folded", opt.profileFoldedPath);
  if (opt.eventsPath != "-") man.addArtifact("events", opt.eventsPath);
  man.addArtifact("checkpoint", opt.checkpointPath);
  man.writeFile(opt.manifestPath);
}

/// --resume events splice: check that the first `offset` bytes of the
/// events file canonicalize to the hash the checkpoint recorded, then cut
/// the file back to that offset so the resumed run appends exactly where
/// the checkpointed run left off. Bytes past the offset were written
/// after the checkpoint (the killed run's doomed suffix) and are
/// discarded.
void spliceEventsFile(const std::string& path, const json::Value& ev,
                      const std::string& resumePath) {
  const uint64_t offset = core::ckpt::fieldU64(ev, "offset");
  const std::string want = core::ckpt::fieldStr(ev, "canon_sha256");
  std::string bytes = support::readFileBytes(path);
  if (bytes.size() < offset) {
    throw InputError("events file '" + path + "' is shorter (" +
                     std::to_string(bytes.size()) + " bytes) than the " +
                     std::to_string(offset) +
                     "-byte prefix checkpoint " + resumePath +
                     " recorded — wrong events file?");
  }
  bytes.resize(offset);
  std::istringstream in(bytes);
  std::ostringstream canon;
  obs::canonicalizeEvents(in, canon);
  const std::string got = hash::sha256Hex(canon.str());
  if (got != want) {
    throw InputError("events file '" + path +
                     "' does not match checkpoint " + resumePath +
                     " (canonical prefix hash " + got + ", checkpoint has " +
                     want + ")");
  }
  std::filesystem::resize_file(path, offset);
}

}  // namespace

std::string usage() {
  return
      "adlsym — ADL-based retargetable symbolic execution\n"
      "\n"
      "usage:\n"
      "  adlsym isas                                list shipped ISAs\n"
      "  adlsym model <isa>                         dump the ISA model\n"
      "  adlsym lint <isa|file.adl> [file.img]      verify a specification\n"
      "  adlsym asm <isa> <file.s>                  assemble to image text\n"
      "  adlsym disasm <isa> <file.img>             disassemble an image\n"
      "  adlsym run <isa> <file.img> [in...]        concrete execution\n"
      "  adlsym explore <isa> <file.img> [options]  symbolic exploration\n"
      "  adlsym profile <isa> <file.img> [options]  exploration + the\n"
      "                                             cost-attribution tables\n"
      "                                             (accepts all explore\n"
      "                                             options)\n"
      "  adlsym replay <query-dir>                  re-solve a captured\n"
      "                                             query corpus and diff\n"
      "  adlsym tail <events-file>                  live run inspector over\n"
      "                                             an --events stream\n"
      "  adlsym events summarize <events-file>      recompute run counters\n"
      "                                             from the stream and\n"
      "                                             check reconciliation\n"
      "  adlsym verify-run <manifest.json>          re-hash a run's\n"
      "                                             artifacts and replay\n"
      "                                             cross-artifact checks\n"
      "\n"
      "lint options (docs/linting.md):\n"
      "  --format=text|json   output rendering (default text)\n"
      "  --werror             warning findings also fail the exit code\n"
      "  --stats-json=<file>  finding counts + per-pass timings\n"
      "\n"
      "explore options:\n"
      "  --strategy dfs|bfs|random|coverage   search order (default dfs)\n"
      "  --max-paths N                        completed-path budget\n"
      "  --max-steps N                        total instruction budget\n"
      "  --first-defect                       stop at the first defect\n"
      "  --merge                              veritesting state merging\n"
      "  --coverage                           per-insn coverage report\n"
      "  --lint                               lint model+image first;\n"
      "                                       error findings abort\n"
      "  --engine=bytecode|interp             ADL execution engine: load-\n"
      "                                       time RTL bytecode compiler\n"
      "                                       (default) or the tree-walking\n"
      "                                       reference interpreter; all\n"
      "                                       artifacts are byte-identical\n"
      "                                       (docs/bytecode.md)\n"
      "\n"
      "parallel exploration (explore; docs/parallelism.md):\n"
      "  --jobs N             worker threads (1..64); results are byte-\n"
      "                       identical across N under --clock=manual.\n"
      "                       Incompatible with --merge and --query-log\n"
      "\n"
      "resource governor (explore; docs/robustness.md):\n"
      "  --max-frontier N       cap the frontier; excess states are\n"
      "                         evicted (strategy-aware) as truncated\n"
      "  --mem-budget-mb N      approximate state+term byte budget\n"
      "  --solver-timeout-ms N  per-query solver deadline (Unknown on\n"
      "                         expiry, layered on the conflict budget)\n"
      "  --max-wall-ms N        whole-run wall budget; also bounds\n"
      "                         in-flight solver queries\n"
      "  --inject=SITE:N[,..]   deterministic fault injection: fire the\n"
      "                         named fault site on its Nth hit (sites:\n"
      "                         solver.check, image.read, obs.write,\n"
      "                         alloc, ckpt.write, ckpt.read); also via\n"
      "                         env ADLSYM_FAULTS\n"
      "  --clock=manual[:US]    deterministic manual clock advancing US\n"
      "                         microseconds per read (reproducible\n"
      "                         stats documents)\n"
      "\n"
      "crash-safe checkpointing (explore; docs/robustness.md):\n"
      "  --checkpoint=<file>    write an adlsym-ckpt-v6 checkpoint\n"
      "                         (atomically replaced, self-hashed) at\n"
      "                         every level barrier, on SIGINT/SIGTERM,\n"
      "                         and at run end. Requires --clock=manual\n"
      "  --checkpoint-every=N   level-barrier cadence in per-path steps;\n"
      "                         checkpoint bytes are identical across\n"
      "                         --jobs values\n"
      "  --resume=<file>        continue a checkpointed run; with the\n"
      "                         same flags, every final artifact is\n"
      "                         byte-identical to the uninterrupted run\n"
      "                         (even after kill -9). Corrupt/truncated\n"
      "                         checkpoints are rejected with exit 2\n"
      "\n"
      "exit codes: 0 ok; 1 findings (defects, lint errors, replay\n"
      "mismatches); 2 bad input; 3 exploration truncated by a budget\n"
      "or stopped by a signal (partial results); 4 internal error /\n"
      "injected fault\n"
      "\n"
      "observability (explore and run; docs/observability.md):\n"
      "  --stats-json=<file>   aggregated JSON stats document (summary,\n"
      "                        solver, metrics, opcode/branch-site tables)\n"
      "  --path-forest=<file>  path-forest JSON record (explore only)\n"
      "  --path-dot=<file>     path forest as Graphviz DOT (explore only)\n"
      "  --query-log=<dir>     capture every solver query as SMT-LIB +\n"
      "                        metadata; replay with `adlsym replay`\n"
      "  --progress[=N]        heartbeat to stderr every N seconds\n"
      "                        (default 1); includes the solver's share\n"
      "                        of wall time and current frontier depth\n"
      "  --profile=<file>      adlsym-profile-v5 cost attribution: per-\n"
      "                        opcode / per-RTL-statement tick counts and\n"
      "                        per-branch-site canonical solver cost;\n"
      "                        byte-identical across --jobs under\n"
      "                        --clock=manual\n"
      "  --profile-folded=<f>  collapsed-stack lines for flamegraph\n"
      "                        tooling\n"
      "  --events=<file|->     adlsym-events-v3 flight recorder: one JSONL\n"
      "                        event per step/fork/path/query plus periodic\n"
      "                        snapshots; the deterministic event set is\n"
      "                        identical across --jobs under --clock=manual\n"
      "                        (sort with tools/events_canon); inspect live\n"
      "                        with `adlsym tail`\n"
      "  --events-snapshot=N   snapshot cadence in step events (default\n"
      "                        1000; 0 = never)\n"
      "  --manifest=<file>     adlsym-run-v1 manifest: every artifact of\n"
      "                        this run with its SHA-256; check with\n"
      "                        `adlsym verify-run`\n"
      "\n"
      "tail options: --no-follow (render once), --max-wait=S (give up\n"
      "after S seconds without run_end)\n"
      "events summarize options: --stats=<stats.json> (cross-check the\n"
      "stream against the run's stats document)\n";
}

CommandResult cmdIsas() {
  std::ostringstream os;
  for (const std::string& name : isa::allIsaNames()) {
    auto model = isa::loadIsa(name);
    const auto st = model->stats();
    os << formatStr("%-8s %2u-bit %-6s  %2u insns  %u encodings  %u regs\n",
                    name.c_str(), model->wordSize,
                    model->endianLittle ? "little" : "big", st.numInsns,
                    st.numEncodings, st.numRegs);
  }
  return {0, os.str()};
}

CommandResult cmdModel(const std::string& isaName) {
  auto model = isa::loadIsa(isaName);
  std::ostringstream os;
  os << "arch " << model->name << ": wordsize " << model->wordSize << ", "
     << (model->endianLittle ? "little" : "big") << " endian\n\nstorage:\n";
  for (const auto& r : model->regs) {
    os << formatStr("  %-8s : %2u bits%s%s\n", r.name.c_str(), r.width,
                    r.isPC ? "  (pc)" : "", r.isFlag ? "  (flag)" : "");
  }
  if (model->regfile) {
    os << formatStr("  %s[%u]   : %2u bits", model->regfile->name.c_str(),
                    model->regfile->count, model->regfile->width);
    if (model->regfile->zeroReg) {
      os << formatStr("  (%s%u = 0)", model->regfile->name.c_str(),
                      *model->regfile->zeroReg);
    }
    os << '\n';
  }
  os << formatStr("  %-8s : byte[%u]\n", model->mem.name.c_str(),
                  model->mem.addrWidth);
  os << "\nencodings:\n";
  for (const auto& e : model->encodings) {
    os << formatStr("  %-8s %u bits:", e.name.c_str(), e.totalWidth);
    for (const auto& f : e.fields) {
      os << formatStr(" [%s:%u@%u]", f.name.c_str(), f.width, f.lo);
    }
    os << '\n';
  }
  os << "\ninstructions:\n";
  for (const auto& i : model->insns) {
    os << formatStr("  %-6s %u bytes  mask=%010llx match=%010llx  \"%s\"\n",
                    i.name.c_str(), i.lengthBytes,
                    static_cast<unsigned long long>(i.fixedMask),
                    static_cast<unsigned long long>(i.fixedMatch),
                    i.syntax.c_str());
  }
  return {0, os.str()};
}

CommandResult cmdLint(const std::string& subject, const std::string& adlSource,
                      const LintOptions& opt) {
  DiagEngine diags(subject);
  CommandTelemetry ct(opt.statsJsonPath);
  auto model = adl::loadArchModel(adlSource, diags);
  analysis::LintReport report;
  if (!model) {
    // Load failures become findings so JSON consumers see one schema.
    // Sema already emits "[ADL001] ..." for the defects it promotes;
    // re-parse that prefix so the finding keeps its real code.
    for (const Diagnostic& d : diags.all()) {
      analysis::Finding f;
      f.code = analysis::LintCode::ModelError;
      f.severity = d.severity;
      f.loc = d.loc;
      f.message = d.message;
      if (!d.message.empty() && d.message[0] == '[') {
        const size_t close = d.message.find(']');
        if (close != std::string::npos) {
          if (const auto code = analysis::lintCodeFromName(
                  d.message.substr(1, close - 1))) {
            f.code = *code;
            size_t start = close + 1;
            while (start < d.message.size() && d.message[start] == ' ') ++start;
            f.message = d.message.substr(start);
          }
        }
      }
      report.add(std::move(f));
    }
  } else {
    // Run the passes individually so --stats-json can attribute time to
    // each (lintModel() is exactly these three appends).
    telemetry::Telemetry* tel = ct.get();
    std::vector<analysis::Finding> findings;
    {
      telemetry::ScopedTimer t(
          tel, tel ? &tel->metrics().histogram("lint.decode_space_us") : nullptr);
      analysis::appendDecodeSpaceFindings(*model, findings);
    }
    {
      telemetry::ScopedTimer t(
          tel, tel ? &tel->metrics().histogram("lint.dataflow_us") : nullptr);
      analysis::appendDataflowFindings(*model, findings);
    }
    {
      telemetry::ScopedTimer t(
          tel, tel ? &tel->metrics().histogram("lint.absdom_us") : nullptr);
      analysis::appendAbsdomFindings(*model, findings);
    }
    for (analysis::Finding& f : findings) report.add(std::move(f));
    if (!opt.imageText.empty()) {
      telemetry::ScopedTimer t(
          tel, tel ? &tel->metrics().histogram("lint.cfg_us") : nullptr);
      report.append(analysis::lintImage(*model, parseImageArg(opt.imageText)));
    }
  }
  ct.writeStatsJson("lint", subject, [&](json::Writer& w) {
    w.key("lint").beginObject();
    w.kv("findings", static_cast<uint64_t>(report.findings().size()));
    w.kv("errors", report.count(Severity::Error));
    w.kv("warnings", report.count(Severity::Warning));
    w.kv("notes", report.count(Severity::Note));
    w.kv("clean", report.findings().empty());
    w.endObject();
  });
  const int exitCode = report.hasErrors(opt.werror) ? 1 : 0;
  return {exitCode,
          opt.json ? report.formatJson(subject) : report.formatText(subject)};
}

CommandResult cmdAsm(const std::string& isaName, const std::string& source) {
  auto model = isa::loadIsa(isaName);
  DiagEngine diags("<asm>");
  asmgen::Assembler assembler(*model);
  auto image = assembler.assemble(source, diags);
  if (!image) return fail(diags.str());
  return {0, image->serialize()};
}

CommandResult cmdDisasm(const std::string& isaName,
                        const std::string& imageText) {
  auto model = isa::loadIsa(isaName);
  const loader::Image image = parseImageArg(imageText);
  std::ostringstream os;
  for (const loader::Section& s : image.sections()) {
    os << "section " << s.name << ":\n";
    os << asmgen::disassembleSection(*model, image, s.name);
  }
  return {0, os.str()};
}

CommandResult cmdRun(const std::string& isaName, const std::string& imageText,
                     const std::vector<uint64_t>& inputs,
                     const RunOptions& ropt) {
  auto model = isa::loadIsa(isaName);
  const loader::Image image = parseImageArg(imageText);
  CommandTelemetry ct(ropt.statsJsonPath);
  core::ConcreteRunner runner(*model, image, ct.get());
  const auto r = runner.run(inputs);
  ct.writeStatsJson("run", isaName, [&](json::Writer& w) {
    w.key("run").beginObject();
    w.kv("status", core::pathStatusName(r.status));
    w.kv("exit_code", r.exitCode);
    w.kv("steps", r.steps);
    w.kv("final_pc", r.finalPc);
    if (r.defect) w.kv("defect", core::defectKindName(*r.defect));
    w.key("outputs").beginArray();
    for (const uint64_t v : r.outputs) w.value(v);
    w.endArray();
    w.endObject();
  });
  std::ostringstream os;
  os << "status: " << core::pathStatusName(r.status);
  if (r.status == core::PathStatus::Exited) os << " (code " << r.exitCode << ")";
  if (r.defect) {
    os << formatStr(" %s at pc=0x%llx", core::defectKindName(*r.defect),
                    static_cast<unsigned long long>(r.defectPc));
  }
  os << "\nsteps: " << r.steps << "\noutputs:";
  for (const uint64_t v : r.outputs) os << ' ' << v;
  os << '\n';
  return {r.status == core::PathStatus::Exited ? 0 : 1, os.str()};
}

CommandResult cmdExplore(const std::string& isaName,
                         const std::string& imageText,
                         const ExploreOptions& optIn) {
  // Checkpointing adjusts the effective options (it routes to the
  // parallel engine), so work on a copy.
  ExploreOptions opt = optIn;
  if (opt.checkpointEverySteps != 0 && opt.checkpointPath.empty()) {
    return fail("--checkpoint-every requires --checkpoint");
  }
  const bool ckptMode = !opt.checkpointPath.empty() || !opt.resumePath.empty();
  if (ckptMode) {
    // The kill/resume byte-identity contract (docs/robustness.md) is
    // defined on the deterministic clock and the parallel engine's
    // structural path keys; live/timing-coupled artifacts cannot be
    // spliced across a resume, so they are rejected up front.
    if (opt.jobs == 0) opt.jobs = 1;
    if (opt.manualClockStepUs == 0) {
      return fail("--checkpoint/--resume require --clock=manual");
    }
    if (opt.profileStdout || !opt.profilePath.empty() ||
        !opt.profileFoldedPath.empty()) {
      return fail("--checkpoint/--resume are not supported with profiling");
    }
    if (opt.progressSeconds > 0.0) {
      return fail("--checkpoint/--resume are not supported with --progress");
    }
    if (opt.eventsPath == "-") {
      return fail("--checkpoint/--resume need a seekable --events file, "
                  "not '-'");
    }
  }
  SessionOptions sopt;
  if (opt.strategy == "dfs") sopt.explorer.strategy = core::SearchStrategy::DFS;
  else if (opt.strategy == "bfs") sopt.explorer.strategy = core::SearchStrategy::BFS;
  else if (opt.strategy == "random") sopt.explorer.strategy = core::SearchStrategy::Random;
  else if (opt.strategy == "coverage") sopt.explorer.strategy = core::SearchStrategy::Coverage;
  else return fail("unknown strategy '" + opt.strategy + "'");
  sopt.explorer.maxPaths = opt.maxPaths;
  sopt.explorer.maxTotalSteps = opt.maxTotalSteps;
  sopt.explorer.stopAtFirstDefect = opt.stopAtFirstDefect;
  sopt.explorer.mergeStates = opt.mergeStates;
  sopt.explorer.maxFrontier = opt.maxFrontier;
  sopt.explorer.memBudgetBytes =
      saturatingMul(opt.memBudgetMb, uint64_t{1} << 20);
  sopt.explorer.maxWallSeconds = double(opt.maxWallMs) / 1e3;

  // Fault schedule for this command only (support/fault.h); the guard
  // disarms on every exit path, including an injected throw.
  fault::ScopedArm faultArm(opt.injectSpec);

  // Session assembles from source; for a prebuilt image we drive the
  // layers directly, exactly like examples/newisa.cpp.
  auto model = isa::loadIsa(isaName);
  const loader::Image image = parseImageArg(imageText);
  std::string lintText;
  if (opt.lint) {
    analysis::LintReport report = analysis::lintModel(*model);
    report.append(analysis::lintImage(*model, image));
    if (!report.findings().empty()) lintText = report.formatText(isaName);
    if (report.hasErrors()) return {1, lintText};
  }
  const bool profiling = opt.profileStdout || !opt.profilePath.empty() ||
                         !opt.profileFoldedPath.empty();

  // --jobs routes to the parallel engine (docs/parallelism.md), which
  // alone supports checkpoint/resume; only the sequential engine has
  // state merging and query capture.
  const bool parallel = opt.jobs > 0;
  if (parallel && opt.mergeStates) {
    return fail("--merge is not supported with --jobs");
  }
  if (parallel && !opt.queryLogDir.empty()) {
    return fail("--query-log is not supported with --jobs");
  }

  // ---- --resume: load + verify the checkpoint --------------------------
  const std::string imageSha = parallel ? hash::sha256Hex(imageText) : "";
  const bool resuming = !opt.resumePath.empty();
  json::Value resumeDoc;
  if (resuming) {
    resumeDoc = core::ckpt::loadCheckpointFile(opt.resumePath);
    const auto expect = [&](const char* name, const std::string& want) {
      const std::string got = core::ckpt::fieldStr(resumeDoc, name);
      if (got != want) {
        throw InputError("checkpoint " + opt.resumePath + ": " + name +
                         " mismatch (checkpoint has '" + got +
                         "', this run is '" + want + "')");
      }
    };
    expect("isa", isaName);
    expect("strategy", opt.strategy);
    expect("image_sha256", imageSha);
    if (core::ckpt::fieldU64(resumeDoc, "rng_seed") != sopt.explorer.rngSeed) {
      throw InputError("checkpoint " + opt.resumePath + ": rng_seed mismatch");
    }
    // The events stream is part of the checkpointed state: a resume must
    // continue the same stream (or, like the original run, have none at
    // all).
    const bool ckptHasEvents = resumeDoc.find("events") != nullptr;
    if (ckptHasEvents && opt.eventsPath.empty()) {
      throw InputError("checkpoint " + opt.resumePath +
                       " was written with --events; pass the same "
                       "events file to resume");
    }
    if (!ckptHasEvents && !opt.eventsPath.empty()) {
      throw InputError("checkpoint " + opt.resumePath +
                       " was written without --events; drop the flag "
                       "to resume");
    }
    if (ckptHasEvents) {
      spliceEventsFile(opt.eventsPath, core::ckpt::field(resumeDoc, "events"),
                       opt.resumePath);
    }
  }

  CommandTelemetry ct(opt.statsJsonPath, opt.manualClockStepUs);
  if (resuming && ct.manualClock() != nullptr) {
    // Continue the manual clock exactly where the checkpointed run's next
    // read would have been, before any component reads it.
    ct.manualClock()->advance(core::ckpt::fieldU64(resumeDoc, "clock_us"));
  }

  // Observatory wiring (docs/observability.md): each flag adds one
  // observer; the mux keeps the engines' single-pointer hook.
  core::ObserverMux mux;
  FlightRecorder fr;
  fr.open(opt, *model, image, ct.get(), resuming);
  if (fr.bus) mux.add(fr.bus.get());
  std::unique_ptr<obs::ProgressMeter> progress;
  if (opt.progressSeconds > 0.0) {
    // Parallel heartbeats stay on the system clock: they are a live
    // wall-time display from concurrent workers, not a deterministic
    // artifact.
    progress = std::make_unique<obs::ProgressMeter>(
        parallel ? nullptr : ct.get(), std::cerr, opt.progressSeconds,
        fr.bus.get(), fr.codePcs);
    mux.add(progress.get());
  }
  // One per-site collector feeds both the stats tables and the profile.
  std::unique_ptr<obs::ProfileCollector> sites;
  if (ct.wantsStatsJson() || profiling) {
    sites = std::make_unique<obs::ProfileCollector>(*model, image);
    mux.add(sites.get());
  }
  std::unique_ptr<core::RtlProfile> rtlProf;
  if (profiling) rtlProf = std::make_unique<core::RtlProfile>(*model);
  const bool wantForest =
      !opt.pathForestPath.empty() || !opt.pathDotPath.empty();

  // What the epilogue reads back from whichever engine ran.
  core::ExploreSummary summary;
  smt::SolverTelemetry solverTel;
  std::map<unsigned, smt::SmtSolver::ShapeRow> shapes;
  std::unique_ptr<obs::PathForestRecorder> forest;
  std::string poolLine;
  const adl::ArchModel& m = *model;
  const bool interp = opt.engine == "interp";

  if (parallel) {
    if (resuming && sites) {
      if (const json::Value* sv = resumeDoc.find("sites")) {
        sites->restoreFromCkpt(*sv);
      }
    }
    // Workers invoke the observers concurrently; one lock around the
    // whole fan-out keeps every observer's state consistent.
    core::LockedObserverMux locked;
    locked.add(&mux);

    core::ParallelConfig pcfg;
    pcfg.base = sopt.explorer;
    if (!mux.empty()) pcfg.base.observer = &locked;
    pcfg.jobs = static_cast<unsigned>(opt.jobs);
    pcfg.manualClockStepUs = opt.manualClockStepUs;
    pcfg.solverConflictBudget = sopt.solverConflictBudget;
    pcfg.solverTimeoutMicros = saturatingMul(opt.solverTimeoutMs, 1000);
    pcfg.solverShapeProfile = profiling;
    pcfg.renderForkConds = wantForest || !opt.checkpointPath.empty();
    pcfg.queryListener = fr.bus.get();
    pcfg.checkpointEverySteps = opt.checkpointEverySteps;
    pcfg.checkpointPath = opt.checkpointPath;
    pcfg.ckptIsa = isaName;
    pcfg.ckptStrategy = opt.strategy;
    pcfg.ckptImageSha = imageSha;
    if (resuming) pcfg.resume = &resumeDoc;
    if (!opt.checkpointPath.empty()) {
      // CLI-owned checkpoint sections. Runs on the checkpointing worker
      // while every other worker is quiescent, so the collectors are
      // stable and the events stream is fully flushed.
      obs::ProfileCollector* sitesPtr = sites.get();
      obs::EventBus* busPtr = fr.bus.get();
      std::ofstream* eventsFile = &fr.file;
      const std::string eventsPath = opt.eventsPath;
      pcfg.ckptExtras = [sitesPtr, busPtr, eventsFile, eventsPath](
                            json::Writer& w,
                            const core::ParallelConfig::CkptInfo& info) {
        if (sitesPtr != nullptr) {
          w.key("sites");
          sitesPtr->writeCkptJson(w);
        }
        if (busPtr != nullptr) {
          busPtr->flush();
          if (eventsFile->is_open()) eventsFile->flush();
          // Stream watermark: everything written so far is checkpointed
          // state; --resume cuts the file back to this offset and checks
          // the canonical-prefix hash before splicing.
          std::string bytes = support::readFileBytes(eventsPath);
          std::istringstream in(bytes);
          std::ostringstream canon;
          obs::canonicalizeEvents(in, canon);
          obs::EventBus::CkptGauges g;
          g.steps = info.steps;
          g.frontier = info.frontier;
          g.frontierBytes = info.frontierBytes;
          g.pathsDone = info.pathsDone;
          g.covered = info.coveredPcs;
          g.queries = info.solverQueries;
          g.solverMicros = info.solverMicros;
          w.key("events").beginObject();
          w.kv("offset", static_cast<uint64_t>(bytes.size()));
          w.kv("canon_sha256", std::string_view(hash::sha256Hex(canon.str())));
          w.key("bus");
          busPtr->writeCkptJson(w, g);
          w.endObject();
        }
      };
    }

    core::RtlProfile* rp = rtlProf.get();
    core::ParallelExplorer pex(
        image, sopt.engine, pcfg,
        [&m, rp, interp](
            core::EngineServices& svc) -> std::unique_ptr<core::Executor> {
          std::unique_ptr<core::Executor> ex;
          if (interp) {
            ex = std::make_unique<core::AdlExecutor>(m, svc);
          } else {
            ex = std::make_unique<core::BytecodeExecutor>(m, svc);
          }
          // Workers are destroyed inside run(), so the destructor flush
          // lands every worker's statement counts before we read them.
          if (rp != nullptr) ex->setRtlProfile(rp);
          return ex;
        },
        ct.get());
    fr.runBegin(isaName, opt,
                resuming && fr.bus
                    ? &core::ckpt::field(
                          core::ckpt::field(resumeDoc, "events"), "bus")
                    : nullptr);
    core::ParallelResult pres = pex.run();
    summary = std::move(pres.summary);
    solverTel = pex.solverTelemetry();
    shapes = pex.queryShapes();
    // The path forest is rebuilt from the canonical merged tree, so no
    // live recorder rides along with the workers.
    if (wantForest) {
      forest = std::make_unique<obs::PathForestRecorder>(
          obs::forestFromTree(std::move(pres.tree)));
    }
    // Pool diagnostics are schedule-dependent by nature (which worker
    // stole what), so profiling runs print them to stderr only — never
    // into the byte-identical stdout/JSON artifacts.
    const core::ParallelExplorer::PoolStats& ps = pex.poolStats();
    poolLine = "[pool] jobs=" + std::to_string(ps.jobs) +
               " steals=" + std::to_string(ps.steals) +
               " steal_wait_us=" + std::to_string(ps.stealWaitMicros) +
               " steps_min=" + std::to_string(ps.minWorkerSteps) +
               " steps_max=" + std::to_string(ps.maxWorkerSteps) +
               " steps_total=" + std::to_string(ps.totalSteps) + "\n";
  } else {
    smt::TermManager tm;
    smt::SmtSolver solver(tm);
    solver.setConflictBudget(sopt.solverConflictBudget);
    solver.setQueryTimeoutMicros(saturatingMul(opt.solverTimeoutMs, 1000));
    if (fr.bus) solver.addQueryListener(fr.bus.get());
    if (wantForest) {
      forest = std::make_unique<obs::PathForestRecorder>();
      mux.add(forest.get());
    }
    std::unique_ptr<obs::QueryLogger> qlog;
    if (!opt.queryLogDir.empty()) {
      qlog = std::make_unique<obs::QueryLogger>(opt.queryLogDir);
      mux.add(qlog.get());
      solver.setQueryListener(qlog.get());
    }
    if (profiling) solver.setShapeProfiling(true);
    if (!mux.empty()) sopt.explorer.observer = &mux;

    core::EngineServices services(tm, solver, image, sopt.engine, ct.get());
    std::unique_ptr<core::Executor> executor;
    if (interp) {
      executor = std::make_unique<core::AdlExecutor>(m, services);
    } else {
      executor = std::make_unique<core::BytecodeExecutor>(m, services);
    }
    // Leaving this block destroys the executor, whose destructor flush
    // lands its statement counts before we read them.
    if (rtlProf) executor->setRtlProfile(rtlProf.get());
    core::Explorer explorer(*executor, services, sopt.explorer);
    fr.runBegin(isaName, opt);
    summary = explorer.run();
    solverTel = solver.telemetrySnapshot();
    shapes = solver.queryShapes();
  }

  // ---- epilogue: every artifact, from whichever engine ran -------------
  if (fr.bus) {
    fr.bus->runEnd(summary, solverTel, rtlProf ? rtlProf->total() : 0);
  }

  if (!opt.pathForestPath.empty()) {
    fault::hit("obs.write");
    std::ofstream out(opt.pathForestPath, std::ios::binary | std::ios::trunc);
    if (!out) {
      return fail("cannot open path-forest file '" + opt.pathForestPath + "'");
    }
    forest->writeJson(out);
  }
  if (!opt.pathDotPath.empty()) {
    fault::hit("obs.write");
    std::ofstream out(opt.pathDotPath, std::ios::binary | std::ios::trunc);
    if (!out) {
      return fail("cannot open path-dot file '" + opt.pathDotPath + "'");
    }
    forest->writeDot(out);
  }

  obs::ProfileReport rep;
  if (profiling) {
    rep.isa = isaName;
    rep.program = opt.programLabel;
    rep.prof = sites.get();
    rep.rtl = rtlProf.get();
    rep.engineSteps = summary.totalSteps;
    // Independent of the observer deltas: the per-statement tables
    // flushed by the executors. Reconciliation cross-checks the two
    // accumulation paths.
    rep.engineRtlTicks = rtlProf->total();
    rep.solver = solverTel;
    rep.shapes = &shapes;
  }

  ct.writeStatsJson("explore", isaName, [&](json::Writer& w) {
    w.kv("strategy", std::string_view(opt.strategy));
    // v8 addition: which ADL engine ran. Stripped by stats_strip — the
    // byte-identity contract holds *across* engines (docs/bytecode.md).
    w.key("engine");
    w.beginObject();
    w.kv("name", std::string_view(opt.engine));
    w.endObject();
    w.key("summary");
    core::writeSummaryJson(w, summary);
    w.key("solver");
    solverTel.writeJson(w);
    // v6 addition: the abstract-prefilter block (docs/absdomain.md). The
    // solver consults no prefilter, so it reads enabled:false and carries
    // the query buckets' shortcircuit and direct counts.
    w.key("prefilter");
    solverTel.writePrefilterJson(w);
    if (parallel) {
      // The shared-query-cache block (since adlsym-stats-v4). The CLI
      // attaches no shared cache, so it always reads disabled. Note no
      // "jobs" field anywhere in the document — byte-identity across
      // --jobs values is the contract, so the document cannot mention
      // the jobs count.
      w.key("qcache");
      w.beginObject();
      w.kv("enabled", false);
      w.endObject();
    }
    sites->writeJson(w);
    // v5 addition: the profile summary block (profiling runs only).
    if (profiling) rep.writeSummary(w);
    // v7 addition: the flight-recorder accounting block.
    fr.writeStatsJson(w);
  });

  if (profiling) {
    // The solver's work counters depend on what each core solved before,
    // under --jobs on the schedule: stderr only, as the pool's.
    std::cerr << poolLine << solverTel.workLine();
    const std::string err = writeProfileArtifacts(rep, opt);
    if (!err.empty()) return fail(err);
  }

  // Every artifact stream is final now; the manifest hashes them.
  fr.close();
  writeRunManifest(isaName, opt);

  std::ostringstream os;
  os << lintText;
  os << core::formatSummary(summary);
  if (opt.coverageReport) {
    for (const loader::Section& sec : image.sections()) {
      if (sec.writable) continue;
      os << "\ncoverage of section " << sec.name << ":\n"
         << core::formatCoverage(*model, image, sec.name, summary);
    }
  }
  os << solverTel.format();
  if (opt.profileStdout) os << rep.formatText();
  // Exit-code table (docs/robustness.md): defects found beat everything
  // (the findings are the tool's point, even from a partial run); then
  // budget-truncated partial results report 3 so CI can tell "clean and
  // complete" from "clean so far, but the engine gave up".
  int code = 0;
  if (summary.numDefects() > 0) {
    code = 1;
  } else if (summary.budgetExhausted() ||
             (!summary.stopReason.empty() &&
              summary.stopReason != "first-defect")) {
    code = 3;
  }
  return {code, os.str()};
}

CommandResult cmdReplay(const std::string& dir) {
  const obs::ReplayReport report = obs::replayCorpus(dir);
  return {report.exitCode(), report.formatText()};
}

CommandResult cmdTail(const std::string& eventsPath, const TailOptions& opt) {
  std::ifstream in(eventsPath, std::ios::binary);
  if (!in.is_open()) {
    throw InputError("cannot open events file '" + eventsPath + "'");
  }
  obs::TailState state;
  std::string line;
  size_t lineNo = 0;
  auto drain = [&]() {
    bool any = false;
    while (std::getline(in, line)) {
      ++lineNo;
      if (line.empty()) continue;
      try {
        state.apply(json::parse(line));
      } catch (const Error& e) {
        throw InputError("events line " + std::to_string(lineNo) + ": " +
                         e.what());
      }
      any = true;
    }
    // getline stops at EOF with the fail bit set; clear it so the next
    // poll picks up freshly appended lines (tail -f semantics).
    in.clear();
    return any;
  };

  drain();
  if (!opt.follow) {
    return {0, state.render()};
  }

  // Live mode: redraw on stderr after each batch of new events; the final
  // dashboard goes to stdout like every other command.
  std::cerr << state.render();
  double waited = 0.0;
  while (!state.done() && (opt.maxWaitSeconds <= 0.0 ||
                           waited < opt.maxWaitSeconds)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(opt.pollSeconds));
    waited += opt.pollSeconds;
    if (drain()) {
      waited = 0.0;
      std::cerr << "\n" << state.render();
    }
  }
  std::ostringstream os;
  os << state.render();
  if (!state.done()) os << "tail: gave up waiting for run_end\n";
  return {state.done() ? 0 : 1, os.str()};
}

CommandResult cmdEventsSummarize(const std::string& eventsPath,
                                 const std::string& statsJsonPath) {
  std::ifstream in(eventsPath, std::ios::binary);
  if (!in.is_open()) {
    throw InputError("cannot open events file '" + eventsPath + "'");
  }
  obs::EventsSummary es = obs::summarizeEvents(in);
  std::ostringstream os;
  if (!statsJsonPath.empty()) {
    const json::Value stats = json::parse(readFileOrThrow(statsJsonPath));
    for (std::string& p : obs::reconcileWithStats(es, stats)) {
      es.problems.push_back("stats: " + p);
    }
  }
  os << es.formatText();
  return {es.ok() ? 0 : 1, os.str()};
}

CommandResult cmdVerifyRun(const std::string& manifestPath) {
  const obs::VerifyReport rep = obs::verifyRun(manifestPath);
  return {rep.ok() ? 0 : 1, rep.formatText()};
}

CommandResult dispatch(const std::vector<std::string>& args) {
  try {
    // ADLSYM_FAULTS arms a fault schedule for any command (CI smoke
    // tests); explore --inject overrides it for that run. The guard
    // disarms when dispatch returns or throws.
    const char* envFaults = std::getenv("ADLSYM_FAULTS");
    fault::ScopedArm envArm(envFaults != nullptr ? envFaults : "");
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
      return {args.empty() ? 2 : 0, usage()};
    }
    const std::string& cmd = args[0];
    if (cmd == "isas") return cmdIsas();
    if (cmd == "model") {
      if (args.size() != 2) return fail("usage: adlsym model <isa>");
      return cmdModel(args[1]);
    }
    if (cmd == "lint") {
      LintOptions opt;
      std::vector<std::string> pos;
      for (size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--werror") {
          opt.werror = true;
        } else if (args[i] == "--format=json") {
          opt.json = true;
        } else if (args[i] == "--format=text") {
          opt.json = false;
        } else if (startsWith(args[i], "--stats-json=")) {
          opt.statsJsonPath = args[i].substr(13);
        } else if (startsWith(args[i], "--")) {
          return fail("unknown lint option '" + args[i] + "'");
        } else {
          pos.push_back(args[i]);
        }
      }
      if (pos.empty() || pos.size() > 2) {
        return fail(
            "usage: adlsym lint <isa|file.adl> [file.img] "
            "[--format=text|json] [--werror]");
      }
      if (pos.size() == 2) opt.imageText = readFileOrThrow(pos[1]);
      const auto names = isa::allIsaNames();
      const bool shipped =
          std::find(names.begin(), names.end(), pos[0]) != names.end();
      return cmdLint(pos[0],
                     shipped ? std::string(isa::isaSource(pos[0]))
                             : readFileOrThrow(pos[0]),
                     opt);
    }
    if (cmd == "asm") {
      if (args.size() != 3) return fail("usage: adlsym asm <isa> <file.s>");
      return cmdAsm(args[1], readFileOrThrow(args[2]));
    }
    if (cmd == "disasm") {
      if (args.size() != 3) return fail("usage: adlsym disasm <isa> <file.img>");
      return cmdDisasm(args[1], readFileOrThrow(args[2]));
    }
    if (cmd == "run") {
      if (args.size() < 3) return fail("usage: adlsym run <isa> <file.img> [inputs...]");
      std::vector<uint64_t> inputs;
      RunOptions ropt;
      for (size_t i = 3; i < args.size(); ++i) {
        if (startsWith(args[i], "--stats-json=")) {
          ropt.statsJsonPath = args[i].substr(13);
        } else {
          const auto v = parseInt(args[i]);
          if (!v) return fail("bad input value '" + args[i] + "'");
          inputs.push_back(*v);
        }
      }
      return cmdRun(args[1], readFileOrThrow(args[2]), inputs, ropt);
    }
    if (cmd == "explore" || cmd == "profile") {
      if (args.size() < 3) {
        return fail("usage: adlsym " + cmd + " <isa> <file.img> [options]");
      }
      ExploreOptions opt;
      // `profile` is `explore` plus the cost-attribution tables on stdout;
      // it shares every explore option below.
      opt.profileStdout = cmd == "profile";
      opt.programLabel = args[2];
      for (size_t i = 3; i < args.size(); ++i) {
        if (args[i] == "--strategy" && i + 1 < args.size()) {
          opt.strategy = args[++i];
        } else if (args[i] == "--max-paths" && i + 1 < args.size()) {
          const auto v = parseCount(args[++i]);
          if (!v) return fail("bad --max-paths '" + args[i] + "'");
          opt.maxPaths = *v;
        } else if (args[i] == "--max-steps" && i + 1 < args.size()) {
          const auto v = parseCount(args[++i]);
          if (!v) return fail("bad --max-steps '" + args[i] + "'");
          opt.maxTotalSteps = *v;
        } else if (args[i] == "--first-defect") {
          opt.stopAtFirstDefect = true;
        } else if (args[i] == "--merge") {
          opt.mergeStates = true;
        } else if (args[i] == "--coverage") {
          opt.coverageReport = true;
        } else if (args[i] == "--lint") {
          opt.lint = true;
        } else if (startsWith(args[i], "--stats-json=")) {
          opt.statsJsonPath = args[i].substr(13);
        } else if (startsWith(args[i], "--path-forest=")) {
          opt.pathForestPath = args[i].substr(14);
        } else if (startsWith(args[i], "--path-dot=")) {
          opt.pathDotPath = args[i].substr(11);
        } else if (startsWith(args[i], "--query-log=")) {
          opt.queryLogDir = args[i].substr(12);
        } else if (startsWith(args[i], "--profile=")) {
          opt.profilePath = args[i].substr(10);
        } else if (startsWith(args[i], "--profile-folded=")) {
          opt.profileFoldedPath = args[i].substr(17);
        } else if (startsWith(args[i], "--events=")) {
          opt.eventsPath = args[i].substr(9);
          if (opt.eventsPath.empty()) {
            return fail("bad --events (want a file path or '-')");
          }
        } else if (startsWith(args[i], "--events-snapshot=")) {
          const auto v = parseCount(args[i].substr(18));
          if (!v) return fail("bad --events-snapshot '" + args[i] + "'");
          opt.eventsSnapshotEvery = *v;
        } else if (startsWith(args[i], "--manifest=")) {
          opt.manifestPath = args[i].substr(11);
          if (opt.manifestPath.empty()) {
            return fail("bad --manifest (want a file path)");
          }
        } else if (args[i] == "--max-frontier" && i + 1 < args.size()) {
          const auto v = parseCount(args[++i]);
          if (!v || *v == 0) return fail("bad --max-frontier '" + args[i] + "'");
          opt.maxFrontier = *v;
        } else if (args[i] == "--mem-budget-mb" && i + 1 < args.size()) {
          const auto v = parseCount(args[++i]);
          if (!v || *v == 0) return fail("bad --mem-budget-mb '" + args[i] + "'");
          opt.memBudgetMb = *v;
        } else if (args[i] == "--solver-timeout-ms" && i + 1 < args.size()) {
          const auto v = parseCount(args[++i]);
          if (!v) return fail("bad --solver-timeout-ms '" + args[i] + "'");
          opt.solverTimeoutMs = *v;
        } else if (args[i] == "--max-wall-ms" && i + 1 < args.size()) {
          const auto v = parseCount(args[++i]);
          if (!v) return fail("bad --max-wall-ms '" + args[i] + "'");
          opt.maxWallMs = *v;
        } else if (startsWith(args[i], "--inject=")) {
          opt.injectSpec = args[i].substr(9);
        } else if (startsWith(args[i], "--checkpoint=")) {
          opt.checkpointPath = args[i].substr(13);
          if (opt.checkpointPath.empty()) {
            return fail("bad --checkpoint (want a file path)");
          }
        } else if (startsWith(args[i], "--checkpoint-every=")) {
          const auto v = parseCount(args[i].substr(19));
          if (!v || *v == 0) {
            return fail("bad --checkpoint-every '" + args[i] + "'");
          }
          opt.checkpointEverySteps = *v;
        } else if (startsWith(args[i], "--resume=")) {
          opt.resumePath = args[i].substr(9);
          if (opt.resumePath.empty()) {
            return fail("bad --resume (want a checkpoint file)");
          }
        } else if (args[i] == "--clock=manual") {
          opt.manualClockStepUs = 1;
        } else if (startsWith(args[i], "--clock=manual:")) {
          const auto v = parseCount(args[i].substr(15));
          if (!v || *v == 0) return fail("bad --clock step '" + args[i] + "'");
          opt.manualClockStepUs = *v;
        } else if ((args[i] == "--jobs" && i + 1 < args.size()) ||
                   startsWith(args[i], "--jobs=")) {
          const std::string v = startsWith(args[i], "--jobs=")
                                    ? args[i].substr(7)
                                    : args[++i];
          const auto n = parseInt(v);
          if (!n || *n == 0 || *n > 64) {
            return fail("bad --jobs count '" + v + "' (want 1..64)");
          }
          opt.jobs = *n;
        } else if (args[i] == "--engine=bytecode" ||
                   args[i] == "--engine=interp") {
          opt.engine = args[i].substr(9);
        } else if (startsWith(args[i], "--engine=")) {
          return fail("bad --engine '" + args[i] +
                      "' (want bytecode|interp)");
        } else if (args[i] == "--progress") {
          opt.progressSeconds = 1.0;
        } else if (startsWith(args[i], "--progress=")) {
          const std::string v = args[i].substr(11);
          char* end = nullptr;
          opt.progressSeconds = std::strtod(v.c_str(), &end);
          if (end == v.c_str() || *end != '\0' ||
              !std::isfinite(opt.progressSeconds) ||
              opt.progressSeconds <= 0.0) {
            return fail("bad --progress interval '" + v + "'");
          }
        } else {
          return fail("unknown " + cmd + " option '" + args[i] + "'");
        }
      }
      opt.argvEcho = args;  // echoed into the --manifest document
      return cmdExplore(args[1], readFileOrThrow(args[2]), opt);
    }
    if (cmd == "replay") {
      if (args.size() != 2) return fail("usage: adlsym replay <query-dir>");
      return cmdReplay(args[1]);
    }
    if (cmd == "tail") {
      TailOptions topt;
      std::vector<std::string> pos;
      for (size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--no-follow") {
          topt.follow = false;
        } else if (startsWith(args[i], "--max-wait=")) {
          const std::string v = args[i].substr(11);
          char* end = nullptr;
          topt.maxWaitSeconds = std::strtod(v.c_str(), &end);
          if (end == v.c_str() || *end != '\0' ||
              !std::isfinite(topt.maxWaitSeconds) ||
              topt.maxWaitSeconds <= 0.0) {
            return fail("bad --max-wait '" + v + "'");
          }
        } else if (startsWith(args[i], "--")) {
          return fail("unknown tail option '" + args[i] + "'");
        } else {
          pos.push_back(args[i]);
        }
      }
      if (pos.size() != 1) {
        return fail(
            "usage: adlsym tail <events-file> [--no-follow] [--max-wait=S]");
      }
      return cmdTail(pos[0], topt);
    }
    if (cmd == "events") {
      if (args.size() < 3 || args[1] != "summarize") {
        return fail(
            "usage: adlsym events summarize <events-file> "
            "[--stats=<stats.json>]");
      }
      std::string eventsPath, statsPath;
      for (size_t i = 2; i < args.size(); ++i) {
        if (startsWith(args[i], "--stats=")) {
          statsPath = args[i].substr(8);
        } else if (startsWith(args[i], "--")) {
          return fail("unknown events option '" + args[i] + "'");
        } else if (eventsPath.empty()) {
          eventsPath = args[i];
        } else {
          return fail("extra events argument '" + args[i] + "'");
        }
      }
      if (eventsPath.empty()) {
        return fail(
            "usage: adlsym events summarize <events-file> "
            "[--stats=<stats.json>]");
      }
      return cmdEventsSummarize(eventsPath, statsPath);
    }
    if (cmd == "verify-run") {
      if (args.size() != 2) {
        return fail("usage: adlsym verify-run <manifest.json>");
      }
      return cmdVerifyRun(args[1]);
    }
    return fail("unknown command '" + cmd + "'\n" + usage());
  } catch (const fault::InjectedFault& e) {
    // Before InputError/Error: InjectedFault derives from Error.
    return {4, std::string("error: ") + e.what() + "\n"};
  } catch (const InputError& e) {
    return {2, std::string("error: ") + e.what() + "\n"};
  } catch (const std::bad_alloc&) {
    return {4, "error: out of memory\n"};
  } catch (const std::exception& e) {
    return {4, std::string("error: ") + e.what() + "\n"};
  }
}

}  // namespace adlsym::driver::cli
