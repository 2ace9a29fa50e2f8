// Implementation of the `adlsym` command-line tool's subcommands, kept in
// the library so they are unit-testable (tests/cli_test.cpp). The tool
// binary (tools/adlsym.cpp) only parses argv and dispatches here.
#pragma once

#include <string>
#include <vector>

namespace adlsym::driver::cli {

struct CommandResult {
  int exitCode = 0;
  std::string output;  // printed to stdout by the tool
};

/// `adlsym isas` — list shipped ISAs with their model statistics.
CommandResult cmdIsas();

/// `adlsym model <isa>` — dump an ISA's storage, encodings and
/// instruction table (mask/match, operands, syntax).
CommandResult cmdModel(const std::string& isa);

/// `adlsym asm <isa> <source-text>` — assemble to the textual image
/// format (docs/image-format.md).
CommandResult cmdAsm(const std::string& isa, const std::string& source);

/// `adlsym disasm <isa> <image-text>` — disassemble every section that
/// decodes as code.
CommandResult cmdDisasm(const std::string& isa, const std::string& imageText);

struct RunOptions {
  /// Write the aggregated JSON stats document here ("" = off).
  std::string statsJsonPath;
};

/// `adlsym run <isa> <image-text> [inputs...]` — concrete execution with
/// the given input stream; prints outputs and exit status.
CommandResult cmdRun(const std::string& isa, const std::string& imageText,
                     const std::vector<uint64_t>& inputs,
                     const RunOptions& ropt = {});

struct LintOptions {
  bool json = false;    // --format=json: the adlsym-lint-v1 document
  bool werror = false;  // --werror: warnings also fail the exit code
  /// Optional image text to run the IMG0xx passes over ("" = model only).
  std::string imageText;
  /// Write the aggregated JSON stats document (finding counts + per-pass
  /// timing histograms lint.*_us) here ("" = off).
  std::string statsJsonPath;
};

/// `adlsym lint <isa|file.adl> [file.img]` — run the specification
/// verifier (decode-space + dataflow lints, docs/linting.md) and, when an
/// image is given, static CFG analysis. Exit code 1 on error-severity
/// findings (or warnings under --werror).
CommandResult cmdLint(const std::string& subject, const std::string& adlSource,
                      const LintOptions& opt = {});

struct ExploreOptions {
  std::string strategy = "dfs";  // dfs|bfs|random|coverage
  uint64_t maxPaths = 10000;
  uint64_t maxTotalSteps = 1000000;
  bool stopAtFirstDefect = false;
  bool mergeStates = false;
  /// Append an annotated instruction-coverage report per code section.
  bool coverageReport = false;
  /// Run the lint passes (model + image) first; error findings abort.
  bool lint = false;
  /// Write the aggregated JSON stats document (summary + solver + metrics
  /// + opcode/branch-site tables, docs/observability.md) here ("" = off).
  std::string statsJsonPath;
  /// Write the adlsym-pathforest-v1 JSON document here ("" = off).
  std::string pathForestPath;
  /// Write the path forest as Graphviz DOT here ("" = off).
  std::string pathDotPath;
  /// Capture every solver query as an SMT-LIB corpus into this directory
  /// ("" = off); replay with `adlsym replay <dir>`.
  std::string queryLogDir;
  /// Emit a progress heartbeat to stderr every N seconds (0 = off).
  double progressSeconds = 0.0;

  // ---- resource governor (docs/robustness.md) ------------------------
  /// Frontier cap with strategy-aware eviction (0 = unbounded).
  uint64_t maxFrontier = 0;
  /// Approximate state+term byte budget in MiB (0 = unbounded).
  uint64_t memBudgetMb = 0;
  /// Per-query solver deadline in milliseconds (0 = unlimited).
  uint64_t solverTimeoutMs = 0;
  /// Whole-run wall budget in milliseconds (0 = unlimited); also bounds
  /// in-flight solver queries via the shared deadline.
  uint64_t maxWallMs = 0;
  /// Fault-injection schedule ("" = none), e.g. "solver.check:1"
  /// (support/fault.h); armed for this command only.
  std::string injectSpec;
  /// Run on a deterministic ManualClock advancing this many microseconds
  /// per read (0 = system clock). Makes --stats-json byte-reproducible.
  uint64_t manualClockStepUs = 0;

  // ---- parallel exploration (docs/parallelism.md) --------------------
  /// Worker threads for the parallel engine (0 = the sequential
  /// explorer; 1..64 = core::ParallelExplorer). With --clock=manual the
  /// stats JSON, path forest and generated test inputs are byte-identical
  /// across every jobs value. Incompatible with --merge and --query-log.
  uint64_t jobs = 0;
  /// ADL execution engine (--engine=bytecode|interp): the load-time RTL
  /// bytecode compiler with superblock fusing (default) or the
  /// tree-walking reference interpreter. Artifacts are byte-identical
  /// between the two (docs/bytecode.md).
  std::string engine = "bytecode";

  // ---- profiler (docs/observability.md) ------------------------------
  /// Write the adlsym-profile-v5 cost-attribution document here ("" =
  /// off). Byte-identical across --jobs values under --clock=manual.
  std::string profilePath;
  /// Write collapsed-stack lines for flamegraph tooling here ("" = off).
  std::string profileFoldedPath;
  /// Print the human-readable profile tables after the path table (the
  /// `adlsym profile` command sets this).
  bool profileStdout = false;
  /// Program label recorded in the profile document (the image path as
  /// given on the command line; cosmetic only).
  std::string programLabel;

  // ---- flight recorder (docs/observability.md) -----------------------
  /// Stream the adlsym-events-v3 JSONL event stream here ("" = off;
  /// "-" = stdout). The deterministic event *set* is identical across
  /// --jobs values under --clock=manual (tools/events_canon).
  std::string eventsPath;
  /// Emit one self-describing snapshot event after every N step events
  /// (0 = never).
  uint64_t eventsSnapshotEvery = 1000;
  /// Write the adlsym-run-v1 manifest (every artifact with its SHA-256,
  /// obs/manifest.h) here after the run ("" = off); check with
  /// `adlsym verify-run`.
  std::string manifestPath;
  /// Full invocation (argv[0] excluded), echoed into the manifest.
  std::vector<std::string> argvEcho;

  // ---- crash-safe checkpointing (docs/robustness.md) -----------------
  /// Write an adlsym-ckpt-v6 checkpoint here ("" = off): at every level
  /// barrier (--checkpoint-every), on graceful SIGINT/SIGTERM stop, and
  /// at run end. Requires --clock=manual (the kill/resume byte-identity
  /// contract is defined on the deterministic clock) and routes to the
  /// parallel engine (--jobs defaults to 1 when not given).
  std::string checkpointPath;
  /// Checkpoint cadence in per-path steps: a checkpoint is written every
  /// time all live states reach the next multiple (a level barrier, so
  /// checkpoint *content* is byte-identical across --jobs values).
  /// 0 = only the stop/final checkpoints.
  uint64_t checkpointEverySteps = 0;
  /// Resume exploration from this checkpoint file ("" = off). The run
  /// identity (ISA, strategy, RNG seed, image hash) must match the
  /// checkpointed run, and the remaining flags must be repeated verbatim
  /// for the byte-identity contract to hold.
  std::string resumePath;
};

/// `adlsym explore <isa> <image-text>` — symbolic exploration; prints the
/// path table with witnesses and the engine statistics. `adlsym profile`
/// dispatches here too with opt.profileStdout set: same exploration, plus
/// the deterministic cost-attribution tables (obs/profile.h).
CommandResult cmdExplore(const std::string& isa, const std::string& imageText,
                         const ExploreOptions& opt);

/// `adlsym replay <query-dir>` — re-solve a captured query corpus
/// (explore --query-log) and diff verdicts; exit 1 on any mismatch,
/// unreadable entry or empty corpus.
CommandResult cmdReplay(const std::string& dir);

struct TailOptions {
  /// Keep polling the file for new events until run_end (the default);
  /// --no-follow renders the current contents once and returns.
  bool follow = true;
  /// Poll interval while following, in seconds.
  double pollSeconds = 0.2;
  /// Give up following after this many seconds without a run_end
  /// (0 = never). Keeps CI invocations from hanging on a dead stream.
  double maxWaitSeconds = 0.0;
};

/// `adlsym tail <events-file>` — live terminal inspector over an
/// adlsym-events-v3 stream (file or fifo): renders the run dashboard,
/// redrawing as events arrive, until run_end. Exit 2 on a malformed
/// stream.
CommandResult cmdTail(const std::string& eventsPath, const TailOptions& opt);

/// `adlsym events summarize <events-file> [--stats=<stats.json>]` —
/// recompute the run's counters from the stream, check every
/// reconciliation identity, and (with --stats) cross-check against the
/// adlsym-stats-v9 document. Exit 1 when any identity fails.
CommandResult cmdEventsSummarize(const std::string& eventsPath,
                                 const std::string& statsJsonPath);

/// `adlsym verify-run <manifest>` — re-hash every artifact recorded in an
/// adlsym-run-v1 manifest and replay the cross-artifact reconciliation
/// identities. Exit 1 on any mismatch, 2 on a malformed manifest.
CommandResult cmdVerifyRun(const std::string& manifestPath);

/// Top-level dispatcher used by the tool binary: args exclude argv[0].
/// File arguments are read from disk here. This is the process's single
/// error boundary — adlsym::Error, std::bad_alloc and injected faults all
/// become diagnostics with a documented exit code (docs/robustness.md):
///   0  success
///   1  findings: defects found, lint errors, replay mismatches,
///      abnormal concrete run
///   2  bad input: usage errors, unknown ISA/option, unreadable or
///      malformed files, unwritable output paths
///   3  partial results: exploration truncated by a resource budget
///   4  internal error: engine invariant failure, out of memory,
///      injected fault
/// The ADLSYM_FAULTS environment variable arms a fault-injection schedule
/// for any command (same syntax as explore --inject, support/fault.h).
CommandResult dispatch(const std::vector<std::string>& args);

/// Usage text.
std::string usage();

}  // namespace adlsym::driver::cli
