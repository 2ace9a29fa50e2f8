#include "core/pexplorer.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/checkpoint.h"
#include "support/bits.h"
#include "support/error.h"
#include "support/fault.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/stop.h"

namespace adlsym::core {
namespace {

// Structural address of a state in the fork tree: the sequence of
// successor indices taken from the root. Worker- and schedule-independent,
// and lexicographic order over keys is exactly DFS preorder with children
// in fork-index order — which is how the merge assigns dense node ids.
using PathKey = std::u32string;

/// Dotted-decimal serialization of a structural key, matching the
/// sequential explorer's string keys exactly: root = "", {1,0} = "1.0".
std::string keyToString(const PathKey& k) {
  std::string out;
  for (size_t i = 0; i < k.size(); ++i) {
    if (i != 0) out += '.';
    out += std::to_string(static_cast<uint32_t>(k[i]));
  }
  return out;
}

/// Inverse of keyToString, for checkpoint restore. Throws InputError on
/// anything keyToString would not produce.
PathKey keyFromString(const std::string& s) {
  PathKey k;
  if (s.empty()) return k;
  size_t pos = 0;
  for (;;) {
    size_t dot = s.find('.', pos);
    if (dot == std::string::npos) dot = s.size();
    uint32_t v = 0;
    const auto [end, ec] = std::from_chars(s.data() + pos, s.data() + dot, v);
    if (ec != std::errc() || end != s.data() + dot || dot == pos) {
      throw InputError("checkpoint: bad path key '" + s + "'");
    }
    k.push_back(static_cast<char32_t>(v));
    if (dot == s.size()) return k;
    pos = dot + 1;
  }
}

struct Entry {
  MachineState state;
  PathKey key;
  uint64_t order = 0;       // worker-local creation order (strategy ties)
  uint64_t newCovered = 0;  // decaying new-pc credit (Coverage strategy)
  size_t bytes = 0;         // approxBytes at enqueue (governor tally)
};

/// Checkpoint form of the across-worker solver aggregate: every field of
/// the stats document a resumed run must treat as already-consumed
/// baseline. The work counters are not among them: they count what this
/// process's cores did (SolverTelemetry).
void writeSolverCkpt(json::Writer& w, const smt::SolverTelemetry& t) {
  w.beginObject();
  w.kv("queries", t.queries);
  w.kv("sat", t.sat);
  w.kv("unsat", t.unsat);
  w.kv("unknown", t.unknown);
  w.kv("total_us", t.totalMicros);
  w.kv("max_us", t.maxMicros);
  w.kv("cache_hits", t.cacheHits);
  w.key("canon").beginObject();
  w.kv("terms", t.canon.terms);
  w.kv("gates", t.canon.gates);
  w.endObject();
  w.kv("pre_enabled", t.preEnabled);
  w.kv("pre_consulted", t.preConsulted);
  w.kv("pre_sat", t.preSat);
  w.kv("pre_unsat", t.preUnsat);
  w.kv("pre_fallback", t.preFallback);
  w.kv("pre_shortcircuit", t.preShortcircuit);
  w.kv("direct_solves", t.directSolves);
  w.kv("pre_core_constraints", t.preCoreConstraints);
  w.endObject();
}

smt::SolverTelemetry readSolverCkpt(const json::Value& v) {
  smt::SolverTelemetry t;
  t.queries = ckpt::fieldU64(v, "queries");
  t.sat = ckpt::fieldU64(v, "sat");
  t.unsat = ckpt::fieldU64(v, "unsat");
  t.unknown = ckpt::fieldU64(v, "unknown");
  t.totalMicros = ckpt::fieldU64(v, "total_us");
  t.maxMicros = ckpt::fieldU64(v, "max_us");
  t.cacheHits = ckpt::fieldU64(v, "cache_hits");
  const json::Value& canon = ckpt::field(v, "canon");
  t.canon.terms = ckpt::fieldU64(canon, "terms");
  t.canon.gates = ckpt::fieldU64(canon, "gates");
  t.preEnabled = ckpt::fieldBool(v, "pre_enabled");
  t.preConsulted = ckpt::fieldU64(v, "pre_consulted");
  t.preSat = ckpt::fieldU64(v, "pre_sat");
  t.preUnsat = ckpt::fieldU64(v, "pre_unsat");
  t.preFallback = ckpt::fieldU64(v, "pre_fallback");
  t.preShortcircuit = ckpt::fieldU64(v, "pre_shortcircuit");
  t.directSolves = ckpt::fieldU64(v, "direct_solves");
  t.preCoreConstraints = ckpt::fieldU64(v, "pre_core_constraints");
  return t;
}

// Global per-node record, guarded by Engine::recMu. Creation fields are
// written when the node is minted (at its parent's fork, or for the root
// at startup); terminal fields when the node leaves a frontier.
struct NodeRec {
  uint64_t forkPc = 0;
  uint64_t entryPc = 0;
  std::string cond;
  std::string verdict;
  uint64_t solverQueries = 0;
  uint64_t solverMicros = 0;
  size_t numChildren = 0;  // > 0 once the node forked (interior node)
  bool dropped = false;
  uint64_t dropPc = 0;
  std::optional<PathResult> result;  // set for every non-dropped terminal
};

struct Worker {
  Worker(unsigned idx, uint64_t seed) : index(idx), solver(tm), rng(seed) {}

  unsigned index;
  std::unique_ptr<telemetry::ManualClock> clock;
  std::unique_ptr<telemetry::Telemetry> tel;
  smt::TermManager tm;
  smt::SmtSolver solver;
  Rng rng;
  std::unique_ptr<EngineServices> svc;
  std::unique_ptr<Executor> exec;
  StepOut out;  // reused by every step

  std::vector<Entry> frontier;
  // Successors that reached the checkpoint level (Engine::levelLimit):
  // held out of the frontier until the level barrier writes a checkpoint
  // and requeues them. Still counted in the global frontier gauges.
  std::vector<Entry> paused;
  // Filled by a victim while this worker is parked in acquireWork (both
  // inbox and handed are only touched under Engine::mu).
  std::vector<Entry> inbox;
  bool handed = false;

  uint64_t orderCounter = 0;
  uint64_t steps = 0;
  uint64_t forksN = 0;
  uint64_t drops = 0;
  // Pool diagnostics (schedule-dependent; stderr reporting only).
  uint64_t steals = 0;         // entries received from a victim's handoff
  uint64_t stealWaitUs = 0;    // time parked in acquireWork (steady clock)
  // Published after each step so other workers can tally the global term
  // pool size for --mem-budget-mb without touching a foreign TermManager.
  std::atomic<uint64_t> poolTerms{0};

  ExploreCounters ctr;

  std::thread thread;
};

struct Engine {
  Engine(const ParallelConfig& cfg,
         std::vector<std::unique_ptr<Worker>>& workers)
      : cfg(cfg),
        base(cfg.base),
        workers(workers),
        ob(cfg.base.observer),
        wantKeys(ob != nullptr && ob->wantsPathKeys()) {}

  const ParallelConfig& cfg;
  const ExplorerConfig& base;
  std::vector<std::unique_ptr<Worker>>& workers;
  ExploreObserver* ob;
  // Serialize structural keys into StepInfo/PathResult for the event
  // stream (resolved once, before workers start).
  const bool wantKeys;
  // Offer superblock fusing (stepMany, fuel > 1) to the executors
  // (core::fusionOffered). Set once before workers start. Checkpoint level
  // barriers stay exact via the per-call fuel cap.
  bool fuseOk = false;

  // ---- pool coordination (mu) -----------------------------------------
  std::mutex mu;
  std::condition_variable cv;
  std::vector<size_t> waiting;  // parked workers, oldest first
  unsigned idle = 0;            // workers with no assigned work
  bool finished = false;        // no work left anywhere (or stop/error)
  std::string stopReason;
  TruncReason closeReason = TruncReason::None;
  std::exception_ptr error;
  std::atomic<bool> stopFlag{false};
  std::atomic<size_t> thievesWaiting{0};

  // ---- checkpoint / level barrier --------------------------------------
  // States pause (worker-locally) when pushed with steps >= levelLimit; a
  // parent always has steps <= levelLimit - 1, so every paused state sits
  // at exactly the limit — a property of the state, never of scheduling.
  // When the whole pool is idle with paused work, the last parker writes
  // the checkpoint, advances the limit and requeues (epochGen wakes the
  // parked workers to rescan). UINT64_MAX = no periodic checkpoints.
  std::atomic<uint64_t> levelLimit{UINT64_MAX};
  std::atomic<uint64_t> pausedTotal{0};
  uint64_t epochGen = 0;       // (mu) bumped when a level barrier releases
  unsigned signalParked = 0;   // (mu) workers parked for the signal barrier
  // Resume baselines: consumed budgets recorded by the checkpoint being
  // resumed, folded into the merged summary and into later checkpoints.
  uint64_t baseSteps = 0;
  uint64_t baseForks = 0;
  uint64_t baseDrops = 0;
  smt::SolverTelemetry solverBase;
  telemetry::MetricsRegistry metricsBase;  // restored worker-side metrics
  // Coordinator clock context for checkpoint timestamps (set by run()).
  telemetry::Clock* mainClk = nullptr;
  telemetry::Telemetry* mainTel = nullptr;
  uint64_t wallStartUs = 0;

  // ---- global budgets --------------------------------------------------
  std::atomic<uint64_t> gSteps{0};
  std::atomic<uint64_t> gCompleted{0};
  std::atomic<uint64_t> gPathsDone{0};
  std::atomic<uint64_t> gFrontier{0};
  std::atomic<uint64_t> gFrontierBytes{0};
  uint64_t wallDeadlineSteadyUs = 0;  // set once before workers start

  // ---- shared coverage + records --------------------------------------
  std::mutex covMu;
  std::unordered_set<uint64_t> covered;  // sorted where it is written out

  std::mutex recMu;
  std::map<PathKey, NodeRec> recs;

  // First stop request wins; later ones are ignored so the recorded
  // reason is whichever budget tripped first.
  void requestStop(const char* reason, TruncReason why) {
    std::lock_guard<std::mutex> lk(mu);
    if (stopFlag.load(std::memory_order_relaxed)) return;
    stopReason = reason;
    closeReason = why;
    finished = true;
    stopFlag.store(true, std::memory_order_release);
    cv.notify_all();
  }

  // Close the path (core::finishPath) and file its result under the
  // node's key.
  void finishPath(Worker& w, MachineState&& st, const PathKey& key) {
    PathResult r = core::finishPath(*w.svc, std::move(st),
                                    wantKeys ? keyToString(key) : "", 0, ob,
                                    w.ctr.paths);
    gPathsDone.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(recMu);
    recs[key].result = std::move(r);
  }

  // Close one state from w's frontier as Truncated{why} (governor
  // eviction). Returns false when w has nothing left to evict.
  bool evictLocal(Worker& w, TruncReason why) {
    if (w.frontier.empty()) return false;
    const size_t vi = pickEvict(base.strategy, w.frontier, w.rng);
    Entry ev = std::move(w.frontier[vi]);
    w.frontier.erase(w.frontier.begin() + static_cast<long>(vi));
    gFrontier.fetch_sub(1, std::memory_order_relaxed);
    gFrontierBytes.fetch_sub(ev.bytes, std::memory_order_relaxed);
    ev.state.status = PathStatus::Truncated;
    ev.state.truncReason = why;
    finishPath(w, std::move(ev.state), ev.key);
    return true;
  }

  void closeFrontier(Worker& w, TruncReason why) {
    for (Entry& e : w.frontier) {
      gFrontier.fetch_sub(1, std::memory_order_relaxed);
      gFrontierBytes.fetch_sub(e.bytes, std::memory_order_relaxed);
      e.state.status = PathStatus::Truncated;
      e.state.truncReason = why;
      finishPath(w, std::move(e.state), e.key);
    }
    w.frontier.clear();
  }

  // Deep-copy a frontier entry from `from`'s term pool into `to`'s. Safe
  // only while `to` is parked (Engine::mu is held and the thief blocks in
  // acquireWork until the victim publishes the handoff), so both pools
  // are quiescent. Raw re-interning preserves term structure exactly;
  // variables re-cons by (name, width) — downstream queries canonicalize
  // by name anyway, so solving is unaffected by the move.
  Entry migrate(Entry&& e, Worker& from, Worker& to) {
    std::unordered_map<smt::TermId, smt::TermId> memo;
    auto imp = [&](smt::TermRef t) { return to.tm.import(t, memo); };
    const MachineState& s = e.state;
    Entry ne;
    ne.key = std::move(e.key);
    ne.newCovered = e.newCovered;
    ne.bytes = e.bytes;
    MachineState ns;
    ns.regs.reserve(s.regs.size());
    for (const smt::TermRef t : s.regs) ns.regs.push_back(imp(t));
    ns.regfile.reserve(s.regfile.size());
    for (const smt::TermRef t : s.regfile) ns.regfile.push_back(imp(t));
    ns.memory = SymMemory(s.memory.image());
    std::vector<uint64_t> addrs = s.memory.overlayAddresses();
    std::sort(addrs.begin(), addrs.end());
    for (const uint64_t addr : addrs) {
      ns.memory.writeByte(addr, imp(s.memory.readByte(from.tm, addr)));
    }
    ns.pc = s.pc;
    ns.pathCond.reserve(s.pathCond.size());
    for (const smt::TermRef t : s.pathCond) ns.pathCond.push_back(imp(t));
    ns.inputs.reserve(s.inputs.size());
    for (const InputRecord& in : s.inputs) {
      ns.inputs.push_back({in.name, in.width, imp(in.term)});
    }
    ns.outputs.reserve(s.outputs.size());
    for (const OutputRecord& o : s.outputs) {
      ns.outputs.push_back({imp(o.term), o.pc});
    }
    ns.inputCounter = s.inputCounter;
    ns.steps = s.steps;
    ns.forks = s.forks;
    ns.status = s.status;
    ns.truncReason = s.truncReason;
    if (s.exitCode.valid()) ns.exitCode = imp(s.exitCode);
    ns.defect = s.defect;  // witness is concrete; no terms to migrate
    // By input position, so the carried witness moves unchanged.
    ns.witness = s.witness;
    ne.state = std::move(ns);
    return ne;
  }

  // Victim side of work stealing: called between steps when thieves are
  // parked and this worker can spare a state. Hands the entry the eviction
  // policy values least, so the victim keeps its strategy-preferred work.
  void handOffIfNeeded(Worker& w) {
    if (thievesWaiting.load(std::memory_order_relaxed) == 0 ||
        w.frontier.size() < 2) {
      return;
    }
    std::lock_guard<std::mutex> lk(mu);
    if (waiting.empty() || finished) return;
    const size_t ti = waiting.front();
    waiting.erase(waiting.begin());
    thievesWaiting.store(waiting.size(), std::memory_order_relaxed);
    // The thief now has assigned work: drop its idle contribution here,
    // not when it wakes, so a victim going idle right after the handoff
    // cannot observe idle == jobs and falsely declare the pool finished.
    --idle;
    Worker& thief = *workers[ti];
    const size_t vi = pickEvict(base.strategy, w.frontier, w.rng);
    Entry ev = std::move(w.frontier[vi]);
    w.frontier.erase(w.frontier.begin() + static_cast<long>(vi));
    thief.inbox.push_back(migrate(std::move(ev), w, thief));
    thief.handed = true;
    cv.notify_all();
  }

  void drainInboxLocked(Worker& w) {
    w.steals += w.inbox.size();
    for (Entry& e : w.inbox) {
      e.order = w.orderCounter++;
      w.frontier.push_back(std::move(e));
    }
    w.inbox.clear();
    w.handed = false;
  }

  /// Across-worker solver aggregate plus the resume baseline — the same
  /// sum the barrier merge produces, computable mid-run at a quiesced
  /// barrier (per-state query sequences are schedule-independent, so the
  /// total is canonical even though its split across workers is not).
  smt::SolverTelemetry solverSum() const {
    smt::SolverTelemetry t = solverBase;
    for (const auto& wp : workers) {
      t += wp->solver.telemetrySnapshot();
    }
    return t;
  }

  /// Serialize the full exploration state into cfg.checkpointPath
  /// (adlsym-ckpt-v6, atomic replace). Every other worker must be
  /// quiescent — parked under mu, signal-parked, or joined — so worker
  /// frontiers, term pools and counters are safe to read.
  void writeCheckpointQuiesced(bool complete, const std::string& stopR,
                               double wallSeconds) {
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject();
    w.kv("schema", ckpt::kSchema);
    w.kv("isa", std::string_view(cfg.ckptIsa));
    w.kv("strategy", std::string_view(cfg.ckptStrategy));
    w.kv("rng_seed", base.rngSeed);
    w.kv("image_sha256", std::string_view(cfg.ckptImageSha));
    w.kv("complete", complete);
    w.kv("stop_reason", std::string_view(stopR));
    w.kv("checkpoint_every", cfg.checkpointEverySteps);
    w.kv("level_limit", levelLimit.load(std::memory_order_relaxed));
    // The value the next coordinator-clock read will return: --resume
    // advances a fresh ManualClock here, so timestamps continue exactly
    // where this run's would have. peekMicros (not a read) keeps the
    // checkpointed run's own read sequence unperturbed.
    uint64_t clockNext = 0;
    if (auto* mc = dynamic_cast<telemetry::ManualClock*>(mainClk)) {
      clockNext = mc->peekMicros();
    } else if (mainClk != nullptr) {
      clockNext = telemetry::Clock::system().nowMicros();
    }
    w.kv("clock_us", clockNext);
    w.kv("wall_start_us", wallStartUs);
    if (complete) w.kv("wall_seconds", wallSeconds);

    w.key("counters").beginObject();
    w.kv("steps", gSteps.load(std::memory_order_relaxed));
    uint64_t forks = baseForks;
    uint64_t drops = baseDrops;
    for (const auto& wp : workers) {
      forks += wp->forksN;
      drops += wp->drops;
    }
    w.kv("forks", forks);
    w.kv("drops", drops);
    w.kv("completed", gCompleted.load(std::memory_order_relaxed));
    w.kv("paths_done", gPathsDone.load(std::memory_order_relaxed));
    w.endObject();

    std::vector<uint64_t> coveredPcs;
    {
      std::lock_guard<std::mutex> ck(covMu);
      coveredPcs.assign(covered.begin(), covered.end());
    }
    std::sort(coveredPcs.begin(), coveredPcs.end());
    w.key("covered").beginArray();
    for (const uint64_t pc : coveredPcs) w.value(pc);
    w.endArray();

    // Frontier: every live state (frontier + paused + inbox, all workers),
    // sorted by structural key. The term table deduplicates across worker
    // pools (scratch-pool slots), so the bytes are independent of which
    // worker held which state.
    std::vector<std::pair<const Entry*, Worker*>> live;
    for (const auto& wp : workers) {
      for (const Entry& e : wp->frontier) live.push_back({&e, wp.get()});
      for (const Entry& e : wp->paused) live.push_back({&e, wp.get()});
      for (const Entry& e : wp->inbox) live.push_back({&e, wp.get()});
    }
    std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
      return a.first->key < b.first->key;
    });
    std::ostringstream fs;
    json::Writer fw(fs);
    smt::TermTableWriter tw;
    fw.beginArray();
    for (const auto& [e, owner] : live) {
      fw.beginObject();
      fw.kv("k", std::string_view(keyToString(e->key)));
      ckpt::writeMachineStateFields(fw, e->state, owner->tm, tw);
      fw.endObject();
    }
    fw.endArray();
    w.kv("terms", std::string_view(tw.table()));
    w.key("frontier").rawValue(fs.str());

    // Path records so far, in key order (recs is a std::map).
    w.key("recs").beginArray();
    {
      std::lock_guard<std::mutex> rk(recMu);
      for (const auto& [k, rec] : recs) {
        w.beginObject();
        w.kv("k", std::string_view(keyToString(k)));
        w.kv("fp", rec.forkPc);
        w.kv("ep", rec.entryPc);
        w.kv("c", std::string_view(rec.cond));
        w.kv("v", std::string_view(rec.verdict));
        w.kv("q", rec.solverQueries);
        w.kv("us", rec.solverMicros);
        w.kv("nc", static_cast<uint64_t>(rec.numChildren));
        w.kv("d", rec.dropped);
        w.kv("dp", rec.dropPc);
        if (rec.result) {
          w.key("r");
          ckpt::writePathResult(w, *rec.result);
        }
        w.endObject();
      }
    }
    w.endArray();

    const smt::SolverTelemetry solver = solverSum();
    w.key("solver");
    writeSolverCkpt(w, solver);

    // Worker-side metrics only (plus the restored baseline): the
    // coordinator's own registry re-accumulates deterministically when
    // the resumed process redoes its startup work.
    w.key("metrics");
    {
      telemetry::MetricsRegistry merged;
      merged.mergeFrom(metricsBase);
      for (const auto& wp : workers) {
        if (wp->tel) merged.mergeFrom(wp->tel->metrics());
      }
      merged.writeJson(w);
    }

    if (cfg.ckptExtras) {
      ParallelConfig::CkptInfo info;
      info.steps = gSteps.load(std::memory_order_relaxed);
      info.frontier = gFrontier.load(std::memory_order_relaxed);
      info.frontierBytes = gFrontierBytes.load(std::memory_order_relaxed);
      info.pathsDone = gPathsDone.load(std::memory_order_relaxed);
      info.coveredPcs = coveredPcs.size();
      info.solverQueries = solver.queries;
      info.solverMicros = solver.totalMicros;
      cfg.ckptExtras(w, info);
    }
    w.endObject();
    ckpt::writeCheckpointFile(cfg.checkpointPath, os.str());
  }

  /// Graceful-stop barrier (SIGINT/SIGTERM with --checkpoint): each
  /// active worker parks here; the last one — when every other worker is
  /// either signal-parked or idle in acquireWork — checkpoints the live
  /// frontier, then closes the pool so the drain marks the held states
  /// Truncated{signal}.
  void signalStop() {
    std::unique_lock<std::mutex> lk(mu);
    if (finished) return;
    ++signalParked;
    if (signalParked + idle == static_cast<unsigned>(workers.size())) {
      writeCheckpointQuiesced(false, "signal", 0.0);
      stopReason = "signal";
      closeReason = TruncReason::Signal;
      finished = true;
      stopFlag.store(true, std::memory_order_release);
      cv.notify_all();
    } else {
      cv.wait(lk, [&] { return finished; });
    }
  }

  /// Close every state this worker still holds — frontier, paused level
  /// states, pending inbox — as Truncated{why}. Every exit path runs
  /// this, so the fork-accounting identity survives stops and signals.
  void shutDownWorker(Worker& w, TruncReason why) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (!w.inbox.empty()) drainInboxLocked(w);
    }
    if (!w.paused.empty()) {
      pausedTotal.fetch_sub(w.paused.size(), std::memory_order_relaxed);
      for (Entry& e : w.paused) {
        e.order = w.orderCounter++;
        w.frontier.push_back(std::move(e));
      }
      w.paused.clear();
    }
    closeFrontier(w, why);
  }

  // Thief side: park until a victim hands work over or the pool drains.
  // Returns false when the run is over for this worker.
  bool acquireWork(Worker& w) {
    std::unique_lock<std::mutex> lk(mu);
    if (!w.inbox.empty()) {
      drainInboxLocked(w);
      return true;
    }
    if (finished) return false;
    waiting.push_back(w.index);
    ++idle;
    thievesWaiting.store(waiting.size(), std::memory_order_relaxed);
    if (idle == static_cast<unsigned>(workers.size())) {
      if (pausedTotal.load(std::memory_order_relaxed) != 0) {
        // Level barrier: no runnable work anywhere, but states are paused
        // at exactly the checkpoint level. This last parker owns the
        // barrier: checkpoint, advance the level, requeue every worker's
        // paused states into its own frontier, release the pool.
        levelLimit.fetch_add(cfg.checkpointEverySteps,
                             std::memory_order_relaxed);
        if (!cfg.checkpointPath.empty()) {
          writeCheckpointQuiesced(false, "", 0.0);
        }
        for (auto& wp : workers) {
          for (Entry& e : wp->paused) {
            e.order = wp->orderCounter++;
            wp->frontier.push_back(std::move(e));
          }
          wp->paused.clear();
        }
        pausedTotal.store(0, std::memory_order_relaxed);
        waiting.clear();
        idle = 0;
        thievesWaiting.store(0, std::memory_order_relaxed);
        ++epochGen;
        cv.notify_all();
        return true;
      }
      // Everyone is out of work: nothing can produce more. Normal drain.
      finished = true;
      cv.notify_all();
      return false;
    }
    w.handed = false;
    const uint64_t ep = epochGen;
    // Frontier-wait on the steady clock (never a worker ManualClock: the
    // number of parks is schedule-dependent and must not perturb the
    // deterministic query timestamps).
    const uint64_t parkStart = telemetry::Clock::system().nowMicros();
    cv.wait(lk, [&] { return w.handed || finished || epochGen != ep; });
    w.stealWaitUs += telemetry::Clock::system().nowMicros() - parkStart;
    if (w.handed) {
      drainInboxLocked(w);
      return true;
    }
    if (epochGen != ep && !finished) {
      // A level barrier released: our paused states (if any) are back in
      // the frontier; rescan. The barrier owner already reset waiting and
      // the idle count for the whole pool.
      return true;
    }
    auto it = std::find(waiting.begin(), waiting.end(), w.index);
    if (it != waiting.end()) waiting.erase(it);
    thievesWaiting.store(waiting.size(), std::memory_order_relaxed);
    return false;
  }

  // Queue a successor of w's step under `key`, or close it when its path
  // ended. Returns whether it ended in a defect.
  bool admit(Worker& w, MachineState&& succ, PathKey&& key,
             uint64_t newCovered) {
    if (succ.status != PathStatus::Running) {
      const bool defect = succ.defect.has_value();
      finishPath(w, std::move(succ), key);
      gCompleted.fetch_add(1, std::memory_order_relaxed);
      return defect;
    }
    Entry f;
    f.newCovered = newCovered;
    f.order = w.orderCounter++;
    f.key = std::move(key);
    f.state = std::move(succ);
    f.bytes = f.state.approxBytes();
    fault::hit("alloc");  // frontier growth: the engine's alloc site
    gFrontierBytes.fetch_add(f.bytes, std::memory_order_relaxed);
    gFrontier.fetch_add(1, std::memory_order_relaxed);
    if (f.state.steps >= levelLimit.load(std::memory_order_relaxed)) {
      // Reached the checkpoint level (steps == limit exactly: the parent
      // was below it). Hold until the level barrier.
      pausedTotal.fetch_add(1, std::memory_order_relaxed);
      w.paused.push_back(std::move(f));
      return false;
    }
    w.frontier.push_back(std::move(f));
    if (base.maxFrontier != 0) {
      while (gFrontier.load(std::memory_order_relaxed) > base.maxFrontier &&
             evictLocal(w, TruncReason::Frontier)) {
      }
    }
    return false;
  }

  // One scheduling slot: mirror of the sequential loop body.
  void step(Worker& w) {
    const size_t idx = pickNext(base.strategy, w.frontier, w.rng);
    Entry cur = std::move(w.frontier[idx]);
    w.frontier.erase(w.frontier.begin() + static_cast<long>(idx));
    gFrontier.fetch_sub(1, std::memory_order_relaxed);
    gFrontierBytes.fetch_sub(cur.bytes, std::memory_order_relaxed);

    if (cur.state.steps >= base.maxStepsPerPath) {
      cur.state.status = PathStatus::Budget;
      finishPath(w, std::move(cur.state), cur.key);
      gCompleted.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    const StepOrigin from(cur.state);
    const smt::SmtSolver::Stats before = w.solver.stats();
    if (ob) ob->onStepBegin(0, cur.state);
    uint64_t fuel = 1;
    if (fuseOk) {
      // The shared caps (the global step budget is approximate under
      // concurrency, same as unfused), plus the checkpoint level barrier.
      fuel = fusionFuel(base, from.steps,
                        gSteps.load(std::memory_order_relaxed));
      const uint64_t lvl = levelLimit.load(std::memory_order_relaxed);
      if (lvl != UINT64_MAX) fuel = std::min(fuel, lvl - from.steps);
    }
    StepOut& out = w.out;
    out.clear();
    w.exec->stepMany(std::move(cur.state), out, fuel);
    // Only the executor queries the worker's solver, so this is also the
    // solver's state when the step's successors have been queued.
    const smt::SmtSolver::Stats after = w.solver.stats();
    w.steps += out.retired;
    gSteps.fetch_add(out.retired, std::memory_order_relaxed);
    if (w.ctr.steps) w.ctr.steps->add(out.retired);
    // Where this scheduling slot's last instruction ran: forks, drops and
    // defects of a fused run happen at its final (bailed) instruction.
    const uint64_t stepPc =
        out.fusedPcs.empty() ? from.pc : out.fusedPcs.back();
    bool newPcHere;
    size_t covSize;
    {
      std::lock_guard<std::mutex> ck(covMu);
      newPcHere = covered.insert(from.pc).second;
      for (const uint64_t fpc : out.fusedPcs) covered.insert(fpc);
      covSize = covered.size();
    }

    const bool forked = out.successors.size() > 1;
    if (forked) {
      const uint64_t nf = out.successors.size() - 1;
      w.forksN += nf;
      if (w.ctr.forks) w.ctr.forks->add(nf);
      // Mint the children records: entry pc, fork condition (rendered only
      // for a forest or checkpoint to read) and the fork verdict, exactly
      // as the sequential recorder computes it: the step issued queries
      // => "sat", none => "assumed". Query counts per state are
      // schedule-independent (cache hits count as queries too), so the
      // verdicts are canonical.
      const uint64_t q = after.queries - before.queries;
      const uint64_t us = after.totalMicros - before.totalMicros;
      const char* verdict = q > 0 ? "sat" : "assumed";
      std::lock_guard<std::mutex> rk(recMu);
      recs[cur.key].numChildren = out.successors.size();
      PathKey ck = cur.key;
      ck.push_back(0);
      for (size_t i = 0; i < out.successors.size(); ++i) {
        const MachineState& succ = out.successors[i];
        ck.back() = static_cast<char32_t>(i);
        NodeRec& child = recs[ck];
        child.forkPc = stepPc;
        child.entryPc = succ.pc;
        if (cfg.renderForkConds) child.cond = forkCond(succ, from.condSize);
        child.verdict = verdict;
        child.solverQueries = q;
        child.solverMicros = us;
      }
    }
    if (out.successors.empty()) {
      ++w.drops;
      if (w.ctr.drops) w.ctr.drops->add();
      {
        std::lock_guard<std::mutex> rk(recMu);
        NodeRec& n = recs[cur.key];
        n.dropped = true;
        n.dropPc = stepPc;
      }
      if (ob) ob->onDrop(0, stepPc);
    }

    std::string stepKey;
    if (ob && wantKeys) stepKey = keyToString(cur.key);
    const uint64_t newCovered = cur.newCovered / 2 + (newPcHere ? 1 : 0);
    bool sawDefect = false;
    if (forked) {
      for (size_t i = 0; i < out.successors.size(); ++i) {
        PathKey ck = cur.key;
        ck.push_back(static_cast<char32_t>(i));
        sawDefect |= admit(w, std::move(out.successors[i]), std::move(ck),
                           newCovered);
      }
    } else if (!out.successors.empty()) {
      // A straight-line step: its successor takes over the key.
      sawDefect = admit(w, std::move(out.successors[0]), std::move(cur.key),
                        newCovered);
    }

    // Byte budget: all frontier states plus every worker's term pool.
    // Each worker evicts from its own frontier; when the whole pool is
    // over budget and no frontier state remains anywhere, the run ends as
    // "mem-budget" (the pools alone no longer fit).
    if (base.memBudgetBytes != 0) {
      w.poolTerms.store(w.tm.numTerms(), std::memory_order_relaxed);
      uint64_t poolBytes = 0;
      for (const auto& ww : workers) {
        poolBytes += ww->poolTerms.load(std::memory_order_relaxed) *
                     kBytesPerTerm;
      }
      while (gFrontierBytes.load(std::memory_order_relaxed) + poolBytes >
                 base.memBudgetBytes &&
             evictLocal(w, TruncReason::Memory)) {
      }
      if (w.frontier.empty() &&
          gFrontier.load(std::memory_order_relaxed) == 0 &&
          gFrontierBytes.load(std::memory_order_relaxed) + poolBytes >
              base.memBudgetBytes) {
        requestStop("mem-budget", TruncReason::Memory);
      }
    }

    if (ob) {
      ExploreObserver::StepInfo si = stepInfo(from, out, before, after);
      si.frontierSize = gFrontier.load(std::memory_order_relaxed);
      si.totalSteps = gSteps.load(std::memory_order_relaxed);
      si.pathsDone = gPathsDone.load(std::memory_order_relaxed);
      si.coveredPcs = covSize;
      si.runSolverQueries = after.queries;
      si.runSolverMicros = after.totalMicros;
      si.pathKey = std::move(stepKey);
      si.frontierBytes = gFrontierBytes.load(std::memory_order_relaxed);
      ob->onStepEnd(si);
    }
    if (sawDefect && base.stopAtFirstDefect) {
      requestStop("first-defect", TruncReason::EarlyStop);
    }
  }

  void workerLoop(Worker& w) {
    try {
      for (;;) {
        if (stopFlag.load(std::memory_order_acquire)) {
          TruncReason why;
          {
            std::lock_guard<std::mutex> lk(mu);
            why = closeReason;
          }
          shutDownWorker(w, why);
          return;
        }
        if (support::stopRequested()) {
          // Graceful stop: with a checkpoint configured, rendezvous so
          // the live frontier is durably recorded before it is closed;
          // without one, plain early stop.
          if (cfg.checkpointPath.empty()) {
            requestStop("signal", TruncReason::Signal);
          } else {
            signalStop();
          }
          continue;
        }
        if (w.frontier.empty()) {
          if (!acquireWork(w)) {
            TruncReason why;
            {
              std::lock_guard<std::mutex> lk(mu);
              why = closeReason;
            }
            shutDownWorker(w, why);
            return;
          }
          continue;
        }
        if (gCompleted.load(std::memory_order_relaxed) >= base.maxPaths) {
          requestStop("max-paths", TruncReason::Paths);
          continue;
        }
        if (gSteps.load(std::memory_order_relaxed) >= base.maxTotalSteps) {
          requestStop("max-steps", TruncReason::Steps);
          continue;
        }
        if (wallDeadlineSteadyUs != 0 &&
            telemetry::Clock::system().nowMicros() > wallDeadlineSteadyUs) {
          requestStop("wall", TruncReason::Wall);
          continue;
        }
        handOffIfNeeded(w);
        if (w.frontier.empty()) continue;
        step(w);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu);
      if (!error) error = std::current_exception();
      finished = true;
      stopFlag.store(true, std::memory_order_release);
      cv.notify_all();
    }
  }
};

}  // namespace

ParallelExplorer::ParallelExplorer(const loader::Image& image,
                                   const EngineConfig& engineCfg,
                                   ParallelConfig cfg, ExecutorFactory factory,
                                   telemetry::Telemetry* mainTel)
    : image_(image),
      engineCfg_(engineCfg),
      cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      mainTel_(mainTel) {}

ParallelResult ParallelExplorer::run() {
  telemetry::Clock& mainClk =
      mainTel_ ? mainTel_->clock() : telemetry::Clock::system();
  const json::Value* rv = cfg_.resume;
  const bool resumedComplete =
      rv != nullptr && ckpt::fieldBool(*rv, "complete");
  // Exactly two reads of the coordinator clock per run (here and at the
  // end), so wallSeconds under --clock=manual is a constant independent of
  // scheduling; workers run on their own clock instances. A resumed run
  // inherits the original start (the CLI advanced the clock to the
  // checkpoint's position) and so reads it only once — or, when resuming
  // an already-complete checkpoint, not at all.
  const uint64_t startUs =
      rv != nullptr ? ckpt::fieldU64(*rv, "wall_start_us") : mainClk.nowMicros();

  const unsigned jobs = std::max(1u, cfg_.jobs);
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i) {
    auto w = std::make_unique<Worker>(i, cfg_.base.rngSeed + i);
    if (cfg_.manualClockStepUs != 0) {
      w->clock =
          std::make_unique<telemetry::ManualClock>(cfg_.manualClockStepUs);
      w->tel = std::make_unique<telemetry::Telemetry>(*w->clock);
    } else if (mainTel_ != nullptr) {
      w->tel = std::make_unique<telemetry::Telemetry>();
    }
    w->svc = std::make_unique<EngineServices>(w->tm, w->solver, image_,
                                              engineCfg_, w->tel.get());
    w->solver.setSharedCache(cfg_.qcache);
    if (cfg_.solverShapeProfile) w->solver.setShapeProfiling(true);
    if (cfg_.solverConflictBudget != 0) {
      w->solver.setConflictBudget(cfg_.solverConflictBudget);
    }
    if (cfg_.solverTimeoutMicros != 0) {
      w->solver.setQueryTimeoutMicros(cfg_.solverTimeoutMicros);
    }
    // The extra listener (the flight recorder) is shared across workers
    // and serializes internally.
    w->solver.addQueryListener(cfg_.queryListener);
    w->exec = factory_(*w->svc);
    // Resolve every explorer metric eagerly so the registry name union
    // (and thus the merged "metrics" JSON) is identical across --jobs.
    w->ctr = ExploreCounters(w->tel.get());
    workers.push_back(std::move(w));
  }

  Engine eng(cfg_, workers);
  eng.mainClk = &mainClk;
  eng.mainTel = mainTel_;
  eng.wallStartUs = startUs;
  eng.fuseOk = fusionOffered(cfg_.base, workers[0]->tel.get());
  if (cfg_.checkpointEverySteps != 0) {
    eng.levelLimit.store(cfg_.checkpointEverySteps, std::memory_order_relaxed);
  }
  if (cfg_.base.maxWallSeconds > 0.0) {
    // The wall budget is real elapsed time across the pool, so it runs on
    // the system steady clock regardless of --clock (docs/parallelism.md:
    // wall stops are inherently schedule-dependent).
    eng.wallDeadlineSteadyUs =
        saturatingAdd(telemetry::Clock::system().nowMicros(),
                      saturatingCast(cfg_.base.maxWallSeconds * 1e6));
  }

  if (rv == nullptr) {
    Worker& w0 = *workers[0];
    Entry root;
    root.state = w0.exec->initialState();
    root.order = w0.orderCounter++;
    root.bytes = root.state.approxBytes();
    eng.gFrontier.store(1, std::memory_order_relaxed);
    eng.gFrontierBytes.store(root.bytes, std::memory_order_relaxed);
    NodeRec& r = eng.recs[root.key];
    r.forkPc = root.state.pc;
    r.entryPc = root.state.pc;
    r.verdict = "root";
    if (eng.ob) eng.ob->onRoot(0, root.state);
    w0.frontier.push_back(std::move(root));
  } else {
    // ---- resume: seed the engine from the checkpoint -------------------
    // Everything canonical is restored (frontier states, path records,
    // counters, consumed budgets); everything schedule-local is rebuilt
    // fresh (worker assignment — all states start on worker 0 and
    // stealing redistributes — entry order counters, per-worker RNG
    // positions, newCovered credits). docs/robustness.md lists these.
    Worker& w0 = *workers[0];
    const json::Value& cnt = ckpt::field(*rv, "counters");
    eng.baseSteps = ckpt::fieldU64(cnt, "steps");
    eng.baseForks = ckpt::fieldU64(cnt, "forks");
    eng.baseDrops = ckpt::fieldU64(cnt, "drops");
    eng.gSteps.store(eng.baseSteps, std::memory_order_relaxed);
    eng.gCompleted.store(ckpt::fieldU64(cnt, "completed"),
                         std::memory_order_relaxed);
    eng.gPathsDone.store(ckpt::fieldU64(cnt, "paths_done"),
                         std::memory_order_relaxed);
    if (cfg_.checkpointEverySteps != 0) {
      eng.levelLimit.store(ckpt::fieldU64(*rv, "level_limit"),
                           std::memory_order_relaxed);
    }
    if (resumedComplete) {
      // Replays zero work; the drain leaves the seeded reason in place.
      eng.stopReason = ckpt::fieldStr(*rv, "stop_reason");
    }
    const json::Value& cov = ckpt::field(*rv, "covered");
    if (!cov.isArray()) throw InputError("checkpoint: 'covered' not an array");
    for (const json::Value& pc : cov.array) eng.covered.insert(pc.asU64());

    eng.solverBase = readSolverCkpt(ckpt::field(*rv, "solver"));
    eng.metricsBase.mergeFromJson(ckpt::field(*rv, "metrics"));

    const std::vector<smt::TermRef> slots =
        smt::TermTableReader::read(ckpt::fieldStr(*rv, "terms"), w0.tm);
    const json::Value& fr = ckpt::field(*rv, "frontier");
    if (!fr.isArray()) throw InputError("checkpoint: 'frontier' not an array");
    const uint64_t lvl = eng.levelLimit.load(std::memory_order_relaxed);
    uint64_t nLive = 0;
    uint64_t liveBytes = 0;
    for (const json::Value& fe : fr.array) {
      Entry e;
      e.key = keyFromString(ckpt::fieldStr(fe, "k"));
      e.state = ckpt::readMachineState(fe, slots, &image_);
      e.order = w0.orderCounter++;
      e.bytes = e.state.approxBytes();
      ++nLive;
      liveBytes += e.bytes;
      if (e.state.steps >= lvl) {
        // A signal checkpoint can hold states already paused at the
        // current level; re-pause them so the next barrier fires where
        // the uninterrupted run's would have.
        eng.pausedTotal.fetch_add(1, std::memory_order_relaxed);
        w0.paused.push_back(std::move(e));
      } else {
        w0.frontier.push_back(std::move(e));
      }
    }
    eng.gFrontier.store(nLive, std::memory_order_relaxed);
    eng.gFrontierBytes.store(liveBytes, std::memory_order_relaxed);

    const json::Value& rr = ckpt::field(*rv, "recs");
    if (!rr.isArray()) throw InputError("checkpoint: 'recs' not an array");
    for (const json::Value& re : rr.array) {
      PathKey k = keyFromString(ckpt::fieldStr(re, "k"));
      NodeRec n;
      n.forkPc = ckpt::fieldU64(re, "fp");
      n.entryPc = ckpt::fieldU64(re, "ep");
      n.cond = ckpt::fieldStr(re, "c");
      n.verdict = ckpt::fieldStr(re, "v");
      n.solverQueries = ckpt::fieldU64(re, "q");
      n.solverMicros = ckpt::fieldU64(re, "us");
      n.numChildren = static_cast<size_t>(ckpt::fieldU64(re, "nc"));
      n.dropped = ckpt::fieldBool(re, "d");
      n.dropPc = ckpt::fieldU64(re, "dp");
      if (const json::Value* r = re.find("r")) {
        n.result = ckpt::readPathResult(*r);
      }
      eng.recs.emplace(std::move(k), std::move(n));
    }
  }

  for (auto& w : workers) {
    Worker* wp = w.get();
    wp->thread = std::thread([&eng, wp] { eng.workerLoop(*wp); });
  }
  for (auto& w : workers) w->thread.join();
  if (eng.error) std::rethrow_exception(eng.error);

  // Resuming an already-complete checkpoint replays zero work, so the end
  // read is skipped too and the recorded duration stands — the regenerated
  // artifacts are byte-identical to the original run's.
  const double wallSeconds =
      resumedComplete ? ckpt::field(*rv, "wall_seconds").number
                      : double(mainClk.nowMicros() - startUs) / 1e6;

  // Final checkpoint: complete runs (frontier exhausted or budget-stopped)
  // record their terminal state so a later --resume just regenerates the
  // artifacts. Written before the merge below moves the records out. A
  // signal stop already wrote its checkpoint — with the live frontier —
  // at the rendezvous; don't clobber it with an empty one.
  if (!cfg_.checkpointPath.empty() && eng.stopReason != "signal") {
    eng.writeCheckpointQuiesced(true, eng.stopReason, wallSeconds);
  }

  // ---- barrier merge: canonical ids from the key-ordered record walk ---
  ParallelResult res;
  ExploreSummary& s = res.summary;
  std::map<PathKey, uint64_t> ids;
  {
    uint64_t next = 0;
    for (const auto& [k, rec] : eng.recs) ids.emplace(k, next++);
  }
  res.tree.reserve(eng.recs.size());
  for (auto& [k, rec] : eng.recs) {
    PathTreeNode n;
    n.id = ids.at(k);
    if (!k.empty()) {
      PathKey pk = k;
      pk.pop_back();
      n.parent = ids.at(pk);
    }
    n.forkPc = rec.forkPc;
    n.entryPc = rec.entryPc;
    n.cond = std::move(rec.cond);
    n.verdict = std::move(rec.verdict);
    n.solverQueries = rec.solverQueries;
    n.solverMicros = rec.solverMicros;
    for (size_t i = 0; i < rec.numChildren; ++i) {
      PathKey ck = k;
      ck.push_back(static_cast<char32_t>(i));
      n.children.push_back(ids.at(ck));
    }
    if (rec.result) {
      n.setResult(*rec.result);
      s.paths.push_back(std::move(*rec.result));
    } else if (rec.dropped) {
      n.status = "dropped";
      n.finalPc = rec.dropPc;
    } else if (rec.numChildren > 0) {
      n.status = "forked";
    }
    res.tree.push_back(std::move(n));
  }

  s.totalSteps = eng.baseSteps;
  s.totalForks = eng.baseForks;
  s.statesDropped = eng.baseDrops;
  for (const auto& w : workers) {
    s.totalSteps += w->steps;
    s.totalForks += w->forksN;
    s.statesDropped += w->drops;
  }
  s.statesMerged = 0;  // --merge is rejected with --jobs
  tallyTruncated(s);
  s.stopReason = eng.stopReason;
  s.coveredPcs = eng.covered.size();
  s.coveredSet.insert(eng.covered.begin(), eng.covered.end());

  solverTel_ = eng.solverSum();
  s.solverUnknowns = solverTel_.unknown;

  shapes_.clear();
  poolStats_ = PoolStats{};
  poolStats_.jobs = jobs;
  poolStats_.minWorkerSteps = UINT64_MAX;
  for (const auto& w : workers) {
    for (const auto& [bucket, row] : w->solver.queryShapes()) {
      shapes_[bucket] += row;
    }
    poolStats_.steals += w->steals;
    poolStats_.stealWaitMicros += w->stealWaitUs;
    poolStats_.minWorkerSteps = std::min(poolStats_.minWorkerSteps, w->steps);
    poolStats_.maxWorkerSteps = std::max(poolStats_.maxWorkerSteps, w->steps);
    poolStats_.totalSteps += w->steps;
  }
  if (poolStats_.minWorkerSteps == UINT64_MAX) poolStats_.minWorkerSteps = 0;

  if (mainTel_ != nullptr) {
    mainTel_->metrics().mergeFrom(eng.metricsBase);
    for (const auto& w : workers) {
      if (w->tel) mainTel_->metrics().mergeFrom(w->tel->metrics());
    }
  }

  s.wallSeconds = wallSeconds;
  return res;
}

}  // namespace adlsym::core
