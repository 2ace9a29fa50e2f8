// perfbench_e2e — the end-to-end explore benchmark (see ../README.md).
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--root <checkout>]
//
// Runs the workload's seeded job list through driver::cli::dispatch, pass
// after pass (a closed loop with one client), until --seconds have passed,
// judging every job with the oracle. --trace 0 reports the end-to-end
// metrics; --trace 1 alternates each untraced job with a traced re-run and
// reports the per-layer ledger. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "asmgen/assembler.h"
#include "core/rtlc.h"
#include "driver/cli.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "jobs.h"
#include "ledger.h"
#include "oracle.h"
#include "stats.h"
#include "support/diag.h"
#include "workloads/pgen.h"

namespace fs = std::filesystem;
namespace ad = adlsym;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string root = ".";
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--root") a.root = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

std::string fmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t k = 0; k < metrics.size(); ++k) {
    if (k != 0) os << ", ";
    os << '"' << metrics[k].name << "\": {\"value\": "
       << fmtDouble(metrics[k].value) << ", \"unit\": \"" << metrics[k].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Set-up: load the four shipped ADL models, assemble the workload's
/// programs and build one engine (executor incl. the rtlc compile) per ISA.
struct SetupTimes {
  double total = 0, adl = 0, assemble = 0;
};

SetupTimes runSetup(const Workload& wl,
                    std::map<std::string, std::string>* imageTexts) {
  SetupTimes t;
  const double t0 = nowSeconds();
  std::map<std::string, std::unique_ptr<ad::adl::ArchModel>> models;
  for (const std::string& isa : ad::isa::allIsaNames()) {
    models[isa] = ad::isa::loadIsa(isa);
  }
  const double t1 = nowSeconds();
  std::map<std::string, ad::loader::Image> firstImage;
  for (const Job& j : wl.jobs) {
    ad::DiagEngine diags(j.id);
    ad::asmgen::Assembler as(*models.at(j.isa));
    auto image = as.assemble(ad::workloads::emitAssembly(j.program, j.isa), diags);
    if (!image) throw std::runtime_error("assembly failed for " + j.id + ":\n" + diags.str());
    if (imageTexts != nullptr) (*imageTexts)[j.id] = image->serialize();
    firstImage.emplace(j.isa, std::move(*image));
  }
  const double t2 = nowSeconds();
  const ad::driver::SessionOptions sopt;
  for (auto& [isa, image] : firstImage) {
    ad::smt::TermManager tm;
    ad::smt::SmtSolver solver(tm);
    ad::core::EngineServices svc(tm, solver, image, sopt.engine);
    ad::core::BytecodeExecutor exec(*models.at(isa), svc);
  }
  const double t3 = nowSeconds();
  t.adl = t1 - t0;
  t.assemble = t2 - t1;
  t.total = t3 - t0;
  return t;
}

int run(const Args& args) {
  const Workload wl = makeWorkload(args.workload, args.seed);
  const fs::path work = fs::path(args.root) / ".bench_build" / "work" / wl.name;
  fs::remove_all(work);
  fs::create_directories(work / "artifacts");
  const std::string artifactPrefix = (work / "artifacts").string() + "/";

  // ---- set-up ------------------------------------------------------------
  // Timed once before the job loop and again after every pass (at least
  // kMinSetupRuns times in all). Like a job, set-up is deterministic work
  // that interference only slows down, so its time is the fastest run.
  constexpr int kSetupRunsPerPass = 3;
  constexpr size_t kMinSetupRuns = 15;
  std::map<std::string, std::string> imageTexts;
  std::vector<SetupTimes> setups = {runSetup(wl, &imageTexts)};
  std::map<std::string, std::string> imagePath;
  for (const Job& j : wl.jobs) {
    const fs::path p = work / (fileStem(j) + ".img");
    std::ofstream(p, std::ios::binary) << imageTexts.at(j.id);
    imagePath[j.id] = p.string();
  }

  // ---- the job loop ------------------------------------------------------
  uint64_t attempted = 0, failed = 0, seq = 0;
  // Per-job samples across passes. On a shared host interference only ever
  // slows a job down, so a job's time is its fastest pass: the least
  // disturbed reading of the same deterministic work. A pass costs the sum
  // of those. (Medians swung by up to 60% between runs on a shared host;
  // minima by a quarter of that.)
  std::vector<std::vector<double>> jobWall(wl.jobs.size()), jobCpu(wl.jobs.size());
  std::vector<double> passPathCounts;
  std::vector<PassLedger> ledgers;
  SpanLog spans;
  const double start = nowSeconds();
  do {
    std::map<std::string, uint64_t> paths;
    std::set<std::string> failedIds;
    PassLedger ledger;
    uint64_t passPaths = 0;
    for (size_t k = 0; k < wl.jobs.size(); ++k) {
      const Job& j = wl.jobs[k];
      std::vector<std::string> argv = {"explore", j.isa, imagePath.at(j.id)};
      for (std::string& f : exploreFlags(j, wl, artifactPrefix)) argv.push_back(std::move(f));
      const double c0 = processCpuSeconds();
      const double t0 = nowSeconds();
      const ad::driver::cli::CommandResult r = ad::driver::cli::dispatch(argv);
      const double t1 = nowSeconds();
      const double c1 = processCpuSeconds();
      jobWall[k].push_back(t1 - t0);
      jobCpu[k].push_back(c1 - c0);
      ledger.untraced += t1 - t0;
      ++attempted;
      const ExploreReport rep = parseExploreOutput(r.output);
      std::string err = judgeJob(j, r.exitCode, rep);
      paths[j.id] = rep.paths;
      passPaths += rep.paths;
      if (args.trace == 1 && err.empty()) {
        const TracedJobResult tr =
            runTracedJob(j, wl, imagePath.at(j.id), artifactPrefix, seq, spans);
        ledger.add(tr.sample);
        if (tr.sample.paths != rep.paths) err = "traced run found a different path count";
        else err = tr.failure;
      }
      ++seq;
      if (!err.empty()) {
        failedIds.insert(j.id);
        std::cerr << "FAIL " << j.id << ": " << err << "\n";
      }
    }
    for (const std::string& id : crossIsaMismatches(wl.jobs, paths)) {
      if (failedIds.insert(id).second) {
        std::cerr << "FAIL " << id << ": path count differs across ISAs\n";
      }
    }
    failed += failedIds.size();
    passPathCounts.push_back(double(passPaths));
    for (int k = 0; k < kSetupRunsPerPass; ++k) setups.push_back(runSetup(wl, nullptr));
    if (args.trace == 1) ledgers.push_back(ledger);
  } while (nowSeconds() - start < args.seconds);
  while (setups.size() < kMinSetupRuns) setups.push_back(runSetup(wl, nullptr));

  std::vector<Metric> metrics;
  std::vector<double> setupTotals, setupAdl, setupAsm;
  for (const SetupTimes& s : setups) {
    setupTotals.push_back(s.total);
    setupAdl.push_back(s.adl);
    setupAsm.push_back(s.assemble);
  }
  if (args.trace == 0) {
    double wall = 0, cpu = 0;
    std::vector<double> jobMs, allMs;
    for (size_t k = 0; k < wl.jobs.size(); ++k) {
      wall += minimum(jobWall[k]);
      cpu += minimum(jobCpu[k]);
      jobMs.push_back(minimum(jobWall[k]) * 1e3);
      for (const double t : jobWall[k]) allMs.push_back(t * 1e3);
    }
    std::printf("workload %s seed %llu: %zu passes x %zu jobs (%zu job samples)\n",
                wl.name.c_str(), static_cast<unsigned long long>(args.seed),
                passPathCounts.size(), wl.jobs.size(), allMs.size());
    std::map<std::string, std::pair<double, size_t>> byProgram;
    for (size_t k = 0; k < wl.jobs.size(); ++k) {
      auto& [ms, n] = byProgram[wl.jobs[k].programKey];
      ms += jobMs[k];
      ++n;
    }
    for (const auto& [key, v] : byProgram) {
      std::printf("  %-28s %10.3f ms (%zu jobs, sum of fastest passes)\n",
                  key.c_str(), v.first, v.second);
    }
    const double tailQ = tailPercentileFor(allMs.size());
    if (tailQ > 0) {
      std::printf("  job_ms_p%g %.3f ms over all %zu job samples\n", tailQ,
                  percentile(allMs, tailQ), allMs.size());
    }
    std::printf("  fail_ratio %.6f (%llu of %llu jobs)\n",
                double(failed) / double(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    metrics = {
        {"setup_s", minimum(setupTotals), "s"},
        {"wall_s", wall, "s"},
        {"paths_per_s", median(passPathCounts) / wall, "1/s"},
        {"job_ms_p50", median(jobMs), "ms"},
        {"cpu_s", cpu, "s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
    for (const Metric& m : metrics) {
      std::printf("  %-12s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  } else {
    printLedger(std::cout, wl.name, ledgers, wl.jobs.size());
    metrics = layerMetrics(ledgers, minimum(setupAdl), minimum(setupAsm));
    std::ofstream out(work / "spans.jsonl", std::ios::binary | std::ios::trunc);
    spans.writeJsonl(out);
  }
  printResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parseArgs(argc, argv, args)) {
    std::cerr << "usage: perfbench_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--root <dir>]\nworkloads:";
    for (const std::string& w : perfbench::workloadNames()) std::cerr << ' ' << w;
    std::cerr << '\n';
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
