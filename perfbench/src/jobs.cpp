#include "jobs.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "support/rng.h"
#include "support/strings.h"
#include "workloads/defects.h"
#include "workloads/programs.h"

namespace perfbench {

using adlsym::Rng;
using adlsym::formatStr;
using adlsym::workloads::PProgram;

namespace {

const std::array<const char*, 4> kIsas = {"rv32e", "m16", "acc8", "stk16"};

using Comparator = std::pair<unsigned, unsigned>;

// Knuth's optimal sorting networks (TAOCP 5.3.4) for 5 and 6 wires.
const std::vector<Comparator> kNet5 = {{0, 1}, {3, 4}, {2, 4}, {2, 3}, {0, 3},
                                       {0, 2}, {1, 4}, {1, 3}, {1, 2}};
const std::vector<Comparator> kNet6 = {{1, 2}, {4, 5}, {0, 2}, {3, 5},
                                       {0, 1}, {3, 4}, {2, 5}, {0, 3},
                                       {1, 4}, {2, 4}, {1, 3}, {2, 3}};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

uint64_t pow2(unsigned k) { return uint64_t{1} << k; }

/// One job per shipped ISA for the same program.
void addOnAllIsas(std::vector<Job>& out, const std::string& key,
                  const PProgram& p, std::optional<uint64_t> paths) {
  for (const char* isa : kIsas) {
    Job j;
    j.id = key + "@" + isa;
    j.isa = isa;
    j.programKey = key;
    j.program = p;
    j.expectedPaths = paths;
    out.push_back(std::move(j));
  }
}

Job single(const std::string& key, const std::string& isa, const PProgram& p) {
  Job j;
  j.id = key + "@" + isa;
  j.isa = isa;
  j.programKey = key;
  j.program = p;
  return j;
}

std::vector<Job> solveJobs(Rng& rng) {
  std::vector<Job> jobs;
  addOnAllIsas(jobs, "sort5", adlsym::workloads::progSort(5), std::nullopt);
  const uint64_t netSeed = rng.next();
  addOnAllIsas(jobs, "network5", progNetwork(5, netSeed), std::nullopt);
  shuffle(jobs, rng);
  return jobs;
}

std::vector<Job> branchyJobs(Rng& rng) {
  using namespace adlsym::workloads;
  std::vector<Job> jobs;
  addOnAllIsas(jobs, "bitcount8", progBitcount(8), pow2(8));
  const unsigned bound = 39 + static_cast<unsigned>(rng.below(3));
  addOnAllIsas(jobs, formatStr("earlyexit%u", bound), progEarlyExit(bound),
               bound + 1);
  addOnAllIsas(jobs, "parse3", progParse(3), pow2(4) - 1);
  addOnAllIsas(jobs, "max5", progMax(5), std::nullopt);
  // progFind: a table of distinct seeded values has (size + 1) paths.
  std::vector<uint8_t> all(256);
  for (unsigned v = 0; v < 256; ++v) all[v] = static_cast<uint8_t>(v);
  shuffle(all, rng);
  std::vector<uint8_t> table(all.begin(), all.begin() + 12);
  addOnAllIsas(jobs, "find12", progFind(table), table.size() + 1);
  const unsigned fibN = 178 + static_cast<unsigned>(rng.below(5));
  addOnAllIsas(jobs, formatStr("fib%u", fibN), progFib(fibN), 1);
  addOnAllIsas(jobs, "checksum16", progChecksum(16), 2);
  const auto a = static_cast<uint8_t>(rng.below(256) | 1);
  const auto b = static_cast<uint8_t>(rng.below(256));
  addOnAllIsas(jobs, formatStr("lcg_%u_%u", a, b), progLcg(a, b, 120), 2);
  for (const DefectCase& c : defectSuite()) {
    for (const char* isa : kIsas) {
      Job j = single("defect:" + c.name, isa, c.program);
      j.defectCase = true;
      j.expectedDefect = c.expected;
      j.expectedExit = c.expected ? 1 : 0;
      jobs.push_back(std::move(j));
    }
  }
  shuffle(jobs, rng);
  return jobs;
}

}  // namespace

PProgram progNetwork(unsigned n, uint64_t seed) {
  if (n != 5 && n != 6) throw std::invalid_argument("progNetwork: n must be 5 or 6");
  const std::vector<Comparator>& net = n == 5 ? kNet5 : kNet6;
  Rng rng(seed);
  std::vector<unsigned> wire(n);
  for (unsigned i = 0; i < n; ++i) wire[i] = i;
  shuffle(wire, rng);
  PProgram p;
  p.array("buf", std::vector<uint8_t>(n, 0));
  for (unsigned i = 0; i < n; ++i) {
    p.in(0);
    p.li(1, static_cast<uint8_t>(i));
    p.storeArr("buf", 1, 0);
  }
  // Compare-exchange: the minimum goes to wire[lo], the maximum to wire[hi].
  for (size_t k = 0; k < net.size(); ++k) {
    const std::string skip = formatStr("c%zu", k);
    p.li(3, static_cast<uint8_t>(wire[net[k].first]));
    p.li(4, static_cast<uint8_t>(wire[net[k].second]));
    p.loadArr(0, "buf", 3);
    p.loadArr(1, "buf", 4);
    p.bgeu(1, 0, skip);
    p.storeArr("buf", 3, 1);
    p.storeArr("buf", 4, 0);
    p.label(skip);
  }
  for (unsigned i = 0; i + 1 < n; ++i) {
    const std::string ok = formatStr("ok%u", i);
    p.li(3, static_cast<uint8_t>(wire[i]));
    p.li(4, static_cast<uint8_t>(wire[i + 1]));
    p.loadArr(0, "buf", 3);
    p.loadArr(1, "buf", 4);
    p.bgeu(1, 0, ok);
    p.li(2, 0);
    p.li(3, 1);
    p.assertEq(2, 3);  // unreachable when the network sorts
    p.label(ok);
  }
  for (unsigned i = 0; i < n; ++i) {
    p.li(3, static_cast<uint8_t>(wire[i]));
    p.loadArr(0, "buf", 3);
    p.out(0);
  }
  p.halt(0);
  return p;
}

PProgram progLcg(uint8_t a, uint8_t b, unsigned iters) {
  if (iters == 0 || iters > 255) throw std::invalid_argument("progLcg: iters out of range");
  PProgram p;
  p.li(0, 1);  // x
  p.li(3, 0);  // round
  p.li(4, static_cast<uint8_t>(iters));
  p.label("loop");
  p.bgeu(3, 4, "done");
  p.li(2, a);
  p.mul(0, 0, 2);
  p.li(2, b);
  p.add(0, 0, 2);
  p.li(2, 1);
  p.add(3, 3, 2);
  p.jmp("loop");
  p.label("done");
  p.in(1);
  p.beq(1, 0, "match");
  p.li(2, 1);
  p.out(2);
  p.halt(1);
  p.label("match");
  p.out(0);
  p.halt(0);
  return p;
}

std::string fileStem(const Job& job) {
  std::string s = job.id;
  std::replace_if(s.begin(), s.end(), [](char c) { return c == '@' || c == ':'; }, '_');
  return s;
}

std::vector<std::string> workloadNames() {
  return {"solve", "branchy", "branchy-observed", "solve-jobs"};
}

Workload makeWorkload(const std::string& name, uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.name = name;
  if (name == "solve") {
    w.jobs = solveJobs(rng);
  } else if (name == "branchy" || name == "branchy-observed") {
    // Same seed, same list: the observed variant differs only in the
    // artifact flags.
    w.jobs = branchyJobs(rng);
    w.observed = name == "branchy-observed";
  } else if (name == "solve-jobs") {
    // The solve network (same seed, same wiring) under the parallel engine.
    w.explorerJobs = 2;
    addOnAllIsas(w.jobs, "network5", progNetwork(5, rng.next()), std::nullopt);
    shuffle(w.jobs, rng);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
