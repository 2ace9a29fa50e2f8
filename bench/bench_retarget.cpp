// E1 — "Retargeting cost" (reconstructed Table 1).
//
// What the ADL approach claims: supporting a new ISA costs one declarative
// description, not an engine port. This bench quantifies the description
// (ADL lines, instructions, encodings, RTL statements) and the one-time
// model-build cost (parse + sema + decoder construction), per shipped ISA.
// Times are the fastest of kReps runs: on a shared machine noise only ever
// adds time, so the minimum is the stable statistic (perfbench compares
// per-job minima for the same reason).
#include <algorithm>
#include <cstring>

#include "adl/model.h"
#include "adl/parser.h"
#include "adl/sema.h"
#include "asmgen/assembler.h"
#include "bench/bench_util.h"
#include "decode/decoder.h"
#include "isa/registry.h"
#include "workloads/pgen.h"
#include "workloads/programs.h"

using namespace adlsym;

namespace {

constexpr int kReps = 200;

/// Fastest of kReps calls of `f`, in ms. `f` returns what it built, so
/// its destruction stays outside the timed region.
template <typename F>
double fastestMs(F&& f) {
  double best = 1e300;
  for (int i = 0; i < kReps; ++i) {
    benchutil::Timer t;
    auto built = f();
    best = std::min(best, t.millis());
  }
  return best;
}

unsigned countLines(const char* src) {
  unsigned n = 0;
  for (const char* p = src; *p != '\0'; ++p) n += *p == '\n';
  return n;
}

/// Code bytes the portable workload lowers to on one ISA.
size_t codeBytes(const workloads::PProgram& p, const std::string& isaName) {
  auto model = isa::loadIsa(isaName);
  DiagEngine diags;
  asmgen::Assembler assembler(*model);
  auto img = assembler.assemble(workloads::emitAssembly(p, isaName), diags);
  if (!img) return 0;
  size_t bytes = 0;
  for (const auto& s : img->sections()) {
    if (!s.writable) bytes += s.bytes.size();
  }
  return bytes;
}

void densityTable() {
  std::printf("\ncode density: bytes of machine code per portable workload\n\n");
  std::vector<std::string> headers = {"workload"};
  for (const std::string& n : isa::allIsaNames()) headers.push_back(n);
  benchutil::Table table(headers, "density");
  struct Case {
    const char* name;
    workloads::PProgram prog;
  };
  std::vector<Case> cases;
  cases.push_back({"fib20", workloads::progFib(20)});
  cases.push_back({"sort4", workloads::progSort(4)});
  cases.push_back({"parse2", workloads::progParse(2)});
  for (const Case& c : cases) {
    std::vector<std::string> row = {c.name};
    for (const std::string& isaName : isa::allIsaNames()) {
      row.push_back(benchutil::num(codeBytes(c.prog, isaName)));
    }
    table.addRow(row);
  }
  table.print();
}

}  // namespace

int main() {
  std::printf("E1: retargeting cost per ISA (one ADL file = one engine)\n\n");
  benchutil::Table table({"isa", "adl-lines", "insns", "encodings", "regs",
                          "rtl-stmts", "load-ms", "parse-ms", "sema-ms",
                          "decoder-ms"},
                         "retarget");
  for (const std::string& name : isa::allIsaNames()) {
    const char* src = isa::isaSource(name);
    DiagEngine diags;
    const auto model = adl::loadArchModel(src, diags);
    const auto decl = adl::parseArch(src, diags);

    // Model load (parse + sema, as every adlsym command does it) and its
    // two halves.
    const double loadMs = fastestMs([&] { return isa::loadIsa(name); });
    const double parseMs =
        fastestMs([&] { return adl::parseArch(src, diags); });
    const double semaMs =
        fastestMs([&] { return adl::analyzeArch(*decl, diags); });
    const double decMs = fastestMs(
        [&] { return std::make_unique<decode::Decoder>(*model); });

    const auto st = model->stats();
    table.addRow({name, benchutil::num(countLines(src)),
                  benchutil::num(st.numInsns), benchutil::num(st.numEncodings),
                  benchutil::num(st.numRegs), benchutil::num(st.rtlStmts),
                  benchutil::fmt("%.3f", loadMs),
                  benchutil::fmt("%.3f", parseMs),
                  benchutil::fmt("%.3f", semaMs),
                  benchutil::fmt("%.4f", decMs)});
  }
  table.print();
  densityTable();
  std::printf(
      "\nshape check: every ISA loads in ~milliseconds from a few hundred\n"
      "declarative lines; the hand-written baseline engine for rv32e alone\n"
      "is ~500 lines of C++ (src/baseline/rv32_engine.cpp) and covers one\n"
      "ISA with no assembler/disassembler.\n");
  benchutil::writeJsonReport("retarget");
  return 0;
}
