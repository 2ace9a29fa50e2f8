// Lower a named portable workload (src/workloads/programs.h) to the
// textual image format for any shipped ISA and print it. CI smoke
// scripts (tools/ckpt_smoke.sh) use this to run the *same* program on
// every ISA without maintaining per-ISA assembly sources.
#include <cstdio>
#include <string>

#include "driver/session.h"
#include "workloads/programs.h"

namespace {

adlsym::workloads::PProgram byName(const std::string& name) {
  using namespace adlsym::workloads;
  if (name == "bitcount3") return progBitcount(3);
  if (name == "earlyexit4") return progEarlyExit(4);
  if (name == "max3") return progMax(3);
  if (name == "checksum2") return progChecksum(2);
  if (name == "parse2") return progParse(2);
  if (name == "sort4") return progSort(4);
  if (name == "sort5") return progSort(5);
  throw adlsym::InputError("unknown workload '" + name +
                           "' (want bitcount3|earlyexit4|max3|checksum2|"
                           "parse2|sort4|sort5)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: workload_img <workload> <isa>\n");
    return 2;
  }
  try {
    const auto s =
        adlsym::driver::Session::forPortable(byName(argv[1]), argv[2]);
    std::fputs(s->image().serialize().c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
