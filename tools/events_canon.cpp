// events_canon — canonicalize an adlsym-events-v3 stream for the
// cross-jobs byte-identity smoke (CI, docs/observability.md). The
// determinism contract says the *set* of deterministic events (run_begin,
// step, merge, path_done, run_end) is identical across --jobs
// values under --clock=manual, but their interleaving and seq/t stamps
// are schedule-dependent, and the live types (snapshot, heartbeat, query)
// are inherently timing-dependent. This tool drops the live events,
// strips the seq/t fields, and sorts the rest into the canonical
// (type-rank, path, n) order so `cmp` can assert identity across runs.
//
//   events_canon <events.jsonl>        # canonical stream on stdout
//   events_canon -                     # read the stream from stdin
#include <cstdio>
#include <fstream>
#include <iostream>

#include "obs/events.h"
#include "support/error.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: events_canon <events.jsonl|->\n");
    return 2;
  }
  const std::string path = argv[1];
  try {
    if (path == "-") {
      adlsym::obs::canonicalizeEvents(std::cin, std::cout);
    } else {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "events_canon: cannot read %s\n", path.c_str());
        return 2;
      }
      adlsym::obs::canonicalizeEvents(in, std::cout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "events_canon: %s: %s\n", path.c_str(), e.what());
    return 2;
  }
  return 0;
}
