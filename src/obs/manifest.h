// Run manifests (docs/observability.md): the adlsym-run-v1 document
// written by `explore --manifest=<file>`. A manifest records the
// invocation (command, ISA, strategy, argv), the schema versions of the
// run's structured outputs, and every artifact the run produced with its
// SHA-256 content hash — so a results directory is self-verifying.
// `adlsym verify-run <manifest>` re-hashes the artifacts and replays the
// cross-artifact reconciliation identities (stats paths identity, 4-bucket
// query accounting, events-vs-stats agreement).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace adlsym::json {
struct Value;
}

namespace adlsym::obs {

class RunManifest {
 public:
  // Invocation metadata, filled by the CLI before write().
  std::string command;   // "explore" | "profile"
  std::string isa;
  std::string strategy;
  std::string program;   // image path as given (cosmetic)
  std::vector<std::string> argv;  // full invocation, argv[0] excluded
  std::string statsSchema = "adlsym-stats-v9";
  std::string eventsSchema = "adlsym-events-v3";

  /// Register an artifact the run wrote; hashed when the manifest itself
  /// is written (after the run, so the hash covers the final bytes).
  void addArtifact(const std::string& role, const std::string& path);

  bool empty() const { return artifacts_.empty(); }

  /// Render the adlsym-run-v1 JSON document, hashing every registered
  /// artifact now. Throws adlsym::InputError when an artifact is
  /// unreadable.
  std::string toJson() const;

  /// toJson() to a file. Throws adlsym::InputError when an artifact is
  /// unreadable or the manifest path is unwritable.
  void writeFile(const std::string& manifestPath) const;

 private:
  struct Entry {
    std::string role;
    std::string path;
  };
  std::vector<Entry> artifacts_;
};

/// The outcome of `adlsym verify-run`: per-artifact hash checks plus the
/// cross-artifact reconciliation results.
struct VerifyReport {
  struct ArtifactCheck {
    std::string role;
    std::string path;      // as recorded in the manifest
    std::string resolved;  // path actually hashed (may be manifest-relative)
    bool found = false;
    bool hashOk = false;
    uint64_t expectedBytes = 0;
    uint64_t actualBytes = 0;
    std::string expectedSha256;
    std::string actualSha256;
  };
  std::vector<ArtifactCheck> artifacts;
  /// Cross-artifact checks that ran (human-readable, for the report).
  std::vector<std::string> checks;
  /// Everything that failed: hash mismatches, missing artifacts, violated
  /// identities. Empty = the run verifies.
  std::vector<std::string> problems;

  bool ok() const { return problems.empty(); }
  std::string formatText() const;
};

/// Load an adlsym-run-v1 manifest, re-hash every artifact and replay the
/// cross-artifact reconciliation identities. Relative artifact paths are
/// tried as given first, then against the manifest's directory. Throws
/// adlsym::InputError when the manifest itself is unreadable or malformed.
VerifyReport verifyRun(const std::string& manifestPath);

}  // namespace adlsym::obs
