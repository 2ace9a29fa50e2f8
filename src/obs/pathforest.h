// PathForest recorder (docs/observability.md): a KLEE-process-tree-style
// record of one exploration run. Every node is a straight-line run of
// instructions between forks; a fork mints child nodes carrying the
// rendered branch condition and the solver verdict that admitted them,
// and terminal nodes carry the final path status, defect and generated
// witness inputs. Exported as the `adlsym-pathforest-v1` JSON document
// (explore --path-forest) and as Graphviz DOT (--path-dot).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/observer.h"

namespace adlsym::obs {

class PathForestRecorder final : public core::ExploreObserver {
 public:
  struct Options {
    /// Include per-node solver microseconds in the JSON document. Off by
    /// default: --path-forest promises byte-identical output for two runs
    /// of the same seed/config, and latency depends on the clock. Tests
    /// turn it on under a ManualClock.
    bool includeTiming = false;
  };

  PathForestRecorder() = default;
  explicit PathForestRecorder(Options opt) : opt_(opt) {}

  // core::ExploreObserver
  void onRoot(uint64_t node, const core::MachineState& st) override;
  void onStepBegin(uint64_t node, const core::MachineState& st) override;
  void onStepEnd(const StepInfo& info) override;
  void onChild(uint64_t parent, uint64_t child, const core::MachineState& st,
               size_t condSizeBefore) override;
  void onDrop(uint64_t node, uint64_t pc) override;
  void onMerge(uint64_t host, uint64_t incoming, uint64_t pc) override;
  void onPathDone(uint64_t node, const core::PathResult& result) override;

  const std::vector<core::PathTreeNode>& nodes() const { return nodes_; }

  /// The adlsym-pathforest-v1 JSON document (one compact object).
  void writeJson(std::ostream& os) const;
  std::string toJson() const;
  /// Graphviz digraph: solid edges = forks (labelled with the branch
  /// condition), dashed edges = veritesting merges.
  void writeDot(std::ostream& os) const;
  std::string toDot() const;

 private:
  friend PathForestRecorder forestFromTree(
      std::vector<core::PathTreeNode> tree, Options opt);

  core::PathTreeNode& at(uint64_t id);

  Options opt_;
  std::vector<core::PathTreeNode> nodes_;  // indexed by id (ids are dense)
  std::vector<uint64_t> stepChildren_; // minted during the current step
  uint64_t stepPc_ = 0;                // pc of the in-flight step
};

/// Wrap the parallel engine's merged path tree (core::ParallelResult::tree)
/// in a recorder: node ids are already dense and preorder and the node type
/// is the recorder's own, so the tree is moved in as is and the resulting
/// JSON/DOT has the same shape as a live recording — byte-identical across
/// --jobs values.
PathForestRecorder forestFromTree(std::vector<core::PathTreeNode> tree,
                                  PathForestRecorder::Options opt = {});

}  // namespace adlsym::obs
