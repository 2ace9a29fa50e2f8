#include "obs/pathforest.h"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "support/json.h"

namespace adlsym::obs {

core::PathTreeNode& PathForestRecorder::at(uint64_t id) {
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  core::PathTreeNode& n = nodes_[id];
  n.id = id;
  return n;
}

void PathForestRecorder::onRoot(uint64_t node, const core::MachineState& st) {
  core::PathTreeNode& n = at(node);
  n.forkPc = st.pc;
  n.entryPc = st.pc;
  n.verdict = "root";
}

void PathForestRecorder::onStepBegin(uint64_t /*node*/,
                                     const core::MachineState& st) {
  stepPc_ = st.pc;
  stepChildren_.clear();
}

void PathForestRecorder::onChild(uint64_t parent, uint64_t child,
                                 const core::MachineState& st,
                                 size_t condSizeBefore) {
  core::PathTreeNode& n = at(child);
  n.parent = parent;
  n.forkPc = stepPc_;
  n.entryPc = st.pc;
  n.cond = core::forkCond(st, condSizeBefore);
  core::PathTreeNode& p = at(parent);
  p.children.push_back(child);
  // A fork retires the parent id (every successor got a fresh one), so
  // the parent is an interior node from here on.
  p.status = "forked";
  stepChildren_.push_back(child);
}

void PathForestRecorder::onStepEnd(const StepInfo& info) {
  // Verdict + solver cost land on the children this step minted: queries
  // during a forking step are the feasibility checks that admitted them.
  const char* verdict = info.stepSolverQueries > 0 ? "sat" : "assumed";
  for (const uint64_t id : stepChildren_) {
    core::PathTreeNode& n = at(id);
    n.verdict = verdict;
    n.solverQueries = info.stepSolverQueries;
    n.solverMicros = info.stepSolverMicros;
  }
  stepChildren_.clear();
}

void PathForestRecorder::onDrop(uint64_t node, uint64_t pc) {
  core::PathTreeNode& n = at(node);
  n.status = "dropped";
  n.finalPc = pc;
}

void PathForestRecorder::onMerge(uint64_t host, uint64_t incoming,
                                 uint64_t pc) {
  core::PathTreeNode& n = at(incoming);
  n.status = "merged";
  n.finalPc = pc;
  n.mergedInto = host;
}

void PathForestRecorder::onPathDone(uint64_t node,
                                    const core::PathResult& r) {
  at(node).setResult(r);
}

void PathForestRecorder::writeJson(std::ostream& os) const {
  json::Writer w(os);
  w.beginObject();
  w.kv("schema", "adlsym-pathforest-v1");
  w.kv("nodes", static_cast<uint64_t>(nodes_.size()));
  w.key("forest").beginArray();
  for (const core::PathTreeNode& n : nodes_) {
    w.beginObject();
    w.kv("id", n.id);
    if (n.parent) w.kv("parent", *n.parent);
    w.kv("fork_pc", n.forkPc);
    w.kv("entry_pc", n.entryPc);
    if (!n.cond.empty()) w.kv("cond", std::string_view(n.cond));
    w.kv("verdict", std::string_view(n.verdict));
    w.kv("solver_queries", n.solverQueries);
    if (opt_.includeTiming) w.kv("solver_micros", n.solverMicros);
    w.kv("status", std::string_view(n.status));
    if (!n.truncReason.empty()) {
      w.kv("trunc_reason", std::string_view(n.truncReason));
    }
    w.kv("final_pc", n.finalPc);
    w.kv("steps", n.steps);
    w.kv("forks", n.forks);
    if (n.exitCode) w.kv("exit_code", *n.exitCode);
    if (!n.defectKind.empty()) {
      w.key("defect").beginObject();
      w.kv("kind", std::string_view(n.defectKind));
      w.kv("pc", n.defectPc);
      w.endObject();
    }
    if (!n.testInputs.empty()) {
      w.key("test").beginArray();
      for (const core::TestCase::Value& v : n.testInputs) {
        w.beginObject();
        w.kv("name", std::string_view(v.name));
        w.kv("width", v.width);
        w.kv("value", v.value);
        w.endObject();
      }
      w.endArray();
    }
    if (n.mergedInto) w.kv("merged_into", *n.mergedInto);
    w.key("children").beginArray();
    for (const uint64_t c : n.children) w.value(c);
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  os << '\n';
}

std::string PathForestRecorder::toJson() const {
  std::ostringstream os;
  writeJson(os);
  return os.str();
}

namespace {

std::string dotEscape(const std::string& s, size_t maxLen) {
  std::string out;
  for (const char c : s) {
    if (out.size() >= maxLen) {
      out += "...";
      break;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

const char* statusColor(const std::string& status) {
  if (status == "exited") return "palegreen";
  if (status == "defect" || status == "illegal") return "lightcoral";
  if (status == "dropped" || status == "infeasible") return "lightgrey";
  if (status == "merged") return "lightskyblue";
  if (status == "budget") return "khaki";
  if (status == "truncated") return "orange";
  return "white";  // open / forked (interior)
}

}  // namespace

void PathForestRecorder::writeDot(std::ostream& os) const {
  os << "digraph pathforest {\n"
     << "  node [shape=box fontname=\"monospace\" style=filled];\n";
  char buf[64];
  for (const core::PathTreeNode& n : nodes_) {
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(n.entryPc));
    std::string label = "n";
    label += std::to_string(n.id) + " @" + buf;
    label += "\\n" + n.status;
    if (n.status != "open" && n.status != "merged" && n.status != "dropped") {
      label += " steps=" + std::to_string(n.steps);
    }
    if (n.exitCode) label += " exit=" + std::to_string(*n.exitCode);
    if (!n.defectKind.empty()) label += "\\n" + n.defectKind;
    os << "  n" << n.id << " [label=\"" << label << "\" fillcolor=\""
       << statusColor(n.status) << "\"];\n";
  }
  for (const core::PathTreeNode& n : nodes_) {
    for (const uint64_t c : n.children) {
      os << "  n" << n.id << " -> n" << c;
      const std::string& cond = nodes_[c].cond;
      if (!cond.empty()) {
        os << " [label=\"" << dotEscape(cond, 48) << "\"]";
      }
      os << ";\n";
    }
  }
  for (const core::PathTreeNode& n : nodes_) {
    if (n.mergedInto) {
      os << "  n" << n.id << " -> n" << *n.mergedInto
         << " [style=dashed label=\"merge\"];\n";
    }
  }
  os << "}\n";
}

std::string PathForestRecorder::toDot() const {
  std::ostringstream os;
  writeDot(os);
  return os.str();
}

PathForestRecorder forestFromTree(std::vector<core::PathTreeNode> tree,
                                  PathForestRecorder::Options opt) {
  PathForestRecorder rec(opt);
  rec.nodes_ = std::move(tree);
  return rec;
}

}  // namespace adlsym::obs
