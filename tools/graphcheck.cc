// graphcheck: lints serialized wire::GraphDef files with the GraphCheck
// static analyzer (src/analysis). Whole-graph mode — every diagnostic layer
// runs, including dead-node analysis.
//
//   graphcheck [--optimize=off|basic|aggressive] [--memory[=budget]]
//              graph.pb [more.pb ...]
//
// With --optimize=<level> (other than off), the optimizer pipeline
// (src/optimizer) runs over each clean graph in whole-graph mode, per-pass
// node/edge deltas are printed, and the OPTIMIZED graph is re-verified — an
// ERROR there means an optimizer bug and exits 2, same as an invalid input.
//
// With --memory (optionally --memory=<budget bytes>), each structurally
// clean graph additionally gets the static memory report: liveness
// intervals + arena plan (analysis/liveness.h, memory_plan.h), the
// per-node waterline table, and the memory lints GC018/GC019/GC020. A
// GC018 budget breach (static peak > budget) exits 1 — the graph is valid,
// it just cannot fit — distinct from exit 2 (invalid graph).
//
// Exit code: 2 if any file has ERROR findings, 1 if the worst finding is a
// WARNING (or a --memory budget breach), 0 when every file is clean (INFO
// findings do not affect the exit code). The ci.sh graphcheck leg relies
// on these codes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/liveness.h"
#include "analysis/memory_plan.h"
#include "analysis/verifier.h"
#include "optimizer/optimizer.h"

namespace {

// Runs the pipeline over a graph that passed verification, reports each
// pass's effect, and re-verifies the result. Returns the exit code for this
// stage (0 clean, 2 on an optimizer bug).
int OptimizeAndRecheck(const std::string& path, const tfhpc::wire::GraphDef& def,
                       tfhpc::optimizer::OptimizerLevel level) {
  tfhpc::optimizer::PipelineOptions opts;
  opts.level = level;
  auto result = tfhpc::optimizer::RunPassPipeline(def, opts);
  if (!result.ok()) {
    std::fprintf(stderr, "graphcheck: %s: optimizer failed: %s\n",
                 path.c_str(), result.status().ToString().c_str());
    return 2;
  }
  for (const auto& p : result->passes) {
    std::printf("%s: optimize[%s]: nodes %d -> %d, edges %d -> %d (%d changed)\n",
                path.c_str(), p.name.c_str(), p.nodes_before, p.nodes_after,
                p.edges_before, p.edges_after, p.changed);
  }
  const tfhpc::analysis::GraphAnalysis post =
      tfhpc::analysis::VerifyGraph(result->graph);
  int rc = 0;
  for (const auto& d : post.diagnostics) {
    if (d.severity != tfhpc::analysis::Severity::kError) continue;
    std::printf("%s: optimized: %s\n", path.c_str(), d.ToString().c_str());
    rc = 2;
  }
  if (rc != 0) {
    std::fprintf(stderr,
                 "graphcheck: %s: optimizer produced an invalid graph\n",
                 path.c_str());
  }
  return rc;
}

// Static memory report for a graph that verified without errors: waterline
// table, plan summary, and memory lints. Returns the exit code for this
// stage: 1 when GC018 fires (static peak over budget), 0 otherwise.
int ReportMemory(const std::string& path, const tfhpc::wire::GraphDef& def,
                 const tfhpc::analysis::GraphAnalysis& analysis,
                 int64_t budget_bytes) {
  namespace an = tfhpc::analysis;
  auto live = an::LivenessAnalysis::Compute(def, an::AnalysisOptions{},
                                            analysis.annotations);
  if (!live.ok()) {
    std::fprintf(stderr, "graphcheck: %s: liveness analysis failed: %s\n",
                 path.c_str(), live.status().ToString().c_str());
    return 1;
  }
  const an::MemoryPlan plan = an::MemoryPlan::Plan(*live);
  std::printf("%s: memory plan:\n%s", path.c_str(),
              plan.ToString(*live).c_str());
  if (budget_bytes > 0) {
    std::printf("%s: budget %lld bytes, static peak %lld bytes (%s)\n",
                path.c_str(), static_cast<long long>(budget_bytes),
                static_cast<long long>(plan.static_peak_bytes()),
                plan.static_peak_bytes() > budget_bytes ? "OVER" : "fits");
  }
  int rc = 0;
  for (const auto& d : an::LintMemory(def, *live, plan, budget_bytes)) {
    std::printf("%s: %s\n", path.c_str(), d.ToString().c_str());
    if (d.code == "GC018") rc = 1;
  }
  return rc;
}

int CheckFile(const std::string& path, tfhpc::optimizer::OptimizerLevel level,
              bool memory, int64_t memory_budget) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "graphcheck: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  auto parsed = tfhpc::wire::GraphDef::Parse(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "graphcheck: %s: not a serialized GraphDef: %s\n",
                 path.c_str(), parsed.status().ToString().c_str());
    return 2;
  }

  const tfhpc::analysis::GraphAnalysis analysis =
      tfhpc::analysis::VerifyGraph(*parsed);
  int rc = 0;
  for (const auto& d : analysis.diagnostics) {
    std::printf("%s: %s\n", path.c_str(), d.ToString().c_str());
    if (d.severity == tfhpc::analysis::Severity::kError) {
      rc = 2;
    } else if (d.severity == tfhpc::analysis::Severity::kWarning && rc < 2) {
      rc = 1;
    }
  }
  std::printf("%s: %zu node(s), %zu finding(s)\n", path.c_str(),
              parsed->nodes.size(), analysis.diagnostics.size());

  // Only optimize graphs that verified without errors: pass preconditions
  // assume a well-formed input, and the post-pass check must be able to
  // blame the optimizer alone.
  if (level != tfhpc::optimizer::OptimizerLevel::kOff && rc < 2) {
    const int opt_rc = OptimizeAndRecheck(path, *parsed, level);
    if (opt_rc > rc) rc = opt_rc;
  }

  // Memory report only for structurally clean graphs: liveness needs
  // resolvable edges and an acyclic schedule.
  if (memory && rc < 2) {
    const int mem_rc = ReportMemory(path, *parsed, analysis, memory_budget);
    if (mem_rc > rc) rc = mem_rc;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  tfhpc::optimizer::OptimizerLevel level =
      tfhpc::optimizer::OptimizerLevel::kOff;
  bool memory = false;
  int64_t memory_budget = 0;  // 0 = report only, no GC018
  int first_file = 1;
  for (; first_file < argc; ++first_file) {
    const char* arg = argv[first_file];
    if (std::strncmp(arg, "--optimize=", 11) == 0) {
      auto parsed = tfhpc::optimizer::ParseOptimizerLevel(arg + 11);
      if (!parsed.ok()) {
        std::fprintf(stderr, "graphcheck: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      level = *parsed;
    } else if (std::strcmp(arg, "--memory") == 0) {
      memory = true;
    } else if (std::strncmp(arg, "--memory=", 9) == 0) {
      memory = true;
      char* end = nullptr;
      memory_budget = std::strtoll(arg + 9, &end, 10);
      if (end == arg + 9 || *end != '\0' || memory_budget < 0) {
        std::fprintf(stderr, "graphcheck: bad --memory budget '%s'\n",
                     arg + 9);
        return 2;
      }
    } else {
      break;  // first non-flag argument: the file list starts here
    }
  }
  if (argc <= first_file) {
    std::fprintf(stderr,
                 "usage: graphcheck [--optimize=off|basic|aggressive] "
                 "[--memory[=budget-bytes]] <graphdef-file> [...]\n");
    return 2;
  }
  int rc = 0;
  for (int i = first_file; i < argc; ++i) {
    const int file_rc = CheckFile(argv[i], level, memory, memory_budget);
    if (file_rc > rc) rc = file_rc;
  }
  return rc;
}
