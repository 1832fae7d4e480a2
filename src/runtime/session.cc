#include "runtime/session.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "analysis/verifier.h"
#include "graph/ops.h"

namespace tfhpc {

std::string RunSignature::Key() const {
  // '\x1f' (unit separator) between elements, '\x1e' (record separator)
  // between the three lists; neither can appear in a node name.
  std::string key;
  for (const auto& f : feeds) {
    key += f;
    key += '\x1f';
  }
  key += '\x1e';
  for (const auto& f : fetches) {
    key += f;
    key += '\x1f';
  }
  key += '\x1e';
  for (const auto& t : targets) {
    key += t;
    key += '\x1f';
  }
  return key;
}

Session::Session(Graph* graph, DeviceMgr* devices, ResourceMgr* resources,
                 DeviceName default_device, SessionOptions options)
    : graph_(graph),
      executor_(graph, devices, resources, std::move(default_device)),
      options_(options) {
  if (options_.alloc_faults.enabled()) {
    AllocFaultInjector::Global().Install(options_.alloc_faults);
  }
}

Result<std::shared_ptr<const Executable>> Session::Prepare(
    const std::vector<std::string>& feed_keys,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets) {
  // Feed *names* are a set, not a sequence: normalize so callers that pass
  // them in different orders share one cache entry.
  RunSignature sig{feed_keys, fetches, targets};
  std::sort(sig.feeds.begin(), sig.feeds.end());
  const std::string key = sig.Key();

  // Set only when this caller compiles for waiters (cache hits skip the
  // promise's allocation).
  std::optional<std::promise<CompileResult>> compiled;
  for (;;) {
    std::shared_future<CompileResult> pending;
    {
      MutexLock lk(cache_mu_);
      if (max_cached_ == 0) break;
      auto it = cache_.find(key);
      if (it != cache_.end() &&
          !it->second.executable->stale(*graph_)) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second.executable;
      }
      // Single flight: when this signature is already compiling, wait for
      // that compile instead of running GraphCheck, the optimizer, the
      // planner and Compile a second time.
      auto in_flight = in_flight_.find(key);
      if (in_flight == in_flight_.end()) {
        compiled.emplace();
        in_flight_.emplace(key, compiled->get_future().share());
        break;
      }
      pending = in_flight->second;
    }
    CompileResult shared = pending.get();
    // That compile may have snapshotted the graph before a mutation this
    // caller made: go round, and compile afresh if no one else is.
    if (shared.ok() && (*shared)->stale(*graph_)) continue;
    if (shared.ok()) cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return shared;
  }

  // Miss (or stale): compile outside the cache lock — compiles can be slow
  // and concurrent Runs with other signatures must not serialize on them.
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  CompileResult result = CompileSignature(sig);
  {
    MutexLock lk(cache_mu_);
    if (compiled) in_flight_.erase(key);
    if (result.ok() && max_cached_ > 0) result = Insert(key, *result);
  }
  if (compiled) compiled->set_value(result);
  return result;
}

Session::CompileResult Session::CompileSignature(const RunSignature& sig) {
  const std::vector<std::string>& fetches = sig.fetches;
  const std::vector<std::string>& targets = sig.targets;

  // GraphCheck: static verification + shape inference for this signature's
  // closure. Strict mode fails the compile on ERROR findings; warn mode
  // prints them. Either way, the inferred shapes feed the memory plan.
  analysis::AnalysisOptions check_opts;
  check_opts.feeds = sig.feeds;
  check_opts.fetches = fetches;
  check_opts.targets = targets;

  // Static memory planning over whichever GraphDef actually compiles (the
  // session graph, or the optimizer's rewrite): liveness intervals + arena
  // plan + memory lints. GC018 (static peak over the session's step budget)
  // is an ERROR — strict mode rejects here, before any kernel or allocation
  // of the step ever runs. The plan is handed to Compile, which bakes arena
  // offsets into the Executable.
  std::unique_ptr<analysis::MemoryPlan> plan;
  auto build_plan = [&](const wire::GraphDef& gdef,
                        const analysis::GraphAnalysis& ga) -> Status {
    if (ga.has_errors()) return Status::OK();
    auto live = analysis::LivenessAnalysis::Compute(gdef, check_opts,
                                                    ga.annotations);
    if (!live.ok()) return Status::OK();  // structural issues: already linted
    analysis::MemoryPlan planned = analysis::MemoryPlan::Plan(*live);
    std::vector<analysis::Diagnostic> lints = analysis::LintMemory(
        gdef, *live, planned, options_.step_memory_limit_bytes);
    if (options_.graph_check != GraphCheckMode::kOff) {
      if (analysis::HasErrors(lints) &&
          options_.graph_check == GraphCheckMode::kStrict) {
        std::vector<analysis::Diagnostic> errors;
        for (const auto& d : lints) {
          if (d.severity == analysis::Severity::kError) errors.push_back(d);
        }
        return InvalidArgument("graphcheck rejected the graph:\n" +
                               analysis::FormatDiagnostics(errors));
      }
      for (const auto& d : lints) {
        if (d.severity >= analysis::Severity::kWarning) {
          std::fprintf(stderr, "graphcheck: %s\n", d.ToString().c_str());
        }
      }
    }
    plan = std::make_unique<analysis::MemoryPlan>(std::move(planned));
    return Status::OK();
  };

  const bool optimize =
      options_.optimizer_level != optimizer::OptimizerLevel::kOff;
  std::shared_ptr<const Executable> exe;
  if (optimize || options_.graph_check != GraphCheckMode::kOff) {
    // Snapshot version before serializing: a concurrent mutation at worst
    // stamps the plan older than the graph, which only forces a recompile.
    const int64_t version = graph_->version();
    const wire::GraphDef def = graph_->ToGraphDef();
    analysis::GraphAnalysis analysis = analysis::VerifyGraph(def, check_opts);
    if (options_.graph_check != GraphCheckMode::kOff) {
      if (analysis.has_errors() &&
          options_.graph_check == GraphCheckMode::kStrict) {
        std::vector<analysis::Diagnostic> errors;
        for (const auto& d : analysis.diagnostics) {
          if (d.severity == analysis::Severity::kError) errors.push_back(d);
        }
        return InvalidArgument("graphcheck rejected the graph:\n" +
                               analysis::FormatDiagnostics(errors));
      }
      for (const auto& d : analysis.diagnostics) {
        if (d.severity >= analysis::Severity::kWarning) {
          std::fprintf(stderr, "graphcheck: %s\n", d.ToString().c_str());
        }
      }
    }

    // Optimize only graphs the verifier accepted: pass preconditions assume
    // a well-formed input, and the post-pass re-verification below must be
    // able to blame the optimizer, not pre-existing breakage.
    if (optimize && !analysis.has_errors()) {
      optimizer::PipelineOptions popts;
      popts.level = options_.optimizer_level;
      popts.feeds = sig.feeds;
      popts.fetches = fetches;
      popts.targets = targets;
      TFHPC_ASSIGN_OR_RETURN(optimizer::PipelineResult rewritten,
                             optimizer::RunPassPipeline(def, popts));
      // The regression oracle: every pipeline output must re-verify. A
      // failure here is an optimizer bug and fails the compile — it must
      // never execute as a silently wrong plan.
      analysis::GraphAnalysis post =
          analysis::VerifyGraph(rewritten.graph, check_opts);
      if (post.has_errors()) {
        std::vector<analysis::Diagnostic> errors;
        for (const auto& d : post.diagnostics) {
          if (d.severity == analysis::Severity::kError) errors.push_back(d);
        }
        return Internal(
            std::string("optimizer produced an invalid graph (level ") +
            optimizer::OptimizerLevelName(options_.optimizer_level) + "):\n" +
            analysis::FormatDiagnostics(errors));
      }
      TFHPC_RETURN_IF_ERROR(build_plan(rewritten.graph, post));
      TFHPC_ASSIGN_OR_RETURN(std::unique_ptr<Graph> rewritten_graph,
                             Graph::FromGraphDef(rewritten.graph));
      TFHPC_ASSIGN_OR_RETURN(
          exe, executor_.CompileGraph(
                   std::shared_ptr<const Graph>(std::move(rewritten_graph)),
                   version, sig.feeds, fetches, targets, plan.get()));
    } else {
      TFHPC_RETURN_IF_ERROR(build_plan(def, analysis));
    }
  }
  if (exe == nullptr) {
    TFHPC_ASSIGN_OR_RETURN(
        exe, executor_.Compile(sig.feeds, fetches, targets, plan.get()));
  }
  return exe;
}

std::shared_ptr<const Executable> Session::Insert(
    const std::string& key, std::shared_ptr<const Executable> exe) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // Either a stale entry we are replacing, or a compile that ran while
    // caching was off; the freshest graph version wins.
    if (it->second.executable->graph_version() >= exe->graph_version()) {
      return it->second.executable;
    }
    it->second.executable = exe;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return exe;
  }
  while (cache_.size() >= max_cached_ && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  cache_.emplace(key, CacheEntry{exe, lru_.begin()});
  return exe;
}

Result<std::vector<Tensor>> Session::RunPrepared(
    const Executable& executable, const std::map<std::string, Tensor>& feeds,
    const RunOptions& options, RunMetadata* metadata) {
  RunOptions effective = options;
  if (effective.step_memory_limit_bytes == 0) {
    effective.step_memory_limit_bytes = options_.step_memory_limit_bytes;
  }
  auto r = executor_.Execute(executable, feeds, effective, metadata);
  if (r.ok()) {
    nodes_executed_.fetch_add(executable.num_scheduled_nodes(),
                              std::memory_order_relaxed);
  }
  return r;
}

Result<std::vector<Tensor>> Session::Run(
    const std::map<std::string, Tensor>& feeds,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets, const RunOptions& options,
    RunMetadata* metadata) {
  std::vector<std::string> feed_keys;
  feed_keys.reserve(feeds.size());
  for (const auto& [key, tensor] : feeds) feed_keys.push_back(key);
  TFHPC_ASSIGN_OR_RETURN(std::shared_ptr<const Executable> exe,
                         Prepare(feed_keys, fetches, targets));
  return RunPrepared(*exe, feeds, options, metadata);
}

Result<std::string> Session::DevicePlacement(const std::string& node_name) {
  const Node* n = graph_->FindNode(node_name);
  if (n == nullptr) return NotFound("node '" + node_name + "' not found");
  TFHPC_ASSIGN_OR_RETURN(Device * d, executor_.PlaceNode(*n));
  return d->name_string();
}

size_t Session::executable_cache_size() const {
  MutexLock lk(cache_mu_);
  return cache_.size();
}

void Session::set_max_cached_executables(size_t n) {
  MutexLock lk(cache_mu_);
  max_cached_ = n;
  while (cache_.size() > max_cached_ && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

LocalRuntime::LocalRuntime(int num_gpus, ComputeModel gpu_model)
    : devices_(DeviceMgr::CreateLocal("localhost", 0, num_gpus,
                                      std::move(gpu_model))) {}

std::unique_ptr<Session> LocalRuntime::NewSession(SessionOptions options) {
  DeviceName default_device;
  default_device.job = "localhost";
  default_device.task = 0;
  return std::make_unique<Session>(&graph_, devices_.get(), &resources_,
                                   default_device, options);
}

}  // namespace tfhpc
