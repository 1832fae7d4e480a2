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
      executor_(devices, resources, std::move(default_device)),
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

namespace {

// Applies the GraphCheck mode to `findings`: strict mode rejects a graph
// with an ERROR finding; otherwise WARNINGs and ERRORs go to stderr.
Status ReportFindings(GraphCheckMode mode,
                      const std::vector<analysis::Diagnostic>& findings) {
  if (mode == GraphCheckMode::kOff) return Status::OK();
  if (mode == GraphCheckMode::kStrict && analysis::HasErrors(findings)) {
    return InvalidArgument("graphcheck rejected the graph:\n" +
                           analysis::FormatErrors(findings));
  }
  for (const auto& d : findings) {
    if (d.severity >= analysis::Severity::kWarning) {
      std::fprintf(stderr, "graphcheck: %s\n", d.ToString().c_str());
    }
  }
  return Status::OK();
}

}  // namespace

Session::CompileResult Session::CompileSignature(const RunSignature& sig) {
  // Snapshot version before serializing: a concurrent mutation at worst
  // stamps the plan older than the graph, which only forces a recompile.
  const int64_t version = graph_->version();
  // The session graph is held, not owned: its owner outlives the session.
  std::shared_ptr<const Graph> graph(std::shared_ptr<const Graph>(), graph_);
  const bool optimize =
      options_.optimizer_level != optimizer::OptimizerLevel::kOff;
  if (!optimize && options_.graph_check == GraphCheckMode::kOff) {
    return executor_.Compile(std::move(graph), version, sig.feeds,
                             sig.fetches, sig.targets, nullptr);
  }

  // GraphCheck (static verification + shape inference) over this
  // signature's closure, then the optimizer over a graph that verified
  // clean. Strict mode fails the compile on ERROR findings; warn mode
  // prints them. The inferred shapes feed the memory plan.
  analysis::AnalysisOptions check_opts;
  check_opts.feeds = sig.feeds;
  check_opts.fetches = sig.fetches;
  check_opts.targets = sig.targets;
  optimizer::PipelineOptions popts;
  popts.level = options_.optimizer_level;
  popts.feeds = sig.feeds;
  popts.fetches = sig.fetches;
  popts.targets = sig.targets;
  const wire::GraphDef def = graph_->ToGraphDef();
  TFHPC_ASSIGN_OR_RETURN(optimizer::CheckedGraph checked,
                         optimizer::VerifyAndOptimize(def, check_opts, popts));
  TFHPC_RETURN_IF_ERROR(ReportFindings(options_.graph_check, checked.findings));
  const wire::GraphDef& compiled = checked.rewrite ? *checked.rewrite : def;
  if (checked.rewrite) {
    TFHPC_ASSIGN_OR_RETURN(graph, Graph::FromGraphDef(compiled));
  }

  // Static memory planning over whichever GraphDef actually compiles:
  // liveness intervals + arena plan + memory lints. GC018 (static peak over
  // the session's step budget) is an ERROR — strict mode rejects here,
  // before any kernel or allocation of the step ever runs. The plan is
  // handed to Compile, which bakes arena offsets into the Executable.
  std::optional<analysis::MemoryPlan> plan;
  if (!checked.analysis.has_errors()) {
    auto live = analysis::LivenessAnalysis::Compute(compiled, check_opts,
                                                    checked.analysis.annotations);
    // A liveness failure is a structural fault GraphCheck already reported.
    if (live.ok()) {
      plan = analysis::MemoryPlan::Plan(*live);
      TFHPC_RETURN_IF_ERROR(ReportFindings(
          options_.graph_check,
          analysis::LintMemory(compiled, *live, *plan,
                               options_.step_memory_limit_bytes)));
    }
  }
  return executor_.Compile(std::move(graph), version, sig.feeds, sig.fetches,
                           sig.targets, plan ? &*plan : nullptr);
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
