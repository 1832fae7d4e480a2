#include "runtime/executor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <set>
#include <thread>

#include "core/threadpool.h"

namespace tfhpc {
namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string FormatDebugReport(const RunMetadata& metadata) {
  std::ostringstream os;
  for (const auto& n : metadata.nodes) {
    os << n.name << " (" << n.op << ") @" << n.device << "\n";
    for (size_t i = 0; i < n.output_summaries.size(); ++i) {
      os << "  out[" << i << "]: " << n.output_summaries[i].ToString() << "\n";
    }
  }
  return os.str();
}

Executor::Executor(DeviceMgr* devices, ResourceMgr* resources,
                   DeviceName default_device)
    : devices_(devices),
      resources_(resources),
      default_device_(std::move(default_device)) {}

Result<Device*> Executor::PlaceNode(const Node& node) {
  TFHPC_ASSIGN_OR_RETURN(DeviceName requested,
                         DeviceName::Parse(node.requested_device()));
  DeviceName resolved = requested.MergedWith(default_device_);
  auto& registry = KernelRegistry::Global();

  Device* device = nullptr;
  if (!resolved.type.empty()) {
    device = devices_->Find(resolved);
    // Soft placement (paper §II): an op pinned to a device with no kernel or
    // no such device falls back to a supporting device instead of failing.
    if (device == nullptr || !registry.HasKernel(node.op(), resolved.type)) {
      DeviceName fallback = resolved;
      fallback.type = resolved.type == "gpu" ? "cpu" : "gpu";
      fallback.index = -1;  // any index
      Device* alt = devices_->Find(fallback);
      if (alt != nullptr && registry.HasKernel(node.op(), fallback.type)) {
        device = alt;
      }
    }
  } else {
    // Simple device placement: prefer the first GPU when the op has a GPU
    // kernel, else the CPU.
    DeviceName gpu = resolved;
    gpu.type = "gpu";
    gpu.index = -1;
    DeviceName cpu = resolved;
    cpu.type = "cpu";
    cpu.index = -1;
    if (registry.HasKernel(node.op(), "gpu") &&
        devices_->Find(gpu) != nullptr) {
      device = devices_->Find(gpu);
    } else if (registry.HasKernel(node.op(), "cpu")) {
      device = devices_->Find(cpu);
    }
  }

  if (device == nullptr) {
    return NotFound("no suitable device for node '" + node.name() + "' (op " +
                    node.op() + ", requested '" + node.requested_device() +
                    "')");
  }
  return device;
}

Result<std::shared_ptr<const Executable>> Executor::Compile(
    std::shared_ptr<const Graph> graph, int64_t graph_version,
    const std::vector<std::string>& feed_keys,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets,
    const analysis::MemoryPlan* memory_plan) {
  // ---- Closure computation, with feeds acting as graph cut points. -------
  std::set<std::string> fed_names;
  for (const std::string& key : feed_keys) {
    TensorRef ref = ParseTensorRef(key);
    if (ref.slot < 0 || ref.control) {
      return InvalidArgument("malformed feed key '" + key +
                             "' (a control reference is not a tensor)");
    }
    fed_names.insert(std::move(ref.name));
  }
  std::vector<std::string> roots = fetches;
  roots.insert(roots.end(), targets.begin(), targets.end());
  if (roots.empty()) return InvalidArgument("Run with no fetches or targets");
  TFHPC_ASSIGN_OR_RETURN(const std::vector<int> closure,
                         graph->ReachableTo(roots, fed_names));

  // ---- Bake flat tables. Node ids are topological (construction order),
  // and the closure lists them ascending, so dense indexes are topological
  // too.
  const Graph& g = *graph;
  auto exe = std::make_shared<Executable>();
  exe->graph_version_ = graph_version;
  exe->graph_ = std::move(graph);
  exe->nodes_.reserve(closure.size());
  std::map<int, int> dense;  // node id -> index into exe->nodes_
  for (int id : closure) {
    dense.emplace(id, static_cast<int>(exe->nodes_.size()));
    Executable::CompiledNode cn;
    cn.node = g.node(id);
    cn.fed = fed_names.count(cn.node->name()) > 0;
    cn.blocking = cn.node->op_def().is_blocking;
    cn.num_outputs = std::max(1, cn.node->op_def().num_outputs);
    for (const InEdge& e : cn.node->in_edges()) {
      cn.input_names.push_back(g.node(e.node_id)->name());
    }
    exe->nodes_.push_back(std::move(cn));
  }

  for (auto& cn : exe->nodes_) {
    if (cn.fed) continue;
    for (const InEdge& e : cn.node->in_edges()) {
      const int producer = dense.at(e.node_id);
      if (!e.control) cn.data_inputs.emplace_back(producer, e.output_index);
      // Fed producers complete before the step starts; they neither gate
      // readiness nor notify consumers.
      if (exe->nodes_[static_cast<size_t>(producer)].fed) continue;
      cn.initial_pending++;
    }
  }
  for (size_t i = 0; i < exe->nodes_.size(); ++i) {
    const auto& cn = exe->nodes_[i];
    if (cn.fed) continue;
    for (const InEdge& e : cn.node->in_edges()) {
      const int producer = dense.at(e.node_id);
      if (exe->nodes_[static_cast<size_t>(producer)].fed) continue;
      exe->nodes_[static_cast<size_t>(producer)].consumers.push_back(
          static_cast<int>(i));
    }
  }
  for (size_t i = 0; i < exe->nodes_.size(); ++i) {
    if (exe->nodes_[i].fed) continue;
    exe->num_scheduled_++;
    if (exe->nodes_[i].initial_pending == 0) {
      exe->initial_ready_.push_back(static_cast<int>(i));
    }
  }

  // ---- Placement + kernel instantiation for every scheduled node. --------
  for (auto& cn : exe->nodes_) {
    if (cn.fed) continue;
    TFHPC_ASSIGN_OR_RETURN(cn.device, PlaceNode(*cn.node));
    TFHPC_ASSIGN_OR_RETURN(cn.kernel, KernelRegistry::Global().Create(
                                          cn.node->op(), cn.device->type()));
    // Bind this node's output to its arena placement when the memory plan
    // covers it (the planner only places single-output nodes).
    const analysis::PlannedTensor* pt =
        memory_plan != nullptr ? memory_plan->Find(cn.node->name(), 0)
                               : nullptr;
    if (pt != nullptr) {
      cn.planned = *pt;
      exe->num_planned_++;
      if (exe->arena_device_ == nullptr) exe->arena_device_ = cn.device;
    }
  }
  if (memory_plan != nullptr) {
    exe->static_peak_bytes_ = memory_plan->static_peak_bytes();
    // Only pay for the arena when something actually landed in it.
    if (exe->num_planned_ > 0) {
      exe->arena_bytes_ = memory_plan->arena_bytes();
    }
  }

  // ---- Feed/fetch bindings. ----------------------------------------------
  for (const std::string& key : feed_keys) {
    const TensorRef ref = ParseTensorRef(key);
    const Node* n = g.FindNode(ref.name);
    if (n == nullptr) continue;  // feeding an unknown node: ignored
    auto it = dense.find(n->id());
    if (it == dense.end()) continue;  // pruned from the closure: ignored
    if (ref.slot >= exe->nodes_[static_cast<size_t>(it->second)].num_outputs) {
      return OutOfRange("feed slot out of range: " + key);
    }
    exe->feed_bindings_.push_back({key, it->second, ref.slot});
  }
  // A fetch slot past the producer's outputs fails here, before the step
  // runs, so no stateful target in the same Run has applied.
  for (const std::string& f : fetches) {
    const TensorRef ref = ParseTensorRef(f);
    const Node* n = g.FindNode(ref.name);
    TFHPC_CHECK(n != nullptr);  // was a closure root
    const int index = dense.at(n->id());
    if (ref.slot >= exe->nodes_[static_cast<size_t>(index)].num_outputs) {
      return OutOfRange("fetch slot out of range: " + f);
    }
    exe->fetch_bindings_.push_back({f, index, ref.slot});
  }
  exe->fetch_keys_ = fetches;

  // ---- Output use counts (for move-on-last-use). ---------------------------
  exe->output_uses_.resize(exe->nodes_.size());
  for (size_t i = 0; i < exe->nodes_.size(); ++i) {
    exe->output_uses_[i].assign(
        static_cast<size_t>(exe->nodes_[i].num_outputs), 0);
  }
  for (const auto& cn : exe->nodes_) {
    if (cn.fed) continue;
    for (const auto& [producer, slot] : cn.data_inputs) {
      auto& uses = exe->output_uses_[static_cast<size_t>(producer)];
      if (static_cast<size_t>(slot) < uses.size()) {
        uses[static_cast<size_t>(slot)]++;
      }
    }
  }
  for (const auto& fb : exe->fetch_bindings_) {
    auto& uses = exe->output_uses_[static_cast<size_t>(fb.node_index)];
    if (static_cast<size_t>(fb.slot) < uses.size()) {
      uses[static_cast<size_t>(fb.slot)]++;
    }
  }
  return std::shared_ptr<const Executable>(std::move(exe));
}

Result<std::vector<Tensor>> Executor::Execute(
    const Executable& exe, const std::map<std::string, Tensor>& feeds,
    const RunOptions& options, RunMetadata* metadata) {
  const size_t n_nodes = exe.nodes_.size();

  // Effective cancellation token: the caller's token, tightened by
  // timeout_ms; or a step-local token when only a timeout was given.
  CancellationToken* token = options.cancellation;
  std::shared_ptr<CancellationToken> owned_token;
  if (options.timeout_ms > 0) {
    if (token == nullptr) {
      owned_token = CancellationToken::WithTimeout(options.timeout_ms);
      token = owned_token.get();
    } else {
      token->TightenDeadline(CancellationToken::Clock::now() +
                             std::chrono::milliseconds(options.timeout_ms));
    }
  }
  if (token != nullptr) {
    Status admitted = token->Check();
    if (!admitted.ok()) return admitted;  // refuse already-dead steps
  }

  // Per-step memory budget: shared with every buffer the step allocates, so
  // the reservation releases exactly when the memory does — including
  // fetched tensors that outlive this call.
  std::shared_ptr<MemoryLimiter> step_limiter;
  if (options.step_memory_limit_bytes > 0) {
    step_limiter = std::make_shared<MemoryLimiter>(
        options.step_memory_limit_bytes, "step memory");
  }

  // Memory-planned steps allocate the whole arena up front — one pooled
  // allocation (charged to the step budget by its full extent) that every
  // planned node's output is carved out of as a zero-cost view. Failure
  // here is a clean pre-step rejection with the usual OOM taxonomy.
  std::shared_ptr<Buffer> arena;
  if (exe.arena_bytes_ > 0) {
    auto arena_or = Buffer::TryAllocate(
        static_cast<size_t>(exe.arena_bytes_),
        exe.arena_device_ != nullptr ? exe.arena_device_->allocator_stats()
                                     : nullptr,
        ZeroInit::kNo, step_limiter);
    if (!arena_or.ok()) {
      return Status(arena_or.status().code(),
                    "step arena (" + std::to_string(exe.arena_bytes_) +
                        " bytes): " + arena_or.status().message());
    }
    arena = std::move(*arena_or);
  }

  // ---- Dataflow state: flat, pre-sized, no map lookups on the hot path. --
  std::vector<int> pending(n_nodes);
  for (size_t i = 0; i < n_nodes; ++i) pending[i] = exe.nodes_[i].initial_pending;
  std::vector<std::vector<Tensor>> outputs(n_nodes);
  std::vector<char> has_output(n_nodes, 0);
  // Step-local countdown of output references (guarded by mu, like outputs).
  std::vector<std::vector<int>> uses = exe.output_uses_;

  std::mutex mu;
  std::condition_variable done_cv;
  std::deque<int> ready(exe.initial_ready_.begin(), exe.initial_ready_.end());
  int remaining = static_cast<int>(n_nodes);
  int inflight = 0;  // scheduled but not yet finished
  Status first_error;
  bool stop = false;
  std::vector<std::thread> blocking_threads;
  // Only NodeExecRecord reads the clock, so an untraced step never does.
  const bool trace = options.trace || options.debug;
  const double step_start_us = trace ? NowUs() : 0;

  // Seed fed nodes: their outputs come straight from the feed tensors; the
  // compiled pending counts already exclude fed producers.
  for (size_t i = 0; i < n_nodes; ++i) {
    if (!exe.nodes_[i].fed) continue;
    outputs[i].resize(static_cast<size_t>(exe.nodes_[i].num_outputs));
    has_output[i] = 1;
    remaining--;
  }
  for (const auto& fb : exe.feed_bindings_) {
    auto it = feeds.find(fb.key);
    if (it == feeds.end()) {
      return InvalidArgument("compiled signature expects feed '" + fb.key +
                             "' but it was not supplied");
    }
    outputs[static_cast<size_t>(fb.node_index)][static_cast<size_t>(fb.slot)] =
        it->second;
  }

  // Executes one node, then marks consumers ready.
  auto execute_node = [&](int idx) {
    const Executable::CompiledNode& cn = exe.nodes_[static_cast<size_t>(idx)];
    const Node* n = cn.node;
    Status status;
    std::vector<Tensor> node_outputs;
    NodeExecRecord record;

    do {
      // Gather inputs from the precompiled (producer, slot) table.
      std::vector<Tensor> inputs;
      inputs.reserve(cn.data_inputs.size());
      {
        std::lock_guard<std::mutex> lk(mu);
        for (const auto& [producer, slot] : cn.data_inputs) {
          TFHPC_CHECK(has_output[static_cast<size_t>(producer)]);
          Tensor& src =
              outputs[static_cast<size_t>(producer)][static_cast<size_t>(slot)];
          // The final reader takes the tensor by move: with the executor's
          // reference gone, a pooled buffer returns to the pool as soon as
          // that kernel is done with it, not at step end.
          if (--uses[static_cast<size_t>(producer)][static_cast<size_t>(slot)] ==
              0) {
            inputs.push_back(std::move(src));
          } else {
            inputs.push_back(src);
          }
        }
      }

      OpKernelContext ctx(n, std::move(inputs), resources_,
                          cn.device->allocator_stats());
      ctx.set_cancellation(token);
      ctx.set_step_limiter(step_limiter);
      if (cn.planned && arena != nullptr) {
        // Planned output: a view into the step arena at the offset the plan
        // proved dead by this node's turn. No allocation and no budget
        // charge (the arena block carries it); in-place reuse, if safe, is
        // already encoded in the offsets.
        const analysis::PlannedTensor& pt = *cn.planned;
        ctx.set_planned_output(Tensor::FromBuffer(
            pt.dtype, pt.shape,
            Buffer::CreateView(arena, static_cast<size_t>(pt.offset),
                               static_cast<size_t>(pt.bytes))));
      }
      const CostEstimate cost = cn.kernel->Cost(ctx);
      status = cn.device->CheckCapacity(cost.bytes_written);
      if (!status.ok()) break;

      if (trace) {
        record.name = n->name();
        record.op = n->op();
        record.device = cn.device->name_string();
        record.cost = cost;
        // Precompiled names: trace must not walk the Graph here — another
        // session thread may be extending it concurrently.
        record.input_names = cn.input_names;
        record.start_us = NowUs() - step_start_us;
      }

      status = cn.kernel->Compute(&ctx);
      if (trace) record.end_us = NowUs() - step_start_us;
      node_outputs = std::move(ctx.outputs());
      if (options.debug && status.ok()) {
        for (const Tensor& out : node_outputs) {
          record.output_summaries.push_back(SummarizeTensor(out));
        }
      }
    } while (false);

    std::lock_guard<std::mutex> lk(mu);
    if (!status.ok()) {
      if (first_error.ok()) {
        first_error = Status(status.code(),
                             "node '" + n->name() + "' (op " + n->op() +
                                 "): " + status.message());
      }
      stop = true;
    } else {
      outputs[static_cast<size_t>(idx)] = std::move(node_outputs);
      has_output[static_cast<size_t>(idx)] = 1;
      if (trace && metadata != nullptr) {
        metadata->nodes.push_back(std::move(record));
      }
      if (!stop) {
        for (int consumer : cn.consumers) {
          if (--pending[static_cast<size_t>(consumer)] == 0) {
            ready.push_back(consumer);
          }
        }
      }
    }
    remaining--;
    inflight--;
    done_cv.notify_all();
  };

  // ---- Scheduling loop -------------------------------------------------------
  // A cancel only has to wake this loop: the dispatch check below turns it
  // into first_error and stops scheduling. Blocked kernels wake through
  // their own token registrations.
  CancelCallback wake_scheduler(token, [&] {
    std::lock_guard<std::mutex> lk(mu);
    done_cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      // Dispatch-time cancellation/deadline check — a cancelled step stops
      // scheduling new nodes; in-flight ones finish or fail on their own.
      if (!stop && token != nullptr) {
        Status ts = token->Check();
        if (!ts.ok()) {
          if (first_error.ok()) first_error = ts;
          stop = true;
        }
      }
      while (!ready.empty() && !stop) {
        const int idx = ready.front();
        ready.pop_front();
        ++inflight;
        if (exe.nodes_[static_cast<size_t>(idx)].blocking) {
          blocking_threads.emplace_back(
              [&execute_node, idx] { execute_node(idx); });
        } else if (exe.num_scheduled_ == 1) {
          // A one-node step runs on the caller's thread: the pool would add
          // a hand-off and a wake-up, and queue the node behind other
          // steps' kernel chunks.
          lk.unlock();
          execute_node(idx);
          lk.lock();
        } else {
          ThreadPool::Global().Schedule(
              [&execute_node, idx] { execute_node(idx); });
        }
      }
      if (stop) ready.clear();  // error path: drop not-yet-started nodes
      if (remaining == 0) break;
      // On error, wait only for in-flight work; nodes whose inputs will
      // never materialize are abandoned.
      if (stop && inflight == 0) break;
      done_cv.wait(lk, [&] {
        return remaining == 0 || !ready.empty() || (stop && inflight == 0);
      });
    }
  }
  for (auto& t : blocking_threads) t.join();

  if (metadata != nullptr && step_limiter != nullptr) {
    metadata->step_peak_bytes = step_limiter->peak();
  }
  if (!first_error.ok()) return first_error;

  // ---- Fetch extraction --------------------------------------------------------
  std::vector<Tensor> results;
  results.reserve(exe.fetch_bindings_.size());
  std::lock_guard<std::mutex> lk(mu);
  for (const auto& fb : exe.fetch_bindings_) {
    const auto& outs = outputs[static_cast<size_t>(fb.node_index)];
    if (!has_output[static_cast<size_t>(fb.node_index)] ||
        fb.slot >= static_cast<int>(outs.size())) {
      return Internal("fetch '" + fb.key + "' produced no value");
    }
    const Tensor& t = outs[static_cast<size_t>(fb.slot)];
    if (!t.valid()) {
      return InvalidArgument("fetch '" + fb.key + "' is a zero-output op");
    }
    results.push_back(t);
  }
  // Fetched tensors leave the executor here and may outlive the runtime
  // (and thus the devices whose AllocatorStats their buffers point at).
  // Drop the output table's references first so purely-computed results
  // detach in place; anything still aliasing device-resident state (a
  // variable, a duplicated fetch) gets an unattributed copy instead.
  outputs.clear();
  for (Tensor& t : results) t.DetachFromAllocator();
  return results;
}

}  // namespace tfhpc
