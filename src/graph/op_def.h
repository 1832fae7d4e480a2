// Operation definitions and the process-wide op registry. An OpDef captures
// the structural contract of an op (arity, statefulness, blocking); kernel
// implementations register separately per device type (kernels/registry.h).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/status.h"

namespace tfhpc {

struct OpDef {
  std::string name;
  int min_inputs = 0;
  int max_inputs = 0;  // -1 = variadic
  int num_outputs = 1;
  // Stateful ops read/modify resources (variables, queues, RNG) and are
  // exempt from CSE / constant folding.
  bool is_stateful = false;
  // Blocking ops (queue dequeue/enqueue on a full queue) may wait on other
  // steps; the executor gives them dedicated threads.
  bool is_blocking = false;
  // True when every kernel for the op fully overwrites its outputs, never
  // retains an input buffer, and takes its output from
  // AllocateOutput(ZeroInit::kNo) — so the memory planner may hand it an
  // uninitialized arena view (analysis/memory_plan.h).
  bool overwrites_outputs = false;
};

// Checks `data_inputs` against the op's declared [min_inputs, max_inputs]
// range. The error message carries the GraphCheck code [GC005] so every
// arity gate — Graph::AddNode, eager execution, the static verifier —
// reports the violation uniformly.
Status CheckArity(const OpDef& op, const std::string& node_name,
                  int data_inputs);

class OpRegistry {
 public:
  static OpRegistry& Global();

  Status Register(OpDef def);
  // Null if not registered.
  const OpDef* Lookup(const std::string& name) const;
  std::vector<std::string> OpNames() const;

 private:
  std::map<std::string, OpDef> ops_;
};

// Static-init helper: TFHPC_REGISTER_OP(OpDef{...});
namespace internal {
struct OpRegistrar {
  explicit OpRegistrar(OpDef def);
};
}  // namespace internal

#define TFHPC_REGISTER_OP(...)                                     \
  static ::tfhpc::internal::OpRegistrar TFHPC_CONCAT_(op_registrar_, \
                                                      __COUNTER__)(__VA_ARGS__)

}  // namespace tfhpc
