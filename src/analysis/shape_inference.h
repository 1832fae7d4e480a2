// Static shape & dtype inference over GraphDef nodes. Each op registers an
// inference function (the analogue of TensorFlow's shape_fn on OpDef) that
// maps possibly-unknown input facts to output facts, rejecting provably
// incompatible operands. The verifier (analysis/verifier.h) drives these in
// topological order; fully-known results feed the static memory plan
// (analysis/memory_plan.h), which places outputs in the step arena.
//
// Unknowns are first-class: a dtype of DType::kInvalid means "not known
// statically", an InferredShape can have unknown rank or unknown extents
// (-1). Inference functions must only error on *provable* conflicts — two
// known-but-different extents, two known-but-different dtypes — never on
// missing information.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/shape.h"
#include "core/status.h"
#include "core/tensor.h"
#include "wire/messages.h"

namespace tfhpc::analysis {

// A possibly-partial shape fact: unknown rank, or known rank with extents
// where -1 marks an unknown dimension.
struct InferredShape {
  bool rank_known = false;
  std::vector<int64_t> dims;  // meaningful only when rank_known

  static InferredShape Unknown() { return {}; }
  static InferredShape Scalar() { return Of({}); }
  static InferredShape Of(std::vector<int64_t> d) {
    InferredShape s;
    s.rank_known = true;
    s.dims = std::move(d);
    return s;
  }
  static InferredShape FromShape(const Shape& shape) {
    return Of(shape.dims());
  }

  int rank() const { return static_cast<int>(dims.size()); }
  bool fully_known() const;
  // Requires fully_known().
  Shape ToShape() const { return Shape(dims); }
  // "[128, ?]", "[]" (scalar), "?" (unknown rank).
  std::string ToString() const;

  bool operator==(const InferredShape& o) const {
    return rank_known == o.rank_known && (!rank_known || dims == o.dims);
  }
};

// Unifies two facts about the same tensor's shape. Unknown rank/extents
// defer to the known side; a provable conflict (different known ranks or
// extents) is an InvalidArgument coded [GC010].
Result<InferredShape> MergeShapes(const InferredShape& a,
                                  const InferredShape& b);

// What is statically known about one tensor.
struct InferredTensor {
  DType dtype = DType::kInvalid;  // kInvalid = unknown
  InferredShape shape;

  bool fully_known() const {
    return dtype != DType::kInvalid && shape.fully_known();
  }
};

// Per-node view handed to an inference function: the NodeDef (for attrs),
// the facts about each data input in order, and output slots to fill.
// Outputs default to fully-unknown, so a function may return early.
class InferenceContext {
 public:
  InferenceContext(const wire::NodeDef* def, int num_outputs,
                   std::vector<InferredTensor> inputs)
      : def_(def), inputs_(std::move(inputs)) {
    outputs_.resize(static_cast<size_t>(num_outputs));
  }

  const wire::NodeDef& def() const { return *def_; }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  const InferredTensor& input(int i) const {
    return inputs_[static_cast<size_t>(i)];
  }

  void set_output(int i, DType dtype, InferredShape shape) {
    outputs_[static_cast<size_t>(i)] = {dtype, std::move(shape)};
  }
  const std::vector<InferredTensor>& outputs() const { return outputs_; }

  // ---- attrs (errors are [GC017]-coded) ------------------------------------
  bool HasAttr(const std::string& name) const {
    return def_->attrs.count(name) > 0;
  }
  Result<DType> TypeAttr(const std::string& name) const;
  Result<Shape> ShapeAttr(const std::string& name) const;
  Result<std::string> StringAttr(const std::string& name) const;
  Result<int64_t> IntAttr(const std::string& name) const;
  Result<bool> BoolAttr(const std::string& name) const;
  Result<double> FloatAttr(const std::string& name) const;

  // ---- coded error builders ------------------------------------------------
  Status DtypeError(const std::string& msg) const;  // [GC009]
  Status ShapeError(const std::string& msg) const;  // [GC010]
  Status AttrError(const std::string& msg) const;   // [GC017]

  // Unifies the dtypes of two data inputs; [GC009] on a provable conflict.
  Result<DType> MergeInputDtypes(int a, int b) const;

 private:
  const wire::NodeDef* def_;
  std::vector<InferredTensor> inputs_;
  std::vector<InferredTensor> outputs_;
};

// An op's inference function: reads ctx inputs/attrs, fills ctx outputs.
// Errors must carry a [GCnnn] code (use the ctx error builders).
using ShapeFn = std::function<Status(InferenceContext&)>;

class ShapeFnRegistry {
 public:
  // Pre-populated with functions for every built-in op.
  static ShapeFnRegistry& Global();

  void Register(const std::string& op, ShapeFn fn);
  // Null when the op has no inference function (outputs stay unknown).
  const ShapeFn* Lookup(const std::string& op) const;

  // Marks an op as *deliberately* dynamic: its output extents depend on
  // runtime values, no inference fn can exist, and the coverage audit must
  // not flag it. An op that is neither registered nor marked dynamic is a
  // coverage hole — its outputs silently stay unknown, which quietly
  // excludes them from the memory planner's static peak.
  void MarkDynamic(const std::string& op);
  bool IsDynamic(const std::string& op) const;

  // Coverage audit over OpRegistry::Global(): every registered op must have
  // an inference fn or be explicitly marked dynamic. Returns the uncovered
  // op names (empty = full coverage); a test pins this to empty so adding
  // an op without deciding its shape story fails CI.
  std::vector<std::string> UncoveredOps() const;

 private:
  ShapeFnRegistry();
  std::map<std::string, ShapeFn> fns_;
  std::set<std::string> dynamic_ops_;
};

}  // namespace tfhpc::analysis
