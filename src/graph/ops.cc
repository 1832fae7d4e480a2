#include "graph/ops.h"

namespace tfhpc {

// Structural op definitions. Kernels register per-device implementations in
// src/kernels; both must stay in sync with this table.
TFHPC_REGISTER_OP(OpDef{.name = "Const", .min_inputs = 0, .max_inputs = 0});
TFHPC_REGISTER_OP(OpDef{.name = "Placeholder",
                        .min_inputs = 0,
                        .max_inputs = 0});
TFHPC_REGISTER_OP(OpDef{
    .name = "RandomUniform", .min_inputs = 0, .max_inputs = 0, .is_stateful = true});
TFHPC_REGISTER_OP(OpDef{
    .name = "Variable", .min_inputs = 0, .max_inputs = 0, .is_stateful = true});
TFHPC_REGISTER_OP(OpDef{
    .name = "Assign", .min_inputs = 1, .max_inputs = 1, .is_stateful = true});
TFHPC_REGISTER_OP(OpDef{
    .name = "AssignAdd", .min_inputs = 1, .max_inputs = 1, .is_stateful = true});
TFHPC_REGISTER_OP(OpDef{.name = "MatMul",
                        .min_inputs = 2,
                        .max_inputs = 2,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "MatVec",
                        .min_inputs = 2,
                        .max_inputs = 2,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Add",
                        .min_inputs = 2,
                        .max_inputs = 2,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Sub",
                        .min_inputs = 2,
                        .max_inputs = 2,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Mul",
                        .min_inputs = 2,
                        .max_inputs = 2,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Div",
                        .min_inputs = 2,
                        .max_inputs = 2,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Dot",
                        .min_inputs = 2,
                        .max_inputs = 2,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "ReduceSum",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Sqrt",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Axpy",
                        .min_inputs = 3,
                        .max_inputs = 3,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "FFT",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Identity", .min_inputs = 1, .max_inputs = 1});
TFHPC_REGISTER_OP(OpDef{.name = "Transpose",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Slice",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Concat",
                        .min_inputs = 1,
                        .max_inputs = -1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Cast",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Neg",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "ReduceMax",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "ReduceMin",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "ReduceMean",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "Fill",
                        .min_inputs = 0,
                        .max_inputs = 0,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{.name = "ZerosLike", .min_inputs = 1, .max_inputs = 1});
// Optimizer-generated elementwise chain (src/optimizer/fusion.cc); variadic
// inputs are the chain's distinct external operands.
TFHPC_REGISTER_OP(OpDef{.name = "FusedElementwise",
                        .min_inputs = 1,
                        .max_inputs = -1,
                        .overwrites_outputs = true});
TFHPC_REGISTER_OP(OpDef{
    .name = "NoOp", .min_inputs = 0, .max_inputs = 0, .num_outputs = 0});
TFHPC_REGISTER_OP(OpDef{.name = "QueueEnqueue",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .num_outputs = 0,
                        .is_stateful = true,
                        .is_blocking = true});
TFHPC_REGISTER_OP(OpDef{.name = "_Send",
                        .min_inputs = 1,
                        .max_inputs = 1,
                        .num_outputs = 0,
                        .is_stateful = true,
                        .is_blocking = true});
TFHPC_REGISTER_OP(OpDef{.name = "_Recv",
                        .min_inputs = 0,
                        .max_inputs = 0,
                        .is_stateful = true,
                        .is_blocking = true});
TFHPC_REGISTER_OP(OpDef{.name = "QueueDequeue",
                        .min_inputs = 0,
                        .max_inputs = 0,
                        .is_stateful = true,
                        .is_blocking = true});

std::string Output::name() const {
  TFHPC_CHECK(node != nullptr);
  if (index == 0) return node->name();
  return node->name() + ":" + std::to_string(index);
}

Scope Scope::WithDevice(const std::string& device) const {
  Scope child = *this;
  child.device_ = device;
  return child;
}

Scope Scope::WithNamePrefix(const std::string& prefix) const {
  Scope child = *this;
  child.prefix_ = prefix_.empty() ? prefix : prefix_ + "/" + prefix;
  return child;
}

Node* Scope::AddNode(const std::string& op, std::vector<std::string> inputs,
                     std::map<std::string, wire::AttrValue> attrs,
                     const std::string& name_hint) const {
  wire::NodeDef def;
  std::string base = name_hint.empty() ? op : name_hint;
  if (!prefix_.empty()) base = prefix_ + "/" + base;
  def.name = graph_->UniqueName(base);
  def.op = op;
  def.inputs = std::move(inputs);
  def.device = device_;
  def.attrs = std::move(attrs);
  auto result = graph_->AddNode(std::move(def));
  TFHPC_CHECK(result.ok()) << result.status().ToString();
  return *result;
}

namespace ops {
namespace {
using wire::AttrValue;

Output Binary(const Scope& s, const char* op, Output a, Output b) {
  return {s.AddNode(op, {a.name(), b.name()}, {}), 0};
}
}  // namespace

Output Const(const Scope& s, Tensor value, const std::string& name) {
  std::map<std::string, AttrValue> attrs;
  attrs["value"] = AttrValue::Str(wire::SerializeTensor(value));
  attrs["dtype"] = AttrValue::Type(value.dtype());
  return {s.AddNode("Const", {}, std::move(attrs), name), 0};
}

Output Placeholder(const Scope& s, DType dtype, Shape shape,
                   const std::string& name) {
  std::map<std::string, AttrValue> attrs;
  attrs["dtype"] = AttrValue::Type(dtype);
  attrs["shape"] = AttrValue::OfShape(std::move(shape));
  return {s.AddNode("Placeholder", {}, std::move(attrs),
                    name.empty() ? "placeholder" : name),
          0};
}

Output RandomUniform(const Scope& s, Shape shape, DType dtype, int64_t seed,
                     double lo, double hi) {
  std::map<std::string, AttrValue> attrs;
  attrs["dtype"] = AttrValue::Type(dtype);
  attrs["shape"] = AttrValue::OfShape(std::move(shape));
  attrs["seed"] = AttrValue::Int(seed);
  attrs["lo"] = AttrValue::Float(lo);
  attrs["hi"] = AttrValue::Float(hi);
  return {s.AddNode("RandomUniform", {}, std::move(attrs), "random_uniform"), 0};
}

Output Variable(const Scope& s, const std::string& name, DType dtype,
                Shape shape) {
  std::map<std::string, AttrValue> attrs;
  attrs["dtype"] = AttrValue::Type(dtype);
  attrs["shape"] = AttrValue::OfShape(std::move(shape));
  return {s.AddNode("Variable", {}, std::move(attrs), name), 0};
}

namespace {
Output AssignLike(const char* op, const Scope& s, Output var, Output value) {
  TFHPC_CHECK(var.node->op() == "Variable")
      << op << " target must be a Variable node, got " << var.node->op();
  std::map<std::string, AttrValue> attrs;
  // The target is referenced by name, not by a data edge: reading an
  // uninitialized variable fails, and the first Assign is what initializes.
  attrs["var"] = AttrValue::Str(var.node->name());
  return {s.AddNode(op, {value.name()}, std::move(attrs)), 0};
}
}  // namespace

Output Assign(const Scope& s, Output var, Output value) {
  return AssignLike("Assign", s, var, value);
}

Output AssignAdd(const Scope& s, Output var, Output value) {
  return AssignLike("AssignAdd", s, var, value);
}

Output MatMul(const Scope& s, Output a, Output b) {
  return Binary(s, "MatMul", a, b);
}
Output MatVec(const Scope& s, Output m, Output v) {
  return Binary(s, "MatVec", m, v);
}
Output Add(const Scope& s, Output a, Output b) { return Binary(s, "Add", a, b); }
Output Sub(const Scope& s, Output a, Output b) { return Binary(s, "Sub", a, b); }
Output Mul(const Scope& s, Output a, Output b) { return Binary(s, "Mul", a, b); }
Output Div(const Scope& s, Output a, Output b) { return Binary(s, "Div", a, b); }
Output Dot(const Scope& s, Output a, Output b) { return Binary(s, "Dot", a, b); }

Output ReduceSum(const Scope& s, Output a) {
  return {s.AddNode("ReduceSum", {a.name()}, {}), 0};
}

Output Sqrt(const Scope& s, Output a) {
  return {s.AddNode("Sqrt", {a.name()}, {}), 0};
}

Output Axpy(const Scope& s, Output alpha, Output x, Output y) {
  return {s.AddNode("Axpy", {alpha.name(), x.name(), y.name()}, {}), 0};
}

Output Fft(const Scope& s, Output x, bool inverse) {
  std::map<std::string, AttrValue> attrs;
  attrs["inverse"] = AttrValue::Bool(inverse);
  return {s.AddNode("FFT", {x.name()}, std::move(attrs)), 0};
}

Output Transpose(const Scope& s, Output a) {
  return {s.AddNode("Transpose", {a.name()}, {}), 0};
}

Output Slice(const Scope& s, Output a, Shape begin, Shape size) {
  std::map<std::string, AttrValue> attrs;
  attrs["begin"] = AttrValue::OfShape(std::move(begin));
  attrs["size"] = AttrValue::OfShape(std::move(size));
  return {s.AddNode("Slice", {a.name()}, std::move(attrs)), 0};
}

Output Concat(const Scope& s, const std::vector<Output>& parts) {
  std::vector<std::string> inputs;
  inputs.reserve(parts.size());
  for (const Output& p : parts) inputs.push_back(p.name());
  return {s.AddNode("Concat", std::move(inputs), {}), 0};
}

Output Cast(const Scope& s, Output a, DType to) {
  std::map<std::string, AttrValue> attrs;
  attrs["to"] = AttrValue::Type(to);
  return {s.AddNode("Cast", {a.name()}, std::move(attrs)), 0};
}

Output Neg(const Scope& s, Output a) {
  return {s.AddNode("Neg", {a.name()}, {}), 0};
}
Output ReduceMax(const Scope& s, Output a) {
  return {s.AddNode("ReduceMax", {a.name()}, {}), 0};
}
Output ReduceMin(const Scope& s, Output a) {
  return {s.AddNode("ReduceMin", {a.name()}, {}), 0};
}
Output ReduceMean(const Scope& s, Output a) {
  return {s.AddNode("ReduceMean", {a.name()}, {}), 0};
}

Output Fill(const Scope& s, DType dtype, Shape shape, double value) {
  std::map<std::string, AttrValue> attrs;
  attrs["dtype"] = AttrValue::Type(dtype);
  attrs["shape"] = AttrValue::OfShape(std::move(shape));
  attrs["value"] = AttrValue::Float(value);
  return {s.AddNode("Fill", {}, std::move(attrs)), 0};
}

Output ZerosLike(const Scope& s, Output a) {
  return {s.AddNode("ZerosLike", {a.name()}, {}), 0};
}

Output Identity(const Scope& s, Output a) {
  return {s.AddNode("Identity", {a.name()}, {}), 0};
}

Output NoOp(const Scope& s, const std::vector<Output>& deps,
            const std::string& name) {
  std::vector<std::string> inputs;
  inputs.reserve(deps.size());
  for (const Output& d : deps) inputs.push_back("^" + d.node->name());
  return {s.AddNode("NoOp", std::move(inputs), {},
                    name.empty() ? "group" : name),
          0};
}

Output Send(const Scope& s, Output value, const std::string& key,
            const std::string& target) {
  std::map<std::string, AttrValue> attrs;
  attrs["key"] = AttrValue::Str(key);
  if (!target.empty()) attrs["target"] = AttrValue::Str(target);
  return {s.AddNode("_Send", {value.name()}, std::move(attrs), "send"), 0};
}

Output Recv(const Scope& s, const std::string& key) {
  std::map<std::string, AttrValue> attrs;
  attrs["key"] = AttrValue::Str(key);
  return {s.AddNode("_Recv", {}, std::move(attrs), "recv"), 0};
}

Output QueueEnqueue(const Scope& s, const std::string& queue, Output value,
                    int64_t capacity) {
  std::map<std::string, AttrValue> attrs;
  attrs["queue"] = AttrValue::Str(queue);
  if (capacity > 0) attrs["capacity"] = AttrValue::Int(capacity);
  return {s.AddNode("QueueEnqueue", {value.name()}, std::move(attrs)), 0};
}

Output QueueDequeue(const Scope& s, const std::string& queue,
                    int64_t capacity, DType dtype) {
  std::map<std::string, AttrValue> attrs;
  attrs["queue"] = AttrValue::Str(queue);
  if (capacity > 0) attrs["capacity"] = AttrValue::Int(capacity);
  if (dtype != DType::kInvalid) attrs["dtype"] = AttrValue::Type(dtype);
  return {s.AddNode("QueueDequeue", {}, std::move(attrs)), 0};
}

}  // namespace ops
}  // namespace tfhpc
