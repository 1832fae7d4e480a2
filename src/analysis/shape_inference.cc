#include "analysis/shape_inference.h"

#include "core/dtype.h"
#include "graph/op_def.h"
#include "optimizer/fused_spec.h"

namespace tfhpc::analysis {

bool InferredShape::fully_known() const {
  if (!rank_known) return false;
  for (int64_t d : dims) {
    if (d < 0) return false;
  }
  return true;
}

std::string InferredShape::ToString() const {
  if (!rank_known) return "?";
  std::string out = "[";
  for (size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) out += ", ";
    out += dims[i] < 0 ? "?" : std::to_string(dims[i]);
  }
  out += "]";
  return out;
}

Result<InferredShape> MergeShapes(const InferredShape& a,
                                  const InferredShape& b) {
  if (!a.rank_known) return b;
  if (!b.rank_known) return a;
  if (a.dims.size() != b.dims.size()) {
    return InvalidArgument("[GC010] incompatible ranks: " + a.ToString() +
                           " vs " + b.ToString());
  }
  InferredShape merged = a;
  for (size_t i = 0; i < a.dims.size(); ++i) {
    if (a.dims[i] < 0) {
      merged.dims[i] = b.dims[i];
    } else if (b.dims[i] >= 0 && a.dims[i] != b.dims[i]) {
      return InvalidArgument("[GC010] incompatible shapes: " + a.ToString() +
                             " vs " + b.ToString());
    }
  }
  return merged;
}

// ---- InferenceContext -------------------------------------------------------

namespace {
Result<const wire::AttrValue*> FindAttr(const wire::NodeDef& def,
                                        const std::string& name,
                                        wire::AttrValue::Kind kind,
                                        const char* kind_name) {
  auto it = def.attrs.find(name);
  if (it == def.attrs.end() || it->second.kind != kind) {
    return InvalidArgument("[GC017] op " + def.op + " requires " + kind_name +
                           " attr '" + name + "'");
  }
  return &it->second;
}
}  // namespace

Result<DType> InferenceContext::TypeAttr(const std::string& name) const {
  TFHPC_ASSIGN_OR_RETURN(
      const wire::AttrValue* a,
      FindAttr(*def_, name, wire::AttrValue::Kind::kType, "type"));
  return a->type;
}
Result<Shape> InferenceContext::ShapeAttr(const std::string& name) const {
  TFHPC_ASSIGN_OR_RETURN(
      const wire::AttrValue* a,
      FindAttr(*def_, name, wire::AttrValue::Kind::kShape, "shape"));
  return a->shape;
}
Result<std::string> InferenceContext::StringAttr(const std::string& name) const {
  TFHPC_ASSIGN_OR_RETURN(
      const wire::AttrValue* a,
      FindAttr(*def_, name, wire::AttrValue::Kind::kString, "string"));
  return a->s;
}
Result<int64_t> InferenceContext::IntAttr(const std::string& name) const {
  TFHPC_ASSIGN_OR_RETURN(
      const wire::AttrValue* a,
      FindAttr(*def_, name, wire::AttrValue::Kind::kInt, "int"));
  return a->i;
}
Result<bool> InferenceContext::BoolAttr(const std::string& name) const {
  TFHPC_ASSIGN_OR_RETURN(
      const wire::AttrValue* a,
      FindAttr(*def_, name, wire::AttrValue::Kind::kBool, "bool"));
  return a->b;
}
Result<double> InferenceContext::FloatAttr(const std::string& name) const {
  TFHPC_ASSIGN_OR_RETURN(
      const wire::AttrValue* a,
      FindAttr(*def_, name, wire::AttrValue::Kind::kFloat, "float"));
  return a->f;
}

Status InferenceContext::DtypeError(const std::string& msg) const {
  return InvalidArgument("[GC009] " + msg);
}
Status InferenceContext::ShapeError(const std::string& msg) const {
  return InvalidArgument("[GC010] " + msg);
}
Status InferenceContext::AttrError(const std::string& msg) const {
  return InvalidArgument("[GC017] " + msg);
}

Result<DType> InferenceContext::MergeInputDtypes(int a, int b) const {
  const DType da = input(a).dtype;
  const DType db = input(b).dtype;
  if (da == DType::kInvalid) return db;
  if (db == DType::kInvalid) return da;
  if (da != db) {
    return DtypeError("operand dtypes differ: " + std::string(DTypeName(da)) +
                      " vs " + DTypeName(db));
  }
  return da;
}

// ---- built-in inference functions -------------------------------------------

namespace {

// Requires a known rank to equal `rank`; unknown rank passes.
Status RequireRank(InferenceContext& c, int input, int rank,
                   const char* what) {
  const InferredShape& s = c.input(input).shape;
  if (s.rank_known && s.rank() != rank) {
    return c.ShapeError(std::string(what) + " must have rank " +
                        std::to_string(rank) + ", got " + s.ToString());
  }
  return Status::OK();
}

Status ConstFn(InferenceContext& c) {
  auto it = c.def().attrs.find("value");
  if (it == c.def().attrs.end() ||
      it->second.kind != wire::AttrValue::Kind::kString) {
    return c.AttrError("Const requires a serialized-tensor 'value' attr");
  }
  Result<Tensor> t = wire::ParseTensor(it->second.s);
  if (!t.ok()) {
    return c.AttrError("Const 'value' attr does not parse as a tensor: " +
                       t.status().message());
  }
  c.set_output(0, t->dtype(), InferredShape::FromShape(t->shape()));
  return Status::OK();
}

// Placeholder: dtype/shape attrs are advisory (a fed node never runs its
// kernel), so missing attrs mean unknown, not an error.
Status PlaceholderFn(InferenceContext& c) {
  DType dtype = DType::kInvalid;
  InferredShape shape = InferredShape::Unknown();
  if (c.HasAttr("dtype")) {
    TFHPC_ASSIGN_OR_RETURN(dtype, c.TypeAttr("dtype"));
  }
  if (c.HasAttr("shape")) {
    TFHPC_ASSIGN_OR_RETURN(Shape s, c.ShapeAttr("shape"));
    shape = InferredShape::FromShape(s);
  }
  c.set_output(0, dtype, std::move(shape));
  return Status::OK();
}

// Variable/RandomUniform/Fill: the kernel reads dtype+shape attrs, so they
// are required.
Status AttrShapedFn(InferenceContext& c) {
  TFHPC_ASSIGN_OR_RETURN(DType dtype, c.TypeAttr("dtype"));
  TFHPC_ASSIGN_OR_RETURN(Shape shape, c.ShapeAttr("shape"));
  c.set_output(0, dtype, InferredShape::FromShape(shape));
  return Status::OK();
}

Status FillFn(InferenceContext& c) {
  TFHPC_RETURN_IF_ERROR(c.FloatAttr("value").status());
  return AttrShapedFn(c);
}

// Assign/AssignAdd: value passes through; the 'var' binding itself is
// checked by the verifier's lint pass (GC016), which sees the whole graph.
Status AssignFn(InferenceContext& c) {
  TFHPC_RETURN_IF_ERROR(c.StringAttr("var").status());
  c.set_output(0, c.input(0).dtype, c.input(0).shape);
  return Status::OK();
}

Status MatMulFn(InferenceContext& c) {
  TFHPC_RETURN_IF_ERROR(RequireRank(c, 0, 2, "MatMul lhs"));
  TFHPC_RETURN_IF_ERROR(RequireRank(c, 1, 2, "MatMul rhs"));
  TFHPC_ASSIGN_OR_RETURN(DType dtype, c.MergeInputDtypes(0, 1));
  const InferredShape& a = c.input(0).shape;
  const InferredShape& b = c.input(1).shape;
  int64_t m = -1, n = -1;
  if (a.rank_known) m = a.dims[0];
  if (b.rank_known) n = b.dims[1];
  if (a.rank_known && b.rank_known && a.dims[1] >= 0 && b.dims[0] >= 0 &&
      a.dims[1] != b.dims[0]) {
    return c.ShapeError("MatMul inner dims differ: " + a.ToString() + " x " +
                        b.ToString());
  }
  c.set_output(0, dtype, InferredShape::Of({m, n}));
  return Status::OK();
}

Status MatVecFn(InferenceContext& c) {
  TFHPC_RETURN_IF_ERROR(RequireRank(c, 0, 2, "MatVec matrix"));
  TFHPC_RETURN_IF_ERROR(RequireRank(c, 1, 1, "MatVec vector"));
  TFHPC_ASSIGN_OR_RETURN(DType dtype, c.MergeInputDtypes(0, 1));
  const InferredShape& m = c.input(0).shape;
  const InferredShape& v = c.input(1).shape;
  if (m.rank_known && v.rank_known && m.dims[1] >= 0 && v.dims[0] >= 0 &&
      m.dims[1] != v.dims[0]) {
    return c.ShapeError("MatVec shape mismatch: " + m.ToString() + " x " +
                        v.ToString());
  }
  c.set_output(0, dtype, InferredShape::Of({m.rank_known ? m.dims[0] : -1}));
  return Status::OK();
}

// Elementwise binary with scalar broadcast (the kernels' exact contract:
// shapes must be equal unless one side is scalar).
Status ElementwiseFn(InferenceContext& c) {
  TFHPC_ASSIGN_OR_RETURN(DType dtype, c.MergeInputDtypes(0, 1));
  const InferredShape& a = c.input(0).shape;
  const InferredShape& b = c.input(1).shape;
  const bool a_scalar = a.rank_known && a.rank() == 0;
  const bool b_scalar = b.rank_known && b.rank() == 0;
  if (a_scalar) {
    c.set_output(0, dtype, b);
    return Status::OK();
  }
  if (b_scalar) {
    c.set_output(0, dtype, a);
    return Status::OK();
  }
  if (a.rank_known && b.rank_known) {
    // Neither side is a scalar: shapes must unify exactly.
    TFHPC_ASSIGN_OR_RETURN(InferredShape out, MergeShapes(a, b));
    c.set_output(0, dtype, std::move(out));
    return Status::OK();
  }
  // One side of unknown rank: it may be the scalar, so the known side (or
  // nothing) is all we can say.
  c.set_output(0, dtype, a.rank_known ? a : b);
  return Status::OK();
}

Status DotFn(InferenceContext& c) {
  TFHPC_RETURN_IF_ERROR(RequireRank(c, 0, 1, "Dot lhs"));
  TFHPC_RETURN_IF_ERROR(RequireRank(c, 1, 1, "Dot rhs"));
  TFHPC_ASSIGN_OR_RETURN(DType dtype, c.MergeInputDtypes(0, 1));
  TFHPC_RETURN_IF_ERROR(
      MergeShapes(c.input(0).shape, c.input(1).shape).status());
  c.set_output(0, dtype, InferredShape::Scalar());
  return Status::OK();
}

Status ReduceFn(InferenceContext& c) {
  c.set_output(0, c.input(0).dtype, InferredShape::Scalar());
  return Status::OK();
}

Status PassthroughFn(InferenceContext& c) {
  c.set_output(0, c.input(0).dtype, c.input(0).shape);
  return Status::OK();
}

Status AxpyFn(InferenceContext& c) {
  TFHPC_RETURN_IF_ERROR(RequireRank(c, 0, 0, "Axpy alpha"));
  TFHPC_ASSIGN_OR_RETURN(DType dxy, c.MergeInputDtypes(1, 2));
  const DType dalpha = c.input(0).dtype;
  if (dalpha != DType::kInvalid && dxy != DType::kInvalid && dalpha != dxy) {
    return c.DtypeError("Axpy alpha dtype " + std::string(DTypeName(dalpha)) +
                        " differs from operands " + DTypeName(dxy));
  }
  TFHPC_ASSIGN_OR_RETURN(InferredShape out,
                         MergeShapes(c.input(1).shape, c.input(2).shape));
  c.set_output(0, dxy != DType::kInvalid ? dxy : dalpha, std::move(out));
  return Status::OK();
}

Status FftFn(InferenceContext& c) {
  TFHPC_RETURN_IF_ERROR(c.BoolAttr("inverse").status());
  TFHPC_RETURN_IF_ERROR(RequireRank(c, 0, 1, "FFT input"));
  const DType in = c.input(0).dtype;
  if (in != DType::kInvalid && in != DType::kC128) {
    return c.DtypeError("FFT requires complex128 input, got " +
                        std::string(DTypeName(in)));
  }
  c.set_output(0, DType::kC128, c.input(0).shape);
  return Status::OK();
}

Status CastFn(InferenceContext& c) {
  TFHPC_ASSIGN_OR_RETURN(DType to, c.TypeAttr("to"));
  c.set_output(0, to, c.input(0).shape);
  return Status::OK();
}

Status TransposeFn(InferenceContext& c) {
  TFHPC_RETURN_IF_ERROR(RequireRank(c, 0, 2, "Transpose input"));
  const InferredShape& a = c.input(0).shape;
  c.set_output(0, c.input(0).dtype,
               a.rank_known ? InferredShape::Of({a.dims[1], a.dims[0]})
                            : InferredShape::Unknown());
  return Status::OK();
}

Status SliceFn(InferenceContext& c) {
  TFHPC_ASSIGN_OR_RETURN(Shape begin, c.ShapeAttr("begin"));
  TFHPC_ASSIGN_OR_RETURN(Shape size, c.ShapeAttr("size"));
  const InferredShape& a = c.input(0).shape;
  if (begin.rank() != size.rank()) {
    return c.AttrError("Slice begin/size ranks differ");
  }
  if (a.rank_known) {
    if (a.rank() != size.rank()) {
      return c.ShapeError("Slice begin/size rank " +
                          std::to_string(size.rank()) +
                          " does not match input " + a.ToString());
    }
    for (int i = 0; i < a.rank(); ++i) {
      if (a.dims[static_cast<size_t>(i)] >= 0 &&
          begin.dim(i) + size.dim(i) > a.dims[static_cast<size_t>(i)]) {
        return c.ShapeError("Slice extent " + std::to_string(begin.dim(i)) +
                            "+" + std::to_string(size.dim(i)) +
                            " exceeds input dim " +
                            std::to_string(a.dims[static_cast<size_t>(i)]));
      }
    }
  }
  c.set_output(0, c.input(0).dtype, InferredShape::FromShape(size));
  return Status::OK();
}

Status ConcatFn(InferenceContext& c) {
  if (c.num_inputs() == 0) return c.ShapeError("Concat of nothing");
  DType dtype = DType::kInvalid;
  InferredShape tail = InferredShape::Unknown();  // dims past axis 0
  int64_t dim0 = 0;
  bool dim0_known = true;
  for (int i = 0; i < c.num_inputs(); ++i) {
    const InferredTensor& in = c.input(i);
    if (in.dtype != DType::kInvalid) {
      if (dtype != DType::kInvalid && dtype != in.dtype) {
        return c.DtypeError("Concat operand dtypes differ");
      }
      dtype = in.dtype;
    }
    if (!in.shape.rank_known) {
      dim0_known = false;
      continue;
    }
    if (in.shape.rank() == 0) {
      return c.ShapeError("Concat operand is a scalar");
    }
    InferredShape rest = in.shape;
    rest.dims[0] = -1;
    TFHPC_ASSIGN_OR_RETURN(tail, MergeShapes(tail, rest));
    if (in.shape.dims[0] < 0) {
      dim0_known = false;
    } else if (dim0_known) {
      dim0 += in.shape.dims[0];
    }
  }
  if (!tail.rank_known) {
    c.set_output(0, dtype, InferredShape::Unknown());
    return Status::OK();
  }
  InferredShape out = tail;
  out.dims[0] = dim0_known ? dim0 : -1;
  c.set_output(0, dtype, std::move(out));
  return Status::OK();
}

Status QueueEnqueueFn(InferenceContext& c) {
  return c.StringAttr("queue").status();
}

// QueueDequeue may declare what it expects via optional dtype/shape attrs;
// the queue-protocol lint (GC014) cross-checks declarations against what
// enqueues provably push.
Status QueueDequeueFn(InferenceContext& c) {
  TFHPC_RETURN_IF_ERROR(c.StringAttr("queue").status());
  DType dtype = DType::kInvalid;
  InferredShape shape = InferredShape::Unknown();
  if (c.HasAttr("dtype")) {
    TFHPC_ASSIGN_OR_RETURN(dtype, c.TypeAttr("dtype"));
  }
  if (c.HasAttr("shape")) {
    TFHPC_ASSIGN_OR_RETURN(Shape s, c.ShapeAttr("shape"));
    shape = InferredShape::FromShape(s);
  }
  c.set_output(0, dtype, std::move(shape));
  return Status::OK();
}

Status SendFn(InferenceContext& c) { return c.StringAttr("key").status(); }

Status RecvFn(InferenceContext& c) {
  TFHPC_RETURN_IF_ERROR(c.StringAttr("key").status());
  c.set_output(0, DType::kInvalid, InferredShape::Unknown());
  return Status::OK();
}

Status NoOpFn(InferenceContext&) { return Status::OK(); }

// FusedElementwise: replay the chain's stage spec over inferred facts, using
// the same merge rules the constituent ops' functions apply (elementwise
// scalar broadcast, Axpy scalar alpha, Cast dtype from its to_<k> attr).
Status FusedElementwiseFn(InferenceContext& c) {
  auto stages = optimizer::ParseFusedStages(c.def(), c.num_inputs());
  if (!stages.ok()) return c.AttrError(stages.status().message());

  std::vector<InferredTensor> results;
  results.reserve(stages->size());
  for (size_t k = 0; k < stages->size(); ++k) {
    const optimizer::FusedStage& st = (*stages)[k];
    auto opnd = [&](int r) -> const InferredTensor& {
      return r == optimizer::FusedStage::kPrev ? results[k - 1] : c.input(r);
    };
    auto merge_dtypes = [&](const InferredTensor& a,
                            const InferredTensor& b) -> Result<DType> {
      if (a.dtype != DType::kInvalid && b.dtype != DType::kInvalid &&
          a.dtype != b.dtype) {
        return c.DtypeError("fused " + st.op + " stage " + std::to_string(k) +
                            " dtype mismatch: " +
                            std::string(DTypeName(a.dtype)) + " vs " +
                            DTypeName(b.dtype));
      }
      return a.dtype != DType::kInvalid ? a.dtype : b.dtype;
    };

    InferredTensor out;
    if (st.op == "Add" || st.op == "Sub" || st.op == "Mul" || st.op == "Div") {
      const InferredTensor& a = opnd(st.operands[0]);
      const InferredTensor& b = opnd(st.operands[1]);
      TFHPC_ASSIGN_OR_RETURN(out.dtype, merge_dtypes(a, b));
      const bool a_scalar = a.shape.rank_known && a.shape.rank() == 0;
      const bool b_scalar = b.shape.rank_known && b.shape.rank() == 0;
      if (a_scalar) {
        out.shape = b.shape;
      } else if (b_scalar) {
        out.shape = a.shape;
      } else if (a.shape.rank_known && b.shape.rank_known) {
        TFHPC_ASSIGN_OR_RETURN(out.shape, MergeShapes(a.shape, b.shape));
      } else {
        out.shape = a.shape.rank_known ? a.shape : b.shape;
      }
    } else if (st.op == "Axpy") {
      const InferredTensor& alpha = opnd(st.operands[0]);
      const InferredTensor& x = opnd(st.operands[1]);
      const InferredTensor& y = opnd(st.operands[2]);
      if (alpha.shape.rank_known && alpha.shape.rank() != 0) {
        return c.ShapeError("fused Axpy stage " + std::to_string(k) +
                            " alpha must be scalar, got " +
                            alpha.shape.ToString());
      }
      TFHPC_ASSIGN_OR_RETURN(out.dtype, merge_dtypes(x, y));
      TFHPC_ASSIGN_OR_RETURN(DType merged,
                             merge_dtypes(alpha, InferredTensor{out.dtype, {}}));
      if (out.dtype == DType::kInvalid) out.dtype = merged;
      TFHPC_ASSIGN_OR_RETURN(out.shape, MergeShapes(x.shape, y.shape));
    } else if (st.op == "Cast") {
      out.dtype = st.cast_to;
      out.shape = opnd(st.operands[0]).shape;
    } else if (st.op == "Dot") {
      // Trailing inner-product stage: two equal-length vectors -> scalar
      // (mirrors DotFn; ParseFusedStages pins it to the final stage).
      const InferredTensor& a = opnd(st.operands[0]);
      const InferredTensor& b = opnd(st.operands[1]);
      TFHPC_ASSIGN_OR_RETURN(out.dtype, merge_dtypes(a, b));
      if (a.shape.rank_known && a.shape.rank() != 1) {
        return c.ShapeError("fused Dot stage " + std::to_string(k) +
                            " requires vectors, got " + a.shape.ToString());
      }
      if (b.shape.rank_known && b.shape.rank() != 1) {
        return c.ShapeError("fused Dot stage " + std::to_string(k) +
                            " requires vectors, got " + b.shape.ToString());
      }
      if (a.shape.rank_known && b.shape.rank_known) {
        TFHPC_RETURN_IF_ERROR(MergeShapes(a.shape, b.shape).status());
      }
      out.shape = InferredShape::Scalar();
    } else if (st.op == "ReduceSum") {
      out.dtype = opnd(st.operands[0]).dtype;
      out.shape = InferredShape::Scalar();
    } else {  // Sqrt / Neg
      out = opnd(st.operands[0]);
    }
    results.push_back(std::move(out));
  }
  c.set_output(0, results.back().dtype, std::move(results.back().shape));
  return Status::OK();
}

}  // namespace

ShapeFnRegistry::ShapeFnRegistry() {
  Register("Const", ConstFn);
  Register("Placeholder", PlaceholderFn);
  Register("Variable", AttrShapedFn);
  Register("RandomUniform", AttrShapedFn);
  Register("Fill", FillFn);
  Register("Assign", AssignFn);
  Register("AssignAdd", AssignFn);
  Register("MatMul", MatMulFn);
  Register("MatVec", MatVecFn);
  Register("Add", ElementwiseFn);
  Register("Sub", ElementwiseFn);
  Register("Mul", ElementwiseFn);
  Register("Div", ElementwiseFn);
  Register("Dot", DotFn);
  Register("ReduceSum", ReduceFn);
  Register("ReduceMax", ReduceFn);
  Register("ReduceMin", ReduceFn);
  Register("ReduceMean", ReduceFn);
  Register("Sqrt", PassthroughFn);
  Register("Neg", PassthroughFn);
  Register("Identity", PassthroughFn);
  Register("ZerosLike", PassthroughFn);
  Register("Axpy", AxpyFn);
  Register("FFT", FftFn);
  Register("Cast", CastFn);
  Register("Transpose", TransposeFn);
  Register("Slice", SliceFn);
  Register("Concat", ConcatFn);
  Register("FusedElementwise", FusedElementwiseFn);
  Register("QueueEnqueue", QueueEnqueueFn);
  Register("QueueDequeue", QueueDequeueFn);
  Register("_Send", SendFn);
  Register("_Recv", RecvFn);
  Register("NoOp", NoOpFn);
  // Deliberately-dynamic allowlist: currently empty — every built-in op has
  // an inference fn (unknowns still flow through them as unknown outputs,
  // e.g. _Recv without a matched send, QueueDequeue with an untyped queue).
  // An op whose output extents truly depend on runtime values goes here,
  // with a comment saying why, instead of silently lacking a fn.
}

ShapeFnRegistry& ShapeFnRegistry::Global() {
  static ShapeFnRegistry* registry = new ShapeFnRegistry();
  return *registry;
}

void ShapeFnRegistry::Register(const std::string& op, ShapeFn fn) {
  fns_[op] = std::move(fn);
}

const ShapeFn* ShapeFnRegistry::Lookup(const std::string& op) const {
  auto it = fns_.find(op);
  return it == fns_.end() ? nullptr : &it->second;
}

void ShapeFnRegistry::MarkDynamic(const std::string& op) {
  dynamic_ops_.insert(op);
}

bool ShapeFnRegistry::IsDynamic(const std::string& op) const {
  return dynamic_ops_.count(op) > 0;
}

std::vector<std::string> ShapeFnRegistry::UncoveredOps() const {
  std::vector<std::string> uncovered;
  for (const std::string& op : OpRegistry::Global().OpNames()) {
    if (Lookup(op) == nullptr && !IsDynamic(op)) uncovered.push_back(op);
  }
  return uncovered;
}

}  // namespace tfhpc::analysis
