#include "wire/messages.h"

#include <cstring>

#include "core/threadpool.h"
#include "wire/coded.h"

namespace tfhpc::wire {

// ---- TensorProto ----------------------------------------------------------

std::string SerializeTensor(const Tensor& t) {
  std::string out;
  CodedOutput co(&out);
  co.WriteUInt64(1, static_cast<uint64_t>(t.dtype()));
  for (int64_t d : t.shape().dims()) {
    co.WriteUInt64(2, static_cast<uint64_t>(d));
  }
  if (t.valid()) {
    co.WriteBytes(3, t.raw_data(), static_cast<size_t>(t.bytes()));
  }
  return out;
}

namespace {

// Multiplies *acc by f (both >= 0); false when the product overflows int64.
bool MulChecked(int64_t* acc, int64_t f) {
  return !__builtin_mul_overflow(*acc, f, acc);
}

// The TensorProto parser behind ParseTensor and ParseTensorView. `fields`
// holds the encoded fields. With `view` set, the payload is split: the
// content field's tag and length end `fields` and its bytes are the view.
Result<Tensor> ParseTensorFields(std::string_view fields,
                                 const PayloadRef* view) {
  CodedInput in(fields);
  DType dtype = DType::kInvalid;
  std::vector<int64_t> dims;
  const uint8_t* content = nullptr;
  size_t content_size = 0;
  bool has_content = false;
  while (!in.AtEnd()) {
    uint32_t field;
    WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    switch (field) {
      case 1: {
        uint64_t v;
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        if (!IsKnownDType(v)) {
          return InvalidArgument("TensorProto: unknown dtype " +
                                 std::to_string(v));
        }
        dtype = static_cast<DType>(v);
        break;
      }
      case 2: {
        uint64_t v;
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        if (v > (uint64_t{1} << 48)) {
          return InvalidArgument("TensorProto: implausible dim " +
                                 std::to_string(v));
        }
        dims.push_back(static_cast<int64_t>(v));
        break;
      }
      case 3: {
        if (wt != WireType::kLengthDelimited) {
          return InvalidArgument("TensorProto: bad wire type for content");
        }
        if (view == nullptr) {
          TFHPC_RETURN_IF_ERROR(in.ReadBytesView(&content, &content_size));
        } else {
          // The content's length is framed here and its bytes are the view,
          // so this field must end the head.
          uint64_t len;
          TFHPC_RETURN_IF_ERROR(in.ReadVarint(&len));
          if (len != view->view_size() || !in.AtEnd()) {
            return InvalidArgument("TensorProto: view content length mismatch");
          }
          content = view->view_data();
          content_size = view->view_size();
        }
        has_content = true;
        break;
      }
      default:
        TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  if (dtype == DType::kInvalid) return InvalidArgument("TensorProto: no dtype");
  // Size the tensor before building it: Shape::num_elements() aborts on an
  // overflowing prefix product, and a byte size the content cannot fill
  // must not reach the allocator.
  int64_t bytes = 1;
  for (int64_t d : dims) {
    if (!MulChecked(&bytes, d)) {
      return InvalidArgument("TensorProto: element count overflows");
    }
  }
  if (!MulChecked(&bytes, static_cast<int64_t>(DTypeSize(dtype)))) {
    return InvalidArgument("TensorProto: byte size overflows");
  }
  if (view != nullptr && !has_content) {
    return InvalidArgument("TensorProto: view payload without content field");
  }
  if (static_cast<uint64_t>(bytes) != content_size) {
    return InvalidArgument("TensorProto: content size " +
                           std::to_string(content_size) + " != expected " +
                           std::to_string(bytes));
  }
  Shape shape(std::move(dims));
  // True zero-copy: adopt the buffer when the view spans it exactly from the
  // start. Sub-views (offset into a larger frame) copy once.
  if (view != nullptr && view->view_offset() == 0 &&
      view->buffer()->size() == view->view_size()) {
    return Tensor::FromBuffer(dtype, std::move(shape), view->buffer());
  }
  // The content overwrites every element, so skip the zero-fill and let the
  // pool hand back a recycled block.
  Tensor t = Tensor::Uninitialized(dtype, std::move(shape));
  auto* out = static_cast<uint8_t*>(t.raw_data());
  ForEachBulkChunk(content_size, [&](size_t begin, size_t end) {
    std::memcpy(out + begin, content + begin, end - begin);
  });
  return t;
}

}  // namespace

Result<Tensor> ParseTensor(const std::string& data) {
  return ParseTensor(data.data(), data.size());
}

Result<Tensor> ParseTensor(const void* data, size_t size) {
  return ParseTensorFields(
      std::string_view(static_cast<const char*>(data), size), nullptr);
}

PayloadRef SerializeTensorView(const Tensor& t) {
  std::string head;
  CodedOutput co(&head);
  co.WriteUInt64(1, static_cast<uint64_t>(t.dtype()));
  for (int64_t d : t.shape().dims()) {
    co.WriteUInt64(2, static_cast<uint64_t>(d));
  }
  if (!t.valid()) return PayloadRef(std::move(head));
  // Frame field 3 (tag + length) in the head; the content bytes stay in the
  // tensor's buffer and ride along as a view.
  const size_t content = static_cast<size_t>(t.bytes());
  co.WriteTag(3, WireType::kLengthDelimited);
  co.WriteVarint(content);
  return PayloadRef::View(std::move(head), t.buffer(), 0, content);
}

Result<Tensor> ParseTensorView(const PayloadRef& p) {
  if (p.is_contiguous()) return ParseTensorFields(p.first_range(), nullptr);
  return ParseTensorFields(p.head(), &p);
}

// ---- AttrValue --------------------------------------------------------------

AttrValue AttrValue::Int(int64_t v) {
  AttrValue a;
  a.kind = Kind::kInt;
  a.i = v;
  return a;
}
AttrValue AttrValue::Float(double v) {
  AttrValue a;
  a.kind = Kind::kFloat;
  a.f = v;
  return a;
}
AttrValue AttrValue::Str(std::string v) {
  AttrValue a;
  a.kind = Kind::kString;
  a.s = std::move(v);
  return a;
}
AttrValue AttrValue::Type(DType v) {
  AttrValue a;
  a.kind = Kind::kType;
  a.type = v;
  return a;
}
AttrValue AttrValue::OfShape(Shape v) {
  AttrValue a;
  a.kind = Kind::kShape;
  a.shape = std::move(v);
  return a;
}
AttrValue AttrValue::Bool(bool v) {
  AttrValue a;
  a.kind = Kind::kBool;
  a.b = v;
  return a;
}

bool AttrValue::operator==(const AttrValue& o) const {
  if (kind != o.kind) return false;
  switch (kind) {
    case Kind::kNone: return true;
    case Kind::kInt: return i == o.i;
    case Kind::kFloat: return f == o.f;
    case Kind::kString: return s == o.s;
    case Kind::kType: return type == o.type;
    case Kind::kShape: return shape == o.shape;
    case Kind::kBool: return b == o.b;
  }
  return false;
}

std::string AttrValue::Serialize() const {
  std::string out;
  CodedOutput co(&out);
  switch (kind) {
    case Kind::kNone:
      break;
    case Kind::kInt:
      co.WriteSInt64(1, i);
      break;
    case Kind::kFloat:
      co.WriteDouble(2, f);
      break;
    case Kind::kString:
      co.WriteString(3, s);
      break;
    case Kind::kType:
      co.WriteUInt64(4, static_cast<uint64_t>(type));
      break;
    case Kind::kShape:
      for (int64_t d : shape.dims()) co.WriteUInt64(5, static_cast<uint64_t>(d));
      // Emit rank explicitly so a scalar shape is distinguishable.
      co.WriteUInt64(6, static_cast<uint64_t>(shape.rank()));
      break;
    case Kind::kBool:
      co.WriteBool(7, b);
      break;
  }
  return out;
}

Result<AttrValue> AttrValue::Parse(const void* data, size_t size) {
  CodedInput in(data, size);
  AttrValue a;
  std::vector<int64_t> dims;
  bool saw_rank = false;
  while (!in.AtEnd()) {
    uint32_t field;
    WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    uint64_t v = 0;
    switch (field) {
      case 1:
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        a = Int(ZigZagDecode(v));
        break;
      case 2: {
        double d;
        TFHPC_RETURN_IF_ERROR(in.ReadDouble(&d));
        a = Float(d);
        break;
      }
      case 3: {
        std::string s;
        TFHPC_RETURN_IF_ERROR(in.ReadString(&s));
        a = Str(std::move(s));
        break;
      }
      case 4:
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        if (!IsKnownDType(v)) {
          return InvalidArgument("AttrValue: unknown dtype " +
                                 std::to_string(v));
        }
        a = Type(static_cast<DType>(v));
        break;
      case 5:
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        if (v > (uint64_t{1} << 48)) {
          return InvalidArgument("AttrValue: implausible dim " +
                                 std::to_string(v));
        }
        dims.push_back(static_cast<int64_t>(v));
        break;
      case 6:
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        saw_rank = true;
        break;
      case 7:
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        a = Bool(v != 0);
        break;
      default:
        TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  if (saw_rank) a = OfShape(Shape(std::move(dims)));
  return a;
}

// ---- NodeDef / GraphDef -----------------------------------------------------

std::string NodeDef::Serialize() const {
  std::string out;
  CodedOutput co(&out);
  co.WriteString(1, name);
  co.WriteString(2, op);
  for (const auto& in : inputs) co.WriteString(3, in);
  if (!device.empty()) co.WriteString(4, device);
  for (const auto& [key, value] : attrs) {
    std::string pair;
    CodedOutput pco(&pair);
    pco.WriteString(1, key);
    pco.WriteMessage(2, value.Serialize());
    co.WriteMessage(5, pair);
  }
  return out;
}

Result<NodeDef> NodeDef::Parse(const void* data, size_t size) {
  CodedInput in(data, size);
  NodeDef n;
  while (!in.AtEnd()) {
    uint32_t field;
    WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    switch (field) {
      case 1:
        TFHPC_RETURN_IF_ERROR(in.ReadString(&n.name));
        break;
      case 2:
        TFHPC_RETURN_IF_ERROR(in.ReadString(&n.op));
        break;
      case 3: {
        std::string s;
        TFHPC_RETURN_IF_ERROR(in.ReadString(&s));
        n.inputs.push_back(std::move(s));
        break;
      }
      case 4:
        TFHPC_RETURN_IF_ERROR(in.ReadString(&n.device));
        break;
      case 5: {
        const uint8_t* d;
        size_t s;
        TFHPC_RETURN_IF_ERROR(in.ReadBytesView(&d, &s));
        CodedInput pin(d, s);
        std::string key;
        AttrValue value;
        while (!pin.AtEnd()) {
          uint32_t pf;
          WireType pwt;
          TFHPC_RETURN_IF_ERROR(pin.ReadTag(&pf, &pwt));
          if (pf == 1) {
            TFHPC_RETURN_IF_ERROR(pin.ReadString(&key));
          } else if (pf == 2) {
            const uint8_t* vd;
            size_t vs;
            TFHPC_RETURN_IF_ERROR(pin.ReadBytesView(&vd, &vs));
            TFHPC_ASSIGN_OR_RETURN(value, AttrValue::Parse(vd, vs));
          } else {
            TFHPC_RETURN_IF_ERROR(pin.SkipField(pwt));
          }
        }
        n.attrs[key] = value;
        break;
      }
      default:
        TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  if (n.name.empty()) return InvalidArgument("NodeDef without name");
  return n;
}

bool NodeDef::operator==(const NodeDef& o) const {
  return name == o.name && op == o.op && inputs == o.inputs &&
         device == o.device && attrs == o.attrs;
}

std::string GraphDef::Serialize() const {
  std::string out;
  CodedOutput co(&out);
  for (const auto& n : nodes) co.WriteMessage(1, n.Serialize());
  co.WriteInt64(2, version);
  return out;
}

Result<GraphDef> GraphDef::Parse(std::string_view data) {
  CodedInput in(data);
  GraphDef g;
  while (!in.AtEnd()) {
    uint32_t field;
    WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    switch (field) {
      case 1: {
        const uint8_t* d;
        size_t s;
        TFHPC_RETURN_IF_ERROR(in.ReadBytesView(&d, &s));
        TFHPC_ASSIGN_OR_RETURN(NodeDef n, NodeDef::Parse(d, s));
        g.nodes.push_back(std::move(n));
        break;
      }
      case 2: {
        uint64_t v;
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        g.version = static_cast<int64_t>(v);
        break;
      }
      default:
        TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  return g;
}

// ---- ClusterDef -------------------------------------------------------------

std::string JobDef::Serialize() const {
  std::string out;
  CodedOutput co(&out);
  co.WriteString(1, name);
  for (const auto& t : task_addrs) co.WriteString(2, t);
  return out;
}

Result<JobDef> JobDef::Parse(const void* data, size_t size) {
  CodedInput in(data, size);
  JobDef j;
  while (!in.AtEnd()) {
    uint32_t field;
    WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    if (field == 1) {
      TFHPC_RETURN_IF_ERROR(in.ReadString(&j.name));
    } else if (field == 2) {
      std::string s;
      TFHPC_RETURN_IF_ERROR(in.ReadString(&s));
      j.task_addrs.push_back(std::move(s));
    } else {
      TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  return j;
}

std::string ClusterDef::Serialize() const {
  std::string out;
  CodedOutput co(&out);
  for (const auto& j : jobs) co.WriteMessage(1, j.Serialize());
  return out;
}

Result<ClusterDef> ClusterDef::Parse(const std::string& data) {
  CodedInput in(data);
  ClusterDef c;
  while (!in.AtEnd()) {
    uint32_t field;
    WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    if (field == 1) {
      const uint8_t* d;
      size_t s;
      TFHPC_RETURN_IF_ERROR(in.ReadBytesView(&d, &s));
      TFHPC_ASSIGN_OR_RETURN(JobDef j, JobDef::Parse(d, s));
      c.jobs.push_back(std::move(j));
    } else {
      TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  return c;
}

// ---- RegisterStep -------------------------------------------------------------

std::string RegisterStepRequest::Serialize() const {
  std::string out;
  CodedOutput co(&out);
  for (const auto& f : feeds) co.WriteString(1, f);
  for (const auto& f : fetches) co.WriteString(2, f);
  for (const auto& t : targets) co.WriteString(3, t);
  return out;
}

Result<RegisterStepRequest> RegisterStepRequest::Parse(
    std::string_view data) {
  CodedInput in(data);
  RegisterStepRequest req;
  while (!in.AtEnd()) {
    uint32_t field;
    WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    if (field >= 1 && field <= 3) {
      std::string s;
      TFHPC_RETURN_IF_ERROR(in.ReadString(&s));
      (field == 1 ? req.feeds : field == 2 ? req.fetches : req.targets)
          .push_back(std::move(s));
    } else {
      TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  return req;
}

std::string RegisterStepResponse::Serialize() const {
  std::string out;
  CodedOutput co(&out);
  co.WriteUInt64(1, handle);
  co.WriteSInt64(2, graph_version);
  return out;
}

Result<RegisterStepResponse> RegisterStepResponse::Parse(
    std::string_view data) {
  CodedInput in(data);
  RegisterStepResponse resp;
  while (!in.AtEnd()) {
    uint32_t field;
    WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    if (field == 1) {
      uint64_t v;
      TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
      resp.handle = v;
    } else if (field == 2) {
      uint64_t v;
      TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
      resp.graph_version = ZigZagDecode(v);
    } else {
      TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  return resp;
}

// ---- RpcEnvelope --------------------------------------------------------------

PayloadRef RpcEnvelope::Serialize() const {
  // Fields 1-3 up to the payload's length prefix, then the payload, then
  // the optional fields 4-9.
  std::string lead;
  CodedOutput lo(&lead);
  lo.WriteString(1, method);
  lo.WriteUInt64(2, request_id);
  lo.WriteTag(3, WireType::kLengthDelimited);
  lo.WriteVarint(payload.size());
  std::string tail;
  CodedOutput to(&tail);
  if (status_code != 0) to.WriteInt64(4, status_code);
  if (!status_msg.empty()) to.WriteString(5, status_msg);
  if (client_id != 0) to.WriteUInt64(6, client_id);
  if (checksum != 0) to.WriteUInt64(7, checksum);
  if (deadline_ns != 0) to.WriteUInt64(8, deadline_ns);
  if (transient) to.WriteUInt64(9, 1);

  const size_t n = lead.size() + payload.size() + tail.size();
  std::shared_ptr<Buffer> frame = Buffer::Allocate(n, nullptr, ZeroInit::kNo);
  char* out = static_cast<char*>(frame->data());
  std::memcpy(out, lead.data(), lead.size());
  payload.CopyTo(out + lead.size());
  if (!tail.empty()) {
    std::memcpy(out + lead.size() + payload.size(), tail.data(), tail.size());
  }
  return PayloadRef::View("", std::move(frame), 0, n);
}

Result<RpcEnvelope> RpcEnvelope::Parse(const PayloadRef& frame) {
  if (!frame.is_contiguous()) {
    return InvalidArgument("RpcEnvelope: frame is not one byte range");
  }
  const std::string_view bytes = frame.first_range();
  CodedInput in(bytes);
  RpcEnvelope e;
  while (!in.AtEnd()) {
    uint32_t field;
    WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    uint64_t v = 0;
    switch (field) {
      case 1:
        TFHPC_RETURN_IF_ERROR(in.ReadString(&e.method));
        break;
      case 2:
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        e.request_id = v;
        break;
      case 3: {
        const uint8_t* d;
        size_t s;
        TFHPC_RETURN_IF_ERROR(in.ReadBytesView(&d, &s));
        e.payload = frame.Slice(
            static_cast<size_t>(reinterpret_cast<const char*>(d) - bytes.data()),
            s);
        break;
      }
      case 4:
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        e.status_code = static_cast<int32_t>(v);
        break;
      case 5:
        TFHPC_RETURN_IF_ERROR(in.ReadString(&e.status_msg));
        break;
      case 6:
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        e.client_id = v;
        break;
      case 7:
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        e.checksum = v;
        break;
      case 8:
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        e.deadline_ns = v;
        break;
      case 9:
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        e.transient = v != 0;
        break;
      default:
        TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  return e;
}

}  // namespace tfhpc::wire
