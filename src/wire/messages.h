// Message schemas serialized with the protobuf wire format (wire/coded.h):
// tensors, graph definitions, cluster definitions and RPC envelopes. These
// correspond to TensorFlow's TensorProto / NodeDef / GraphDef / ClusterDef
// and the framing used by its gRPC worker service; field numbers are local
// to tfhpc but the encoding rules are protobuf-compatible (unknown fields
// are skipped on parse).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "wire/payload.h"

namespace tfhpc::wire {

// ---- TensorProto ----------------------------------------------------------
// field 1: dtype (varint)      field 2: dims (repeated varint)
// field 3: content (bytes)
//
// The parsers check the dims before building anything: an element count or
// byte size that overflows int64, or a byte size that differs from the
// content length, is kInvalidArgument. A peer cannot make the receiver abort
// or allocate more than it sent. Unknown fields are skipped; a parsed tensor
// always holds exactly the content its dims call for.
std::string SerializeTensor(const Tensor& t);
Result<Tensor> ParseTensor(const std::string& data);
Result<Tensor> ParseTensor(const void* data, size_t size);

// Zero-copy variants. SerializeTensorView serializes only the header fields
// (dtype, dims, the field-3 tag + length prefix) into the payload head and
// *references* the tensor's buffer as the content view — the tensor bytes
// are never copied. Flatten()ing the result reproduces SerializeTensor()
// exactly. ParseTensorView adopts the view's buffer directly when the
// content spans the whole buffer (0 copies); otherwise it copies once into a
// pool-allocated, uninitialized buffer. A contiguous payload is parsed in
// place, like ParseTensor.
PayloadRef SerializeTensorView(const Tensor& t);
Result<Tensor> ParseTensorView(const PayloadRef& p);
inline Result<Tensor> ParseTensor(const PayloadRef& p) {
  return ParseTensorView(p);
}

// ---- AttrValue -------------------------------------------------------------
// A graph-attribute value: exactly one of the members is meaningful.
struct AttrValue {
  enum class Kind { kNone, kInt, kFloat, kString, kType, kShape, kBool };
  Kind kind = Kind::kNone;
  int64_t i = 0;
  double f = 0;
  std::string s;
  DType type = DType::kInvalid;
  Shape shape;
  bool b = false;

  static AttrValue Int(int64_t v);
  static AttrValue Float(double v);
  static AttrValue Str(std::string v);
  static AttrValue Type(DType v);
  static AttrValue OfShape(Shape v);
  static AttrValue Bool(bool v);

  bool operator==(const AttrValue& o) const;

  std::string Serialize() const;
  static Result<AttrValue> Parse(const void* data, size_t size);
};

// ---- NodeDef / GraphDef -----------------------------------------------------
struct NodeDef {
  std::string name;                 // field 1
  std::string op;                   // field 2
  std::vector<std::string> inputs;  // field 3; "^name" = control dependency
  std::string device;               // field 4; e.g. "/job:worker/task:0/gpu:0"
  std::map<std::string, AttrValue> attrs;  // field 5 (nested key=1, value=2)

  std::string Serialize() const;
  static Result<NodeDef> Parse(const void* data, size_t size);
  bool operator==(const NodeDef& o) const;
};

struct GraphDef {
  std::vector<NodeDef> nodes;  // field 1
  int64_t version = 1;         // field 2

  std::string Serialize() const;
  static Result<GraphDef> Parse(std::string_view data);
};

// ---- ClusterDef -------------------------------------------------------------
struct JobDef {
  std::string name;                     // field 1
  std::vector<std::string> task_addrs;  // field 2: index in vector == task id

  std::string Serialize() const;
  static Result<JobDef> Parse(const void* data, size_t size);
};

struct ClusterDef {
  std::vector<JobDef> jobs;  // field 1

  std::string Serialize() const;
  static Result<ClusterDef> Parse(const std::string& data);
};

// ---- RegisterStep ------------------------------------------------------------
// Compile-once distributed steps: the client registers one partition's run
// signature (feed names — no tensor values — plus fetches and targets) with
// the owning worker, which compiles it to an Executable and returns a step
// handle. Subsequent RunStep calls carry the handle and the feed tensors
// only, so the worker executes its cached plan without re-pruning or
// re-walking the graph.
struct RegisterStepRequest {
  std::vector<std::string> feeds;    // field 1: feed keys ("node[:slot]")
  std::vector<std::string> fetches;  // field 2
  std::vector<std::string> targets;  // field 3

  std::string Serialize() const;
  static Result<RegisterStepRequest> Parse(std::string_view data);
};

struct RegisterStepResponse {
  uint64_t handle = 0;        // field 1: worker-local step handle (never 0)
  int64_t graph_version = 0;  // field 2: worker graph version compiled against

  std::string Serialize() const;
  static Result<RegisterStepResponse> Parse(std::string_view data);
};

// ---- RPC envelope ------------------------------------------------------------
// Framing for the in-process transports: one envelope per message. The gRPC
// path frames the whole envelope; MPI and RDMA frame the header fields alone
// and move the payload beside the frame.
struct RpcEnvelope {
  std::string method;    // field 1 (e.g. "RecvTensor", "Enqueue")
  uint64_t request_id = 0;  // field 2
  PayloadRef payload;    // field 3 (method-specific serialized body)
  int32_t status_code = 0;  // field 4 (tfhpc::Code as int)
  std::string status_msg;   // field 5
  // Fault-tolerance fields. (client_id, request_id) identifies one logical
  // call: retried sends reuse the pair so servers can deduplicate
  // non-idempotent ops. client_id == 0 means "no dedup" (legacy callers).
  uint64_t client_id = 0;  // field 6
  // PayloadChecksum (XXH3-64-based, wire/payload.h) of payload, set by
  // clients so servers can reject frames corrupted in flight with a
  // retryable error. 0 means "unchecked".
  uint64_t checksum = 0;  // field 7
  // Absolute steady-clock deadline (ns since clock epoch) for this call;
  // 0 = none. Absolute works because the in-process cluster shares one
  // clock — a real deployment would carry a relative budget plus a
  // clock-skew bound. Servers refuse already-expired requests with
  // kDeadlineExceeded before dispatching and bound blocking work by it.
  uint64_t deadline_ns = 0;  // field 8
  // For status_code == kResourceExhausted: true when the exhaustion is
  // transient (pool pressure that may clear — retryable after backoff),
  // false when permanent (the request itself exceeds a fixed budget).
  // Carried explicitly so the taxonomy survives the RPC boundary even if a
  // server rewrites the status message.
  bool transient = false;  // field 9

  // The frame in one pooled block, returned as a view of it. Its size is
  // known before any byte is written, so the payload is copied once, into
  // its final place; a view payload's buffer bytes are copied there too,
  // which is the flattening the gRPC staging model charges for.
  PayloadRef Serialize() const;
  // Parses a contiguous frame (a split one is kInvalidArgument). The payload
  // is frame.Slice() of its field: a sub-view of the frame's block, not a
  // copy, when the frame is a view; inline bytes when the frame is.
  static Result<RpcEnvelope> Parse(const PayloadRef& frame);
};

}  // namespace tfhpc::wire
