// Unit tests for the protobuf wire format subset, message schemas and the
// payload checksum.
#include <dlfcn.h>
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "wire/coded.h"
#include "wire/messages.h"

namespace tfhpc::wire {
namespace {

constexpr size_t kMiB = size_t{1} << 20;

// Deterministic filler bytes: the high byte of a 64-bit LCG.
std::string TestBytes(size_t n, uint64_t seed) {
  std::string s(n, '\0');
  for (char& c : s) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(seed >> 56);
  }
  return s;
}

// ---- Varints / primitives ---------------------------------------------------

TEST(CodedTest, VarintRoundTrip) {
  for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 300, 16383, 16384,
                                          uint64_t{1} << 32, UINT64_MAX}) {
    std::string buf;
    CodedOutput out(&buf);
    out.WriteVarint(v);
    CodedInput in(buf);
    uint64_t got;
    ASSERT_TRUE(in.ReadVarint(&got).ok());
    EXPECT_EQ(got, v);
    EXPECT_TRUE(in.AtEnd());
  }
}

TEST(CodedTest, VarintKnownEncoding) {
  // 300 = 0b10 0101100 -> AC 02 (protobuf spec example).
  std::string buf;
  CodedOutput out(&buf);
  out.WriteVarint(300);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0xAC);
  EXPECT_EQ(static_cast<uint8_t>(buf[1]), 0x02);
}

TEST(CodedTest, TruncatedVarintFails) {
  std::string buf = "\xAC";  // continuation bit set, no next byte
  CodedInput in(buf);
  uint64_t v;
  EXPECT_EQ(in.ReadVarint(&v).code(), Code::kOutOfRange);
}

TEST(CodedTest, OverlongVarintFails) {
  std::string buf(11, '\x80');  // 11 continuation bytes > max 10
  CodedInput in(buf);
  uint64_t v;
  EXPECT_FALSE(in.ReadVarint(&v).ok());
}

TEST(CodedTest, ZigZag) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{12345}, int64_t{-98765},
                    INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(CodedTest, FixedWidthRoundTrip) {
  std::string buf;
  CodedOutput out(&buf);
  out.WriteFixed32(0xDEADBEEF);
  out.WriteFixed64(0x0123456789ABCDEFull);
  CodedInput in(buf);
  uint32_t a;
  uint64_t b;
  ASSERT_TRUE(in.ReadFixed32(&a).ok());
  ASSERT_TRUE(in.ReadFixed64(&b).ok());
  EXPECT_EQ(a, 0xDEADBEEF);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
}

TEST(CodedTest, DoubleFloatRoundTrip) {
  std::string buf;
  CodedOutput out(&buf);
  out.WriteDouble(1, 3.14159);
  out.WriteFloat(2, -2.5f);
  CodedInput in(buf);
  uint32_t field;
  WireType wt;
  double d;
  float f;
  ASSERT_TRUE(in.ReadTag(&field, &wt).ok());
  EXPECT_EQ(field, 1u);
  EXPECT_EQ(wt, WireType::kFixed64);
  ASSERT_TRUE(in.ReadDouble(&d).ok());
  EXPECT_EQ(d, 3.14159);
  ASSERT_TRUE(in.ReadTag(&field, &wt).ok());
  ASSERT_TRUE(in.ReadFloat(&f).ok());
  EXPECT_EQ(f, -2.5f);
}

TEST(CodedTest, TagFieldZeroRejected) {
  std::string buf;
  CodedOutput out(&buf);
  out.WriteVarint(0);  // tag with field 0
  CodedInput in(buf);
  uint32_t field;
  WireType wt;
  EXPECT_FALSE(in.ReadTag(&field, &wt).ok());
}

TEST(CodedTest, GroupWireTypesRejected) {
  std::string buf;
  CodedOutput out(&buf);
  out.WriteVarint((1 << 3) | 3);  // start-group
  CodedInput in(buf);
  uint32_t field;
  WireType wt;
  EXPECT_FALSE(in.ReadTag(&field, &wt).ok());
}

TEST(CodedTest, SkipUnknownFields) {
  std::string buf;
  CodedOutput out(&buf);
  out.WriteUInt64(10, 7);
  out.WriteString(11, "skip me");
  out.WriteDouble(12, 1.5);
  out.WriteFloat(13, 2.5f);
  out.WriteUInt64(1, 42);
  CodedInput in(buf);
  uint64_t found = 0;
  while (!in.AtEnd()) {
    uint32_t field;
    WireType wt;
    ASSERT_TRUE(in.ReadTag(&field, &wt).ok());
    if (field == 1) {
      ASSERT_TRUE(in.ReadVarint(&found).ok());
    } else {
      ASSERT_TRUE(in.SkipField(wt).ok());
    }
  }
  EXPECT_EQ(found, 42u);
}

TEST(CodedTest, TruncatedLengthDelimitedFails) {
  std::string buf;
  CodedOutput out(&buf);
  out.WriteTag(1, WireType::kLengthDelimited);
  out.WriteVarint(100);  // declares 100 bytes, none present
  CodedInput in(buf);
  uint32_t field;
  WireType wt;
  ASSERT_TRUE(in.ReadTag(&field, &wt).ok());
  const uint8_t* d;
  size_t s;
  EXPECT_EQ(in.ReadBytesView(&d, &s).code(), Code::kOutOfRange);
}

// ---- TensorProto --------------------------------------------------------------

TEST(TensorProtoTest, RoundTripF32Matrix) {
  Tensor t = Tensor::FromVector(Shape{2, 3},
                                std::vector<float>{1, 2, 3, 4, 5, 6});
  auto r = ParseTensor(SerializeTensor(t));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->BitwiseEquals(t));
}

TEST(TensorProtoTest, RoundTripScalar) {
  Tensor t = Tensor::Scalar(2.75);
  auto r = ParseTensor(SerializeTensor(t));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->scalar<double>(), 2.75);
  EXPECT_TRUE(r->shape().IsScalar());
}

TEST(TensorProtoTest, RoundTripComplex) {
  Tensor t(DType::kC128, Shape{4});
  t.mutable_data<std::complex<double>>()[2] = {1.5, -2.5};
  auto r = ParseTensor(SerializeTensor(t));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->BitwiseEquals(t));
}

TEST(TensorProtoTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTensor(std::string("not a proto")).ok());
}

TEST(TensorProtoTest, RejectsUnknownDtypeEnum) {
  // A corrupted dtype varint must yield a parse error, not abort (found by
  // the checkpoint fuzz campaign).
  std::string buf;
  CodedOutput co(&buf);
  co.WriteUInt64(1, 200);  // no such dtype
  auto r = ParseTensor(buf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kInvalidArgument);
}

TEST(TensorProtoTest, RejectsImplausibleDims) {
  std::string buf;
  CodedOutput co(&buf);
  co.WriteUInt64(1, static_cast<uint64_t>(DType::kF64));
  co.WriteUInt64(2, uint64_t{1} << 60);  // would overflow num_elements
  co.WriteUInt64(2, uint64_t{1} << 60);
  EXPECT_FALSE(ParseTensor(buf).ok());
}

// An f32 proto with two dims and 4 content bytes, whole or split into a
// head and a content view the way SerializeTensorView frames it.
std::string ProtoHeadWithDims(uint64_t d0, uint64_t d1) {
  std::string buf;
  CodedOutput co(&buf);
  co.WriteUInt64(1, static_cast<uint64_t>(DType::kF32));
  co.WriteUInt64(2, d0);
  co.WriteUInt64(2, d1);
  co.WriteTag(3, WireType::kLengthDelimited);
  co.WriteVarint(4);
  return buf;
}

// Dims are checked before anything is built: an overflowing element count
// once aborted in Shape::num_elements(), and a byte size the content cannot
// fill once reached the allocator (1 PiB for [2^24, 2^24]).
TEST(TensorProtoTest, RejectsDimsBeforeBuildingTheTensor) {
  const uint64_t kShapes[][2] = {{uint64_t{1} << 40, uint64_t{1} << 40},
                                 {uint64_t{1} << 24, uint64_t{1} << 24}};
  auto content = Buffer::Allocate(4);
  for (const auto& dims : kShapes) {
    const std::string head = ProtoHeadWithDims(dims[0], dims[1]);
    const std::string whole = head + std::string(4, '\0');
    if (dims[0] == uint64_t{1} << 40) {
      EXPECT_EQ(whole.size(), 22u);
    }
    const PayloadRef split = PayloadRef::View(head, content, 0, 4);
    for (const Result<Tensor>& r :
         {ParseTensor(whole), ParseTensorView(PayloadRef(whole)),
          ParseTensorView(split)}) {
      ASSERT_FALSE(r.ok()) << dims[0];
      EXPECT_EQ(r.status().code(), Code::kInvalidArgument);
    }
  }
}

// Field 4 is not part of TensorProto: the parser skips it like any unknown
// field, so a head that sets it and sends no content fails the content
// length check and never yields a tensor its content cannot fill.
TEST(TensorProtoTest, RejectsField4WithoutContent) {
  for (const auto& [d0, d1] :
       {std::pair<uint64_t, uint64_t>{1 << 24, 1 << 24},
        std::pair<uint64_t, uint64_t>{uint64_t{1} << 40, uint64_t{1} << 40},
        std::pair<uint64_t, uint64_t>{2, 3}}) {
    std::string head;
    CodedOutput co(&head);
    co.WriteUInt64(1, static_cast<uint64_t>(DType::kF32));
    co.WriteUInt64(2, d0);
    co.WriteUInt64(2, d1);
    co.WriteBool(4, true);
    for (const Result<Tensor>& r :
         {ParseTensor(head), ParseTensorView(PayloadRef(head))}) {
      ASSERT_FALSE(r.ok()) << d0;
      EXPECT_EQ(r.status().code(), Code::kInvalidArgument);
    }
  }
}

TEST(TensorProtoTest, RejectsContentSizeMismatch) {
  Tensor t = Tensor::FromVector(std::vector<float>{1, 2, 3});
  std::string s = SerializeTensor(t);
  s.pop_back();  // corrupt: drop last content byte
  EXPECT_FALSE(ParseTensor(s).ok());
}

// ---- AttrValue ------------------------------------------------------------------

TEST(AttrValueTest, RoundTripAllKinds) {
  std::vector<AttrValue> vals = {
      AttrValue::Int(-42),
      AttrValue::Float(2.718),
      AttrValue::Str("hello"),
      AttrValue::Type(DType::kC128),
      AttrValue::OfShape(Shape{3, 4, 5}),
      AttrValue::OfShape(Shape{}),  // scalar shape must survive
      AttrValue::Bool(true),
  };
  for (const auto& v : vals) {
    std::string s = v.Serialize();
    auto r = AttrValue::Parse(s.data(), s.size());
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(*r == v);
  }
}

// ---- NodeDef / GraphDef ------------------------------------------------------------

NodeDef MakeNode() {
  NodeDef n;
  n.name = "matmul_0";
  n.op = "MatMul";
  n.inputs = {"a", "b", "^init"};
  n.device = "/job:worker/task:0/gpu:0";
  n.attrs["T"] = AttrValue::Type(DType::kF32);
  n.attrs["transpose_a"] = AttrValue::Bool(false);
  return n;
}

TEST(NodeDefTest, RoundTrip) {
  NodeDef n = MakeNode();
  std::string s = n.Serialize();
  auto r = NodeDef::Parse(s.data(), s.size());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r == n);
}

TEST(NodeDefTest, EmptyNameRejected) {
  NodeDef n;
  n.op = "NoOp";
  std::string s = n.Serialize();
  EXPECT_FALSE(NodeDef::Parse(s.data(), s.size()).ok());
}

TEST(GraphDefTest, RoundTrip) {
  GraphDef g;
  g.version = 3;
  g.nodes.push_back(MakeNode());
  NodeDef n2;
  n2.name = "c";
  n2.op = "Const";
  g.nodes.push_back(n2);
  auto r = GraphDef::Parse(g.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->version, 3);
  ASSERT_EQ(r->nodes.size(), 2u);
  EXPECT_TRUE(r->nodes[0] == g.nodes[0]);
  EXPECT_EQ(r->nodes[1].name, "c");
}

TEST(GraphDefTest, EmptyGraph) {
  GraphDef g;
  auto r = GraphDef::Parse(g.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->nodes.empty());
}

// ---- ClusterDef -------------------------------------------------------------------

TEST(ClusterDefTest, RoundTrip) {
  ClusterDef c;
  JobDef ps;
  ps.name = "ps";
  ps.task_addrs = {"t01n01:8888"};
  JobDef worker;
  worker.name = "worker";
  worker.task_addrs = {"t01n02:8888", "t01n03:8888"};
  c.jobs = {ps, worker};
  auto r = ClusterDef::Parse(c.Serialize());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->jobs.size(), 2u);
  EXPECT_EQ(r->jobs[0].name, "ps");
  EXPECT_EQ(r->jobs[1].task_addrs.size(), 2u);
  EXPECT_EQ(r->jobs[1].task_addrs[1], "t01n03:8888");
}

// ---- RpcEnvelope -------------------------------------------------------------------

TEST(RpcEnvelopeTest, RoundTrip) {
  RpcEnvelope e;
  e.method = "RecvTensor";
  e.request_id = 77;
  e.payload = std::string("\x00\x01\x02", 3);
  e.status_code = static_cast<int32_t>(Code::kNotFound);
  e.status_msg = "no such key";
  auto r = RpcEnvelope::Parse(e.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->method, "RecvTensor");
  EXPECT_EQ(r->request_id, 77u);
  EXPECT_EQ(r->payload, e.payload);
  EXPECT_EQ(r->status_code, e.status_code);
  EXPECT_EQ(r->status_msg, "no such key");
}

TEST(RpcEnvelopeTest, DefaultStatusOmitted) {
  RpcEnvelope e;
  e.method = "Ping";
  auto r = RpcEnvelope::Parse(e.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status_code, 0);
  EXPECT_TRUE(r->status_msg.empty());
}

// Serialized tensors embedded in envelopes survive binary payloads.
TEST(RpcEnvelopeTest, CarriesSerializedTensor) {
  Tensor t(DType::kF64, Shape{100});
  for (int i = 0; i < 100; ++i) t.mutable_data<double>()[i] = i * 0.5;
  RpcEnvelope e;
  e.method = "Enqueue";
  e.payload = SerializeTensor(t);
  auto r = RpcEnvelope::Parse(e.Serialize());
  ASSERT_TRUE(r.ok());
  auto t2 = ParseTensor(r->payload);
  ASSERT_TRUE(t2.ok());
  EXPECT_TRUE(t2->BitwiseEquals(t));
}

// The frame is one pooled block; the parsed payload is a sub-view of it, so
// the payload bytes are written once by Serialize and never copied again.
TEST(RpcEnvelopeTest, ParsedPayloadIsASubViewOfTheFrame) {
  RpcEnvelope e;
  e.method = "VarWrite";
  e.request_id = 5;
  e.payload = std::string(1000, 'p');
  e.status_msg = "after the payload";
  const PayloadRef frame = e.Serialize();
  ASSERT_TRUE(frame.is_view());
  EXPECT_TRUE(frame.head().empty());
  auto r = RpcEnvelope::Parse(frame);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->payload.is_view());
  EXPECT_TRUE(r->payload.head().empty());
  EXPECT_EQ(r->payload.buffer(), frame.buffer());
  EXPECT_GT(r->payload.view_offset(), 0u);
  EXPECT_EQ(r->payload, e.payload);
  EXPECT_EQ(r->status_msg, "after the payload");
  // The same bytes inline parse to the same envelope, with inline bytes.
  auto inline_r = RpcEnvelope::Parse(PayloadRef(frame.Flatten()));
  ASSERT_TRUE(inline_r.ok());
  EXPECT_FALSE(inline_r->payload.is_view());
  EXPECT_EQ(inline_r->payload, e.payload);
}

// A view payload's buffer bytes are flattened into the frame exactly as
// inline bytes are, and a split frame is refused rather than copied.
TEST(RpcEnvelopeTest, ViewPayloadFramesLikeItsBytes) {
  Tensor t(DType::kF64, Shape{33});
  for (int i = 0; i < 33; ++i) t.mutable_data<double>()[i] = i * 1.5;
  RpcEnvelope view_e;
  view_e.method = "Enqueue";
  view_e.payload = SerializeTensorView(t);
  ASSERT_TRUE(view_e.payload.is_view());
  RpcEnvelope inline_e = view_e;
  inline_e.payload = view_e.payload.Flatten();
  const PayloadRef frame = view_e.Serialize();
  EXPECT_EQ(frame, inline_e.Serialize());
  auto r = RpcEnvelope::Parse(frame);
  ASSERT_TRUE(r.ok());
  auto back = ParseTensor(r->payload);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->BitwiseEquals(t));
  EXPECT_EQ(RpcEnvelope::Parse(view_e.payload).status().code(),
            Code::kInvalidArgument);
}

// ---- PayloadRef ------------------------------------------------------------------

TEST(PayloadRefTest, ContiguousReadsOneRangeInPlace) {
  auto buffer = Buffer::Allocate(16);
  std::memcpy(buffer->data(), "0123456789abcdef", 16);
  const PayloadRef inline_p(std::string("inline"));
  const PayloadRef range = PayloadRef::View("", buffer, 3, 8);
  const PayloadRef split = PayloadRef::View("hd", buffer, 3, 8);
  EXPECT_TRUE(inline_p.is_contiguous());
  EXPECT_TRUE(range.is_contiguous());
  EXPECT_FALSE(split.is_contiguous());
  std::string scratch;
  EXPECT_EQ(inline_p.Contiguous(&scratch).data(), inline_p.head().data());
  EXPECT_EQ(range.Contiguous(&scratch).data(),
            reinterpret_cast<const char*>(range.view_data()));
  EXPECT_EQ(range.Contiguous(&scratch), "3456789a");
  EXPECT_TRUE(scratch.empty()) << "one range is never flattened";
  EXPECT_EQ(split.Contiguous(&scratch), "hd3456789a");
  EXPECT_EQ(scratch, "hd3456789a");
  EXPECT_EQ(split.first_range(), "hd");
}

// 2 MiB + 7 B is copied in chunks across the pool; the first chunk spans
// the 7-byte head and the start of the view.
TEST(PayloadRefTest, CopyToOfASplitPayloadWritesItsFlattenedBytes) {
  const std::string bytes = TestBytes(64 + 2 * kMiB, 3);
  auto buffer = Buffer::Allocate(bytes.size());
  std::memcpy(buffer->data(), bytes.data(), bytes.size());
  const PayloadRef split =
      PayloadRef::View(TestBytes(7, 4), buffer, 64, 2 * kMiB);
  ASSERT_EQ(split.size(), 2 * kMiB + 7);
  std::string out(split.size(), '\0');
  split.CopyTo(out.data());
  EXPECT_TRUE(out == split.Flatten());
}

TEST(PayloadRefTest, SliceKeepsViewBytesAsAView) {
  auto buffer = Buffer::Allocate(16);
  std::memcpy(buffer->data(), "0123456789abcdef", 16);
  const PayloadRef split = PayloadRef::View("head", buffer, 2, 10);
  const std::string flat = split.Flatten();
  for (size_t off = 0; off <= flat.size(); ++off) {
    for (size_t len = 0; off + len <= flat.size(); ++len) {
      const PayloadRef s = split.Slice(off, len);
      EXPECT_EQ(s.Flatten(), flat.substr(off, len)) << off << "+" << len;
      if (len > 0 && off + len > 4) {
        ASSERT_TRUE(s.is_view()) << off << "+" << len;
        EXPECT_EQ(s.buffer(), buffer);
        EXPECT_EQ(s.head().size(), off < 4 ? 4 - off : 0);
      } else {
        EXPECT_FALSE(s.is_view());
      }
    }
  }
}

// ---- RegisterStep messages ---------------------------------------------------

TEST(RegisterStepTest, RequestRoundTrip) {
  RegisterStepRequest req;
  req.feeds = {"x", "y:1"};
  req.fetches = {"loss", "acc"};
  req.targets = {"train_op", "_send_w_0"};
  auto r = RegisterStepRequest::Parse(req.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->feeds, req.feeds);
  EXPECT_EQ(r->fetches, req.fetches);
  EXPECT_EQ(r->targets, req.targets);
}

TEST(RegisterStepTest, EmptyRequestRoundTrip) {
  auto r = RegisterStepRequest::Parse(RegisterStepRequest{}.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->feeds.empty());
  EXPECT_TRUE(r->fetches.empty());
  EXPECT_TRUE(r->targets.empty());
}

TEST(RegisterStepTest, ResponseRoundTrip) {
  RegisterStepResponse resp;
  resp.handle = 0x1234567890ULL;
  resp.graph_version = 42;
  auto r = RegisterStepResponse::Parse(resp.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->handle, resp.handle);
  EXPECT_EQ(r->graph_version, 42);
}

TEST(RegisterStepTest, ResponseNegativeVersionSurvivesZigZag) {
  RegisterStepResponse resp;
  resp.handle = 1;
  resp.graph_version = -7;
  auto r = RegisterStepResponse::Parse(resp.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->graph_version, -7);
}

// ---- Payload checksum (XXH3-64) -----------------------------------------------

// XXH3_64bits from the system's libxxhash, the reference the pinned values
// below were taken from, or null when the library is not installed.
using Xxh3Fn = uint64_t (*)(const void*, size_t);
Xxh3Fn ReferenceXxh3() {
  static const Xxh3Fn fn = []() -> Xxh3Fn {
    void* lib = dlopen("libxxhash.so.0", RTLD_NOW | RTLD_LOCAL);
    if (lib == nullptr) return nullptr;
    return reinterpret_cast<Xxh3Fn>(dlsym(lib, "XXH3_64bits"));
  }();
  return fn;
}

TEST(WireChecksumTest, MatchesPublishedXxh3Vectors) {
  EXPECT_EQ(PayloadChecksum(std::string()), 0x2d06800538d394c2ull);
  EXPECT_EQ(PayloadChecksum(std::string("a")), 0xe6c632b61e964e1full);
  EXPECT_EQ(PayloadChecksum(std::string("abc")), 0x78af5f94892f3950ull);
  EXPECT_EQ(PayloadChecksum(
                std::string("Nobody inspects the spammish repetition")),
            0x6cb00603b5cc47e9ull);
}

// One length or more from every XXH3 branch: 1-3, 4-8, 9-16, 17-128 (each
// of its four mix counts), 129-240, and the long loop from 241 B, around
// the 256 B streaming buffer and the 1 KiB block. Values from libxxhash
// 0.8.1's XXH3_64bits.
TEST(WireChecksumTest, MatchesXxh3OnEveryLengthBranch) {
  const std::pair<size_t, uint64_t> kVectors[] = {
      {1, 0xc00f9d4f580c0c3aull},    {3, 0x71020e50847344f4ull},
      {4, 0x582cceaae7840996ull},    {8, 0xed94c0f0480fbf27ull},
      {9, 0xc9150bde9abf5af4ull},    {16, 0xd01fa69d2dba6d55ull},
      {17, 0x9832cab1c5165867ull},   {33, 0x6ab57e164f910d67ull},
      {65, 0x77b81810e37ba91eull},   {97, 0x04052058dd410046ull},
      {128, 0x6c0dc8384848196cull},  {129, 0xcc1a259fe10479e0ull},
      {200, 0x2e633929d7ad6a7dull},  {240, 0x4ec60530b8127659ull},
      {241, 0x21a622de21a37d71ull},  {256, 0x5557cf0c70b7f142ull},
      {257, 0xa732bbad1947cbf2ull},  {1023, 0x1e34e7b1cce8d454ull},
      {1024, 0x5b63567e2de83c64ull}, {1025, 0x8be12fd28501a6faull},
      {4099, 0xa5eb1c75aeb0caa4ull},
  };
  for (const auto& [n, digest] : kVectors) {
    EXPECT_EQ(PayloadChecksum(TestBytes(n, n)), digest) << n;
  }
}

// Where libxxhash is installed, every length up to 5,000 B and the 1 MiB
// chunk itself hash exactly as its XXH3_64bits does.
TEST(WireChecksumTest, MatchesLibxxhashUpToOneChunk) {
  const Xxh3Fn reference = ReferenceXxh3();
  if (reference == nullptr) GTEST_SKIP() << "libxxhash.so.0 not installed";
  for (size_t n = 0; n <= 5000; ++n) {
    const std::string bytes = TestBytes(n, n + 3);
    ASSERT_EQ(PayloadChecksum(bytes), reference(bytes.data(), n)) << n;
  }
  for (size_t n : {kMiB - 1, kMiB}) {
    const std::string bytes = TestBytes(n, n);
    EXPECT_EQ(PayloadChecksum(bytes), reference(bytes.data(), n)) << n;
  }
}

// The serially built checksum of a payload over 1 MiB: each 1 MiB chunk
// (the last one short) hashed alone, the digests written as little-endian
// bytes and hashed once more.
uint64_t SerialChunkedChecksum(const std::string& bytes) {
  std::string digests;
  for (size_t at = 0; at < bytes.size(); at += kMiB) {
    const uint64_t d = PayloadChecksum(bytes.substr(at, kMiB));
    for (int i = 0; i < 8; ++i) {
      digests.push_back(static_cast<char>(d >> (8 * i)));
    }
  }
  return PayloadChecksum(digests);
}

TEST(WireChecksumTest, PayloadsOverOneMiBHashTheirChunkDigests) {
  // Exactly 1 MiB is still one XXH3 stream, and 1 MiB + 1 is two chunks.
  // Both values are built from libxxhash 0.8.1's XXH3_64bits.
  EXPECT_EQ(PayloadChecksum(TestBytes(kMiB, 1)), 0x7b0c7e7348bde3ffull);
  EXPECT_EQ(PayloadChecksum(TestBytes(kMiB + 1, kMiB + 1)),
            0x1b8b5ddfcacd6403ull);
  // 1 MiB + 1 to 2 MiB - 1 are hashed serially, 2 MiB and up across the
  // pool; 16 MiB + 29 B is the stream push payload.
  for (size_t n : {kMiB + 1, 2 * kMiB - 1, 2 * kMiB, 2 * kMiB + 1,
                   16 * kMiB + 29}) {
    const std::string bytes = TestBytes(n, n);
    EXPECT_EQ(PayloadChecksum(bytes), SerialChunkedChecksum(bytes)) << n;
  }
}

// The gRPC server checks flattened bytes against the sum the client took
// over the view, so a view must hash exactly like its Flatten(). Head and
// body lengths straddle the 64-byte stripe, the 240-byte short-input limit,
// the 256-byte streaming buffer and the 1 KiB block, with bytes carried from
// head to body; a nonzero view offset starts the body unaligned. Bodies
// near 1 and 2 MiB put chunk boundaries in the view, and with a head the
// first chunk spans the head and the view.
TEST(WireChecksumTest, ViewHashesLikeItsFlattenedBytes) {
  const size_t kBodies[] = {0,    1,        31,   32,          33,
                            63,   64,       65,   200,         216,
                            217,  256,      1000, 1024,        kMiB - 7,
                            kMiB, 2 * kMiB - 7,   2 * kMiB + 1};
  const size_t kOffsets[] = {0, 5};
  std::vector<size_t> every_head(41);
  for (size_t head = 0; head <= 40; ++head) every_head[head] = head;
  const std::vector<size_t> few_heads = {0, 7, 40};
  for (size_t body : kBodies) {
    for (size_t offset : kOffsets) {
      const std::string bytes = TestBytes(offset + body + 1, body);
      auto buffer = Buffer::Allocate(bytes.size());
      std::memcpy(buffer->data(), bytes.data(), bytes.size());
      for (size_t head : body < kMiB - 7 ? every_head : few_heads) {
        const PayloadRef view =
            PayloadRef::View(TestBytes(head, head + 100), buffer, offset, body);
        const std::string flat = view.Flatten();
        ASSERT_EQ(flat.size(), head + body);
        EXPECT_EQ(PayloadChecksum(view), PayloadChecksum(flat))
            << "head " << head << " body " << body << " offset " << offset;
        EXPECT_EQ(PayloadChecksum(PayloadRef(flat)), PayloadChecksum(flat));
      }
    }
  }
}

// Every SIMD tier the host supports gives the baseline tier's digest, for
// contiguous payloads and for views split after a head, over every length
// up to 4 KiB and at the chunk sizes.
TEST(WireChecksumTest, EveryTierGivesTheSameDigest) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 4096; ++n) lengths.push_back(n);
  for (size_t n : {kMiB - 1, kMiB, kMiB + 1, 2 * kMiB + 41}) {
    lengths.push_back(n);
  }
  const std::string bytes = TestBytes(2 * kMiB + 41, 11);
  auto buffer = Buffer::Allocate(bytes.size());
  std::memcpy(buffer->data(), bytes.data(), bytes.size());
  for (const SimdTier tier : SupportedSimdTiers()) {
    SCOPED_TRACE(SimdTierName(tier));
    for (size_t n : lengths) {
      const PayloadRef contiguous = PayloadRef::View("", buffer, 0, n);
      ASSERT_EQ(PayloadChecksumOnTier(tier, contiguous),
                PayloadChecksumOnTier(SimdTier::kBaseline, contiguous))
          << n;
      const size_t head = n % 301;
      const PayloadRef split =
          PayloadRef::View(bytes.substr(0, head), buffer, head, n - head);
      ASSERT_EQ(PayloadChecksumOnTier(tier, split),
                PayloadChecksumOnTier(SimdTier::kBaseline, contiguous))
          << n << " split after " << head;
    }
  }
}

TEST(WireChecksumTest, EverySingleBitFlipChangesTheSum) {
  std::string bytes = TestBytes(4096 + 37, 7);
  const uint64_t clean = PayloadChecksum(bytes);
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      ASSERT_NE(PayloadChecksum(bytes), clean) << "byte " << i << " bit " << bit;
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
    }
  }
  // Four chunks, hashed across the pool: flips at both sides of the first
  // chunk boundary, at the start of the third chunk and in the short last.
  std::string chunked = TestBytes(3 * kMiB + 5, 8);
  const uint64_t chunked_clean = PayloadChecksum(chunked);
  for (size_t i : {size_t{0}, kMiB - 1, kMiB, 2 * kMiB, chunked.size() - 1}) {
    for (int bit = 0; bit < 8; ++bit) {
      chunked[i] = static_cast<char>(chunked[i] ^ (1 << bit));
      ASSERT_NE(PayloadChecksum(chunked), chunked_clean)
          << "byte " << i << " bit " << bit;
      chunked[i] = static_cast<char>(chunked[i] ^ (1 << bit));
    }
  }
}

}  // namespace
}  // namespace tfhpc::wire
