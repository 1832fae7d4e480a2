// Protocol-Buffers wire-format primitives (proto3 subset): varints, zigzag,
// fixed-width words, and length-delimited fields with tags. TensorFlow
// serialises graphs, tensors and RPC envelopes with protobuf; tfhpc uses the
// same wire format so serialized artifacts have a well-defined, stable,
// self-skipping binary encoding.
//
// Wire types implemented: 0 (varint), 1 (64-bit), 2 (length-delimited),
// 5 (32-bit). Groups (3/4) are obsolete and rejected.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace tfhpc::wire {

enum class WireType : uint32_t {
  kVarint = 0,
  kFixed64 = 1,
  kLengthDelimited = 2,
  kFixed32 = 5,
};

inline uint32_t MakeTag(uint32_t field, WireType type) {
  return (field << 3) | static_cast<uint32_t>(type);
}

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Append-only encoder.
class CodedOutput {
 public:
  explicit CodedOutput(std::string* out) : out_(out) {}

  void WriteVarint(uint64_t v);
  void WriteTag(uint32_t field, WireType type) {
    WriteVarint(MakeTag(field, type));
  }
  void WriteFixed32(uint32_t v);
  void WriteFixed64(uint64_t v);

  // Tagged field writers.
  void WriteUInt64(uint32_t field, uint64_t v);
  void WriteInt64(uint32_t field, int64_t v) {
    WriteUInt64(field, static_cast<uint64_t>(v));
  }
  void WriteSInt64(uint32_t field, int64_t v) {
    WriteUInt64(field, ZigZagEncode(v));
  }
  void WriteBool(uint32_t field, bool v) { WriteUInt64(field, v ? 1 : 0); }
  void WriteDouble(uint32_t field, double v);
  void WriteFloat(uint32_t field, float v);
  void WriteString(uint32_t field, const std::string& v);
  void WriteBytes(uint32_t field, const void* data, size_t size);
  // Nested message: serialize into a scratch string, emit length-delimited.
  void WriteMessage(uint32_t field, const std::string& serialized) {
    WriteBytes(field, serialized.data(), serialized.size());
  }

  size_t size() const { return out_->size(); }

 private:
  std::string* out_;
};

// Bounds-checked decoder over a byte range.
class CodedInput {
 public:
  CodedInput(const void* data, size_t size)
      : p_(static_cast<const uint8_t*>(data)), end_(p_ + size) {}
  explicit CodedInput(std::string_view s) : CodedInput(s.data(), s.size()) {}

  bool AtEnd() const { return p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  Status ReadVarint(uint64_t* v);
  Status ReadFixed32(uint32_t* v);
  Status ReadFixed64(uint64_t* v);
  // Reads a tag; returns field number and wire type.
  Status ReadTag(uint32_t* field, WireType* type);
  Status ReadDouble(double* v);
  Status ReadFloat(float* v);
  // Reads a length prefix and returns a view over the payload (no copy).
  Status ReadBytesView(const uint8_t** data, size_t* size);
  Status ReadString(std::string* v);
  // Skips one field of the given wire type (unknown-field tolerance).
  Status SkipField(WireType type);
  // Consumes and returns every unread byte.
  std::string_view TakeRest() {
    const std::string_view rest(reinterpret_cast<const char*>(p_),
                                remaining());
    p_ = end_;
    return rest;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

}  // namespace tfhpc::wire
