// PayloadRef: a cord-like payload for RPC envelopes. A payload is either
// inline bytes (an owned std::string, as before) or a *view* — a small inline
// head (serialized header fields) followed by a reference into an existing
// Buffer. Views let the in-process transports model protocol-faithful
// staging: RDMA hands a tensor's buffer reference across without ever
// serializing the content, MPI stages it exactly once, and gRPC flattens
// (serializes) as real gRPC must. A view with an empty head is one byte
// range inside a buffer: that is how a transport delivers a payload it
// staged, so the receiver reads the staged bytes in place.
//
// Invariant: Flatten() returns exactly the bytes the classic inline encoding
// would have produced, so any consumer may flatten and every legacy parser
// keeps working; checksums are identical across representations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/buffer.h"
#include "core/simd.h"

namespace tfhpc::wire {

class PayloadRef {
 public:
  PayloadRef() = default;
  // Inline payloads; implicit so existing `envelope.payload = str` sites and
  // string-literal comparisons keep compiling.
  PayloadRef(std::string bytes) : head_(std::move(bytes)) {}
  PayloadRef(const char* bytes) : head_(bytes) {}

  PayloadRef& operator=(std::string bytes) {
    head_ = std::move(bytes);
    buffer_.reset();
    offset_ = len_ = 0;
    return *this;
  }
  PayloadRef& operator=(const char* bytes) { return *this = std::string(bytes); }

  // View payload: `head` holds serialized header bytes, the content is
  // buffer[offset, offset+len) and is NOT copied.
  static PayloadRef View(std::string head, std::shared_ptr<Buffer> buffer,
                         size_t offset, size_t len);

  size_t size() const { return head_.size() + len_; }
  bool empty() const { return size() == 0; }
  void clear() {
    head_.clear();
    buffer_.reset();
    offset_ = len_ = 0;
  }

  bool is_view() const { return buffer_ != nullptr; }
  const std::string& head() const { return head_; }
  const std::shared_ptr<Buffer>& buffer() const { return buffer_; }
  size_t view_offset() const { return offset_; }
  size_t view_size() const { return len_; }
  const uint8_t* view_data() const {
    return static_cast<const uint8_t*>(buffer_->data()) + offset_;
  }

  // True when the bytes are one range: inline, or a view with an empty
  // head. Otherwise the payload is split: a non-empty head, then the view.
  bool is_contiguous() const { return !is_view() || head_.empty(); }
  // The leading contiguous bytes: all of them when is_contiguous(), else
  // the head (the view follows it). Never copies.
  std::string_view first_range() const;

  // Full byte sequence (head + view), always a fresh copy.
  std::string Flatten() const;
  // Writes the full byte sequence to dst[0, size()); a payload of
  // kBulkPoolMinBytes or more is copied in chunks across the pool.
  void CopyTo(void* dst) const;

  // The bytes without copying when contiguous; a split payload is flattened
  // into *scratch. The result is valid while this payload and *scratch are.
  std::string_view Contiguous(std::string* scratch) const;

  // The bytes [offset, offset + len) as a payload of the same kind: what
  // lies in the view stays a view of the same buffer (no copy), what lies in
  // the head becomes the new head.
  PayloadRef Slice(size_t offset, size_t len) const;

  // Converts a view into an equivalent inline payload (copies once). Used
  // before any in-place mutation so the referenced tensor buffer — live on
  // the sender's side — is never touched.
  void Detach();

  // Chaos-injection helper: flips one payload byte. Detaches first so fault
  // injection corrupts the frame, not the sender's tensor.
  void CorruptByteForTest(size_t index, uint8_t mask = 0x5a);

  // Byte-sequence equality across representations.
  bool operator==(const PayloadRef& o) const;

 private:
  std::string head_;
  std::shared_ptr<Buffer> buffer_;  // nullptr => inline payload
  size_t offset_ = 0;
  size_t len_ = 0;
};

// The RpcEnvelope checksum of the payload's byte sequence. A payload of at
// most kBulkChunkBytes (1 MiB, core/threadpool.h) hashes to its XXH3-64
// (seed 0, default secret). A longer one hashes to the XXH3-64 of the
// little-endian 8-byte XXH3-64 digests of its consecutive 1 MiB chunks, the
// last one short: the chunks' digests are independent, so a payload of two
// chunks or more hashes them across the pool. The head and then the view
// are read in place through one streaming state, so a view hashes exactly
// like its Flatten() without materializing the copy. The hash's long loop
// runs on the widest SIMD tier the CPU supports (core/simd.h); every tier
// gives the same digest.
uint64_t PayloadChecksum(const PayloadRef& p);

// PayloadChecksum on an explicit tier, which must not be wider than
// DetectedSimdTier() (checked), so tests can run every tier the host has.
uint64_t PayloadChecksumOnTier(SimdTier tier, const PayloadRef& p);

}  // namespace tfhpc::wire
