#include "wire/payload.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/logging.h"
#include "core/threadpool.h"

namespace tfhpc::wire {
namespace {

// Streaming XXH64 (seed 0). Four independent 64-bit lanes consume 32-byte
// stripes, so the main loop costs memory bandwidth rather than one
// dependent multiply per byte. Bytes arrive in segments of any length; a
// partial stripe is carried between Update calls, so the digest depends on
// the byte sequence only, never on where the segments split it.
class Xxh64 {
 public:
  void Update(const uint8_t* p, size_t n) {
    total_ += n;
    if (carried_ + n < kStripe) {
      if (n > 0) std::memcpy(carry_ + carried_, p, n);
      carried_ += n;
      return;
    }
    if (carried_ > 0) {
      const size_t fill = kStripe - carried_;
      std::memcpy(carry_ + carried_, p, fill);
      Stripes(carry_, kStripe);
      p += fill;
      n -= fill;
    }
    const size_t whole = n - n % kStripe;
    Stripes(p, whole);
    carried_ = n - whole;
    if (carried_ > 0) std::memcpy(carry_, p + whole, carried_);
  }

  uint64_t Digest() const {
    uint64_t h = kP5;  // seed + P5: the whole input is shorter than a stripe
    if (total_ >= kStripe) {
      h = Rotl(v_[0], 1) + Rotl(v_[1], 7) + Rotl(v_[2], 12) + Rotl(v_[3], 18);
      for (uint64_t v : v_) h = (h ^ Round(0, v)) * kP1 + kP4;
    }
    h += total_;
    const uint8_t* p = carry_;
    size_t n = carried_;
    for (; n >= 8; p += 8, n -= 8) {
      h ^= Round(0, Load64(p));
      h = Rotl(h, 27) * kP1 + kP4;
    }
    if (n >= 4) {
      uint32_t w = 0;
      std::memcpy(&w, p, 4);
      h ^= static_cast<uint64_t>(w) * kP1;
      h = Rotl(h, 23) * kP2 + kP3;
      p += 4;
      n -= 4;
    }
    for (; n > 0; ++p, --n) {
      h ^= *p * kP5;
      h = Rotl(h, 11) * kP1;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr size_t kStripe = 32;
  static constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
  static constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  static constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

  static uint64_t Rotl(uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  }
  // Unaligned little-endian load; memcpy, never a cast pointer (payload
  // heads and tensor views start at any byte). Little-endian hosts only,
  // like wire/coded.cc.
  static uint64_t Load64(const uint8_t* p) {
    uint64_t v = 0;
    std::memcpy(&v, p, 8);
    return v;
  }
  static uint64_t Round(uint64_t acc, uint64_t input) {
    return Rotl(acc + input * kP2, 31) * kP1;
  }
  // Consumes `n` bytes, a whole number of stripes. The lanes live in locals
  // so the compiler keeps them in registers: `p` is a byte pointer and
  // might otherwise alias the members.
  void Stripes(const uint8_t* p, size_t n) {
    uint64_t v0 = v_[0], v1 = v_[1], v2 = v_[2], v3 = v_[3];
    for (const uint8_t* end = p + n; p < end; p += kStripe) {
      v0 = Round(v0, Load64(p));
      v1 = Round(v1, Load64(p + 8));
      v2 = Round(v2, Load64(p + 16));
      v3 = Round(v3, Load64(p + 24));
    }
    v_[0] = v0;
    v_[1] = v1;
    v_[2] = v2;
    v_[3] = v3;
  }

  uint64_t v_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};  // seed 0
  uint64_t total_ = 0;
  uint8_t carry_[kStripe] = {};
  size_t carried_ = 0;
};

// Calls fn(at, bytes, n) for the parts of the payload's bytes [begin, end)
// that lie in the head and then in the view; `at` is where `bytes` starts
// in the payload.
template <typename Fn>
void ForEachRange(const PayloadRef& p, size_t begin, size_t end, Fn&& fn) {
  const std::string& head = p.head();
  if (begin < head.size()) {
    const size_t stop = std::min(end, head.size());
    fn(begin, reinterpret_cast<const uint8_t*>(head.data()) + begin,
       stop - begin);
    begin = stop;
  }
  if (begin < end) {
    fn(begin, p.view_data() + (begin - head.size()), end - begin);
  }
}

}  // namespace

PayloadRef PayloadRef::View(std::string head, std::shared_ptr<Buffer> buffer,
                            size_t offset, size_t len) {
  PayloadRef p;
  p.head_ = std::move(head);
  if (len == 0) return p;  // empty view degenerates to inline
  TFHPC_CHECK(buffer != nullptr && offset + len <= buffer->size())
      << "payload view [" << offset << ", " << offset + len
      << ") out of buffer bounds";
  p.buffer_ = std::move(buffer);
  p.offset_ = offset;
  p.len_ = len;
  return p;
}

std::string_view PayloadRef::first_range() const {
  if (head_.empty() && is_view()) {
    return std::string_view(reinterpret_cast<const char*>(view_data()), len_);
  }
  return head_;
}

std::string PayloadRef::Flatten() const {
  std::string out;
  out.reserve(size());
  out.append(head_);
  if (is_view()) {
    out.append(reinterpret_cast<const char*>(view_data()), len_);
  }
  return out;
}

void PayloadRef::CopyTo(void* dst) const {
  uint8_t* out = static_cast<uint8_t*>(dst);
  ForEachBulkChunk(size(), [&](size_t begin, size_t end) {
    ForEachRange(*this, begin, end,
                 [out](size_t at, const uint8_t* bytes, size_t n) {
                   std::memcpy(out + at, bytes, n);
                 });
  });
}

std::string_view PayloadRef::Contiguous(std::string* scratch) const {
  if (is_contiguous()) return first_range();
  *scratch = Flatten();
  return *scratch;
}

PayloadRef PayloadRef::Slice(size_t offset, size_t len) const {
  TFHPC_CHECK(offset <= size() && len <= size() - offset)
      << "payload slice [" << offset << ", +" << len << ") out of "
      << size() << " bytes";
  const size_t head_from = std::min(offset, head_.size());
  const size_t head_len = std::min(len, head_.size() - head_from);
  std::string head = head_.substr(head_from, head_len);
  if (head_len == len) return PayloadRef(std::move(head));
  const size_t view_from = offset + head_len - head_.size();
  return View(std::move(head), buffer_, offset_ + view_from, len - head_len);
}

void PayloadRef::Detach() {
  if (!is_view()) return;
  head_ = Flatten();
  buffer_.reset();
  offset_ = len_ = 0;
}

void PayloadRef::CorruptByteForTest(size_t index, uint8_t mask) {
  Detach();
  if (index < head_.size()) {
    head_[index] = static_cast<char>(head_[index] ^ mask);
  }
}

bool PayloadRef::operator==(const PayloadRef& o) const {
  if (size() != o.size()) return false;
  std::string lhs_scratch, rhs_scratch;
  return Contiguous(&lhs_scratch) == o.Contiguous(&rhs_scratch);
}

// The chunk is part of the checksum's definition, fixed by the wire format.
static_assert(kBulkChunkBytes == size_t{1} << 20);

uint64_t PayloadChecksum(const PayloadRef& p) {
  auto digest = [&p](size_t begin, size_t end) {
    Xxh64 h;
    ForEachRange(p, begin, end, [&h](size_t, const uint8_t* bytes, size_t n) {
      h.Update(bytes, n);
    });
    return h.Digest();
  };
  if (p.size() <= kBulkChunkBytes) return digest(0, p.size());
  std::vector<uint64_t> chunk_digests((p.size() + kBulkChunkBytes - 1) /
                                      kBulkChunkBytes);
  ForEachBulkChunk(p.size(), [&](size_t begin, size_t end) {
    chunk_digests[begin / kBulkChunkBytes] = digest(begin, end);
  });
  // The digests' in-memory bytes are little-endian (little-endian hosts
  // only, as Load64).
  Xxh64 h;
  h.Update(reinterpret_cast<const uint8_t*>(chunk_digests.data()),
           chunk_digests.size() * sizeof(uint64_t));
  return h.Digest();
}

}  // namespace tfhpc::wire
