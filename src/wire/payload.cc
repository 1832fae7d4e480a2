#include "wire/payload.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/logging.h"
#include "core/simd.h"
#include "core/threadpool.h"

#if TFHPC_SIMD_X86
#include <immintrin.h>
#endif

namespace tfhpc::wire {
namespace {

// ---- XXH3-64 (seed 0, default secret) ----------------------------------------
//
// The published XXH3 (xxHash 0.8) in the one configuration the checksum
// uses. An input of at most 240 bytes takes one of the short paths, which
// read it whole. A longer one runs the long loop: eight 64-bit accumulators
// take 64-byte stripes, stripe k of each 16-stripe (1 KiB) block keyed by
// the secret at byte 8k, and every full block ends in a scramble. The
// input's final 64 bytes are then taken once more under their own key, and
// the accumulators fold into the digest. Every lane costs one 32x32->64
// multiply per 8 bytes and no lane waits on another, so the loop runs at
// vector width, where XXH64 waits on two dependent 64-bit multiplies per 8
// bytes. Loads are memcpy (payload heads and tensor views start at any
// byte); little-endian hosts only, like wire/coded.cc. GCC/Clang only:
// vector extensions, unsigned __int128 and __builtin_bswap64.

constexpr uint64_t kPrime32_1 = 0x9E3779B1u;
constexpr uint64_t kPrime32_2 = 0x85EBCA77u;
constexpr uint64_t kPrime32_3 = 0xC2B2AE3Du;
constexpr uint64_t kPrime64_1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime64_2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime64_3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime64_4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime64_5 = 0x27D4EB2F165667C5ull;

constexpr size_t kLanes = 8;
constexpr size_t kStripe = kLanes * sizeof(uint64_t);  // 64 bytes
constexpr size_t kSecretBytes = 192;
constexpr size_t kStripesPerBlock = (kSecretBytes - kStripe) / 8;  // 16
constexpr size_t kScrambleKey = kSecretBytes - kStripe;            // 128
constexpr size_t kLastStripeKey = kSecretBytes - kStripe - 7;      // 121
constexpr size_t kMergeKey = 11;
constexpr size_t kMidSizeMax = 240;  // the longest input with a short path

alignas(64) constexpr uint8_t kSecret[kSecretBytes] = {
    0xb8, 0xfe, 0x6c, 0x39, 0x23, 0xa4, 0x4b, 0xbe, 0x7c, 0x01, 0x81, 0x2c,
    0xf7, 0x21, 0xad, 0x1c, 0xde, 0xd4, 0x6d, 0xe9, 0x83, 0x90, 0x97, 0xdb,
    0x72, 0x40, 0xa4, 0xa4, 0xb7, 0xb3, 0x67, 0x1f, 0xcb, 0x79, 0xe6, 0x4e,
    0xcc, 0xc0, 0xe5, 0x78, 0x82, 0x5a, 0xd0, 0x7d, 0xcc, 0xff, 0x72, 0x21,
    0xb8, 0x08, 0x46, 0x74, 0xf7, 0x43, 0x24, 0x8e, 0xe0, 0x35, 0x90, 0xe6,
    0x81, 0x3a, 0x26, 0x4c, 0x3c, 0x28, 0x52, 0xbb, 0x91, 0xc3, 0x00, 0xcb,
    0x88, 0xd0, 0x65, 0x8b, 0x1b, 0x53, 0x2e, 0xa3, 0x71, 0x64, 0x48, 0x97,
    0xa2, 0x0d, 0xf9, 0x4e, 0x38, 0x19, 0xef, 0x46, 0xa9, 0xde, 0xac, 0xd8,
    0xa8, 0xfa, 0x76, 0x3f, 0xe3, 0x9c, 0x34, 0x3f, 0xf9, 0xdc, 0xbb, 0xc7,
    0xc7, 0x0b, 0x4f, 0x1d, 0x8a, 0x51, 0xe0, 0x4b, 0xcd, 0xb4, 0x59, 0x31,
    0xc8, 0x9f, 0x7e, 0xc9, 0xd9, 0x78, 0x73, 0x64, 0xea, 0xc5, 0xac, 0x83,
    0x34, 0xd3, 0xeb, 0xc3, 0xc5, 0x81, 0xa0, 0xff, 0xfa, 0x13, 0x63, 0xeb,
    0x17, 0x0d, 0xdd, 0x51, 0xb7, 0xf0, 0xda, 0x49, 0xd3, 0x16, 0x55, 0x26,
    0x29, 0xd4, 0x68, 0x9e, 0x2b, 0x16, 0xbe, 0x58, 0x7d, 0x47, 0xa1, 0xfc,
    0x8f, 0xf8, 0xb8, 0xd1, 0x7a, 0xd0, 0x31, 0xce, 0x45, 0xcb, 0x3a, 0x8f,
    0x95, 0x16, 0x04, 0x28, 0xaf, 0xd7, 0xfb, 0xca, 0xbb, 0x4b, 0x40, 0x7e,
};

// The key of stripe k of a block, kSecret[8k, 8k + 64), copied to its own
// cache line: read straight from kSecret, 14 of the 16 keys would straddle
// two lines, and the wide tiers would pay a split load for each.
struct StripeKeys {
  alignas(64) uint8_t key[kStripesPerBlock][kStripe];
};
constexpr StripeKeys MakeStripeKeys() {
  StripeKeys keys{};
  for (size_t k = 0; k < kStripesPerBlock; ++k) {
    for (size_t b = 0; b < kStripe; ++b) keys.key[k][b] = kSecret[8 * k + b];
  }
  return keys;
}
constexpr StripeKeys kStripeKeys = MakeStripeKeys();

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

// The 128-bit product of a and b, its halves xor'ed.
uint64_t Fold64(uint64_t a, uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(p) ^ static_cast<uint64_t>(p >> 64);
}

uint64_t Avalanche(uint64_t h) {
  h ^= h >> 37;
  h *= 0x165667919E3779F9ull;
  return h ^ (h >> 32);
}

uint64_t Xxh64Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kPrime64_2;
  h ^= h >> 29;
  h *= kPrime64_3;
  return h ^ (h >> 32);
}

uint64_t Mix16(const uint8_t* p, const uint8_t* key) {
  return Fold64(Load64(p) ^ Load64(key), Load64(p + 8) ^ Load64(key + 8));
}

// XXH3-64 of n <= kMidSizeMax bytes.
uint64_t ShortHash(const uint8_t* p, size_t n) {
  if (n == 0) {
    return Xxh64Avalanche(Load64(kSecret + 56) ^ Load64(kSecret + 64));
  }
  if (n <= 3) {
    const uint32_t combined = (uint32_t{p[0]} << 16) |
                              (uint32_t{p[n >> 1]} << 24) | p[n - 1] |
                              static_cast<uint32_t>(n << 8);
    return Xxh64Avalanche(combined ^ (Load32(kSecret) ^ Load32(kSecret + 4)));
  }
  if (n <= 8) {
    uint64_t h = (Load32(p + n - 4) + (uint64_t{Load32(p)} << 32)) ^
                 (Load64(kSecret + 8) ^ Load64(kSecret + 16));
    h ^= Rotl(h, 49) ^ Rotl(h, 24);
    h *= 0x9FB21C651E98DF25ull;
    h ^= (h >> 35) + n;
    h *= 0x9FB21C651E98DF25ull;
    return h ^ (h >> 28);
  }
  if (n <= 16) {
    const uint64_t lo = Load64(p) ^ Load64(kSecret + 24) ^ Load64(kSecret + 32);
    const uint64_t hi =
        Load64(p + n - 8) ^ Load64(kSecret + 40) ^ Load64(kSecret + 48);
    return Avalanche(n + __builtin_bswap64(lo) + hi + Fold64(lo, hi));
  }
  uint64_t acc = n * kPrime64_1;
  if (n <= 128) {
    // Pairs of 16-byte mixes from both ends, as many as the length covers.
    for (size_t i = (n - 1) / 32 + 1; i-- > 0;) {
      acc += Mix16(p + 16 * i, kSecret + 32 * i);
      acc += Mix16(p + n - 16 * (i + 1), kSecret + 32 * i + 16);
    }
    return Avalanche(acc);
  }
  for (size_t i = 0; i < 8; ++i) acc += Mix16(p + 16 * i, kSecret + 16 * i);
  acc = Avalanche(acc);
  for (size_t i = 8; i < n / 16; ++i) {
    acc += Mix16(p + 16 * i, kSecret + 16 * (i - 8) + 3);
  }
  // The last 16 bytes, keyed where xxHash keys them: 17 bytes before the
  // end of its minimum (136-byte) secret.
  acc += Mix16(p + n - 16, kSecret + 136 - 17);
  return Avalanche(acc);
}

// Accumulates n stripes at p into acc[kLanes]; *in_block counts the stripes
// of the current block already taken, so the loop can resume mid-block.
// A non-null `last` is the input's final stripe, taken after the n stripes
// under its own key. One function per SIMD tier.
using StripeFn = void (*)(uint64_t* acc, size_t* in_block, const uint8_t* p,
                          size_t n, const uint8_t* last);

typedef uint64_t U64x2 __attribute__((vector_size(16)));
#if TFHPC_SIMD_X86
typedef uint64_t U64x4 __attribute__((vector_size(32)));
typedef uint64_t U64x8 __attribute__((vector_size(64)));
#endif

// *acc += the 32x32->64-bit products of the low halves of a's and b's
// lanes: one pmuludq per vector, where `*` on 64-bit lanes would spend
// three. Arguments by reference so no vector crosses a call at a width its
// caller was not built for; flatten inlines the wide ones into their tier.
inline void MulAddLow32(U64x2* acc, const U64x2& a, const U64x2& b) {
#if TFHPC_SIMD_X86
  *acc += (U64x2)_mm_mul_epu32((__m128i)a, (__m128i)b);
#else
  *acc += (a & 0xffffffffu) * (b & 0xffffffffu);
#endif
}
#if TFHPC_SIMD_X86
__attribute__((target("avx2"))) inline void MulAddLow32(U64x4* acc,
                                                        const U64x4& a,
                                                        const U64x4& b) {
  *acc += (U64x4)_mm256_mul_epu32((__m256i)a, (__m256i)b);
}
// maskz with a full mask: _mm512_mul_epu32's undefined-source idiom trips
// -Wmaybe-uninitialized in GCC 12; the full mask compiles to the same
// unmasked vpmuludq.
__attribute__((target("avx512f"))) inline void MulAddLow32(U64x8* acc,
                                                           const U64x8& a,
                                                           const U64x8& b) {
  *acc += (U64x8)_mm512_maskz_mul_epu32(0xff, (__m512i)a, (__m512i)b);
}
#endif

// One stripe into the accumulators a[8 / lanes-per-vector]: every lane
// adds its neighbour's input word (lanes 2i and 2i+1 swap) and the product
// of the low and high halves of its keyed word.
template <typename V>
__attribute__((always_inline)) inline void AccumulateStripe(
    V* a, const uint8_t* p, const uint8_t* key) {
  constexpr int kBytes = sizeof(V), kPerVector = kBytes / 8;
  V swap;
  for (int i = 0; i < kPerVector; ++i) swap[i] = static_cast<uint64_t>(i ^ 1);
  // Unrolled so the accumulators stay in registers at -O2 too.
#pragma GCC unroll 8
  for (size_t v = 0; v < kLanes / kPerVector; ++v) {
    V data, keyed;
    std::memcpy(&data, p + kBytes * v, kBytes);
    std::memcpy(&keyed, key + kBytes * v, kBytes);
    keyed ^= data;
    a[v] += __builtin_shuffle(data, swap);
    MulAddLow32(&a[v], keyed, keyed >> 32);
  }
}

// The long loop, written once over vector width V (16, 32 or 64 bytes) and
// always inlined into its tier's StripeFn below, so the accumulators stay
// in registers across the whole call.
template <typename V>
__attribute__((always_inline)) inline void StripeLoop(uint64_t* acc,
                                                      size_t* in_block,
                                                      const uint8_t* p,
                                                      size_t n,
                                                      const uint8_t* last) {
  constexpr size_t kBytes = sizeof(V), kVectors = kStripe / kBytes;
  V a[kVectors];
  std::memcpy(a, acc, kStripe);
  size_t k = *in_block;
  while (n > 0) {
    const size_t take = std::min(n, kStripesPerBlock - k);
    for (size_t s = 0; s < take; ++s) {
      AccumulateStripe(a, p + kStripe * s, kStripeKeys.key[k + s]);
    }
    p += kStripe * take;
    n -= take;
    k += take;
    if (k == kStripesPerBlock) {
      for (size_t v = 0; v < kVectors; ++v) {
        V key;
        std::memcpy(&key, kSecret + kScrambleKey + kBytes * v, kBytes);
        a[v] = (a[v] ^ (a[v] >> 47) ^ key) * kPrime32_1;
      }
      k = 0;
    }
  }
  if (last != nullptr) AccumulateStripe(a, last, kSecret + kLastStripeKey);
  std::memcpy(acc, a, kStripe);
  *in_block = k;
}

void StripesBaseline(uint64_t* acc, size_t* in_block, const uint8_t* p,
                     size_t n, const uint8_t* last) {
  StripeLoop<U64x2>(acc, in_block, p, n, last);
}
#if TFHPC_SIMD_X86
__attribute__((target("avx2"), flatten)) void StripesAvx2(
    uint64_t* acc, size_t* in_block, const uint8_t* p, size_t n,
    const uint8_t* last) {
  StripeLoop<U64x4>(acc, in_block, p, n, last);
}
__attribute__((target("avx512f"), flatten)) void StripesAvx512(
    uint64_t* acc, size_t* in_block, const uint8_t* p, size_t n,
    const uint8_t* last) {
  StripeLoop<U64x8>(acc, in_block, p, n, last);
}
#endif

StripeFn StripesOn(SimdTier tier) {
  switch (tier) {
#if TFHPC_SIMD_X86
    case SimdTier::kAvx512:
      return StripesAvx512;
    case SimdTier::kAvx2:
      return StripesAvx2;
#endif
    default:
      return StripesBaseline;
  }
}

// Streaming XXH3-64: bytes arrive in segments of any length, and the digest
// depends on the byte sequence only, never on where the segments split it.
// A stripe is taken only once a byte follows it, because the final stripe
// is taken under its own key; the bytes not yet taken wait in buffer_.
// Nothing is taken while the whole input fits the buffer, so an input of at
// most kMidSizeMax bytes is still there for the short paths.
class Xxh3 {
 public:
  explicit Xxh3(StripeFn stripes) : stripes_(stripes) {}

  void Update(const uint8_t* p, size_t n) {
    total_ += n;
    if (buffered_ + n <= kBufferBytes) {
      if (n > 0) std::memcpy(buffer_ + buffered_, p, n);
      buffered_ += n;
      return;
    }
    if (buffered_ > 0) {  // more bytes follow: the full buffer can go
      const size_t fill = kBufferBytes - buffered_;
      std::memcpy(buffer_ + buffered_, p, fill);
      p += fill;
      n -= fill;
      stripes_(acc_, &in_block_, buffer_, kBufferBytes / kStripe, nullptr);
    }
    if (n > kBufferBytes) {  // take stripes in place, keeping 1..64 bytes
      const size_t stripes = (n - 1) / kStripe;
      stripes_(acc_, &in_block_, p, stripes, nullptr);
      p += kStripe * stripes;
      n -= kStripe * stripes;
      // The last stripe taken, for a final stripe that reaches back into
      // it (Digest).
      std::memcpy(buffer_ + kBufferBytes - kStripe, p - kStripe, kStripe);
    }
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }

  uint64_t Digest() const {
    if (total_ <= kMidSizeMax) return ShortHash(buffer_, total_);
    uint64_t acc[kLanes];
    std::memcpy(acc, acc_, sizeof(acc));
    size_t in_block = in_block_;
    uint8_t tail[kStripe] = {};
    const uint8_t* last = tail;
    size_t stripes = 0;
    if (buffered_ >= kStripe) {
      stripes = (buffered_ - 1) / kStripe;
      last = buffer_ + buffered_ - kStripe;
    } else {
      // The final stripe starts in the stripe taken last, whose bytes sit
      // at the buffer's end.
      const size_t before = kStripe - buffered_;
      std::memcpy(tail, buffer_ + kBufferBytes - before, before);
      std::memcpy(tail + before, buffer_, buffered_);
    }
    stripes_(acc, &in_block, buffer_, stripes, last);
    uint64_t h = total_ * kPrime64_1;
    for (size_t i = 0; i < kLanes; i += 2) {
      h += Fold64(acc[i] ^ Load64(kSecret + kMergeKey + 8 * i),
                  acc[i + 1] ^ Load64(kSecret + kMergeKey + 8 * i + 8));
    }
    return Avalanche(h);
  }

 private:
  static constexpr size_t kBufferBytes = 4 * kStripe;
  static_assert(kBufferBytes >= kMidSizeMax);

  StripeFn stripes_;
  uint64_t acc_[kLanes] = {kPrime32_3, kPrime64_1, kPrime64_2, kPrime64_3,
                           kPrime64_4, kPrime32_2, kPrime64_5, kPrime32_1};
  size_t in_block_ = 0;
  uint64_t total_ = 0;
  uint8_t buffer_[kBufferBytes] = {};
  size_t buffered_ = 0;
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

namespace {

uint64_t Checksum(const PayloadRef& p, StripeFn stripes) {
  auto digest = [&p, stripes](size_t begin, size_t end) {
    Xxh3 h(stripes);
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
  Xxh3 h(stripes);
  h.Update(reinterpret_cast<const uint8_t*>(chunk_digests.data()),
           chunk_digests.size() * sizeof(uint64_t));
  return h.Digest();
}

}  // namespace

uint64_t PayloadChecksum(const PayloadRef& p) {
  return Checksum(p, StripesOn(DetectedSimdTier()));
}

uint64_t PayloadChecksumOnTier(SimdTier tier, const PayloadRef& p) {
  TFHPC_CHECK(tier <= DetectedSimdTier()) << SimdTierName(tier);
  return Checksum(p, StripesOn(tier));
}

}  // namespace tfhpc::wire
