// Counter-based random number generation in the spirit of TensorFlow's
// Philox: a stateless mapping (key, counter) -> random bits, so tensor fills
// are reproducible regardless of threading, plus helpers used by the
// applications (random matrices, SPD matrices for CG).
#pragma once

#include <cstdint>

#include "core/tensor.h"

namespace tfhpc {

// Philox-4x32-10 block cipher. Produces four 32-bit words per counter value.
class Philox {
 public:
  Philox(uint64_t key, uint64_t counter_hi = 0)
      : key0_(static_cast<uint32_t>(key)),
        key1_(static_cast<uint32_t>(key >> 32)),
        ctr_hi_(counter_hi) {}

  struct Block {
    uint32_t v[4];
  };
  // Deterministic function of (key, counter): thread-safe, stateless.
  Block operator()(uint64_t counter) const;

 private:
  uint32_t key0_, key1_;
  uint64_t ctr_hi_;
};

// Converts a 32-bit word to a float uniform in [0, 1).
float UniformFloat(uint32_t bits);
// Converts two 32-bit words to a double uniform in [0, 1).
double UniformDouble(uint32_t hi, uint32_t lo);

// Fills `t` (f32, f64 or c128; any other dtype is a checked error) with
// uniform [lo, hi) values derived from `seed`.
// The value at flat index i depends only on (seed, i).
void FillUniform(Tensor& t, uint64_t seed, double lo = 0.0, double hi = 1.0);

// Returns an n x n symmetric positive-definite f64 matrix: A = B + B^T + n*I
// with B uniform in [0,1). Deterministic in (seed, n).
Tensor RandomSpdMatrix(int64_t n, uint64_t seed);

}  // namespace tfhpc
