// The Tensor value type: dtype + shape + shared buffer. Copies are shallow
// (buffer is shared, immutable-by-convention like TensorFlow tensors except
// through Variable ops). A tensor is either invalid (default-constructed, no
// dtype) or valid, and a valid tensor always has storage.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "core/dtype.h"
#include "core/shape.h"
#include "core/status.h"

namespace tfhpc {

class Tensor {
 public:
  // Invalid/empty tensor.
  Tensor() = default;

  // Allocates zeroed storage of the given dtype/shape.
  Tensor(DType dtype, Shape shape, AllocatorStats* stats = nullptr);

  // Allocates storage without zero-filling it; the caller must overwrite
  // every element (gemm/FFT outputs, recv staging, parse targets).
  static Tensor Uninitialized(DType dtype, Shape shape,
                              AllocatorStats* stats = nullptr);

  // Fallible allocation — the step-execution path. Storage comes from
  // Buffer::TryAllocate: charged against the optional per-step limiter,
  // subject to fault injection and the pool's trim-once-retry, failing with
  // kResourceExhausted (transient or permanent, see core/buffer.h) instead
  // of crashing. Kernels and the executor use this so a mid-step OOM
  // unwinds the step cleanly.
  static Result<Tensor> TryCreate(
      DType dtype, Shape shape, AllocatorStats* stats = nullptr,
      ZeroInit zero = ZeroInit::kYes,
      std::shared_ptr<MemoryLimiter> step_limiter = nullptr);

  // Adopts an existing buffer (no copy). The buffer must hold at least
  // dtype/shape's nominal byte size.
  static Tensor FromBuffer(DType dtype, Shape shape,
                           std::shared_ptr<Buffer> buffer);

  // 0-d tensor holding one value.
  template <typename T>
  static Tensor Scalar(T value) {
    Tensor t(kDTypeOf<T>, Shape{});
    *t.mutable_data<T>() = value;
    return t;
  }

  // 1-d tensor copied from a vector.
  template <typename T>
  static Tensor FromVector(const std::vector<T>& v) {
    Tensor t(kDTypeOf<T>, Shape{static_cast<int64_t>(v.size())});
    std::memcpy(t.raw_data(), v.data(), v.size() * sizeof(T));
    return t;
  }

  // Tensor of given shape copied from a flat row-major vector.
  template <typename T>
  static Tensor FromVector(Shape shape, const std::vector<T>& v);

  bool valid() const { return dtype_ != DType::kInvalid; }
  DType dtype() const { return dtype_; }
  const Shape& shape() const { return shape_; }
  int64_t num_elements() const { return shape_.num_elements(); }
  // Storage size in bytes: num_elements() * DTypeSize(dtype()).
  int64_t bytes() const {
    return num_elements() * static_cast<int64_t>(DTypeSize(dtype_));
  }

  void* raw_data();
  const void* raw_data() const;

  // The backing storage (nullptr for an invalid tensor). Shared with
  // every shallow copy of this tensor and with any PayloadRef view of it.
  const std::shared_ptr<Buffer>& buffer() const { return buffer_; }

  // Severs the buffer's device-allocator attribution so the tensor may
  // outlive the device that produced it. In place when this tensor is the
  // buffer's sole owner; otherwise the buffer still aliases device-resident
  // state (a variable, another consumer) and the tensor is repointed at an
  // unattributed private copy — the moral equivalent of a device-to-host
  // fetch copy. Called wherever tensors cross a user-facing boundary.
  void DetachFromAllocator();

  // Typed flat views; dtype-checked.
  template <typename T>
  std::span<const T> data() const {
    CheckType(kDTypeOf<T>);
    return {static_cast<const T*>(raw_data()),
            static_cast<size_t>(num_elements())};
  }
  template <typename T>
  std::span<T> mutable_span() {
    CheckType(kDTypeOf<T>);
    return {static_cast<T*>(raw_data()), static_cast<size_t>(num_elements())};
  }
  template <typename T>
  T* mutable_data() {
    CheckType(kDTypeOf<T>);
    return static_cast<T*>(raw_data());
  }
  template <typename T>
  const T& scalar() const {
    TFHPC_CHECK(shape_.IsScalar()) << "scalar() on shape " << shape_.ToString();
    return data<T>()[0];
  }

  // Element access for rank-2 tensors (row-major).
  template <typename T>
  T& at(int64_t r, int64_t c) {
    TFHPC_CHECK(shape_.IsMatrix());
    return mutable_data<T>()[r * shape_.dim(1) + c];
  }
  template <typename T>
  const T& at(int64_t r, int64_t c) const {
    TFHPC_CHECK(shape_.IsMatrix());
    return data<T>()[static_cast<size_t>(r * shape_.dim(1) + c)];
  }

  // Deep copy.
  Tensor Clone() const;

  // Same dtype+shape and bitwise-equal contents.
  bool BitwiseEquals(const Tensor& other) const;

  // Returns a tensor with the same buffer but a different shape; element
  // counts must match.
  Result<Tensor> Reshape(const Shape& shape) const;

  std::string DebugString(int max_entries = 8) const;

 private:
  void CheckType(DType expect) const {
    TFHPC_CHECK(dtype_ == expect)
        << "dtype mismatch: tensor is " << DTypeName(dtype_) << ", requested "
        << DTypeName(expect);
  }

  DType dtype_ = DType::kInvalid;
  Shape shape_;
  std::shared_ptr<Buffer> buffer_;
};

template <typename T>
Tensor Tensor::FromVector(Shape shape, const std::vector<T>& v) {
  TFHPC_CHECK_EQ(shape.num_elements(), static_cast<int64_t>(v.size()));
  Tensor t(kDTypeOf<T>, std::move(shape));
  std::memcpy(t.raw_data(), v.data(), v.size() * sizeof(T));
  return t;
}

}  // namespace tfhpc
