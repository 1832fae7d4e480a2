#include "core/tensor.h"

#include <sstream>

namespace tfhpc {

Tensor::Tensor(DType dtype, Shape shape, AllocatorStats* stats)
    : dtype_(dtype), shape_(std::move(shape)) {
  buffer_ = Buffer::Allocate(static_cast<size_t>(bytes()), stats);
}

Tensor Tensor::Uninitialized(DType dtype, Shape shape, AllocatorStats* stats) {
  Tensor t;
  t.dtype_ = dtype;
  t.shape_ = std::move(shape);
  t.buffer_ =
      Buffer::Allocate(static_cast<size_t>(t.bytes()), stats, ZeroInit::kNo);
  return t;
}

Result<Tensor> Tensor::TryCreate(DType dtype, Shape shape,
                                 AllocatorStats* stats, ZeroInit zero,
                                 std::shared_ptr<MemoryLimiter> step_limiter) {
  Tensor t;
  t.dtype_ = dtype;
  t.shape_ = std::move(shape);
  TFHPC_ASSIGN_OR_RETURN(
      t.buffer_, Buffer::TryAllocate(static_cast<size_t>(t.bytes()), stats,
                                     zero, std::move(step_limiter)));
  return t;
}

Tensor Tensor::FromBuffer(DType dtype, Shape shape,
                          std::shared_ptr<Buffer> buffer) {
  Tensor t;
  t.dtype_ = dtype;
  t.shape_ = std::move(shape);
  TFHPC_CHECK(buffer != nullptr &&
              buffer->size() >= static_cast<size_t>(t.bytes()))
      << "FromBuffer: buffer too small for " << t.shape_.ToString();
  t.buffer_ = std::move(buffer);
  return t;
}

void* Tensor::raw_data() {
  TFHPC_CHECK(buffer_ != nullptr) << "raw_data() on invalid tensor";
  return buffer_->data();
}

const void* Tensor::raw_data() const {
  TFHPC_CHECK(buffer_ != nullptr) << "raw_data() on invalid tensor";
  return buffer_->data();
}

void Tensor::DetachFromAllocator() {
  if (buffer_ == nullptr || buffer_->stats() == nullptr) return;
  if (buffer_.use_count() == 1) {
    buffer_->DetachStats();
    return;
  }
  auto copy = Buffer::Allocate(buffer_->size(), nullptr, ZeroInit::kNo);
  if (buffer_->size() > 0) {
    std::memcpy(copy->data(), buffer_->data(), buffer_->size());
  }
  buffer_ = std::move(copy);
}

Tensor Tensor::Clone() const {
  // Attribute the copy to the same allocator as the source so deep copies
  // (variable accumulation, snapshots) stay visible to device accounting.
  Tensor t = Uninitialized(dtype_, shape_, buffer_->stats());
  std::memcpy(t.raw_data(), raw_data(), static_cast<size_t>(bytes()));
  return t;
}

bool Tensor::BitwiseEquals(const Tensor& other) const {
  if (dtype_ != other.dtype_ || shape_ != other.shape_) return false;
  return std::memcmp(raw_data(), other.raw_data(),
                     static_cast<size_t>(bytes())) == 0;
}

Result<Tensor> Tensor::Reshape(const Shape& shape) const {
  if (shape.num_elements() != num_elements()) {
    return InvalidArgument("reshape " + shape_.ToString() + " -> " +
                           shape.ToString() + " changes element count");
  }
  Tensor t = *this;
  t.shape_ = shape;
  return t;
}

std::string Tensor::DebugString(int max_entries) const {
  if (!valid()) return "Tensor<invalid>";
  std::ostringstream os;
  os << "Tensor<" << DTypeName(dtype_) << ", " << shape_.ToString() << ">";
  os << " [";
  const int64_t n = std::min<int64_t>(num_elements(), max_entries);
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    switch (dtype_) {
      case DType::kF32: os << data<float>()[static_cast<size_t>(i)]; break;
      case DType::kF64: os << data<double>()[static_cast<size_t>(i)]; break;
      case DType::kI32: os << data<int32_t>()[static_cast<size_t>(i)]; break;
      case DType::kI64: os << data<int64_t>()[static_cast<size_t>(i)]; break;
      case DType::kC128: {
        auto z = data<std::complex<double>>()[static_cast<size_t>(i)];
        os << z.real() << (z.imag() < 0 ? "-" : "+") << std::abs(z.imag())
           << "i";
        break;
      }
      default: os << "?"; break;
    }
  }
  if (n < num_elements()) os << ", ...";
  os << "]";
  return os.str();
}

}  // namespace tfhpc
