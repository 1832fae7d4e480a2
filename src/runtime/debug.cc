#include "runtime/debug.h"

#include <cmath>
#include <sstream>

namespace tfhpc {
namespace {

template <typename T>
void Accumulate(const Tensor& t, TensorDebugSummary* s) {
  const auto data = t.data<T>();
  double sum = 0;
  bool first = true;
  for (T raw : data) {
    const double v = static_cast<double>(raw);
    if (std::isnan(v)) {
      s->nan_count++;
      continue;
    }
    if (std::isinf(v)) {
      s->inf_count++;
      continue;
    }
    if (v == 0) s->zero_count++;
    if (first) {
      s->min = s->max = v;
      first = false;
    } else {
      s->min = std::min(s->min, v);
      s->max = std::max(s->max, v);
    }
    s->abs_max = std::max(s->abs_max, std::abs(v));
    sum += v;
  }
  const int64_t finite =
      t.num_elements() - s->nan_count - s->inf_count;
  s->mean = finite > 0 ? sum / static_cast<double>(finite) : 0;
}

void AccumulateComplex(const Tensor& t, TensorDebugSummary* s) {
  // Complex tensors summarize by magnitude.
  const auto data = t.data<std::complex<double>>();
  double sum = 0;
  bool first = true;
  for (const auto& z : data) {
    const double v = std::abs(z);
    if (std::isnan(v)) {
      s->nan_count++;
      continue;
    }
    if (std::isinf(v)) {
      s->inf_count++;
      continue;
    }
    if (v == 0) s->zero_count++;
    if (first) {
      s->min = s->max = v;
      first = false;
    } else {
      s->min = std::min(s->min, v);
      s->max = std::max(s->max, v);
    }
    s->abs_max = std::max(s->abs_max, v);
    sum += v;
  }
  const int64_t finite = t.num_elements() - s->nan_count - s->inf_count;
  s->mean = finite > 0 ? sum / static_cast<double>(finite) : 0;
}

}  // namespace

TensorDebugSummary SummarizeTensor(const Tensor& t) {
  TensorDebugSummary s;
  if (!t.valid() || t.num_elements() == 0) return s;
  s.dtype = t.dtype();
  s.shape = t.shape();
  switch (t.dtype()) {
    case DType::kF32: Accumulate<float>(t, &s); break;
    case DType::kF64: Accumulate<double>(t, &s); break;
    case DType::kI32: Accumulate<int32_t>(t, &s); break;
    case DType::kI64: Accumulate<int64_t>(t, &s); break;
    case DType::kU8: Accumulate<uint8_t>(t, &s); break;
    case DType::kC128: AccumulateComplex(t, &s); break;
    default: return s;  // bool etc.: structure only
  }
  s.present = true;
  return s;
}

std::string TensorDebugSummary::ToString() const {
  if (!present) return "(no data)";
  std::ostringstream os;
  os << DTypeName(dtype) << shape.ToString() << " min=" << min
     << " max=" << max << " mean=" << mean;
  if (nan_count > 0) os << " NaN=" << nan_count;
  if (inf_count > 0) os << " Inf=" << inf_count;
  if (!healthy()) os << " [UNHEALTHY]";
  return os.str();
}

}  // namespace tfhpc
