// tfdbg-lite: numeric health summaries of tensors flowing through a step
// (the paper's §II tooling: "with tfdbg it is possible to inspect contents
// of tensors ... during execution"). Enable with RunOptions::debug; the
// executor attaches a summary per output to each NodeExecRecord, and
// FormatDebugReport renders the classic watch-list view.
#pragma once

#include <string>

#include "core/tensor.h"

namespace tfhpc {

struct TensorDebugSummary {
  bool present = false;  // false for zero-output ops / empty tensors
  DType dtype = DType::kInvalid;
  Shape shape;
  double min = 0;
  double max = 0;
  double mean = 0;
  double abs_max = 0;
  int64_t nan_count = 0;
  int64_t inf_count = 0;
  int64_t zero_count = 0;

  bool healthy() const { return nan_count == 0 && inf_count == 0; }
  std::string ToString() const;
};

// Summarizes tensors of floating dtypes; integers summarize via cast;
// invalid and empty tensors yield present=false.
TensorDebugSummary SummarizeTensor(const Tensor& t);

struct RunMetadata;  // fwd (runtime/executor.h)

}  // namespace tfhpc
