// NumPy .npy v1.0 file format reader/writer. The paper's applications store
// matrix/vector tiles as .npy files loaded by workers; tfhpc reads and
// writes the real format (little-endian descr codes, C-order only) so tiles
// interoperate with NumPy itself.
#pragma once

#include <string>

#include "core/status.h"
#include "core/tensor.h"

namespace tfhpc::io {

// Writes `t` to `path` as .npy v1.0. An invalid tensor is rejected.
Status SaveNpy(const std::string& path, const Tensor& t);

// Reads an .npy file. Supports v1.0 and v2.0 headers, C-order arrays with
// descr in {<f4, <f8, <c8, <c16, <i4, <i8, |u1, |b1}.
Result<Tensor> LoadNpy(const std::string& path);

// In-memory encode/decode (used by tests and by TileStore's cache path).
std::string EncodeNpy(const Tensor& t);
Result<Tensor> DecodeNpy(const std::string& bytes);

}  // namespace tfhpc::io
