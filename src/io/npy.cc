#include "io/npy.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace tfhpc::io {
namespace {

constexpr char kMagic[] = "\x93NUMPY";

const char* DescrFor(DType dtype) {
  switch (dtype) {
    case DType::kF32: return "<f4";
    case DType::kF64: return "<f8";
    case DType::kC64: return "<c8";
    case DType::kC128: return "<c16";
    case DType::kI32: return "<i4";
    case DType::kI64: return "<i8";
    case DType::kU8: return "|u1";
    case DType::kBool: return "|b1";
    default: return nullptr;
  }
}

DType DTypeForDescr(const std::string& descr) {
  if (descr == "<f4") return DType::kF32;
  if (descr == "<f8") return DType::kF64;
  if (descr == "<c8") return DType::kC64;
  if (descr == "<c16") return DType::kC128;
  if (descr == "<i4") return DType::kI32;
  if (descr == "<i8") return DType::kI64;
  if (descr == "|u1") return DType::kU8;
  if (descr == "|b1") return DType::kBool;
  return DType::kInvalid;
}

// Extracts the value of a python-dict-literal key like 'descr': '<f4'.
// Returns the raw token (quotes stripped for strings).
Result<std::string> DictValue(const std::string& header, const std::string& key) {
  const std::string needle = "'" + key + "':";
  const size_t kpos = header.find(needle);
  if (kpos == std::string::npos) return InvalidArgument("npy: missing key " + key);
  size_t p = kpos + needle.size();
  while (p < header.size() && header[p] == ' ') ++p;
  if (p >= header.size()) return InvalidArgument("npy: truncated header");
  if (header[p] == '\'') {
    const size_t end = header.find('\'', p + 1);
    if (end == std::string::npos) return InvalidArgument("npy: bad string value");
    return header.substr(p + 1, end - p - 1);
  }
  if (header[p] == '(') {
    const size_t end = header.find(')', p);
    if (end == std::string::npos) return InvalidArgument("npy: bad tuple value");
    return header.substr(p, end - p + 1);
  }
  // bareword (True/False)
  size_t end = p;
  while (end < header.size() && header[end] != ',' && header[end] != '}') ++end;
  std::string v = header.substr(p, end - p);
  while (!v.empty() && v.back() == ' ') v.pop_back();
  return v;
}

Result<std::vector<int64_t>> ParseShapeTuple(const std::string& tup) {
  // tup looks like "(3, 4)" or "(5,)" or "()".
  std::vector<int64_t> dims;
  std::string inner = tup.substr(1, tup.size() - 2);
  std::istringstream is(inner);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    // strip spaces
    size_t b = tok.find_first_not_of(' ');
    if (b == std::string::npos) continue;
    size_t e = tok.find_last_not_of(' ');
    try {
      dims.push_back(std::stoll(tok.substr(b, e - b + 1)));
    } catch (...) {
      return InvalidArgument("npy: bad shape tuple " + tup);
    }
    if (dims.back() < 0) return InvalidArgument("npy: negative dim in " + tup);
  }
  return dims;
}

// Where the header dict sits, from the fixed preamble (magic, version,
// header length) in the first `n` bytes of a `total`-byte file.
struct Preamble {
  size_t header_off = 0;
  size_t header_len = 0;
  size_t data_off() const { return header_off + header_len; }
};

Result<Preamble> ParsePreamble(const char* bytes, size_t n, size_t total) {
  if (n < 10 || std::memcmp(bytes, kMagic, 6) != 0) {
    return InvalidArgument("npy: bad magic");
  }
  const uint8_t major = static_cast<uint8_t>(bytes[6]);
  Preamble p;
  if (major == 1) {
    p.header_len = static_cast<uint8_t>(bytes[8]) |
                   (static_cast<size_t>(static_cast<uint8_t>(bytes[9])) << 8);
    p.header_off = 10;
  } else if (major == 2) {
    if (n < 12) return InvalidArgument("npy: truncated v2 header");
    for (int i = 0; i < 4; ++i) {
      p.header_len |= static_cast<size_t>(static_cast<uint8_t>(bytes[8 + i]))
                      << (8 * i);
    }
    p.header_off = 12;
  } else {
    return InvalidArgument("npy: unsupported version " + std::to_string(major));
  }
  if (total < p.data_off()) return InvalidArgument("npy: truncated header");
  return p;
}

// An uninitialized tensor of the dtype and shape the header dict declares,
// once `data_bytes` (what the file holds past the header) is known to cover
// it. The caller fills every byte.
Result<Tensor> TensorForHeader(const std::string& header, size_t data_bytes) {
  TFHPC_ASSIGN_OR_RETURN(std::string descr, DictValue(header, "descr"));
  TFHPC_ASSIGN_OR_RETURN(std::string forder, DictValue(header, "fortran_order"));
  TFHPC_ASSIGN_OR_RETURN(std::string shape_tok, DictValue(header, "shape"));
  if (forder != "False") {
    return Unimplemented("npy: fortran_order arrays not supported");
  }
  const DType dtype = DTypeForDescr(descr);
  if (dtype == DType::kInvalid) {
    return Unimplemented("npy: unsupported descr " + descr);
  }
  TFHPC_ASSIGN_OR_RETURN(std::vector<int64_t> dims, ParseShapeTuple(shape_tok));
  // Check the size before allocating; the division keeps absurd dims from
  // overflowing.
  size_t need = DTypeSize(dtype);
  for (int64_t d : dims) {
    const size_t ud = static_cast<size_t>(d);
    if (ud != 0 && need > data_bytes / ud) {
      return InvalidArgument("npy: truncated data section");
    }
    need *= ud;
  }
  if (need > data_bytes) return InvalidArgument("npy: truncated data section");
  return Tensor::Uninitialized(dtype, Shape(std::move(dims)));
}

}  // namespace

std::string EncodeNpy(const Tensor& t) {
  const char* descr = DescrFor(t.dtype());
  TFHPC_CHECK(descr != nullptr) << "npy: unsupported dtype "
                                << DTypeName(t.dtype());
  std::ostringstream hd;
  hd << "{'descr': '" << descr << "', 'fortran_order': False, 'shape': (";
  for (int i = 0; i < t.shape().rank(); ++i) {
    hd << t.shape().dim(i);
    if (t.shape().rank() == 1 || i + 1 < t.shape().rank()) hd << ",";
    if (i + 1 < t.shape().rank()) hd << " ";
  }
  hd << "), }";
  std::string header = hd.str();
  // Total header block (magic 6 + version 2 + len 2 + dict) padded to 64.
  const size_t base = 6 + 2 + 2;
  size_t total = base + header.size() + 1;  // +1 for trailing '\n'
  const size_t padded = (total + 63) / 64 * 64;
  header.append(padded - total, ' ');
  header.push_back('\n');

  std::string out;
  out.reserve(padded + static_cast<size_t>(t.bytes()));
  out.append(kMagic, 6);
  out.push_back('\x01');
  out.push_back('\x00');
  const uint16_t hlen = static_cast<uint16_t>(header.size());
  out.push_back(static_cast<char>(hlen & 0xFF));
  out.push_back(static_cast<char>(hlen >> 8));
  out.append(header);
  if (t.bytes() > 0) {
    out.append(static_cast<const char*>(t.raw_data()),
               static_cast<size_t>(t.bytes()));
  }
  return out;
}

Result<Tensor> DecodeNpy(const std::string& bytes) {
  TFHPC_ASSIGN_OR_RETURN(
      Preamble p, ParsePreamble(bytes.data(), bytes.size(), bytes.size()));
  TFHPC_ASSIGN_OR_RETURN(
      Tensor t, TensorForHeader(bytes.substr(p.header_off, p.header_len),
                                bytes.size() - p.data_off()));
  if (t.bytes() > 0) {
    std::memcpy(t.raw_data(), bytes.data() + p.data_off(),
                static_cast<size_t>(t.bytes()));
  }
  return t;
}

Status SaveNpy(const std::string& path, const Tensor& t) {
  if (!t.valid()) {
    return InvalidArgument("SaveNpy: tensor has no data");
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Unavailable("SaveNpy: cannot open " + path);
  const std::string enc = EncodeNpy(t);
  f.write(enc.data(), static_cast<std::streamsize>(enc.size()));
  if (!f) return Unavailable("SaveNpy: write failed for " + path);
  return Status::OK();
}

Result<Tensor> LoadNpy(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return NotFound("LoadNpy: cannot open " + path);
  const auto end = f.tellg();
  if (end < 0) return Unavailable("LoadNpy: cannot size " + path);
  const size_t total = static_cast<size_t>(end);
  // Preamble and header dict first, then the data section read once,
  // straight into the tensor's (uninitialized, pooled) buffer.
  char pre[12];
  f.seekg(0);
  f.read(pre, static_cast<std::streamsize>(std::min(sizeof(pre), total)));
  TFHPC_ASSIGN_OR_RETURN(
      Preamble p, ParsePreamble(pre, static_cast<size_t>(f.gcount()), total));
  std::string header(p.header_len, '\0');
  f.seekg(static_cast<std::streamoff>(p.header_off));
  f.read(header.data(), static_cast<std::streamsize>(header.size()));
  TFHPC_ASSIGN_OR_RETURN(Tensor t,
                         TensorForHeader(header, total - p.data_off()));
  if (t.bytes() > 0) {
    f.read(static_cast<char*>(t.raw_data()), t.bytes());
  }
  if (!f) return Unavailable("LoadNpy: read failed for " + path);
  return t;
}

}  // namespace tfhpc::io
