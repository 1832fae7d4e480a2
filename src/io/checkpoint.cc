#include "io/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "wire/coded.h"
#include "wire/messages.h"

namespace tfhpc::io {
namespace {
// Header: field 1 = version, field 2 = entry count.
// Entry:  field 3 = nested {1: name, 2: TensorProto bytes, 3: crc32}.
// Version 2 added the per-entry CRC32 and made it mandatory; version-1
// files (no CRC) are rejected rather than silently trusted.
constexpr uint64_t kVersion = 2;

// Durably writes `data` to `path`: the bytes are fsync'd before close so a
// subsequent rename publishes a fully-persisted file.
Status WriteFileDurably(const std::string& path, const std::string& data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Unavailable("checkpoint: cannot open " + path);
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      ::close(fd);
      return Unavailable("checkpoint: write failed for " + path);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Unavailable("checkpoint: fsync failed for " + path);
  }
  if (::close(fd) != 0) {
    return Unavailable("checkpoint: close failed for " + path);
  }
  return Status::OK();
}

// fsync on the containing directory persists the rename itself.
Status SyncParentDir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Unavailable("checkpoint: cannot open directory " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Unavailable("checkpoint: directory fsync failed: " + dir);
  return Status::OK();
}

// Atomic durable publish: temp write (fsync'd) + rename + directory fsync.
Status PublishFileDurably(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  TFHPC_RETURN_IF_ERROR(WriteFileDurably(tmp, data));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Unavailable("checkpoint: rename failed: " + ec.message());
  return SyncParentDir(path);
}

uint32_t EntryCrc(const std::string& name, const void* tensor_bytes,
                  size_t tensor_size) {
  uint32_t crc = Crc32(name.data(), name.size());
  // Chain the tensor bytes into the same CRC by continuing from the name's
  // value (standard incremental CRC composition via xor-in/xor-out).
  uint32_t c = crc ^ 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(tensor_bytes);
  for (size_t i = 0; i < tensor_size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xffffffffu;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xffffffffu;
}

Status SaveCheckpoint(const std::string& path,
                      const std::map<std::string, Tensor>& vars) {
  std::string out;
  wire::CodedOutput co(&out);
  co.WriteUInt64(1, kVersion);
  co.WriteUInt64(2, vars.size());
  for (const auto& [name, tensor] : vars) {
    // LoadCheckpoint refuses a whole file whose entry has no dtype.
    if (!tensor.valid()) {
      return InvalidArgument("checkpoint: no value for variable " + name);
    }
    const std::string tensor_bytes = wire::SerializeTensor(tensor);
    std::string entry;
    wire::CodedOutput eo(&entry);
    eo.WriteString(1, name);
    eo.WriteMessage(2, tensor_bytes);
    eo.WriteUInt64(3, EntryCrc(name, tensor_bytes.data(), tensor_bytes.size()));
    co.WriteMessage(3, entry);
  }
  return PublishFileDurably(path, out);
}

Result<std::map<std::string, Tensor>> LoadCheckpoint(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return NotFound("checkpoint: cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string data = ss.str();

  wire::CodedInput in(data);
  std::map<std::string, Tensor> vars;
  uint64_t declared_count = 0;
  bool saw_version = false;
  while (!in.AtEnd()) {
    uint32_t field;
    wire::WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    if (field == 1) {
      uint64_t v;
      TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
      if (v != kVersion) {
        return InvalidArgument(
            "checkpoint: unsupported format version " + std::to_string(v) +
            " (this build reads only version " + std::to_string(kVersion) +
            "); re-save the checkpoint with the current writer");
      }
      saw_version = true;
    } else if (field == 2) {
      TFHPC_RETURN_IF_ERROR(in.ReadVarint(&declared_count));
    } else if (field == 3) {
      const uint8_t* d;
      size_t s;
      TFHPC_RETURN_IF_ERROR(in.ReadBytesView(&d, &s));
      wire::CodedInput ein(d, s);
      std::string name;
      // The tensor bytes stay a view into the file image: CRC and parse read
      // them in place, and ParseTensor copies the element content straight
      // into a pooled buffer — no intermediate std::string round-trip.
      const uint8_t* tensor_ptr = nullptr;
      size_t tensor_size = 0;
      uint64_t crc = 0;
      bool saw_crc = false;
      while (!ein.AtEnd()) {
        uint32_t ef;
        wire::WireType ewt;
        TFHPC_RETURN_IF_ERROR(ein.ReadTag(&ef, &ewt));
        if (ef == 1) {
          TFHPC_RETURN_IF_ERROR(ein.ReadString(&name));
        } else if (ef == 2) {
          TFHPC_RETURN_IF_ERROR(ein.ReadBytesView(&tensor_ptr, &tensor_size));
        } else if (ef == 3) {
          TFHPC_RETURN_IF_ERROR(ein.ReadVarint(&crc));
          saw_crc = true;
        } else {
          TFHPC_RETURN_IF_ERROR(ein.SkipField(ewt));
        }
      }
      if (name.empty() || tensor_size == 0) {
        return InvalidArgument("checkpoint: malformed entry");
      }
      if (!saw_crc) {
        return InvalidArgument("checkpoint: entry '" + name +
                               "' has no CRC (pre-v2 or truncated file)");
      }
      const uint32_t want = EntryCrc(name, tensor_ptr, tensor_size);
      if (static_cast<uint32_t>(crc) != want) {
        return InvalidArgument("checkpoint: CRC mismatch for entry '" + name +
                               "' (corrupted on disk)");
      }
      TFHPC_ASSIGN_OR_RETURN(Tensor tensor,
                             wire::ParseTensor(tensor_ptr, tensor_size));
      if (!tensor.valid()) {
        return InvalidArgument("checkpoint: malformed entry");
      }
      vars.emplace(std::move(name), std::move(tensor));
    } else {
      TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  if (!saw_version) {
    return InvalidArgument("checkpoint: missing format version header");
  }
  if (declared_count != vars.size()) {
    return InvalidArgument("checkpoint: entry count mismatch (" +
                           std::to_string(vars.size()) + " vs declared " +
                           std::to_string(declared_count) + ")");
  }
  return vars;
}

// ----- CheckpointManager ------------------------------------------------------

CheckpointManager::CheckpointManager(CheckpointManagerOptions options)
    : options_(std::move(options)) {
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  LoadManifest();
  worker_ = std::make_unique<std::thread>([this] { WorkerLoop(); });
}

CheckpointManager::~CheckpointManager() {
  {
    std::unique_lock<std::mutex> lk(qmu_);
    running_ = false;
    qcv_.notify_all();
  }
  if (worker_ && worker_->joinable()) worker_->join();
}

std::string CheckpointManager::PathFor(int64_t version) const {
  return options_.directory + "/" + options_.prefix + "-" +
         std::to_string(version) + ".ckpt";
}

static std::string ManifestPathFor(const CheckpointManagerOptions& options) {
  return options.directory + "/" + options.prefix + ".manifest";
}

void CheckpointManager::LoadManifest() {
  std::ifstream f(ManifestPathFor(options_));
  if (!f) return;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    char* end = nullptr;
    const long long v = std::strtoll(line.c_str(), &end, 10);
    if (end == line.c_str() || v <= 0) continue;
    versions_.push_back(static_cast<int64_t>(v));
  }
  std::sort(versions_.begin(), versions_.end());
  versions_.erase(std::unique(versions_.begin(), versions_.end()),
                  versions_.end());
  if (!versions_.empty()) next_version_ = versions_.back() + 1;
}

Status CheckpointManager::WriteManifestLocked() {
  std::string out = "# tfhpc checkpoint manifest: one live version per line\n";
  for (int64_t v : versions_) out += std::to_string(v) + "\n";
  return PublishFileDurably(ManifestPathFor(options_), out);
}

Status CheckpointManager::SaveNow(const std::map<std::string, Tensor>& vars,
                                  int64_t* version_out) {
  std::lock_guard<std::mutex> lk(mu_);
  const int64_t version = next_version_;
  TFHPC_RETURN_IF_ERROR(SaveCheckpoint(PathFor(version), vars));
  ++next_version_;
  versions_.push_back(version);
  // Retention: the manifest is rewritten *before* old files are unlinked, so
  // a crash between the two leaves orphan files, never dangling entries.
  std::vector<int64_t> evict;
  while (versions_.size() > static_cast<size_t>(
                                std::max(1, options_.max_to_keep))) {
    evict.push_back(versions_.front());
    versions_.erase(versions_.begin());
  }
  TFHPC_RETURN_IF_ERROR(WriteManifestLocked());
  for (int64_t v : evict) {
    std::error_code ec;
    std::filesystem::remove(PathFor(v), ec);
  }
  ++saves_;
  if (version_out != nullptr) *version_out = version;
  return Status::OK();
}

Result<int64_t> CheckpointManager::Save(
    const std::map<std::string, Tensor>& vars) {
  int64_t version = 0;
  TFHPC_RETURN_IF_ERROR(SaveNow(vars, &version));
  return version;
}

void CheckpointManager::SaveAsync(std::map<std::string, Tensor> vars) {
  std::unique_lock<std::mutex> lk(qmu_);
  pending_ = std::move(vars);  // latest wins
  has_pending_ = true;
  qcv_.notify_all();
}

void CheckpointManager::WorkerLoop() {
  while (true) {
    std::map<std::string, Tensor> vars;
    {
      std::unique_lock<std::mutex> lk(qmu_);
      qcv_.wait(lk, [&] { return has_pending_ || !running_; });
      if (!has_pending_) return;  // shutting down with an empty queue
      vars = std::move(pending_);
      pending_.clear();
      has_pending_ = false;
      worker_busy_ = true;
    }
    Status st = SaveNow(vars, nullptr);
    {
      std::unique_lock<std::mutex> lk(qmu_);
      if (!st.ok() && async_error_.ok()) async_error_ = st;
      worker_busy_ = false;
      qcv_.notify_all();
    }
  }
}

Status CheckpointManager::WaitForPending() {
  std::unique_lock<std::mutex> lk(qmu_);
  qcv_.wait(lk, [&] { return !has_pending_ && !worker_busy_; });
  Status st = async_error_;
  async_error_ = Status::OK();
  return st;
}

Result<std::map<std::string, Tensor>> CheckpointManager::Restore(
    int64_t version) const {
  return LoadCheckpoint(PathFor(version));
}

Result<std::map<std::string, Tensor>> CheckpointManager::RestoreLatest(
    int64_t* version) {
  // A checkpoint queued but not yet written must be restorable: drain first.
  TFHPC_RETURN_IF_ERROR(WaitForPending());
  std::vector<int64_t> versions = Versions();
  Status last = NotFound("no checkpoints under " + options_.directory + "/" +
                         options_.prefix + "-*");
  // Newest first; a corrupt or half-written newest file falls back to the
  // next older version instead of failing the whole recovery.
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    auto r = LoadCheckpoint(PathFor(*it));
    if (r.ok()) {
      if (version != nullptr) *version = *it;
      return r;
    }
    last = Status(r.status().code(),
                  "version " + std::to_string(*it) + ": " +
                      r.status().message());
  }
  return Status(last.code(),
                "checkpoint restore: no restorable version (" +
                    last.message() + ")");
}

std::vector<int64_t> CheckpointManager::Versions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return versions_;
}

int64_t CheckpointManager::latest_version() const {
  std::lock_guard<std::mutex> lk(mu_);
  return versions_.empty() ? 0 : versions_.back();
}

int64_t CheckpointManager::saves() const {
  std::lock_guard<std::mutex> lk(mu_);
  return saves_;
}

}  // namespace tfhpc::io
