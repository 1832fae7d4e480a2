// Checkpoint/restore of named variable sets — the paper highlights
// TensorFlow's checkpoint-restart as HPC-relevant and ships a CG solver
// with it. The file body is a sequence of protobuf-encoded (name,
// TensorProto, crc32) entries plus a header with a format version and entry
// count. Writes are durable: data is fsync'd before the atomic rename and
// the directory is fsync'd after it, so a checkpoint that Save reported
// survives power loss.
//
// CheckpointManager layers job-level checkpoint-restart on top: versioned
// files under one directory, a manifest for discovery, bounded retention,
// async saves off the step loop, and restore-from-latest that falls back to
// older versions when the newest file fails its CRC/parse — the durable half
// of DistributedSession's fail-stop recovery.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"

namespace tfhpc::io {

// Atomically (write-to-temp + fsync + rename + dir fsync) saves all entries
// to `path`. Each entry carries a CRC32 over its name and tensor bytes. An
// invalid tensor is kInvalidArgument and nothing is written.
Status SaveCheckpoint(const std::string& path,
                      const std::map<std::string, Tensor>& vars);

// Loads a checkpoint previously written by SaveCheckpoint. Rejects files
// with a different format version (clear kInvalidArgument), missing or
// mismatched per-entry CRCs, and entry-count mismatches.
Result<std::map<std::string, Tensor>> LoadCheckpoint(const std::string& path);

// CRC-32 (IEEE, reflected) — exposed for tests and the tile store.
uint32_t Crc32(const void* data, size_t size);

struct CheckpointManagerOptions {
  std::string directory;      // created if absent
  std::string prefix = "ckpt";
  // Newest versions kept on disk; older ones are deleted after each save.
  int max_to_keep = 3;
};

// Versioned, rotating, durable checkpoints. Thread-safe. Version numbers
// increase monotonically (resuming from an existing manifest continues the
// sequence); the manifest names every live version and is itself written
// atomically + fsync'd.
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointManagerOptions options);
  ~CheckpointManager();  // drains any pending async save
  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  // Synchronous save; returns the new version number.
  Result<int64_t> Save(const std::map<std::string, Tensor>& vars);

  // Queues `vars` for a background save and returns immediately — the step
  // loop's periodic checkpoints must not stall the step. Saves are
  // serialized; if a newer snapshot is queued before the previous one
  // started writing, the older queued one is superseded (latest wins).
  void SaveAsync(std::map<std::string, Tensor> vars);

  // Blocks until the async queue is empty; returns the first async save
  // error since the last call (and clears it).
  Status WaitForPending();

  Result<std::map<std::string, Tensor>> Restore(int64_t version) const;
  // Drains pending async saves, then restores the newest version that loads
  // cleanly, walking backwards past corrupt/unreadable files. Fills
  // *version with the version actually restored.
  Result<std::map<std::string, Tensor>> RestoreLatest(
      int64_t* version = nullptr);

  // Live versions, ascending. Empty when nothing has been saved.
  std::vector<int64_t> Versions() const;
  int64_t latest_version() const;  // 0 when none
  std::string PathFor(int64_t version) const;

  int64_t saves() const;  // completed saves (sync + async)

 private:
  Status SaveNow(const std::map<std::string, Tensor>& vars,
                 int64_t* version_out);
  Status WriteManifestLocked();
  void LoadManifest();
  void WorkerLoop();

  CheckpointManagerOptions options_;

  mutable std::mutex mu_;  // guards versions_/next_version_ and manifest io
  std::vector<int64_t> versions_;
  int64_t next_version_ = 1;
  int64_t saves_ = 0;

  std::mutex qmu_;
  std::condition_variable qcv_;
  bool running_ = true;
  bool worker_busy_ = false;
  bool has_pending_ = false;
  std::map<std::string, Tensor> pending_;
  Status async_error_;
  std::unique_ptr<std::thread> worker_;
};

}  // namespace tfhpc::io
