// Minimal filesystem abstraction (RocksDB Env idiom).
//
// Checkpoints, recorded source versions, and logs are stored through this
// interface. `MemFileSystem` keeps everything in memory for deterministic
// tests and benches; `PosixFileSystem` writes real files (used by examples).
// Paths are flat, '/'-separated strings; directories are implicit (an object
// store model, matching the paper's S3 target).

#ifndef FLOR_ENV_FILESYSTEM_H_
#define FLOR_ENV_FILESYSTEM_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace flor {

/// Abstract byte-oriented object store.
///
/// Implementations must be safe for concurrent use from multiple threads:
/// the parallel replay executor shares one FileSystem across all worker
/// threads (every worker reads checkpoints, logs, and the manifest from the
/// same store, exactly like the paper's shared S3 bucket).
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Atomically creates or replaces the object at `path`.
  virtual Status WriteFile(const std::string& path,
                           const std::string& data) = 0;

  /// Appends to the object at `path`, creating it if absent.
  virtual Status AppendFile(const std::string& path,
                            const std::string& data) = 0;

  /// Reads the whole object.
  virtual Result<std::string> ReadFile(const std::string& path) const = 0;

  virtual bool Exists(const std::string& path) const = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) const = 0;
  virtual Status DeleteFile(const std::string& path) = 0;

  /// All object paths with the given prefix, sorted lexicographically. A
  /// listing costs the objects under the prefix's directory (the prefix up
  /// to its last '/'), not the whole store, so callers scope prefixes to
  /// the narrowest directory they need.
  virtual std::vector<std::string> ListPrefix(
      const std::string& prefix) const = 0;

  /// Sum of sizes of all objects under `prefix`.
  uint64_t TotalBytesUnder(const std::string& prefix) const;
};

/// In-memory filesystem; thread-safe. Reads take a shared lock so
/// concurrent replay workers do not serialize on each other's checkpoint
/// loads; writes are exclusive. Also tracks write statistics used by the
/// checkpoint spooler.
class MemFileSystem : public FileSystem {
 public:
  Status WriteFile(const std::string& path, const std::string& data) override;
  Status AppendFile(const std::string& path,
                    const std::string& data) override;
  Result<std::string> ReadFile(const std::string& path) const override;
  bool Exists(const std::string& path) const override;
  Result<uint64_t> FileSize(const std::string& path) const override;
  Status DeleteFile(const std::string& path) override;
  std::vector<std::string> ListPrefix(
      const std::string& prefix) const override;

  /// Total bytes ever written (for I/O accounting in tests).
  uint64_t bytes_written() const;

  /// Corrupts one byte at `offset` in `path` — failure-injection hook for
  /// checksum tests.
  Status CorruptByte(const std::string& path, size_t offset);

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::string> files_;
  uint64_t bytes_written_ = 0;
};

/// Pass-through FileSystem that injects write failures on demand — the
/// failure hook the spool/materializer error-path tests use to model a
/// flaky object store. Thread-safe (injection state has its own lock; all
/// I/O forwards to the base filesystem, which is itself thread-safe).
class FaultInjectionFileSystem : public FileSystem {
 public:
  /// Does not own `base`.
  explicit FaultInjectionFileSystem(FileSystem* base) : base_(base) {}

  /// Arms the injector: the next `count` WriteFile/AppendFile calls whose
  /// path contains `path_substr` (every write when empty) fail with
  /// IOError before reaching the base filesystem. Calls re-arm (the counts
  /// do not accumulate).
  void InjectWriteFailures(int count, std::string path_substr = "");

  /// Same for DeleteFile — the checkpoint-GC failure paths (a flaky object
  /// store refusing deletes must leak orphans, never break the manifest).
  /// Armed independently of write failures.
  void InjectDeleteFailures(int count, std::string path_substr = "");

  /// Writes + deletes failed by injection so far.
  int64_t failures_injected() const;

  Status WriteFile(const std::string& path, const std::string& data) override;
  Status AppendFile(const std::string& path,
                    const std::string& data) override;
  Result<std::string> ReadFile(const std::string& path) const override;
  bool Exists(const std::string& path) const override;
  Result<uint64_t> FileSize(const std::string& path) const override;
  Status DeleteFile(const std::string& path) override;
  std::vector<std::string> ListPrefix(
      const std::string& prefix) const override;

 private:
  /// Consumes one armed failure if `path` matches; true = fail this write.
  bool ShouldFail(const std::string& path);
  /// Same for deletes.
  bool ShouldFailDelete(const std::string& path);

  FileSystem* base_;
  mutable std::mutex inject_mu_;
  int remaining_failures_ = 0;
  std::string path_substr_;
  int remaining_delete_failures_ = 0;
  std::string delete_path_substr_;
  int64_t failures_injected_ = 0;
};

/// Real filesystem rooted at a directory. Creates parent directories on
/// demand. ListPrefix walks only the directory its prefix names, so a
/// missing directory lists nothing; objects written or deleted during the
/// walk may or may not be listed, and one present throughout always is.
class PosixFileSystem : public FileSystem {
 public:
  /// `root` must name a directory; it is created if missing.
  explicit PosixFileSystem(std::string root);

  Status WriteFile(const std::string& path, const std::string& data) override;
  Status AppendFile(const std::string& path,
                    const std::string& data) override;
  Result<std::string> ReadFile(const std::string& path) const override;
  bool Exists(const std::string& path) const override;
  Result<uint64_t> FileSize(const std::string& path) const override;
  Status DeleteFile(const std::string& path) override;
  std::vector<std::string> ListPrefix(
      const std::string& prefix) const override;

 private:
  std::string Resolve(const std::string& path) const;
  std::string root_;
};

}  // namespace flor

#endif  // FLOR_ENV_FILESYSTEM_H_
