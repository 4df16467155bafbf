#include "env/filesystem.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <shared_mutex>

#include "common/strings.h"

namespace stdfs = std::filesystem;

namespace flor {

uint64_t FileSystem::TotalBytesUnder(const std::string& prefix) const {
  uint64_t total = 0;
  for (const auto& p : ListPrefix(prefix)) {
    auto sz = FileSize(p);
    if (sz.ok()) total += *sz;
  }
  return total;
}

// ---------------------------------------------------------------- MemFS ---

Status MemFileSystem::WriteFile(const std::string& path,
                                const std::string& data) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  bytes_written_ += data.size();
  files_[path] = data;
  return Status::OK();
}

Status MemFileSystem::AppendFile(const std::string& path,
                                 const std::string& data) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  bytes_written_ += data.size();
  files_[path] += data;
  return Status::OK();
}

Result<std::string> MemFileSystem::ReadFile(const std::string& path) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second;
}

bool MemFileSystem::Exists(const std::string& path) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return files_.count(path) > 0;
}

Result<uint64_t> MemFileSystem::FileSize(const std::string& path) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return static_cast<uint64_t>(it->second.size());
}

Status MemFileSystem::DeleteFile(const std::string& path) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (files_.erase(path) == 0)
    return Status::NotFound("no such file: " + path);
  return Status::OK();
}

std::vector<std::string> MemFileSystem::ListPrefix(
    const std::string& prefix) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (!StartsWith(it->first, prefix)) break;
    out.push_back(it->first);
  }
  return out;
}

uint64_t MemFileSystem::bytes_written() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return bytes_written_;
}

Status MemFileSystem::CorruptByte(const std::string& path, size_t offset) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  if (offset >= it->second.size())
    return Status::OutOfRange("offset beyond file size");
  it->second[offset] = static_cast<char>(it->second[offset] ^ 0xff);
  return Status::OK();
}

// ------------------------------------------------------ FaultInjection ---

void FaultInjectionFileSystem::InjectWriteFailures(int count,
                                                   std::string path_substr) {
  std::lock_guard<std::mutex> lock(inject_mu_);
  remaining_failures_ = count;
  path_substr_ = std::move(path_substr);
}

void FaultInjectionFileSystem::InjectDeleteFailures(int count,
                                                    std::string path_substr) {
  std::lock_guard<std::mutex> lock(inject_mu_);
  remaining_delete_failures_ = count;
  delete_path_substr_ = std::move(path_substr);
}

int64_t FaultInjectionFileSystem::failures_injected() const {
  std::lock_guard<std::mutex> lock(inject_mu_);
  return failures_injected_;
}

bool FaultInjectionFileSystem::ShouldFail(const std::string& path) {
  std::lock_guard<std::mutex> lock(inject_mu_);
  if (remaining_failures_ <= 0) return false;
  if (!path_substr_.empty() && path.find(path_substr_) == std::string::npos)
    return false;
  --remaining_failures_;
  ++failures_injected_;
  return true;
}

bool FaultInjectionFileSystem::ShouldFailDelete(const std::string& path) {
  std::lock_guard<std::mutex> lock(inject_mu_);
  if (remaining_delete_failures_ <= 0) return false;
  if (!delete_path_substr_.empty() &&
      path.find(delete_path_substr_) == std::string::npos) {
    return false;
  }
  --remaining_delete_failures_;
  ++failures_injected_;
  return true;
}

Status FaultInjectionFileSystem::WriteFile(const std::string& path,
                                           const std::string& data) {
  if (ShouldFail(path))
    return Status::IOError("injected write failure: " + path);
  return base_->WriteFile(path, data);
}

Status FaultInjectionFileSystem::AppendFile(const std::string& path,
                                            const std::string& data) {
  if (ShouldFail(path))
    return Status::IOError("injected append failure: " + path);
  return base_->AppendFile(path, data);
}

Result<std::string> FaultInjectionFileSystem::ReadFile(
    const std::string& path) const {
  return base_->ReadFile(path);
}

bool FaultInjectionFileSystem::Exists(const std::string& path) const {
  return base_->Exists(path);
}

Result<uint64_t> FaultInjectionFileSystem::FileSize(
    const std::string& path) const {
  return base_->FileSize(path);
}

Status FaultInjectionFileSystem::DeleteFile(const std::string& path) {
  if (ShouldFailDelete(path))
    return Status::IOError("injected delete failure: " + path);
  return base_->DeleteFile(path);
}

std::vector<std::string> FaultInjectionFileSystem::ListPrefix(
    const std::string& prefix) const {
  return base_->ListPrefix(prefix);
}

// -------------------------------------------------------------- PosixFS ---

PosixFileSystem::PosixFileSystem(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  stdfs::create_directories(root_, ec);
}

std::string PosixFileSystem::Resolve(const std::string& path) const {
  return root_ + "/" + path;
}

Status PosixFileSystem::WriteFile(const std::string& path,
                                  const std::string& data) {
  const std::string full = Resolve(path);
  std::error_code ec;
  stdfs::create_directories(stdfs::path(full).parent_path(), ec);
  // Write to a temp file then rename for atomicity.
  const std::string tmp = full + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError(StrCat("cannot open for write: ", full, ": ",
                                    std::strerror(errno)));
    }
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) {
      return Status::IOError(
          StrCat("short write: ", full, ": ", std::strerror(errno)));
    }
  }
  stdfs::rename(tmp, full, ec);
  if (ec) {
    return Status::IOError(
        StrCat("rename failed: ", full, ": ", ec.message()));
  }
  return Status::OK();
}

Status PosixFileSystem::AppendFile(const std::string& path,
                                   const std::string& data) {
  const std::string full = Resolve(path);
  std::error_code ec;
  stdfs::create_directories(stdfs::path(full).parent_path(), ec);
  std::ofstream out(full, std::ios::binary | std::ios::app);
  if (!out) {
    return Status::IOError(StrCat("cannot open for append: ", full, ": ",
                                  std::strerror(errno)));
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) {
    return Status::IOError(
        StrCat("short append: ", full, ": ", std::strerror(errno)));
  }
  return Status::OK();
}

Result<std::string> PosixFileSystem::ReadFile(const std::string& path) const {
  std::ifstream in(Resolve(path), std::ios::binary);
  if (!in) return Status::NotFound("no such file: " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

bool PosixFileSystem::Exists(const std::string& path) const {
  return stdfs::exists(Resolve(path));
}

Result<uint64_t> PosixFileSystem::FileSize(const std::string& path) const {
  std::error_code ec;
  auto sz = stdfs::file_size(Resolve(path), ec);
  if (ec) return Status::NotFound("no such file: " + path);
  return static_cast<uint64_t>(sz);
}

Status PosixFileSystem::DeleteFile(const std::string& path) {
  std::error_code ec;
  if (!stdfs::remove(Resolve(path), ec))
    return Status::NotFound("no such file: " + path);
  return Status::OK();
}

std::vector<std::string> PosixFileSystem::ListPrefix(
    const std::string& prefix) const {
  // Only the directory the prefix names up to its last '/' can hold a
  // match, so the walk starts there. `start` ends in '/', and the iterator
  // extends it one component at a time, so every entry's path is `start`
  // followed by its object path relative to `dir`.
  const std::string dir = prefix.substr(0, prefix.rfind('/') + 1);
  const std::string start = Resolve(dir);
  std::vector<std::string> out;
  std::error_code ec, type_ec;
  for (stdfs::recursive_directory_iterator it(start, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(type_ec)) continue;
    std::string name = dir + it->path().native().substr(start.size());
    if (StartsWith(name, prefix)) out.push_back(std::move(name));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace flor
