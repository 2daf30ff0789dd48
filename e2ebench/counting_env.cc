#include "counting_env.h"

#include <chrono>

namespace e2e {

namespace {

FileRole RoleOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  if (base == "wal.log") return FileRole::kWal;
  if (base.rfind("store.", 0) == 0) return FileRole::kStore;
  return FileRole::kOther;
}

}  // namespace

uint64_t EnvCounts::total_bytes() const {
  uint64_t n = 0;
  for (const Role& r : roles) n += r.bytes;
  return n;
}

uint64_t EnvCounts::total_writes() const {
  uint64_t n = 0;
  for (const Role& r : roles) n += r.writes;
  return n;
}

uint64_t EnvCounts::total_ns() const {
  uint64_t n = 0;
  for (const Role& r : roles) n += r.ns;
  return n;
}

EnvCounts EnvCounts::Minus(const EnvCounts& earlier) const {
  EnvCounts out;
  for (size_t i = 0; i < roles.size(); ++i) {
    out.roles[i].calls = roles[i].calls - earlier.roles[i].calls;
    out.roles[i].writes = roles[i].writes - earlier.roles[i].writes;
    out.roles[i].bytes = roles[i].bytes - earlier.roles[i].bytes;
    out.roles[i].ns = roles[i].ns - earlier.roles[i].ns;
  }
  return out;
}

template <typename Fn>
auto CountingEnv::Count(const std::string& path, bool mutating, uint64_t bytes,
                        Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  auto result = fn();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EnvCounts::Role& role = counts_.roles[static_cast<size_t>(RoleOf(path))];
  ++role.calls;
  if (mutating) ++role.writes;
  role.bytes += bytes;
  role.ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  return result;
}

verso::Result<std::string> CountingEnv::ReadFile(const std::string& path) {
  return Count(path, false, 0, [&] { return base_->ReadFile(path); });
}

verso::Status CountingEnv::WriteFile(const std::string& path,
                                     std::string_view contents) {
  return Count(path, true, contents.size(),
               [&] { return base_->WriteFile(path, contents); });
}

verso::Status CountingEnv::AppendFile(const std::string& path,
                                      std::string_view contents) {
  return Count(path, true, contents.size(),
               [&] { return base_->AppendFile(path, contents); });
}

verso::Status CountingEnv::RenameFile(const std::string& from,
                                      const std::string& to) {
  return Count(to, true, 0, [&] { return base_->RenameFile(from, to); });
}

bool CountingEnv::FileExists(const std::string& path) {
  return Count(path, false, 0, [&] { return base_->FileExists(path); });
}

verso::Result<size_t> CountingEnv::FileSize(const std::string& path) {
  return Count(path, false, 0, [&] { return base_->FileSize(path); });
}

verso::Status CountingEnv::RemoveFile(const std::string& path) {
  return Count(path, true, 0, [&] { return base_->RemoveFile(path); });
}

verso::Status CountingEnv::TruncateFile(const std::string& path, size_t size) {
  return Count(path, true, 0,
               [&] { return base_->TruncateFile(path, size); });
}

verso::Status CountingEnv::EnsureDirectory(const std::string& path) {
  return Count(path, true, 0, [&] { return base_->EnsureDirectory(path); });
}

}  // namespace e2e
