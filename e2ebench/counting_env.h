#ifndef E2EBENCH_COUNTING_ENV_H_
#define E2EBENCH_COUNTING_ENV_H_

#include <array>
#include <cstdint>
#include <string>

#include "util/io.h"

namespace e2e {

/// Which file an Env call touched, by basename: the write-ahead log, the
/// checkpoint store (store.img / store.plog and their temp siblings), or
/// anything else (forensic side files, directories).
enum class FileRole { kWal = 0, kStore = 1, kOther = 2 };

/// Per-role Env traffic. `writes` counts mutating calls (write, append,
/// rename, remove, truncate, mkdir); `bytes` counts payload bytes written
/// or appended; `ns` is wall time spent inside the delegate.
struct EnvCounts {
  struct Role {
    uint64_t calls = 0;
    uint64_t writes = 0;
    uint64_t bytes = 0;
    uint64_t ns = 0;
  };
  std::array<Role, 3> roles;

  const Role& operator[](FileRole r) const {
    return roles[static_cast<size_t>(r)];
  }
  uint64_t total_bytes() const;
  uint64_t total_writes() const;
  uint64_t total_ns() const;
  /// Field-wise this - earlier.
  EnvCounts Minus(const EnvCounts& earlier) const;
};

/// An Env that forwards every call to Env::Default() and counts calls,
/// bytes and time per file role. The delegate's flush policy is the
/// benchmark's: PosixEnv flushes each append to the OS but never fsyncs.
class CountingEnv : public verso::Env {
 public:
  const EnvCounts& counts() const { return counts_; }

  verso::Result<std::string> ReadFile(const std::string& path) override;
  verso::Status WriteFile(const std::string& path,
                          std::string_view contents) override;
  verso::Status AppendFile(const std::string& path,
                           std::string_view contents) override;
  verso::Status RenameFile(const std::string& from,
                           const std::string& to) override;
  bool FileExists(const std::string& path) override;
  verso::Result<size_t> FileSize(const std::string& path) override;
  verso::Status RemoveFile(const std::string& path) override;
  verso::Status TruncateFile(const std::string& path, size_t size) override;
  verso::Status EnsureDirectory(const std::string& path) override;

 private:
  /// Times `fn` and books it against `path`'s role.
  template <typename Fn>
  auto Count(const std::string& path, bool mutating, uint64_t bytes, Fn&& fn);

  verso::Env* base_ = verso::Env::Default();
  EnvCounts counts_;
};

}  // namespace e2e

#endif  // E2EBENCH_COUNTING_ENV_H_
