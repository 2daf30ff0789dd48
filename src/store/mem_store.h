#ifndef VERSO_STORE_MEM_STORE_H_
#define VERSO_STORE_MEM_STORE_H_

#include <memory>
#include <string>

#include "store/internal.h"
#include "store/store.h"
#include "util/io.h"
#include "util/result.h"

namespace verso {

/// In-memory ordered-map backend (StoreBackend::kMem). With a directory,
/// every commit rewrites `<dir>/store.img` — one CRC'd WAL frame
/// holding the whole image — installed by Env::WriteFileAtomic, so the
/// rename is the only commit point and a crash anywhere leaves either the
/// old image or the new one, never a blend. With no directory the store
/// is volatile (ephemeral databases).
class MemStore : public Store {
 public:
  /// `dir` empty = volatile. An existing image that fails its CRC or
  /// decode refuses to open: the image is the checkpoint of record, so
  /// damage must surface instead of silently reading as an empty store.
  static Result<std::unique_ptr<MemStore>> Open(const std::string& dir,
                                                Env* env);

  const char* name() const override { return "mem"; }
  Result<std::string> Get(const ReadTransaction& txn,
                          std::string_view key) const override;
  bool Contains(const ReadTransaction& txn,
                std::string_view key) const override;
  Status Scan(const ReadTransaction& txn, std::string_view prefix,
              const ScanFn& fn) const override;
  Result<uint64_t> GetMeta(const ReadTransaction& txn,
                           std::string_view name) const override;
  size_t key_count() const override { return data_.size(); }

  const std::string& image_path() const { return path_; }

 protected:
  Status ApplyCommit(const WriteTransaction& txn) override;

 private:
  MemStore(std::string path, Env* env)
      : path_(std::move(path)), env_(env) {}

  std::string path_;  // empty = volatile
  Env* env_;
  store_internal::DataMap data_;
  store_internal::MetaMap meta_;
};

}  // namespace verso

#endif  // VERSO_STORE_MEM_STORE_H_
