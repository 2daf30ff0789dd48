#include "store/mem_store.h"

#include <utility>

#include "storage/wal.h"

namespace verso {

using store_internal::DataMap;
using store_internal::MetaMap;

Result<std::unique_ptr<MemStore>> MemStore::Open(const std::string& dir,
                                                 Env* env) {
  std::string path = dir.empty() ? std::string() : dir + "/store.img";
  std::unique_ptr<MemStore> store(new MemStore(std::move(path), env));
  if (!store->path_.empty() && env->FileExists(store->path_)) {
    // The image is exactly one WAL frame; WriteFileAtomic installed it, so
    // anything else — a torn frame, trailing bytes, several frames — is
    // damage, not a crash artifact, and must fail the open.
    VERSO_ASSIGN_OR_RETURN(WalReadResult image,
                           ReadWal(store->path_, env));
    if (image.truncated_tail || image.records.size() != 1) {
      return Status::Corruption("mem store image '" + store->path_ +
                                "' is damaged");
    }
    VERSO_RETURN_IF_ERROR(store_internal::ApplyRecord(
        image.records[0].payload, store->data_, store->meta_));
    VERSO_RETURN_IF_ERROR(store_internal::CheckFormat(store->meta_, "mem"));
  }
  return store;
}

Result<std::string> MemStore::Get(const ReadTransaction& txn,
                                  std::string_view key) const {
  VERSO_RETURN_IF_ERROR(CheckRead(txn));
  store_internal::Metrics::Get().gets.Add();
  auto it = data_.find(key);
  if (it == data_.end()) {
    return Status::NotFound("no store entry for key");
  }
  return it->second;
}

bool MemStore::Contains(const ReadTransaction& txn,
                        std::string_view key) const {
  if (!CheckRead(txn).ok()) return false;
  return data_.find(key) != data_.end();
}

Status MemStore::Scan(const ReadTransaction& txn, std::string_view prefix,
                      const ScanFn& fn) const {
  VERSO_RETURN_IF_ERROR(CheckRead(txn));
  store_internal::Metrics::Get().scans.Add();
  for (auto it = data_.lower_bound(prefix); it != data_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    VERSO_RETURN_IF_ERROR(fn(it->first, it->second));
  }
  return Status::Ok();
}

Result<uint64_t> MemStore::GetMeta(const ReadTransaction& txn,
                                   std::string_view name) const {
  VERSO_RETURN_IF_ERROR(CheckRead(txn));
  auto it = meta_.find(name);
  if (it == meta_.end()) {
    return Status::NotFound("no store meta entry for name");
  }
  return it->second;
}

Status MemStore::ApplyCommit(const WriteTransaction& txn) {
  // Durability first, on a scratch copy: the new image hits disk before
  // memory moves, and a failed write leaves the live maps (and the old
  // image, untouched by WriteFileAtomic) exactly as they were.
  DataMap data = data_;
  MetaMap meta = meta_;
  for (const WriteTransaction::Op& op : txn.ops()) {
    switch (op.kind) {
      case WriteTransaction::Op::Kind::kPut:
        data[op.key] = op.value;
        break;
      case WriteTransaction::Op::Kind::kDelete:
        data.erase(op.key);
        break;
      case WriteTransaction::Op::Kind::kPutMeta:
        meta[op.key] = op.meta;
        break;
    }
  }
  if (!path_.empty()) {
    VERSO_ASSIGN_OR_RETURN(
        std::string frame,
        EncodeWalFrame(store_internal::EncodeImage(data, meta)));
    VERSO_RETURN_IF_ERROR(env_->WriteFileAtomic(path_, frame));
  }
  data_ = std::move(data);
  meta_ = std::move(meta);
  return Status::Ok();
}

}  // namespace verso
