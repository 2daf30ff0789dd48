#include "store/page_log_store.h"

#include <utility>

namespace verso {

using store_internal::DataMap;
using store_internal::MetaMap;

Result<std::unique_ptr<PageLogStore>> PageLogStore::Open(
    const std::string& dir, Env* env) {
  std::unique_ptr<PageLogStore> store(
      new PageLogStore(dir + "/store.plog", env));
  VERSO_ASSIGN_OR_RETURN(WalReadResult log, ReadWal(store->path_, env));
  for (const WalRecord& record : log.records) {
    VERSO_RETURN_IF_ERROR(store_internal::ApplyRecord(
        record.payload, store->data_, store->meta_));
  }
  store->recovered_torn_ = log.truncated_tail;
  if (log.truncated_tail) {
    // Crashed mid-append: chop the torn frame so the next append extends
    // the valid prefix instead of burying commits behind garbage. The
    // checkpoint that was writing it never acknowledged — the database's
    // WAL still holds its commits — so nothing is lost.
    VERSO_RETURN_IF_ERROR(
        env->TruncateFile(store->path_, log.valid_bytes));
  }
  store->bytes_ = log.valid_bytes;
  for (const auto& [key, value] : store->data_) {
    store->live_bytes_ += DataEntryBytes(key, value);
  }
  for (const auto& [name, value] : store->meta_) {
    (void)value;
    store->live_bytes_ += MetaEntryBytes(name);
  }
  VERSO_RETURN_IF_ERROR(store_internal::CheckFormat(store->meta_, "pagelog"));
  return store;
}

Result<std::string> PageLogStore::Get(const ReadTransaction& txn,
                                      std::string_view key) const {
  VERSO_RETURN_IF_ERROR(CheckRead(txn));
  store_internal::Metrics::Get().gets.Add();
  auto it = data_.find(key);
  if (it == data_.end()) {
    return Status::NotFound("no store entry for key");
  }
  return it->second;
}

bool PageLogStore::Contains(const ReadTransaction& txn,
                            std::string_view key) const {
  if (!CheckRead(txn).ok()) return false;
  return data_.find(key) != data_.end();
}

Status PageLogStore::Scan(const ReadTransaction& txn, std::string_view prefix,
                          const ScanFn& fn) const {
  VERSO_RETURN_IF_ERROR(CheckRead(txn));
  store_internal::Metrics::Get().scans.Add();
  for (auto it = data_.lower_bound(prefix); it != data_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    VERSO_RETURN_IF_ERROR(fn(it->first, it->second));
  }
  return Status::Ok();
}

Result<uint64_t> PageLogStore::GetMeta(const ReadTransaction& txn,
                                       std::string_view name) const {
  VERSO_RETURN_IF_ERROR(CheckRead(txn));
  auto it = meta_.find(name);
  if (it == meta_.end()) {
    return Status::NotFound("no store meta entry for name");
  }
  return it->second;
}

Status PageLogStore::ApplyCommit(const WriteTransaction& txn) {
  if (!tail_valid_) {
    return Status::IoError(
        "page log tail is unknown after a failed append; reopen the store");
  }
  std::string payload = store_internal::EncodeOps(txn.ops());
  Status appended = writer_.Append(payload);
  if (!appended.ok()) {
    // A failed append may have landed a partial frame; roll the file back
    // to the pre-append tail so a later commit extends valid data. If the
    // rollback itself fails the tail is unknown — refuse further writes
    // (reads keep serving; reopen re-derives the tail from the CRCs).
    Status rolled = env_->FileExists(path_)
                        ? env_->TruncateFile(path_, bytes_)
                        : Status::Ok();
    if (!rolled.ok()) tail_valid_ = false;
    return appended;
  }
  bytes_ += payload.size() + 12;  // 12-byte frame header + payload
  for (const WriteTransaction::Op& op : txn.ops()) ApplyOp(op);
  MaybeCompact();
  return Status::Ok();
}

void PageLogStore::ApplyOp(const WriteTransaction::Op& op) {
  switch (op.kind) {
    case WriteTransaction::Op::Kind::kPut: {
      auto [it, inserted] = data_.try_emplace(op.key);
      if (!inserted) live_bytes_ -= DataEntryBytes(it->first, it->second);
      it->second = op.value;
      live_bytes_ += DataEntryBytes(it->first, it->second);
      break;
    }
    case WriteTransaction::Op::Kind::kDelete: {
      auto it = data_.find(op.key);
      if (it == data_.end()) break;  // absent-key delete: no-op
      live_bytes_ -= DataEntryBytes(it->first, it->second);
      data_.erase(it);
      break;
    }
    case WriteTransaction::Op::Kind::kPutMeta: {
      auto [it, inserted] = meta_.try_emplace(op.key, op.meta);
      if (inserted) {
        live_bytes_ += MetaEntryBytes(it->first);
      } else {
        it->second = op.meta;
      }
      break;
    }
  }
}

void PageLogStore::MaybeCompact() {
  if (bytes_ < kCompactMinBytes) return;
  if (bytes_ <= kCompactDeadFactor * live_bytes_) return;
  // Rewrite the live image as one frame and install it over the log by
  // atomic rename: a crash at any point leaves either the old log or the
  // compacted one, both replaying to the identical index. Best-effort —
  // on failure the un-compacted log still holds everything, so the error
  // is swallowed and the next commit retries the size check.
  Result<std::string> frame =
      EncodeWalFrame(store_internal::EncodeImage(data_, meta_));
  if (!frame.ok()) return;
  if (!env_->WriteFileAtomic(path_, *frame).ok()) return;
  bytes_ = frame->size();
  store_internal::Metrics::Get().compactions.Add();
}

}  // namespace verso
