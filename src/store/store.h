#ifndef VERSO_STORE_STORE_H_
#define VERSO_STORE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/io.h"
#include "util/result.h"

namespace verso {

class Store;

/// Which Store implementation backs a database directory.
enum class StoreBackend : uint8_t {
  /// In-memory ordered map; when the store has a directory, every commit
  /// rewrites `<dir>/store.img` — one CRC'd WAL frame holding the whole
  /// image — installed by atomic rename. O(base) per commit, simplest
  /// crash story (the rename is the only commit point): the right trade
  /// for small bases.
  kMem = 0,
  /// Append-only page log `<dir>/store.plog`: each commit appends one
  /// CRC'd WAL frame of put/delete ops; an in-memory key index is rebuilt
  /// by replay on open, and the log compacts itself once dead bytes
  /// dominate. O(delta) per commit — the backend shape for bases that
  /// outgrow whole-image rewrites.
  kPageLog = 1,
};

/// "mem" / "pagelog" — stable names used by env knobs and test output.
const char* StoreBackendName(StoreBackend backend);
/// Inverse of StoreBackendName; kInvalidArgument for unknown names.
Result<StoreBackend> ParseStoreBackend(std::string_view name);

/// Token for a consistent read view. The embedded contract is
/// single-threaded (one writer, no concurrent readers mid-commit), so the
/// token carries no snapshot state — it exists so every read names the
/// transaction it belongs to and a future MVCC backend can widen it
/// without touching call sites.
class ReadTransaction {
 public:
  const Store* store() const { return store_; }

 private:
  friend class Store;
  explicit ReadTransaction(const Store* store) : store_(store) {}
  const Store* store_;
};

/// A staged batch of writes, atomic at Commit(): either every data op and
/// meta write is durable and visible, or none is. Destroying an
/// uncommitted transaction discards the staging buffer (abort).
class WriteTransaction {
 public:
  struct Op {
    enum class Kind : uint8_t { kPut = 0, kDelete = 1, kPutMeta = 2 };
    Kind kind;
    std::string key;
    std::string value;  // kPut payload
    uint64_t meta = 0;  // kPutMeta payload
  };

  WriteTransaction(WriteTransaction&&) = default;
  WriteTransaction& operator=(WriteTransaction&&) = delete;

  void Put(std::string key, std::string value);
  void Delete(std::string key);
  /// Writes one named u64 in the store's meta table (format version,
  /// checkpoint generation) atomically with the data ops.
  void PutMeta(std::string name, uint64_t value);

  /// Makes the staged ops durable and visible, in staging order, through
  /// the owning backend. At most once per transaction; a failed commit
  /// leaves the store unchanged (both backends commit atomically) and the
  /// transaction may not be retried — stage a fresh one.
  Status Commit();

  bool committed() const { return committed_; }
  const std::vector<Op>& ops() const { return ops_; }

 private:
  friend class Store;
  explicit WriteTransaction(Store* store) : store_(store) {}

  Store* store_;
  bool committed_ = false;
  std::vector<Op> ops_;
};

/// Scan callback: invoked once per (key, value) in ascending key order;
/// returning an error stops the scan and propagates out of Scan.
using ScanFn =
    std::function<Status(std::string_view key, std::string_view value)>;

/// The storage component the database checkpoints into: ordered key/value
/// state plus a small named-u64 meta table, read and written under
/// explicit transactions (nano-node's `nano/store/` component shape). The
/// database keys encoded object-version records under it ("b/" + version
/// key) and tracks its checkpoint generation in the meta table; the
/// evaluator never sees the store — larger-than-RAM bases and bounded
/// restarts are backend properties, not evaluator rewrites.
///
/// Not thread-safe; one writer per directory (the embedded contract the
/// Database layer already imposes).
class Store {
 public:
  virtual ~Store() = default;

  /// StoreBackendName of this backend.
  virtual const char* name() const = 0;

  ReadTransaction BeginRead() const { return ReadTransaction(this); }
  WriteTransaction BeginWrite() { return WriteTransaction(this); }

  /// The value under `key`, or kNotFound.
  virtual Result<std::string> Get(const ReadTransaction& txn,
                                  std::string_view key) const = 0;
  virtual bool Contains(const ReadTransaction& txn,
                        std::string_view key) const = 0;
  /// Range scan: every entry whose key starts with `prefix` (all entries
  /// for an empty prefix), ascending by key.
  virtual Status Scan(const ReadTransaction& txn, std::string_view prefix,
                      const ScanFn& fn) const = 0;
  /// The named meta-table entry, or kNotFound.
  virtual Result<uint64_t> GetMeta(const ReadTransaction& txn,
                                   std::string_view name) const = 0;

  /// Live data keys (meta entries not counted).
  virtual size_t key_count() const = 0;
  bool empty() const { return key_count() == 0; }

 protected:
  friend class WriteTransaction;
  /// Applies one staged batch atomically: durable first, visible after.
  virtual Status ApplyCommit(const WriteTransaction& txn) = 0;

  /// Backends validate that a read belongs to this store before honoring
  /// it — catching the one misuse the lightweight token permits.
  Status CheckRead(const ReadTransaction& txn) const {
    if (txn.store() != this) {
      return Status::InvalidArgument(
          "read transaction belongs to a different store");
    }
    return Status::Ok();
  }
};

/// Opens the chosen backend rooted in `dir` (created if needed; every
/// byte through `env`, nullptr = Env::Default()). An empty `dir` yields a
/// volatile in-memory store (ephemeral databases). Refuses a store whose
/// on-disk format version is newer than this build understands.
Result<std::unique_ptr<Store>> OpenStore(StoreBackend backend,
                                         const std::string& dir,
                                         Env* env = nullptr);

}  // namespace verso

#endif  // VERSO_STORE_STORE_H_
