#ifndef VERSO_STORAGE_DATABASE_H_
#define VERSO_STORAGE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/engine.h"
#include "storage/wal.h"
#include "store/store.h"
#include "util/clock.h"
#include "util/io.h"
#include "util/result.h"

namespace verso {

/// Observer of committed transactions: the database invokes OnCommit once
/// per transaction, after the delta is durable in the WAL and installed in
/// the in-memory base. This is the delta stream incremental materialized
/// views are maintained from (src/views). An observer error surfaces to
/// the caller of Execute/ImportBase as kObserverFailed, but the commit
/// itself stands — the delta is already durable; do not retry.
class CommitObserver {
 public:
  virtual ~CommitObserver() = default;

  /// `delta` lists the transaction's fact-level changes, removals first
  /// then additions (the order ApplyDelta installs them). `committed` is
  /// the database's current base; within an ExecuteBatch group it already
  /// includes LATER transactions of the same batch, so observers tracking
  /// exact per-transaction states must fold the deltas themselves.
  /// `epoch` is the commit epoch of THIS transaction — within a batch it
  /// identifies the triggering member, so downstream consumers (view
  /// subscriptions) must stamp their events with it rather than reading
  /// Database::commit_epoch() at delivery time.
  virtual Status OnCommit(const DeltaLog& delta, const ObjectBase& committed,
                          uint64_t epoch) = 0;

  /// The observed database is being destroyed; drop any pointer to it.
  /// Called from ~Database for observers still registered at that point.
  virtual void OnDatabaseClosed() {}
};

/// Knobs fixed when a database opens.
struct DatabaseOptions {
  /// Filesystem backend every persisted byte goes through; nullptr means
  /// the real filesystem (Env::Default()). Tests substitute a
  /// FaultInjectingEnv to prove crash-recovery properties.
  Env* env = nullptr;
  /// Extra attempts for a WAL append that fails with kIoTransient before
  /// the database degrades to read-only. Permanent errors (kIoError,
  /// kCorruption) never retry.
  uint32_t wal_retry_limit = 3;
  /// Base backoff between transient-append retries; attempt k sleeps
  /// `retry_backoff_us << k`. 0 disables sleeping (tests).
  uint32_t retry_backoff_us = 100;
  /// Monotonic clock the retry backoff sleeps through; nullptr means
  /// Clock::Default(). Tests substitute a FakeClock to assert the
  /// backoff schedule without waiting out real time.
  Clock* clock = nullptr;
  /// Storage-fault events (OnStorageFault) go here (not owned). The
  /// per-call TraceSink of Execute/ExecuteBatch traces evaluation only.
  TraceSink* trace = nullptr;
  /// Checkpoint/recovery store backend (src/store): kMem rewrites one
  /// whole-base image per checkpoint, kPageLog appends O(delta) records
  /// and compacts itself. Fixed at open; reopen a directory with the
  /// backend that checkpointed it (recovery reads the backend's own
  /// file, it does not migrate between formats).
  StoreBackend store_backend = StoreBackend::kMem;
  /// When > 0, a successful commit that leaves the WAL at or past this
  /// many bytes triggers an automatic Checkpoint(), bounding recovery
  /// replay to O(base + threshold) regardless of commit count.
  /// Best-effort: an auto-checkpoint failure is traced and counted but
  /// never fails the commit that triggered it (which is already
  /// durable). 0 disables.
  size_t checkpoint_wal_bytes = 0;
};

/// Storage-fault counters, exposed so benches and workloads report fault
/// behavior like they report index hits.
struct StorageStats {
  /// Failed storage operations observed (each retry that fails counts).
  uint64_t io_failures = 0;
  /// Transient-append retries attempted.
  uint64_t retries = 0;
  /// Times the database entered degraded (read-only) mode; 0 or 1 per
  /// handle — degraded mode is sticky until reopen.
  uint64_t degraded_entered = 0;
};

/// A persistent object base: update-programs execute as transactions.
///
/// Directory layout:
///     <dir>/store.img | store.plog   checkpoint store (src/store; which
///                                    file exists depends on the backend)
///     <dir>/wal.log                  fact deltas committed since the
///                                    last checkpoint
///
/// Open() recovers from the latest store generation — the base is stored
/// one version per key under "b/", rebuilt by a single range scan — then
/// replays only the WAL suffix behind it; a torn tail (crashed writer) is
/// ignored. Recovery is O(base + tail), not O(history). Execute() runs a
/// program through the engine, logs the resulting delta to the WAL
/// *before* installing it in memory, and Checkpoint() folds the WAL into
/// the store.
///
/// NOTE: this is an internal layer. Client code should use the
/// `verso::Connection` / `verso::Session` facade (src/api/api.h), which
/// adds snapshot-isolated reads, prepared statements, named views, and
/// view subscriptions on top of the raw database.
///
/// Commits are batched at the WAL level: every append is one record
/// carrying the whole delta of one transaction (or, via ExecuteBatch, of a
/// whole group of transactions — one durability write for the group), as
/// an EncodeDeltaBatch image.
///
/// Failure model: commits are all-or-nothing. A WAL append that fails
/// with kIoTransient is retried (rolled back to the pre-append tail, then
/// re-issued, with bounded backoff — DatabaseOptions::wal_retry_limit);
/// when retries are exhausted, or on any permanent error, the database
/// enters DEGRADED MODE: the failing commit is not installed (no torn
/// in-memory state), health() reports the cause, and every further write
/// returns kReadOnly. Reads — current(), pinned snapshots, view results,
/// subscriptions — keep serving the last committed state. Degraded mode
/// is sticky for the handle's lifetime; reopen to recover.
///
/// Not thread-safe; one writer per directory (the usual embedded-store
/// contract).
class Database {
 public:
  /// Opens (creating if needed) the database in `dir`, recovering state.
  static Result<std::unique_ptr<Database>> Open(
      const std::string& dir, Engine& engine,
      DatabaseOptions options = DatabaseOptions());

  /// An ephemeral database: the same transactional commit pipeline
  /// (observers, epochs, batching) with no directory, no WAL, and no
  /// snapshot. Checkpoint() is a no-op. Used by in-memory connections.
  static Result<std::unique_ptr<Database>> OpenInMemory(Engine& engine);

  ~Database();

  /// The committed object base.
  const ObjectBase& current() const { return current_; }

  Engine& engine() { return engine_; }

  /// Number of transactions committed since this handle was opened — the
  /// epoch tag snapshot-isolated readers pin. Recovery replay does not
  /// count; a no-op transaction (empty delta) does not advance the epoch.
  /// The epoch is incremented after a transaction's delta is durable and
  /// installed, *before* its observers run, so an observer always reads
  /// the epoch of the commit it is being notified about.
  uint64_t commit_epoch() const { return commit_epoch_; }

  /// Registers a commit observer (not owned). Observers see only commits
  /// after registration — recovery replay is not observed. Registering an
  /// already-registered observer is a no-op (it will still be notified
  /// exactly once per commit). An observer still registered when the
  /// database is destroyed receives OnDatabaseClosed.
  void AddObserver(CommitObserver* observer);
  void RemoveObserver(CommitObserver* observer);

  /// Replaces the committed base wholesale (initial load). Logged.
  Status ImportBase(const ObjectBase& base);

  /// Runs an update-program transactionally: evaluate, WAL-append the
  /// delta, install the new base. On failure the committed base is
  /// untouched — except kObserverFailed, which means the commit IS
  /// durable and installed but a commit observer errored (do not retry;
  /// see CommitObserver). On success the outcome's `committed_delta`
  /// carries the fact-level changes the transaction committed.
  Result<RunOutcome> Execute(Program& program,
                             const EvalOptions& options = EvalOptions(),
                             TraceSink* trace = nullptr);

  /// Group commit: evaluates each program against the evolving base and
  /// writes the whole batch's deltas as ONE WAL record — one durability
  /// write for N transactions. All-or-nothing: if any program fails to
  /// evaluate, nothing is logged or installed. Observers still see one
  /// OnCommit per transaction, in order.
  Result<std::vector<RunOutcome>> ExecuteBatch(
      const std::vector<Program*>& programs,
      const EvalOptions& options = EvalOptions(),
      TraceSink* trace = nullptr);

  /// Folds the committed base into the checkpoint store — one atomic
  /// store transaction carrying every live version record, the deletes
  /// of versions gone since the last checkpoint, and the bumped
  /// generation — then truncates the WAL behind it. Crash-safe: both
  /// backends commit atomically, and the WAL is removed only after; a
  /// crash between the two steps leaves store + stale WAL, which
  /// recovery replays idempotently (fact-level deltas have set
  /// semantics), losing nothing. A failed checkpoint leaves the database
  /// healthy — the WAL still holds every commit.
  Status Checkpoint();

  /// Ok while the database accepts writes; after a durability failure on
  /// the commit path, the Status that caused degraded (read-only) mode.
  const Status& health() const { return degraded_; }

  /// Storage-fault counters (see StorageStats).
  const StorageStats& stats() const { return stats_; }

  /// Rewires the storage-fault trace sink (not owned; nullptr unwires).
  void set_trace(TraceSink* trace) { opts_.trace = trace; }

  size_t wal_records_since_checkpoint() const { return wal_records_; }
  /// Byte length of the WAL since the last checkpoint — what the
  /// checkpoint_wal_bytes auto-checkpoint threshold compares against.
  size_t wal_bytes_since_checkpoint() const { return wal_bytes_; }
  /// Checkpoint generation recovered from (then bumped by) the store;
  /// 0 until the first checkpoint.
  uint64_t checkpoint_generation() const { return checkpoint_generation_; }
  /// The checkpoint store, for inspection; nullptr for ephemeral
  /// databases.
  const Store* store() const { return store_.get(); }
  bool recovered_from_torn_wal() const { return recovered_torn_; }

  /// Ok unless recovery found a torn WAL tail but could not preserve the
  /// dropped bytes in `wal.log.corrupt` (write failure, or the side file
  /// reached kCorruptPreserveCap). Recovery itself still succeeded — the
  /// valid prefix was replayed and the tail truncated; this only records
  /// that the forensic copy of the dropped bytes is incomplete.
  const Status& corrupt_tail_preservation() const {
    return corrupt_tail_preservation_;
  }

  /// Growth cap for `wal.log.corrupt` across repeated recoveries: once
  /// the side file holds this many bytes, further torn tails are dropped
  /// without being preserved (and corrupt_tail_preservation() says so).
  static constexpr size_t kCorruptPreserveCap = 4u << 20;  // 4 MiB

 private:
  Database(std::string dir, Engine& engine, DatabaseOptions opts)
      : dir_(std::move(dir)),
        engine_(engine),
        opts_(opts),
        env_(opts.env != nullptr ? opts.env : Env::Default()),
        clock_(opts.clock != nullptr ? opts.clock : Clock::Default()),
        current_(engine.MakeBase()),
        wal_(dir_.empty() ? std::string() : dir_ + "/wal.log", env_) {}

  /// Refuses writes while degraded.
  Status CheckWritable() const;
  /// Appends one record durably: transient failures roll the tail back
  /// and retry with bounded backoff; exhaustion or a permanent error
  /// degrades the database. The in-memory base is untouched on failure.
  Status AppendWalDurable(std::string_view payload);
  /// Chops any partial frame a failed append left behind, so the retry
  /// starts from the last good tail.
  Status RollbackWalTail(size_t pre_size);
  void EnterDegraded(const Status& cause);
  void TraceFault(std::string_view op, const Status& status, uint32_t attempt,
                  bool degraded);

  Status CommitDelta(const ObjectBase& next, DeltaLog* committed = nullptr);
  Status NotifyObservers(const DeltaLog& delta, uint64_t epoch);
  /// Runs Checkpoint() when the auto-checkpoint threshold is armed and
  /// the WAL has grown past it. Called after a commit is durable and
  /// installed; failures are traced inside Checkpoint, never propagated.
  void MaybeAutoCheckpoint();

  std::string dir_;
  Engine& engine_;
  DatabaseOptions opts_;
  Env* env_;
  Clock* clock_;
  ObjectBase current_;
  WalWriter wal_;
  std::unique_ptr<Store> store_;
  std::vector<CommitObserver*> observers_;
  size_t wal_records_ = 0;
  size_t wal_bytes_ = 0;
  uint64_t checkpoint_generation_ = 0;
  uint64_t commit_epoch_ = 0;
  bool recovered_torn_ = false;
  bool ephemeral_ = false;
  Status degraded_ = Status::Ok();
  StorageStats stats_;
  Status corrupt_tail_preservation_ = Status::Ok();
};

}  // namespace verso

#endif  // VERSO_STORAGE_DATABASE_H_
