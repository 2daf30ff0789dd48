#include "storage/database.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "storage/codec.h"
#include "store/store.h"
#include "util/io.h"

namespace verso {

namespace {

/// Commit-path handles into the global registry, bound once (registration
/// takes a mutex; the commit path must not). The five histograms are the
/// per-commit phase spans: evaluate, WAL append (durability, retries and
/// backoff included), in-memory install, observer/view fan-out, and the
/// whole transaction end to end.
struct CommitMetrics {
  Counter& commits;
  Counter& batches;
  Counter& noops;
  Counter& rejected_readonly;
  Counter& delta_facts;
  Histogram& evaluate_us;
  Histogram& wal_append_us;
  Histogram& install_us;
  Histogram& fanout_us;
  Histogram& total_us;

  static CommitMetrics& Get() {
    static CommitMetrics* metrics =
        new CommitMetrics(MetricsRegistry::Global());  // never dies
    return *metrics;
  }

  explicit CommitMetrics(MetricsRegistry& registry)
      : commits(registry.GetCounter("commit.count")),
        batches(registry.GetCounter("commit.batches")),
        noops(registry.GetCounter("commit.noops")),
        rejected_readonly(registry.GetCounter("commit.rejected_readonly")),
        delta_facts(registry.GetCounter("commit.delta_facts")),
        evaluate_us(registry.GetHistogram("commit.evaluate_us")),
        wal_append_us(registry.GetHistogram("commit.wal_append_us")),
        install_us(registry.GetHistogram("commit.install_us")),
        fanout_us(registry.GetHistogram("commit.fanout_us")),
        total_us(registry.GetHistogram("commit.total_us")) {}
};

/// Checkpoint/recovery handles. The recovery pair makes bounded recovery
/// observable: replayed_frames is the suffix length the last checkpoint
/// left behind, recovery_us the total microseconds spent replaying.
/// Counters rather than histograms — opens are rare, and dashboards
/// watch the totals alongside the checkpoint cadence.
struct StorageMetrics {
  Counter& checkpoints;
  Counter& auto_checkpoints;
  Counter& recovery_replayed_frames;
  Counter& recovery_us;
  Counter& recovery_store_keys;
  Histogram& checkpoint_us;

  static StorageMetrics& Get() {
    static StorageMetrics* metrics =
        new StorageMetrics(MetricsRegistry::Global());  // never dies
    return *metrics;
  }

  explicit StorageMetrics(MetricsRegistry& registry)
      : checkpoints(registry.GetCounter("storage.checkpoints")),
        auto_checkpoints(registry.GetCounter("storage.auto_checkpoints")),
        recovery_replayed_frames(
            registry.GetCounter("storage.recovery_replayed_frames")),
        recovery_us(registry.GetCounter("storage.recovery_us")),
        recovery_store_keys(
            registry.GetCounter("storage.recovery_store_keys")),
        checkpoint_us(registry.GetHistogram("storage.checkpoint_us")) {}
};

/// Store keys of base state: "b/" + EncodeVersionKey. The prefix leaves
/// room for future record families (views, catalogs) in the same store.
constexpr char kBasePrefix[] = "b/";

}  // namespace

Result<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                 Engine& engine,
                                                 DatabaseOptions options) {
  if (dir.empty()) {
    return Status::InvalidArgument(
        "database directory must not be empty (use OpenInMemory for an "
        "ephemeral database)");
  }
  std::unique_ptr<Database> db(new Database(dir, engine, options));
  StorageMetrics& smetrics = StorageMetrics::Get();
  Env* env = db->env_;
  VERSO_RETURN_IF_ERROR(env->EnsureDirectory(dir));
  const uint64_t recover_start = db->clock_->NowNanos();
  VERSO_ASSIGN_OR_RETURN(db->store_,
                         OpenStore(options.store_backend, dir, env));
  ReadTransaction base_read = db->store_->BeginRead();
  Result<uint64_t> generation = db->store_->GetMeta(base_read, "generation");
  if (generation.ok()) {
    // The store holds the latest checkpoint generation: rebuild the base
    // from its per-version records in one range scan, then replay only
    // the WAL suffix behind it below — O(base + tail), not O(history).
    db->checkpoint_generation_ = *generation;
    size_t keys = 0;
    VERSO_RETURN_IF_ERROR(db->store_->Scan(
        base_read, kBasePrefix,
        [&](std::string_view, std::string_view value) {
          ++keys;
          return DecodeVersionRecordInto(value, engine.symbols(),
                                         engine.versions(), db->current_);
        }));
    smetrics.recovery_store_keys.Add(keys);
  } else if (generation.status().code() != StatusCode::kNotFound) {
    return generation.status();
  }
  VERSO_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(db->wal_.path(), env));
  db->recovered_torn_ = wal.truncated_tail;
  if (wal.truncated_tail) {
    // Chop the torn tail now: the next Append must extend the valid
    // prefix, or everything committed after the tear would sit behind
    // garbage and be lost to every future recovery. The chopped bytes
    // are preserved in a side file first — a CRC failure MID-log (bit
    // rot ahead of valid acknowledged records) is indistinguishable
    // from a torn tail here, and destroying the evidence would make
    // that data loss unrecoverable even by hand.
    //
    // Preservation is best-effort: a failure to write the side file (or
    // the side file having reached its growth cap across repeated
    // recoveries) must not abort recovery — the database is recoverable,
    // only the forensic copy is incomplete. The failure is recorded on
    // the database (corrupt_tail_preservation()) instead of being
    // swallowed. Truncation, by contrast, stays fatal: without it every
    // later commit appends behind garbage and is lost.
    VERSO_ASSIGN_OR_RETURN(std::string raw, env->ReadFile(db->wal_.path()));
    if (raw.size() > wal.valid_bytes) {
      const std::string corrupt_path = db->wal_.path() + ".corrupt";
      std::string_view tail = std::string_view(raw).substr(wal.valid_bytes);
      size_t existing = 0;
      bool size_known = true;
      if (env->FileExists(corrupt_path)) {
        Result<size_t> size = env->FileSize(corrupt_path);
        if (size.ok()) {
          existing = *size;
        } else {
          // Unknown side-file size: appending could overshoot the cap,
          // so skip preservation and record why — defaulting to "empty"
          // here would both bust the cap and report Ok.
          size_known = false;
          db->corrupt_tail_preservation_ = size.status();
        }
      }
      if (!size_known) {
        // recorded above; nothing appended
      } else if (existing >= kCorruptPreserveCap) {
        db->corrupt_tail_preservation_ = Status::IoError(
            "wal.log.corrupt is at its growth cap (" +
            std::to_string(existing) + " bytes); dropped " +
            std::to_string(tail.size()) + " torn-tail bytes unpreserved");
      } else {
        if (existing + tail.size() > kCorruptPreserveCap) {
          tail = tail.substr(0, kCorruptPreserveCap - existing);
        }
        Status preserved = env->AppendFile(corrupt_path, tail);
        if (!preserved.ok()) {
          db->corrupt_tail_preservation_ = preserved;
        } else if (tail.size() < raw.size() - wal.valid_bytes) {
          db->corrupt_tail_preservation_ = Status::IoError(
              "wal.log.corrupt reached its growth cap; preserved only " +
              std::to_string(tail.size()) + " of " +
              std::to_string(raw.size() - wal.valid_bytes) +
              " torn-tail bytes");
        }
      }
    }
    VERSO_RETURN_IF_ERROR(
        env->TruncateFile(db->wal_.path(), wal.valid_bytes));
  }
  for (const WalRecord& record : wal.records) {
    // Replay is idempotent: fact-level deltas have set semantics
    // (duplicate inserts and absent-fact erases are no-ops), so records
    // whose effects the installed store generation already folds — the
    // checkpoint crash window — replay to the identical state.
    VERSO_ASSIGN_OR_RETURN(
        std::vector<FactDelta> deltas,
        DecodeDeltaBatch(record.payload, engine.symbols(), engine.versions()));
    for (const FactDelta& delta : deltas) ApplyDelta(delta, db->current_);
    ++db->wal_records_;
  }
  db->wal_bytes_ = wal.valid_bytes;
  smetrics.recovery_replayed_frames.Add(wal.records.size());
  smetrics.recovery_us.Add((db->clock_->NowNanos() - recover_start) / 1000);
  return db;
}

Result<std::unique_ptr<Database>> Database::OpenInMemory(Engine& engine) {
  // Preregister the checkpoint/recovery metrics so the observability
  // surface is stable: a dashboard sees storage.* at zero from an
  // ephemeral database rather than the keys appearing on first reopen.
  StorageMetrics::Get();
  std::unique_ptr<Database> db(
      new Database(std::string(), engine, DatabaseOptions()));
  db->ephemeral_ = true;
  return db;
}

Database::~Database() {
  for (CommitObserver* observer : observers_) observer->OnDatabaseClosed();
}

void Database::AddObserver(CommitObserver* observer) {
  // Idempotent: a doubly-registered observer would see every commit twice
  // (double view maintenance, double stats).
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    return;
  }
  observers_.push_back(observer);
}

void Database::RemoveObserver(CommitObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

Status Database::NotifyObservers(const DeltaLog& delta, uint64_t epoch) {
  // Every observer sees every committed delta even if one errors —
  // aborting delivery would silently desynchronize the healthy observers
  // from current(). The first error is reported as kObserverFailed so the
  // caller can tell "committed, but an observer broke" (never retry) from
  // an evaluation failure (base untouched, retry is safe).
  Status first_error;
  for (CommitObserver* observer : observers_) {
    Status status = observer->OnCommit(delta, current_, epoch);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  if (!first_error.ok()) {
    return Status::ObserverFailed("commit is durable but an observer "
                                  "failed: " +
                                  first_error.ToString());
  }
  return Status::Ok();
}

Status Database::CheckWritable() const {
  if (degraded_.ok()) return Status::Ok();
  CommitMetrics::Get().rejected_readonly.Add();
  return Status::ReadOnly("database is in degraded (read-only) mode: " +
                          degraded_.ToString());
}

void Database::TraceFault(std::string_view op, const Status& status,
                          uint32_t attempt, bool degraded) {
  if (opts_.trace != nullptr) {
    opts_.trace->OnStorageFault(op, status, attempt, degraded);
  }
}

void Database::EnterDegraded(const Status& cause) {
  if (!degraded_.ok()) return;  // sticky: first cause wins
  degraded_ = cause;
  ++stats_.degraded_entered;
}

Status Database::RollbackWalTail(size_t pre_size) {
  if (!env_->FileExists(wal_.path())) {
    return pre_size == 0
               ? Status::Ok()
               : Status::IoError("WAL vanished beneath the committed tail");
  }
  VERSO_ASSIGN_OR_RETURN(size_t now, env_->FileSize(wal_.path()));
  if (now == pre_size) return Status::Ok();
  if (now < pre_size) {
    return Status::IoError("WAL shrank beneath the committed tail");
  }
  return env_->TruncateFile(wal_.path(), pre_size);
}

Status Database::AppendWalDurable(std::string_view payload) {
  // The tail position before the append: a failed attempt may have
  // landed a partial frame, and a retry must not stack a fresh frame
  // behind that garbage — recovery would stop at the tear and lose the
  // retried commit and every later one.
  size_t pre_size = 0;
  bool know_tail = true;
  if (env_->FileExists(wal_.path())) {
    Result<size_t> size = env_->FileSize(wal_.path());
    if (size.ok()) {
      pre_size = *size;
    } else {
      know_tail = false;  // cannot roll back safely: no retries
    }
  }
  uint32_t attempt = 0;
  Status status;
  for (;;) {
    status = wal_.Append(payload);
    if (status.ok()) return Status::Ok();
    ++stats_.io_failures;
    bool retryable = status.code() == StatusCode::kIoTransient &&
                     attempt < opts_.wal_retry_limit && know_tail;
    TraceFault("wal-append", status, attempt, !retryable);
    if (!retryable) break;
    Status rolled = RollbackWalTail(pre_size);
    if (!rolled.ok()) {
      TraceFault("wal-rollback", rolled, attempt, true);
      status = rolled;
      break;
    }
    ++stats_.retries;
    ++attempt;
    if (opts_.retry_backoff_us > 0) {
      clock_->SleepMicros(static_cast<uint64_t>(opts_.retry_backoff_us)
                          << attempt);
    }
  }
  EnterDegraded(status);
  return status;
}

Status Database::CommitDelta(const ObjectBase& next, DeltaLog* committed) {
  VERSO_RETURN_IF_ERROR(CheckWritable());
  MetricsRegistry& registry = MetricsRegistry::Global();
  CommitMetrics& metrics = CommitMetrics::Get();
  FactDelta delta = ComputeDelta(current_, next);
  if (delta.empty()) {
    metrics.noops.Add();
    return Status::Ok();
  }
  if (!ephemeral_) {
    std::string payload =
        EncodeDeltaBatch(delta, engine_.symbols(), engine_.versions());
    // Durability first: the record hits the log before memory moves. A
    // failed append leaves the base untouched and degrades the database.
    // The span records on failure too (timer destructor), so degraded
    // commits still show up in commit.wal_append_us.
    ScopedTimer wal_timer(registry, metrics.wal_append_us);
    VERSO_RETURN_IF_ERROR(AppendWalDurable(payload));
    wal_timer.Stop();
    ++wal_records_;
    wal_bytes_ += payload.size() + 12;  // 12-byte frame header
  }
  {
    ScopedTimer install_timer(registry, metrics.install_us);
    ApplyDelta(delta, current_);
  }
  ++commit_epoch_;
  DeltaLog log = ToDeltaLog(delta);
  metrics.commits.Add();
  metrics.delta_facts.Add(log.size());
  ScopedTimer fanout_timer(registry, metrics.fanout_us);
  Status notify = NotifyObservers(log, commit_epoch_);
  fanout_timer.Stop();
  if (committed != nullptr) *committed = std::move(log);
  // After fan-out: the commit (and its observer deliveries) are complete
  // whether or not the WAL gets folded now.
  MaybeAutoCheckpoint();
  return notify;
}

Status Database::ImportBase(const ObjectBase& base) {
  return CommitDelta(base);
}

Result<RunOutcome> Database::Execute(Program& program,
                                     const EvalOptions& options,
                                     TraceSink* trace) {
  // Refuse before evaluating: a degraded database cannot commit, so the
  // evaluation work (and any observer side effects) would be wasted.
  VERSO_RETURN_IF_ERROR(CheckWritable());
  MetricsRegistry& registry = MetricsRegistry::Global();
  CommitMetrics& metrics = CommitMetrics::Get();
  ScopedTimer total_timer(registry, metrics.total_us);
  ScopedTimer eval_timer(registry, metrics.evaluate_us);
  VERSO_ASSIGN_OR_RETURN(RunOutcome outcome,
                         engine_.Run(program, current_, options, trace));
  eval_timer.Stop();
  Status committed = CommitDelta(outcome.new_base, &outcome.committed_delta);
  outcome.committed_epoch = commit_epoch_;
  VERSO_RETURN_IF_ERROR(committed);
  return outcome;
}

Result<std::vector<RunOutcome>> Database::ExecuteBatch(
    const std::vector<Program*>& programs, const EvalOptions& options,
    TraceSink* trace) {
  VERSO_RETURN_IF_ERROR(CheckWritable());
  MetricsRegistry& registry = MetricsRegistry::Global();
  CommitMetrics& metrics = CommitMetrics::Get();
  ScopedTimer total_timer(registry, metrics.total_us);
  metrics.batches.Add();
  std::vector<RunOutcome> outcomes;
  std::vector<FactDelta> deltas;
  outcomes.reserve(programs.size());
  deltas.reserve(programs.size());

  // Evaluate the whole batch against the evolving (uncommitted) base; a
  // failing transaction aborts the batch before anything touches the log.
  // The outcomes vector keeps every new_base alive, so the evolving base
  // is tracked by pointer instead of copying it per transaction.
  // One evaluate span covers the whole group — the batch's unit of work
  // is the group, matching its one durability write below.
  ScopedTimer eval_timer(registry, metrics.evaluate_us);
  const ObjectBase* working = &current_;
  for (Program* program : programs) {
    VERSO_ASSIGN_OR_RETURN(RunOutcome outcome,
                           engine_.Run(*program, *working, options, trace));
    deltas.push_back(ComputeDelta(*working, outcome.new_base));
    outcomes.push_back(std::move(outcome));
    working = &outcomes.back().new_base;
  }
  eval_timer.Stop();

  bool any_change = false;
  for (const FactDelta& delta : deltas) any_change |= !delta.empty();
  if (!any_change) {
    metrics.noops.Add(deltas.size());
    for (RunOutcome& outcome : outcomes) {
      outcome.committed_epoch = commit_epoch_;
    }
    return outcomes;
  }

  // One WAL record — one durability write — for the whole group. Every
  // delta is installed in memory before observers run: the batch is
  // durable, so an observer error must not leave current() behind the log.
  if (!ephemeral_) {
    std::string payload =
        EncodeDeltaBatch(deltas, engine_.symbols(), engine_.versions());
    ScopedTimer wal_timer(registry, metrics.wal_append_us);
    VERSO_RETURN_IF_ERROR(AppendWalDurable(payload));
    wal_timer.Stop();
    ++wal_records_;
    wal_bytes_ += payload.size() + 12;  // 12-byte frame header
  }
  {
    ScopedTimer install_timer(registry, metrics.install_us);
    for (const FactDelta& delta : deltas) {
      ApplyDelta(delta, current_);
    }
  }
  // Deliver every delta even if an observer errors on one of them: all of
  // them are durable and installed, so later deltas must reach the
  // observers that are still healthy. The epoch advances once per
  // transaction of the group, right before that transaction's observers
  // run; a no-op member neither advances it nor notifies (matching the
  // single-Execute path, where an empty delta commits nothing).
  Status first_error;
  ScopedTimer fanout_timer(registry, metrics.fanout_us);
  for (size_t i = 0; i < deltas.size(); ++i) {
    if (deltas[i].empty()) {
      metrics.noops.Add();
      outcomes[i].committed_epoch = commit_epoch_;
      continue;
    }
    DeltaLog log = ToDeltaLog(deltas[i]);
    metrics.commits.Add();
    metrics.delta_facts.Add(log.size());
    ++commit_epoch_;
    // Observers for member i are stamped with member i's OWN epoch — a
    // subscription delta delivered mid-batch must not carry a later
    // member's epoch (the regression this guards is epoch-tagged view
    // replay across ExecuteBatch).
    Status status = NotifyObservers(log, commit_epoch_);
    outcomes[i].committed_delta = std::move(log);
    outcomes[i].committed_epoch = commit_epoch_;
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  MaybeAutoCheckpoint();
  VERSO_RETURN_IF_ERROR(first_error);
  return outcomes;
}

Status Database::Checkpoint() {
  if (ephemeral_) return Status::Ok();  // nothing to fold
  VERSO_RETURN_IF_ERROR(CheckWritable());
  StorageMetrics& metrics = StorageMetrics::Get();
  ScopedTimer timer(MetricsRegistry::Global(), metrics.checkpoint_us);
  // Stage the whole base, one record per version, keyed so recovery
  // rebuilds it with a single "b/" range scan; keys present in the store
  // but absent from the staged set are versions deleted since the last
  // checkpoint, removed in the same atomic commit as the bumped
  // generation.
  WriteTransaction txn = store_->BeginWrite();
  std::set<std::string, std::less<>> live;
  for (const auto& [vid, state] : current_.versions()) {
    std::string key = std::string(kBasePrefix) +
                      EncodeVersionKey(vid, engine_.symbols(),
                                       engine_.versions());
    txn.Put(key, EncodeVersionRecord(vid, *state, engine_.symbols(),
                                     engine_.versions()));
    live.insert(std::move(key));
  }
  ReadTransaction stale_scan = store_->BeginRead();
  VERSO_RETURN_IF_ERROR(store_->Scan(
      stale_scan, kBasePrefix,
      [&](std::string_view key, std::string_view) {
        if (live.find(key) == live.end()) txn.Delete(std::string(key));
        return Status::Ok();
      }));
  txn.PutMeta("generation", checkpoint_generation_ + 1);
  Status committed = txn.Commit();
  if (!committed.ok()) {
    // Nothing lost: the WAL still holds every commit and the store (at
    // the old generation) is untouched — both backends commit
    // atomically. Stay healthy.
    ++stats_.io_failures;
    TraceFault("checkpoint-store", committed, 0, false);
    return committed;
  }
  ++checkpoint_generation_;
  // The store commit is durable; only now may the WAL shrink. A crash
  // (or failure) between the two steps leaves store + stale WAL, and
  // recovery replays the already-folded records idempotently — the
  // torture harness crashes at every I/O point of this sequence.
  Status truncated = env_->RemoveFile(wal_.path());
  if (!truncated.ok()) {
    ++stats_.io_failures;
    TraceFault("checkpoint-truncate", truncated, 0, false);
    return truncated;
  }
  wal_records_ = 0;
  wal_bytes_ = 0;
  metrics.checkpoints.Add();
  return Status::Ok();
}

void Database::MaybeAutoCheckpoint() {
  if (ephemeral_ || opts_.checkpoint_wal_bytes == 0) return;
  if (wal_bytes_ < opts_.checkpoint_wal_bytes) return;
  if (!degraded_.ok()) return;  // Checkpoint would refuse; don't double-count
  if (Checkpoint().ok()) {
    StorageMetrics::Get().auto_checkpoints.Add();
  }
}

}  // namespace verso
