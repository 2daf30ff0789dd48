// Store backend throughput (src/store) and the restart economics the
// subsystem exists for:
//
//   * put/get/scan per backend — the raw component API cost;
//   * BM_CheckpointAfterPointCommit — the checkpoint after a one-object
//     commit, 256 to 65536 objects: O(versions changed), not O(base);
//   * BM_ColdOpenCheckpointed vs BM_ColdOpenFullWalReplay — the headline:
//     after a checkpoint a cold Database::Open loads the store image and
//     replays only the WAL suffix, while an uncheckpointed directory
//     replays the full commit history (chunked imports + update churn),
//     so the checkpointed open must win clearly at 4096 objects.
//
// All I/O runs against a FaultInjectingEnv (in-memory, fault-free here):
// the benchmarks compare code paths, not disk hardware.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "parser/parser.h"
#include "storage/database.h"
#include "store/store.h"
#include "util/clock.h"
#include "util/fault_env.h"

namespace verso::bench {
namespace {

constexpr const char* kDir = "/bench";

std::string Key(size_t i) { return "b/key" + std::to_string(i); }

std::unique_ptr<Store> MustOpen(StoreBackend backend, Env* env) {
  Result<std::unique_ptr<Store>> store = OpenStore(backend, kDir, env);
  return store.ok() ? std::move(store).value() : nullptr;
}

/// Preloads `n` keys with `value_bytes`-sized values, 64 per commit.
Status Preload(Store& store, size_t n, size_t value_bytes) {
  const std::string value(value_bytes, 'v');
  for (size_t i = 0; i < n;) {
    WriteTransaction txn = store.BeginWrite();
    for (size_t k = 0; k < 64 && i < n; ++k, ++i) txn.Put(Key(i), value);
    Status s = txn.Commit();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void BM_StorePut(benchmark::State& state, StoreBackend backend) {
  FaultInjectingEnv env;
  std::unique_ptr<Store> store = MustOpen(backend, &env);
  if (store == nullptr) {
    state.SkipWithError("open failed");
    return;
  }
  const size_t keys = static_cast<size_t>(state.range(0));
  const std::string value(128, 'v');
  size_t next = 0;
  for (auto _ : state) {
    // One transaction of 8 puts over a rotating key window: overwrites
    // dominate once the window wraps, so the page-log backend also pays
    // its compaction amortization here.
    WriteTransaction txn = store->BeginWrite();
    for (size_t k = 0; k < 8; ++k) {
      txn.Put(Key(next), value);
      next = (next + 1) % keys;
    }
    Status s = txn.Commit();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK_CAPTURE(BM_StorePut, mem, StoreBackend::kMem)->Arg(256)->Arg(4096);
BENCHMARK_CAPTURE(BM_StorePut, pagelog, StoreBackend::kPageLog)
    ->Arg(256)
    ->Arg(4096);

void BM_StoreGet(benchmark::State& state, StoreBackend backend) {
  FaultInjectingEnv env;
  std::unique_ptr<Store> store = MustOpen(backend, &env);
  const size_t keys = static_cast<size_t>(state.range(0));
  if (store == nullptr || !Preload(*store, keys, 128).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  ReadTransaction read = store->BeginRead();
  size_t next = 0;
  for (auto _ : state) {
    Result<std::string> value = store->Get(read, Key(next));
    if (!value.ok()) {
      state.SkipWithError(value.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*value);
    next = (next + 1) % keys;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_StoreGet, mem, StoreBackend::kMem)->Arg(256)->Arg(4096);
BENCHMARK_CAPTURE(BM_StoreGet, pagelog, StoreBackend::kPageLog)
    ->Arg(256)
    ->Arg(4096);

void BM_StoreScan(benchmark::State& state, StoreBackend backend) {
  FaultInjectingEnv env;
  std::unique_ptr<Store> store = MustOpen(backend, &env);
  const size_t keys = static_cast<size_t>(state.range(0));
  if (store == nullptr || !Preload(*store, keys, 128).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  ReadTransaction read = store->BeginRead();
  for (auto _ : state) {
    size_t seen = 0;
    size_t bytes = 0;
    Status s = store->Scan(read, "b/",
                           [&](std::string_view, std::string_view value) {
                             ++seen;
                             bytes += value.size();
                             return Status::Ok();
                           });
    if (!s.ok() || seen != keys) {
      state.SkipWithError("scan failed");
      return;
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(keys));
}
BENCHMARK_CAPTURE(BM_StoreScan, mem, StoreBackend::kMem)->Arg(256)->Arg(4096);
BENCHMARK_CAPTURE(BM_StoreScan, pagelog, StoreBackend::kPageLog)
    ->Arg(256)
    ->Arg(4096);

// ---- database-level restart economics --------------------------------------

/// Commits `objects` into a fresh database as 16 chunked imports plus
/// four full-base update-churn rounds, so the WAL carries ~5x the base in
/// replay work — the history a checkpoint folds away.
std::unique_ptr<Database> BuildHistory(FaultInjectingEnv& env, Engine& engine,
                                       StoreBackend backend, size_t objects) {
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  options.store_backend = backend;
  Result<std::unique_ptr<Database>> db = Database::Open(kDir, engine, options);
  if (!db.ok()) return nullptr;
  ObjectBase base = engine.MakeBase();
  const size_t chunk = (objects + 15) / 16;
  for (size_t done = 0; done < objects;) {
    for (size_t k = 0; k < chunk && done < objects; ++k, ++done) {
      std::string name = "o" + std::to_string(done);
      engine.AddFact(base, name, "isa", "thing");
      engine.AddFact(base, name, "sal",
                     static_cast<int64_t>(100 + (done % 977)));
    }
    if (!(*db)->ImportBase(base).ok()) return nullptr;
  }
  Result<Program> doubling = ParseProgram(
      "r: mod[E].sal -> (S, S2) <- E.isa -> thing, E.sal -> S, S2 = S * 2.",
      engine);
  Result<Program> halving = ParseProgram(
      "r: mod[E].sal -> (S, S2) <- E.isa -> thing, E.sal -> S, S2 = S / 2.",
      engine);
  if (!doubling.ok() || !halving.ok()) return nullptr;
  for (int round = 0; round < 4; ++round) {
    if (!(*db)->Execute(*doubling).ok() || !(*db)->Execute(*halving).ok()) {
      return nullptr;
    }
  }
  return std::move(db).value();
}

/// Counts the payload bytes written to the checkpoint store's files
/// (store.img / store.plog and the atomic-write temp beside them).
class StoreBytesEnv : public FaultInjectingEnv {
 public:
  Status WriteFile(const std::string& path,
                   std::string_view contents) override {
    Count(path, contents.size());
    return FaultInjectingEnv::WriteFile(path, contents);
  }
  Status AppendFile(const std::string& path,
                    std::string_view contents) override {
    Count(path, contents.size());
    return FaultInjectingEnv::AppendFile(path, contents);
  }
  uint64_t store_bytes() const { return store_bytes_; }

 private:
  void Count(const std::string& path, size_t bytes) {
    if (path.find("/store.") != std::string::npos) store_bytes_ += bytes;
  }
  uint64_t store_bytes_ = 0;
};

/// The checkpoint after one point commit, over a checkpointed base of
/// `objects` salaried objects: each iteration commits one `mod[oK].sal`
/// (rotating K), then times the Checkpoint() that folds it. The
/// checkpoint stages only the changed version, so on pagelog
/// store_bytes_per_checkpoint stays flat from 256 to 65536 objects; mem
/// still rewrites its whole image file per store commit. checkpoint_us
/// still grows with the base: the O(base) commit before it evicts the
/// caches the checkpoint then refills.
///
/// The framework's own time covers commit plus checkpoint: the commit is
/// O(base) and costs far more than the checkpoint, so pausing the timer
/// around it would make the adaptive iteration count run for minutes.
/// The checkpoint is timed on its own into checkpoint_us.
void BM_CheckpointAfterPointCommit(benchmark::State& state,
                                   StoreBackend backend) {
  StoreBytesEnv env;
  Engine engine;
  const size_t objects = static_cast<size_t>(state.range(0));
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  options.store_backend = backend;
  Result<std::unique_ptr<Database>> db = Database::Open(kDir, engine, options);
  if (!db.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  ObjectBase base = engine.MakeBase();
  for (size_t i = 0; i < objects; ++i) {
    std::string name = "o" + std::to_string(i);
    // Sealed like a committed base, so a commit changes one version.
    engine.AddFact(base, name, "exists", name);
    engine.AddFact(base, name, "sal", static_cast<int64_t>(100 + i % 977));
  }
  if (!(*db)->ImportBase(base).ok() || !(*db)->Checkpoint().ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  // A pool of one-object raises, spread over the base.
  std::vector<Program> raises;
  for (size_t k = 0; k < 64; ++k) {
    std::string o = "o" + std::to_string(k * objects / 64);
    Result<Program> raise = ParseProgram(
        "t: mod[" + o + "].sal -> (S, S2) <- " + o + ".sal -> S, S2 = S + 1.",
        engine);
    if (!raise.ok()) {
      state.SkipWithError("parse failed");
      return;
    }
    raises.push_back(std::move(raise).value());
  }
  // One untimed fold first: the in-memory env's first append behind the
  // bulk image reallocates the whole file string, which a real file
  // append does not.
  if (!(*db)->Execute(raises.back()).ok() || !(*db)->Checkpoint().ok()) {
    state.SkipWithError("warm-up failed");
    return;
  }
  Clock* clock = Clock::Default();
  const uint64_t bytes_before = env.store_bytes();
  uint64_t checkpoint_ns = 0;
  size_t next = 0;
  for (auto _ : state) {
    Status committed = (*db)->Execute(raises[next]).status();
    next = (next + 1) % raises.size();
    const uint64_t start = clock->NowNanos();
    Status folded = (*db)->Checkpoint();
    checkpoint_ns += clock->NowNanos() - start;
    if (!committed.ok() || !folded.ok()) {
      state.SkipWithError("commit or checkpoint failed");
      return;
    }
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["checkpoint_us"] =
      static_cast<double>(checkpoint_ns) / 1e3 / iterations;
  state.counters["store_bytes_per_checkpoint"] =
      static_cast<double>(env.store_bytes() - bytes_before) / iterations;
}
BENCHMARK_CAPTURE(BM_CheckpointAfterPointCommit, mem, StoreBackend::kMem)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);
BENCHMARK_CAPTURE(BM_CheckpointAfterPointCommit, pagelog,
                  StoreBackend::kPageLog)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

void ColdOpen(benchmark::State& state, StoreBackend backend,
              bool checkpointed) {
  FaultInjectingEnv env;
  size_t facts = 0;
  {
    Engine engine;
    std::unique_ptr<Database> db = BuildHistory(
        env, engine, backend, static_cast<size_t>(state.range(0)));
    if (db == nullptr || (checkpointed && !db->Checkpoint().ok())) {
      state.SkipWithError("setup failed");
      return;
    }
    facts = db->current().fact_count();
  }
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  options.store_backend = backend;
  size_t replayed = 0;
  for (auto _ : state) {
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open(kDir, engine, options);
    if (!db.ok() || (*db)->current().fact_count() != facts) {
      state.SkipWithError("recovery failed");
      return;
    }
    replayed = (*db)->wal_records_since_checkpoint();
    benchmark::DoNotOptimize(db);
  }
  state.counters["replayed_frames"] = static_cast<double>(replayed);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(facts));
}

void BM_ColdOpenCheckpointed(benchmark::State& state, StoreBackend backend) {
  ColdOpen(state, backend, /*checkpointed=*/true);
}
void BM_ColdOpenFullWalReplay(benchmark::State& state, StoreBackend backend) {
  ColdOpen(state, backend, /*checkpointed=*/false);
}
BENCHMARK_CAPTURE(BM_ColdOpenCheckpointed, mem, StoreBackend::kMem)
    ->Arg(256)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_ColdOpenCheckpointed, pagelog, StoreBackend::kPageLog)
    ->Arg(256)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_ColdOpenFullWalReplay, mem, StoreBackend::kMem)
    ->Arg(256)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_ColdOpenFullWalReplay, pagelog, StoreBackend::kPageLog)
    ->Arg(256)
    ->Arg(4096);

}  // namespace
}  // namespace verso::bench

BENCHMARK_MAIN();
