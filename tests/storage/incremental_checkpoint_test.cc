// Differential oracle for incremental checkpoints: a checkpoint stages
// only the versions changed since the previous one, yet after every
// checkpoint the store's "b/" range must hold EXACTLY what a full
// checkpoint would have written — one EncodeVersionRecord per version of
// current(), nothing else. A seeded random workload (inserts, modifies,
// whole-object deletes, group commits, wholesale ImportBase) interleaves
// checkpoints with reopens (the WAL tail must re-dirty what it replays)
// and failed store commits (a failed checkpoint must keep its dirty set),
// on both store backends.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pretty.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "storage/codec.h"
#include "storage/database.h"
#include "util/fault_env.h"

namespace verso {
namespace {

using FaultKind = FaultInjectingEnv::FaultKind;
using OpFilter = FaultInjectingEnv::OpFilter;
using Image = std::map<std::string, std::string>;

constexpr const char* kDir = "/db";
/// The database's store key prefix for base versions.
constexpr const char* kBasePrefix = "b/";
constexpr int kObjects = 24;

/// Deterministic PRNG: the workload replays identically for a seed.
struct Lcg {
  uint64_t state;
  uint32_t Next(uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((state >> 33) % bound);
  }
};

DatabaseOptions Options(Env* env, StoreBackend backend) {
  DatabaseOptions options;
  options.env = env;
  options.retry_backoff_us = 0;
  options.store_backend = backend;
  return options;
}

/// The store's "b/" range as it stands.
Image StoreImage(const Database& db) {
  Image image;
  const Store& store = *db.store();
  Status scanned = store.Scan(store.BeginRead(), kBasePrefix,
                              [&](std::string_view key, std::string_view value) {
                                image.emplace(key, value);
                                return Status::Ok();
                              });
  EXPECT_TRUE(scanned.ok()) << scanned.ToString();
  return image;
}

/// What a full checkpoint writes: every version of current().
Image FullImage(const Database& db, const Engine& engine) {
  Image image;
  for (const auto& [vid, state] : db.current().versions()) {
    image.emplace(std::string(kBasePrefix) +
                      EncodeVersionKey(vid, engine.symbols(),
                                       engine.versions()),
                  EncodeVersionRecord(vid, *state, engine.symbols(),
                                      engine.versions()));
  }
  return image;
}

std::string Obj(uint32_t k) { return "o" + std::to_string(k); }

/// One random update-program over the fixed object pool.
std::string RandomTxn(Lcg& rng) {
  const std::string o = Obj(rng.Next(kObjects));
  switch (rng.Next(4)) {
    case 0:
      return "t: ins[" + o + "].sal -> " + std::to_string(rng.Next(5000)) +
             ".";
    case 1:
      return "t: ins[" + o + "].dept -> d" + std::to_string(rng.Next(4)) +
             ".";
    case 2:
      return "t: mod[" + o + "].sal -> (S, S2) <- " + o +
             ".sal -> S, S2 = S + 1.";
    default:  // the whole object vanishes (a no-op if it has no sal)
      return "t: del[" + o + "].* <- " + o + ".sal -> S.";
  }
}

class IncrementalCheckpointTest
    : public ::testing::TestWithParam<StoreBackend> {
 protected:
  void OpenDb() {
    db_.reset();
    engine_ = std::make_unique<Engine>();
    Result<std::unique_ptr<Database>> db =
        Database::Open(kDir, *engine_, Options(env_.get(), GetParam()));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  std::string BaseString() {
    return ObjectBaseToString(db_->current(), engine_->symbols(),
                              engine_->versions());
  }

  void Execute(const std::string& text) {
    Result<Program> program = ParseProgram(text, *engine_);
    ASSERT_TRUE(program.ok()) << text << ": " << program.status().ToString();
    Result<RunOutcome> outcome = db_->Execute(*program);
    ASSERT_TRUE(outcome.ok()) << text << ": " << outcome.status().ToString();
  }

  void ExecuteBatch(Lcg& rng) {
    std::vector<Program> programs;
    const uint32_t n = 2 + rng.Next(3);
    for (uint32_t i = 0; i < n; ++i) {
      Result<Program> program = ParseProgram(RandomTxn(rng), *engine_);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      programs.push_back(std::move(program).value());
    }
    std::vector<Program*> batch;
    for (Program& program : programs) batch.push_back(&program);
    Result<std::vector<RunOutcome>> outcomes = db_->ExecuteBatch(batch);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  }

  /// Replaces the base wholesale with a random subset of the pool, so
  /// most versions vanish or change at once.
  void ImportRandomBase(Lcg& rng) {
    ObjectBase base = engine_->MakeBase();
    for (uint32_t k = 0; k < kObjects; ++k) {
      if (rng.Next(3) != 0) continue;
      engine_->AddFact(base, Obj(k), "sal",
                       static_cast<int64_t>(rng.Next(5000)));
    }
    ASSERT_TRUE(db_->ImportBase(base).ok());
  }

  /// Checkpoints successfully and checks the store against the oracle.
  void CheckpointAndCompare(const std::string& where) {
    Status status = db_->Checkpoint();
    ASSERT_TRUE(status.ok()) << where << ": " << status.ToString();
    EXPECT_EQ(StoreImage(*db_), FullImage(*db_, *engine_))
        << "store diverged from a full checkpoint " << where;
  }

  /// Fails the next store commit (kEio, the env stays usable): the
  /// checkpoint must fail, leave the store exactly as it was and the
  /// database healthy.
  void FailedCheckpoint(const std::string& where) {
    const Image before = StoreImage(*db_);
    FaultInjectingEnv::FaultPlan plan;
    plan.fail_at = 0;
    plan.kind = FaultKind::kEio;
    plan.filter = GetParam() == StoreBackend::kMem ? OpFilter::kWrite
                                                   : OpFilter::kAppend;
    env_->SetPlan(plan);
    EXPECT_FALSE(db_->Checkpoint().ok()) << where;
    env_->Disarm();
    EXPECT_EQ(env_->faults_hit(), 1u) << where;
    EXPECT_TRUE(db_->health().ok()) << where;
    EXPECT_EQ(StoreImage(*db_), before)
        << "failed checkpoint changed the store " << where;
  }

  std::unique_ptr<FaultInjectingEnv> env_ =
      std::make_unique<FaultInjectingEnv>();
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Database> db_;
};

TEST_P(IncrementalCheckpointTest, StoreEqualsFullCheckpointAfterEveryFold) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    db_.reset();
    env_ = std::make_unique<FaultInjectingEnv>();
    OpenDb();
    Lcg rng{seed * 7919 + 1};
    size_t checkpoints = 0, reopens = 0, failures = 0;
    for (int step = 0; step < 160; ++step) {
      const std::string where = "at step " + std::to_string(step);
      const uint32_t roll = rng.Next(100);
      if (roll < 50) {
        Execute(RandomTxn(rng));
      } else if (roll < 62) {
        ExecuteBatch(rng);
      } else if (roll < 66) {
        ImportRandomBase(rng);
      } else if (roll < 82) {
        CheckpointAndCompare(where);
        ++checkpoints;
      } else if (roll < 91) {
        // Reopen with a WAL tail: recovery rebuilds the base from the
        // store plus the replayed suffix, and the replayed versions must
        // be dirty — the next checkpoint has to fold them.
        const std::string base = BaseString();
        OpenDb();
        EXPECT_EQ(BaseString(), base) << "reopen changed the base " << where;
        ++reopens;
      } else {
        FailedCheckpoint(where);
        ++failures;
      }
      if (HasFatalFailure()) return;
    }
    CheckpointAndCompare("at the end");
    // The folded store alone recovers the final base.
    const std::string base = BaseString();
    OpenDb();
    EXPECT_EQ(db_->wal_records_since_checkpoint(), 0u);
    EXPECT_EQ(BaseString(), base);
    // The seeds exercise every interleaving the oracle is about.
    EXPECT_GT(checkpoints, 5u);
    EXPECT_GT(reopens, 2u);
    EXPECT_GT(failures, 2u);
  }
}

TEST_P(IncrementalCheckpointTest, CheckpointStagesOnlyChangedVersions) {
  // storage.checkpoint_versions samples puts plus deletes per checkpoint:
  // the first fold stages the whole base, a one-object commit stages one
  // record, a checkpoint with nothing changed stages none, and a deleted
  // object stages exactly its delete.
  Histogram& staged =
      MetricsRegistry::Global().GetHistogram("storage.checkpoint_versions");
  OpenDb();
  ObjectBase base = engine_->MakeBase();
  for (uint32_t k = 0; k < 64; ++k) {
    // Sealed like a committed base (o.exists -> o), so the first Execute
    // changes only the version it updates.
    engine_->AddFact(base, Obj(k), "exists", Obj(k));
    engine_->AddFact(base, Obj(k), "sal", static_cast<int64_t>(k));
  }
  ASSERT_TRUE(db_->ImportBase(base).ok());
  const uint64_t sum0 = staged.sum_micros();
  CheckpointAndCompare("after import");
  EXPECT_EQ(staged.sum_micros() - sum0, 64u);

  Execute("t: mod[o5].sal -> (S, S2) <- o5.sal -> S, S2 = S + 1.");
  const uint64_t sum1 = staged.sum_micros();
  CheckpointAndCompare("after one mod");
  EXPECT_EQ(staged.sum_micros() - sum1, 1u);

  const uint64_t sum2 = staged.sum_micros();
  CheckpointAndCompare("with nothing changed");
  EXPECT_EQ(staged.sum_micros() - sum2, 0u);

  Execute("t: del[o9].* <- o9.sal -> S.");
  const uint64_t sum3 = staged.sum_micros();
  CheckpointAndCompare("after a delete");
  EXPECT_EQ(staged.sum_micros() - sum3, 1u);
  EXPECT_EQ(db_->store()->key_count(), 63u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, IncrementalCheckpointTest,
    ::testing::Values(StoreBackend::kMem, StoreBackend::kPageLog),
    [](const ::testing::TestParamInfo<StoreBackend>& info) {
      return std::string(StoreBackendName(info.param));
    });

}  // namespace
}  // namespace verso
