// Persistence substrate: codec round-trips, WAL framing with torn-tail
// recovery, and the Database facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "core/pretty.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "storage/codec.h"
#include "storage/database.h"
#include "storage/wal.h"
#include "util/crc32.h"
#include "util/fault_env.h"
#include "util/io.h"

namespace verso {
namespace {

// ---- codec primitives ------------------------------------------------------

TEST(CodecTest, VarintRoundTrip) {
  const std::vector<uint64_t> values = {0,   1,        127,       128,
                                        300, 1ull << 40, UINT64_MAX};
  BufferWriter w;
  for (uint64_t v : values) w.Varint(v);
  BufferReader r(w.buffer());
  for (uint64_t v : values) {
    Result<uint64_t> back = r.Varint();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, ZigZagRoundTrip) {
  const std::vector<int64_t> values = {0, -1, 1, -64, 64, INT64_MIN,
                                       INT64_MAX};
  BufferWriter w;
  for (int64_t v : values) w.ZigZag(v);
  BufferReader r(w.buffer());
  for (int64_t v : values) {
    Result<int64_t> back = r.ZigZag();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(CodecTest, StrRoundTripAndTruncation) {
  BufferWriter w;
  w.Str("hello");
  w.Str("");
  BufferReader r(w.buffer());
  EXPECT_EQ(*r.Str(), "hello");
  EXPECT_EQ(*r.Str(), "");
  // Truncated buffer errors out rather than reading past the end.
  BufferReader bad(std::string_view(w.buffer().data(), 3));
  EXPECT_FALSE(bad.Str().ok());
}

// ---- object base / delta round-trips --------------------------------------

class StorageFixture : public ::testing::Test {
 protected:
  StorageFixture() {
    // One directory per test: ctest runs each TEST as its own process,
    // possibly in parallel, so a shared fixed path races.
    dir_ = ::testing::TempDir() + "/verso_storage_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    EnsureDirectory(dir_).ok();
  }

  ObjectBase Base(const char* text, Engine& engine) {
    Result<ObjectBase> base = ParseObjectBase(text, engine);
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    return std::move(base).value();
  }

  std::string dir_;
};

constexpr const char* kRichBase = R"(
    phil.isa -> empl.  phil.sal -> 4600.
    mod(phil).sal -> 5060.
    del(mod(bob)).exists -> bob.
    m.at@1,2 -> 20.   m.at@1,"s" -> -3.5.
)";

/// Encodes `base` as the checkpoint store does: one EncodeVersionRecord
/// image per version.
std::vector<std::string> EncodeVersionRecords(const ObjectBase& base,
                                              Engine& engine) {
  std::vector<std::string> records;
  for (const auto& [vid, state] : base.versions()) {
    records.push_back(EncodeVersionRecord(vid, *state, engine.symbols(),
                                          engine.versions()));
  }
  return records;
}

TEST_F(StorageFixture, ObjectBaseEncodesAcrossEngines) {
  Engine a;
  ObjectBase base = Base(kRichBase, a);
  std::vector<std::string> records = EncodeVersionRecords(base, a);

  // Decode into a *different* engine whose interning order differs.
  Engine b;
  b.symbols().Symbol("unrelated");
  b.symbols().Symbol("phil");
  ObjectBase decoded = b.MakeBase();
  for (const std::string& record : records) {
    ASSERT_TRUE(DecodeVersionRecordInto(record, b.symbols(), b.versions(),
                                        decoded)
                    .ok());
  }
  EXPECT_EQ(ObjectBaseToString(decoded, b.symbols(), b.versions()),
            ObjectBaseToString(base, a.symbols(), a.versions()));
}

TEST_F(StorageFixture, DeltaComputeApplyInverts) {
  Engine engine;
  ObjectBase before = Base("a.m -> 1.  b.m -> 2.  c.m -> 3.", engine);
  ObjectBase after = Base("a.m -> 1.  b.m -> 20.  d.m -> 4.", engine);
  FactDelta delta = ComputeDelta(before, after);
  EXPECT_EQ(delta.added.size(), 2u);    // b.m->20, d.m->4
  EXPECT_EQ(delta.removed.size(), 2u);  // b.m->2, c.m->3
  ObjectBase patched = before;
  ApplyDelta(delta, patched);
  EXPECT_TRUE(patched == after);

  std::string payload = EncodeDeltaBatch(delta, engine.symbols(),
                                         engine.versions());
  Result<std::vector<FactDelta>> back =
      DecodeDeltaBatch(payload, engine.symbols(), engine.versions());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 1u);
  ObjectBase patched2 = before;
  ApplyDelta(back->front(), patched2);
  EXPECT_TRUE(patched2 == after);
}

TEST_F(StorageFixture, CorruptPayloadIsDetected) {
  Engine engine;
  ObjectBase base = Base("a.m -> 1.", engine);
  std::vector<std::string> records = EncodeVersionRecords(base, engine);
  ASSERT_EQ(records.size(), 1u);
  std::string payload = records[0];
  payload.resize(payload.size() - 1);  // truncate
  ObjectBase out = engine.MakeBase();
  EXPECT_FALSE(DecodeVersionRecordInto(payload, engine.symbols(),
                                       engine.versions(), out)
                   .ok());
}

// ---- WAL --------------------------------------------------------------------

TEST_F(StorageFixture, WalAppendAndRead) {
  std::string path = dir_ + "/wal.log";
  WalWriter writer(path);
  ASSERT_TRUE(writer.Append("first").ok());
  ASSERT_TRUE(writer.Append("").ok());
  ASSERT_TRUE(writer.Append("third record").ok());
  Result<WalReadResult> r = ReadWal(path);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->truncated_tail);
  ASSERT_EQ(r->records.size(), 3u);
  EXPECT_EQ(r->records[0].payload, "first");
  EXPECT_EQ(r->records[1].payload, "");
  EXPECT_EQ(r->records[2].payload, "third record");
}

TEST_F(StorageFixture, MissingWalIsEmpty) {
  Result<WalReadResult> r = ReadWal(dir_ + "/none.log");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->records.empty());
}

TEST_F(StorageFixture, TornTailIsDroppedNotFatal) {
  std::string path = dir_ + "/wal.log";
  WalWriter writer(path);
  ASSERT_TRUE(writer.Append("keep me").ok());
  ASSERT_TRUE(writer.Append("torn").ok());
  std::string bytes = *ReadFile(path);
  bytes.resize(bytes.size() - 2);  // simulate crash mid-write
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  Result<WalReadResult> r = ReadWal(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated_tail);
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->records[0].payload, "keep me");
}

TEST_F(StorageFixture, CorruptMiddleRecordDropsAllLaterRecords) {
  // A corrupt record in the MIDDLE of the log is indistinguishable from a
  // torn tail at that point: the bit-perfect records AFTER it are
  // intentionally dropped too, because replaying deltas with a gap would
  // fabricate a state no committed prefix ever had. The dropped bytes are
  // preserved (wal.log.corrupt) by Database recovery, not destroyed.
  std::string path = dir_ + "/wal.log";
  WalWriter writer(path);
  ASSERT_TRUE(writer.Append("keep").ok());
  ASSERT_TRUE(writer.Append("corrupt me").ok());
  ASSERT_TRUE(writer.Append("perfectly valid but unreachable").ok());
  std::string bytes = *ReadFile(path);
  // Flip one payload bit of the SECOND record: frame 1 ends at 12+4.
  bytes[16 + 12 + 2] ^= 0x01;
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  Result<WalReadResult> r = ReadWal(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated_tail);
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->records[0].payload, "keep");
  // Only the prefix before the damage counts as valid.
  EXPECT_EQ(r->valid_bytes, 16u);
}

TEST_F(StorageFixture, LengthWordBitFlipIsCaughtDeterministically) {
  // v2 frames carry a CRC over the length word itself, so a bit-flip in
  // the length is caught by checksum comparison — deterministically — and
  // never mis-frames the log. (v1 frames only caught this if the payload
  // CRC of the mis-framed record happened to land wrong.)
  std::string path = dir_ + "/wal.log";
  WalWriter writer(path);
  ASSERT_TRUE(writer.Append("first record payload").ok());
  ASSERT_TRUE(writer.Append("second").ok());
  std::string pristine = *ReadFile(path);
  // Every bit of the length word, including ones that would SHRINK the
  // frame so the next "frame" starts inside this record's payload.
  for (int bit = 0; bit < 8; ++bit) {
    std::string bytes = pristine;
    bytes[0] ^= static_cast<char>(1 << bit);
    ASSERT_TRUE(WriteFile(path, bytes).ok());
    Result<WalReadResult> r = ReadWal(path);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->truncated_tail) << "bit " << bit;
    EXPECT_TRUE(r->records.empty()) << "bit " << bit;
    EXPECT_EQ(r->valid_bytes, 0u) << "bit " << bit;
  }
}

// ---- Database ----------------------------------------------------------------

TEST_F(StorageFixture, DatabaseExecuteAndRecover) {
  std::string dbdir = dir_ + "/db";
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ObjectBase base = Base("henry.isa -> empl.  henry.sal -> 100.", engine);
    ASSERT_TRUE((*db)->ImportBase(base).ok());
    Result<Program> raise = ParseProgram(
        "r: mod[E].sal -> (S, S2) <- E.isa -> empl, E.sal -> S, "
        "S2 = S * 2.", engine);
    ASSERT_TRUE(raise.ok());
    ASSERT_TRUE((*db)->Execute(*raise).ok());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
  }
  // Reopen without a checkpoint: recovery replays the WAL.
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    Vid henry = engine.versions().OfOid(engine.symbols().Symbol("henry"));
    GroundApp sal;
    sal.result = engine.symbols().Int(200);
    EXPECT_TRUE((*db)->current().Contains(
        henry, engine.symbols().Method("sal"), sal));
    // Checkpoint folds the WAL into the snapshot.
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
    EXPECT_FALSE(FileExists(dbdir + "/wal.log"));
  }
  // And a third open loads from the snapshot alone.
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
    Vid henry = engine.versions().OfOid(engine.symbols().Symbol("henry"));
    GroundApp sal;
    sal.result = engine.symbols().Int(200);
    EXPECT_TRUE((*db)->current().Contains(
        henry, engine.symbols().Method("sal"), sal));
  }
}

TEST_F(StorageFixture, DatabaseSurvivesTornWalTail) {
  std::string dbdir = dir_ + "/db2";
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. a.n -> 2.", engine)).ok());
  }
  // Tear the final record.
  std::string bytes = *ReadFile(dbdir + "/wal.log");
  bytes.resize(bytes.size() - 3);
  ASSERT_TRUE(WriteFile(dbdir + "/wal.log", bytes).ok());
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    EXPECT_TRUE((*db)->recovered_from_torn_wal());
    // The first import survived; the torn second one is gone.
    Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
    GroundApp one;
    one.result = engine.symbols().Int(1);
    EXPECT_TRUE(
        (*db)->current().Contains(a, engine.symbols().Method("m"), one));
    GroundApp two;
    two.result = engine.symbols().Int(2);
    EXPECT_FALSE(
        (*db)->current().Contains(a, engine.symbols().Method("n"), two));
  }
}

TEST_F(StorageFixture, CorruptTailPreservationIsCappedAndNonFatal) {
  std::string dbdir = dir_ + "/db_cap";
  auto tear_tail = [&] {
    std::string bytes = *ReadFile(dbdir + "/wal.log");
    bytes.resize(bytes.size() - 3);
    ASSERT_TRUE(WriteFile(dbdir + "/wal.log", bytes).ok());
  };
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. a.n -> 2.", engine)).ok());
  }
  // A healthy torn-tail recovery preserves the tail and reports Ok.
  tear_tail();
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    EXPECT_TRUE((*db)->recovered_from_torn_wal());
    EXPECT_TRUE((*db)->corrupt_tail_preservation().ok());
    EXPECT_TRUE(FileExists(dbdir + "/wal.log.corrupt"));
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. a.n -> 2.", engine)).ok());
  }
  // Now pretend many earlier recoveries already filled the side file to
  // its growth cap. The next torn-tail recovery must still succeed, must
  // not grow the side file, and must RECORD that the forensic copy was
  // dropped instead of silently swallowing the failure (the old code
  // aborted recovery outright on any preservation problem).
  tear_tail();
  ASSERT_TRUE(
      WriteFile(dbdir + "/wal.log.corrupt",
                std::string(Database::kCorruptPreserveCap, 'x'))
          .ok());
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_from_torn_wal());
    EXPECT_FALSE((*db)->corrupt_tail_preservation().ok());
    EXPECT_EQ(*FileSize(dbdir + "/wal.log.corrupt"),
              Database::kCorruptPreserveCap);
    // The valid prefix still recovered and the database still serves.
    Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
    GroundApp one;
    one.result = engine.symbols().Int(1);
    EXPECT_TRUE(
        (*db)->current().Contains(a, engine.symbols().Method("m"), one));
  }
  // Just below the cap: the tail is trimmed to fit, recorded as partial.
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. a.p -> 3.", engine)).ok());
  }
  tear_tail();
  ASSERT_TRUE(
      WriteFile(dbdir + "/wal.log.corrupt",
                std::string(Database::kCorruptPreserveCap - 1, 'x'))
          .ok());
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_FALSE((*db)->corrupt_tail_preservation().ok());
    EXPECT_EQ(*FileSize(dbdir + "/wal.log.corrupt"),
              Database::kCorruptPreserveCap);
  }
}

TEST_F(StorageFixture, V1FrameIsTruncatedAndPreservedNotReplayed) {
  // The pre-header-CRC frame layout (u32 length | u32 payload CRC |
  // payload) is no longer read: even a well-formed v1 frame carrying a
  // valid delta payload ends the valid prefix. Recovery chops it off,
  // keeps its bytes in wal.log.corrupt, and never applies its delta.
  std::string dbdir = dir_ + "/db_v1";
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
  }
  const size_t valid_bytes = *FileSize(dbdir + "/wal.log");
  std::string frame;
  {
    Engine engine;
    FactDelta delta =
        ComputeDelta(engine.MakeBase(), Base("v1.m -> 2.", engine));
    const std::string payload =
        EncodeDeltaBatch(delta, engine.symbols(), engine.versions());
    auto append_u32 = [&](uint32_t v) {
      for (int i = 0; i < 4; ++i) frame += static_cast<char>(v >> (8 * i));
    };
    append_u32(static_cast<uint32_t>(payload.size()));
    append_u32(Crc32(payload.data(), payload.size()));
    frame += payload;
  }
  ASSERT_TRUE(AppendFile(dbdir + "/wal.log", frame).ok());

  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->recovered_from_torn_wal());
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), 1u);
  EXPECT_EQ(*FileSize(dbdir + "/wal.log"), valid_bytes);
  EXPECT_EQ(*ReadFile(dbdir + "/wal.log.corrupt"), frame);
  Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
  EXPECT_NE((*db)->current().StateOf(a), nullptr);
  Vid v1 = engine.versions().OfOid(engine.symbols().Symbol("v1"));
  EXPECT_EQ((*db)->current().StateOf(v1), nullptr);
}

TEST_F(StorageFixture, ExecuteBatchGroupCommitsOneRecord) {
  std::string dbdir = dir_ + "/db_batch";
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.sal -> 100.", engine)).ok());
    Result<Program> p1 = ParseProgram(
        "t: mod[a].sal -> (S, S2) <- a.sal -> S, S2 = S + 1.", engine);
    Result<Program> p2 = ParseProgram("t: ins[b].sal -> 7.", engine);
    Result<Program> p3 = ParseProgram(
        "t: mod[a].sal -> (S, S2) <- a.sal -> S, S2 = S * 2.", engine);
    ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());
    std::vector<Program*> batch = {&*p1, &*p2, &*p3};
    Result<std::vector<RunOutcome>> out = (*db)->ExecuteBatch(batch);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->size(), 3u);
    // One record for the import, ONE for the whole three-transaction
    // group — the second transaction sees the first's effects.
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
    Result<WalReadResult> wal = ReadWal(dbdir + "/wal.log");
    ASSERT_TRUE(wal.ok());
    ASSERT_EQ(wal->records.size(), 2u);
  }
  // Recovery replays every transaction of the batch in order.
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
    GroundApp sal;
    sal.result = engine.symbols().Int(202);  // (100 + 1) * 2
    EXPECT_TRUE(
        (*db)->current().Contains(a, engine.symbols().Method("sal"), sal));
    Vid b = engine.versions().OfOid(engine.symbols().Symbol("b"));
    GroundApp seven;
    seven.result = engine.symbols().Int(7);
    EXPECT_TRUE(
        (*db)->current().Contains(b, engine.symbols().Method("sal"), seven));
  }
}

TEST_F(StorageFixture, ExecuteBatchIsAllOrNothing) {
  std::string dbdir = dir_ + "/db_batch_fail";
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ImportBase(Base("o.m -> a.", engine)).ok());
  Result<Program> good = ParseProgram("t: ins[o].m -> b.", engine);
  // Non-linear program: fails to evaluate.
  Result<Program> bad = ParseProgram(
      "r1: mod[o].m -> (a, b) <- o.m -> a."
      "r2: del[o].m -> a <- o.m -> a.", engine);
  ASSERT_TRUE(good.ok() && bad.ok());
  size_t records = (*db)->wal_records_since_checkpoint();
  std::vector<Program*> batch = {&*good, &*bad};
  Result<std::vector<RunOutcome>> out = (*db)->ExecuteBatch(batch);
  EXPECT_FALSE(out.ok());
  // Neither the good nor the bad transaction committed.
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), records);
  Vid o = engine.versions().OfOid(engine.symbols().Symbol("o"));
  GroundApp b;
  b.result = engine.symbols().Symbol("b");
  EXPECT_FALSE((*db)->current().Contains(o, engine.symbols().Method("m"), b));
}

TEST_F(StorageFixture, TornTailInsideBatchedFrameDropsWholeGroup) {
  std::string dbdir = dir_ + "/db_torn_batch";
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    // Record 1: a plain import. Record 2: a three-transaction group
    // commit — ONE kind-tagged batched frame.
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
    Result<Program> p1 = ParseProgram("t: ins[b].m -> 2.", engine);
    Result<Program> p2 = ParseProgram("t: ins[c].m -> 3.", engine);
    Result<Program> p3 = ParseProgram("t: ins[d].m -> 4.", engine);
    ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());
    std::vector<Program*> batch = {&*p1, &*p2, &*p3};
    ASSERT_TRUE((*db)->ExecuteBatch(batch).ok());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
  }
  // Tear the tail INSIDE the batched frame: the payload of the second
  // record loses its final bytes, as if the writer crashed mid-append.
  std::string bytes = *ReadFile(dbdir + "/wal.log");
  bytes.resize(bytes.size() - 5);
  ASSERT_TRUE(WriteFile(dbdir + "/wal.log", bytes).ok());
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_from_torn_wal());
    // The dropped bytes are preserved for forensics, not destroyed.
    EXPECT_TRUE(FileExists(dbdir + "/wal.log.corrupt"));
    // The frame is the durability unit: NONE of the group's three
    // transactions survives — not even the ones whose bytes were intact —
    // while the earlier record is fully recovered.
    Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
    GroundApp one;
    one.result = engine.symbols().Int(1);
    EXPECT_TRUE(
        (*db)->current().Contains(a, engine.symbols().Method("m"), one));
    for (const char* obj : {"b", "c", "d"}) {
      Vid vid = engine.versions().OfOid(engine.symbols().Symbol(obj));
      EXPECT_EQ((*db)->current().StateOf(vid), nullptr) << obj;
    }
    // The torn tail is gone for good: later commits append after it.
    Result<Program> p = ParseProgram("t: ins[e].m -> 5.", engine);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE((*db)->Execute(*p).ok());
  }
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    Vid e = engine.versions().OfOid(engine.symbols().Symbol("e"));
    EXPECT_NE((*db)->current().StateOf(e), nullptr);
  }
}

TEST_F(StorageFixture, InMemoryDatabaseCommitsWithoutTouchingDisk) {
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::OpenInMemory(engine);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ImportBase(Base("a.sal -> 100.", engine)).ok());
  Result<Program> p = ParseProgram(
      "t: mod[a].sal -> (S, S2) <- a.sal -> S, S2 = S * 2.", engine);
  ASSERT_TRUE(p.ok());
  Result<RunOutcome> out = (*db)->Execute(*p);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*db)->commit_epoch(), 2u);
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
  EXPECT_TRUE((*db)->Checkpoint().ok());  // no-op, not an error
  // The committed delta is exposed on the outcome: the old salary fact
  // removed, the doubled one added (plus the sealed exists fact).
  MethodId sal = engine.symbols().Method("sal");
  bool removed_100 = false, added_200 = false;
  for (const DeltaFact& fact : out->committed_delta) {
    if (fact.method != sal) continue;
    if (!fact.added && fact.app.result == engine.symbols().Int(100)) {
      removed_100 = true;
    }
    if (fact.added && fact.app.result == engine.symbols().Int(200)) {
      added_200 = true;
    }
  }
  EXPECT_TRUE(removed_100);
  EXPECT_TRUE(added_200);
  EXPECT_FALSE(Database::Open("", engine).ok());  // empty dir is rejected
}

TEST_F(StorageFixture, AddObserverIsIdempotent) {
  class CountingObserver : public CommitObserver {
   public:
    Status OnCommit(const DeltaLog&, const ObjectBase&, uint64_t) override {
      ++commits;
      return Status::Ok();
    }
    int commits = 0;
  };
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::OpenInMemory(engine);
  ASSERT_TRUE(db.ok());
  CountingObserver observer;
  (*db)->AddObserver(&observer);
  (*db)->AddObserver(&observer);  // no-op, not a second registration
  ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
  EXPECT_EQ(observer.commits, 1);
  (*db)->RemoveObserver(&observer);
}

TEST_F(StorageFixture, DeltaBatchRoundTrip) {
  Engine engine;
  ObjectBase empty = engine.MakeBase();
  ObjectBase one = Base("a.m -> 1.", engine);
  ObjectBase two = Base("a.m -> 1.  b.m -> 2.", engine);
  std::vector<FactDelta> deltas = {ComputeDelta(empty, one),
                                   ComputeDelta(one, two)};
  std::string payload =
      EncodeDeltaBatch(deltas, engine.symbols(), engine.versions());
  Result<std::vector<FactDelta>> back =
      DecodeDeltaBatch(payload, engine.symbols(), engine.versions());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  ObjectBase replayed = engine.MakeBase();
  for (const FactDelta& delta : *back) ApplyDelta(delta, replayed);
  EXPECT_TRUE(replayed == two);
  // Truncation is corruption, not silent data loss.
  payload.resize(payload.size() - 1);
  EXPECT_FALSE(
      DecodeDeltaBatch(payload, engine.symbols(), engine.versions()).ok());
}

TEST_F(StorageFixture, CheckpointCrashWindowLosesNothing) {
  // Checkpoint is two durability steps: (1) commit the base into the
  // store — for the default mem backend, install the new image by atomic
  // rename — (2) remove the WAL. A crash anywhere in that sequence must
  // lose nothing: before the rename the old image + full WAL recover;
  // after it the new image + stale WAL recover (replaying the
  // already-folded records idempotently). This is the regression test for
  // the crash window between the two steps.
  using FaultKind = FaultInjectingEnv::FaultKind;
  using OpFilter = FaultInjectingEnv::OpFilter;
  struct Window {
    OpFilter filter;
    size_t partial;  // non-data ops: 0 = op did not happen, 1 = it did
    const char* what;
  };
  const Window windows[] = {
      {OpFilter::kWrite, 0, "crash before the snapshot tmp write"},
      {OpFilter::kWrite, 9, "crash mid snapshot tmp write (short write)"},
      {OpFilter::kRename, 0, "crash before the snapshot rename"},
      {OpFilter::kRename, 1, "crash after rename, before WAL removal"},
      {OpFilter::kRemove, 0, "crash before the WAL removal"},
      {OpFilter::kRemove, 1, "crash after the WAL removal"},
  };
  for (const Window& w : windows) {
    SCOPED_TRACE(w.what);
    FaultInjectingEnv env;
    DatabaseOptions options;
    options.env = &env;
    options.retry_backoff_us = 0;
    std::string expected;
    {
      Engine engine;
      Result<std::unique_ptr<Database>> db =
          Database::Open("/db", engine, options);
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
      // An earlier checkpoint, so the torture'd one REPLACES a snapshot.
      ASSERT_TRUE((*db)->Checkpoint().ok());
      ASSERT_TRUE(
          (*db)->ImportBase(Base("a.m -> 1. b.m -> 2.", engine)).ok());
      expected = ObjectBaseToString((*db)->current(), engine.symbols(),
                                    engine.versions());
      FaultInjectingEnv::FaultPlan plan;
      plan.fail_at = 0;
      plan.kind = FaultKind::kCrash;
      plan.partial_bytes = w.partial;
      plan.filter = w.filter;
      env.SetPlan(plan);
      EXPECT_FALSE((*db)->Checkpoint().ok());
      ASSERT_TRUE(env.crashed());
    }
    auto disk = env.CloneSurvivingFiles();
    DatabaseOptions reopen;
    reopen.env = disk.get();
    reopen.retry_backoff_us = 0;
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", engine, reopen);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                                 engine.versions()),
              expected);
    // The recovered database is fully writable again.
    EXPECT_TRUE(db->get()->health().ok());
    ASSERT_TRUE(
        (*db)->ImportBase(Base("a.m -> 1. b.m -> 2. c.m -> 3.", engine))
            .ok());
  }
}

TEST_F(StorageFixture, PageLogCheckpointCrashWindowLosesNothing) {
  // The page-log twin of CheckpointCrashWindowLosesNothing: here step (1)
  // is an APPEND of one ops frame to store.plog (possibly followed by a
  // compaction rewrite), step (2) the WAL removal. A torn append frame
  // must be chopped on reopen and the stale WAL replayed over the old
  // store generation.
  using FaultKind = FaultInjectingEnv::FaultKind;
  using OpFilter = FaultInjectingEnv::OpFilter;
  struct Window {
    OpFilter filter;
    size_t partial;
    const char* what;
  };
  const Window windows[] = {
      {OpFilter::kAppend, 0, "crash before the store append"},
      {OpFilter::kAppend, 7, "crash mid store append (torn frame)"},
      {OpFilter::kRemove, 0, "crash before the WAL removal"},
      {OpFilter::kRemove, 1, "crash after the WAL removal"},
  };
  for (const Window& w : windows) {
    SCOPED_TRACE(w.what);
    FaultInjectingEnv env;
    DatabaseOptions options;
    options.env = &env;
    options.retry_backoff_us = 0;
    options.store_backend = StoreBackend::kPageLog;
    std::string expected;
    {
      Engine engine;
      Result<std::unique_ptr<Database>> db =
          Database::Open("/db", engine, options);
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
      // An earlier checkpoint, so the torture'd one EXTENDS a live log.
      ASSERT_TRUE((*db)->Checkpoint().ok());
      ASSERT_TRUE(
          (*db)->ImportBase(Base("a.m -> 1. b.m -> 2.", engine)).ok());
      expected = ObjectBaseToString((*db)->current(), engine.symbols(),
                                    engine.versions());
      FaultInjectingEnv::FaultPlan plan;
      plan.fail_at = 0;
      plan.kind = FaultKind::kCrash;
      plan.partial_bytes = w.partial;
      plan.filter = w.filter;
      env.SetPlan(plan);
      EXPECT_FALSE((*db)->Checkpoint().ok());
      ASSERT_TRUE(env.crashed());
    }
    auto disk = env.CloneSurvivingFiles();
    DatabaseOptions reopen;
    reopen.env = disk.get();
    reopen.retry_backoff_us = 0;
    reopen.store_backend = StoreBackend::kPageLog;
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", engine, reopen);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                                 engine.versions()),
              expected);
    EXPECT_TRUE(db->get()->health().ok());
    ASSERT_TRUE(
        (*db)->ImportBase(Base("a.m -> 1. b.m -> 2. c.m -> 3.", engine))
            .ok());
  }
}

TEST_F(StorageFixture, CheckpointBoundsRecoveryToTheWalSuffix) {
  // The acceptance property of the store rebase: a cold open after a
  // checkpoint replays ONLY the post-checkpoint WAL suffix (frame-count
  // metric), rebuilding the bulk of the base from the store's "b/" range
  // scan instead of the full commit history.
  Counter& frames = MetricsRegistry::Global().GetCounter(
      "storage.recovery_replayed_frames");
  Counter& store_keys =
      MetricsRegistry::Global().GetCounter("storage.recovery_store_keys");
  for (StoreBackend backend : {StoreBackend::kMem, StoreBackend::kPageLog}) {
    SCOPED_TRACE(StoreBackendName(backend));
    FaultInjectingEnv env;
    DatabaseOptions options;
    options.env = &env;
    options.retry_backoff_us = 0;
    options.store_backend = backend;
    std::string expected;
    {
      Engine engine;
      Result<std::unique_ptr<Database>> db =
          Database::Open("/db", engine, options);
      ASSERT_TRUE(db.ok());
      // 6 pre-checkpoint commits, then the fold, then a 2-commit suffix.
      std::string text;
      for (int i = 0; i < 6; ++i) {
        text += "o" + std::to_string(i) + ".m -> " + std::to_string(i) + ". ";
        ASSERT_TRUE((*db)->ImportBase(Base(text.c_str(), engine)).ok());
      }
      ASSERT_TRUE((*db)->Checkpoint().ok());
      EXPECT_EQ((*db)->checkpoint_generation(), 1u);
      for (int i = 6; i < 8; ++i) {
        text += "o" + std::to_string(i) + ".m -> " + std::to_string(i) + ". ";
        ASSERT_TRUE((*db)->ImportBase(Base(text.c_str(), engine)).ok());
      }
      EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
      expected = ObjectBaseToString((*db)->current(), engine.symbols(),
                                    engine.versions());
    }
    uint64_t frames_before = frames.value();
    uint64_t keys_before = store_keys.value();
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", engine, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
    EXPECT_EQ(frames.value() - frames_before, 2u);  // suffix only
    EXPECT_EQ(store_keys.value() - keys_before, 6u);  // o0..o5 from store
    EXPECT_EQ((*db)->checkpoint_generation(), 1u);
    EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                                 engine.versions()),
              expected);
  }
}

TEST_F(StorageFixture, AutoCheckpointKeepsRecoveryReplayBounded) {
  // With checkpoint_wal_bytes armed, replay work at recovery stays
  // bounded no matter how many transactions commit: every commit that
  // pushes the WAL past the threshold folds it, so a cold open replays
  // at most the last unfolded suffix.
  Counter& frames = MetricsRegistry::Global().GetCounter(
      "storage.recovery_replayed_frames");
  Counter& autos =
      MetricsRegistry::Global().GetCounter("storage.auto_checkpoints");
  FaultInjectingEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  options.store_backend = StoreBackend::kPageLog;
  options.checkpoint_wal_bytes = 256;
  std::string expected;
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", engine, options);
    ASSERT_TRUE(db.ok());
    std::string text;
    size_t max_wal = 0;
    for (int i = 0; i < 40; ++i) {
      text += "o" + std::to_string(i) + ".m -> " + std::to_string(i) + ". ";
      ASSERT_TRUE((*db)->ImportBase(Base(text.c_str(), engine)).ok());
      max_wal = std::max(max_wal, (*db)->wal_bytes_since_checkpoint());
    }
    // The WAL never accumulates past one commit beyond the threshold
    // (each commit's frame is a few hundred bytes here).
    EXPECT_LT(max_wal, options.checkpoint_wal_bytes + 2048);
    EXPECT_GT((*db)->checkpoint_generation(), 2u);
    EXPECT_GT(autos.value(), 2u);
    expected = ObjectBaseToString((*db)->current(), engine.symbols(),
                                  engine.versions());
  }
  uint64_t frames_before = frames.value();
  Engine engine;
  Result<std::unique_ptr<Database>> db =
      Database::Open("/db", engine, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // 40 commits happened; recovery replays at most a couple of frames.
  EXPECT_LE(frames.value() - frames_before, 2u);
  EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                               engine.versions()),
            expected);

  // Unarmed (the default), the same workload folds nothing.
  FaultInjectingEnv manual_env;
  DatabaseOptions manual;
  manual.env = &manual_env;
  manual.retry_backoff_us = 0;
  Engine manual_engine;
  Result<std::unique_ptr<Database>> manual_db =
      Database::Open("/db", manual_engine, manual);
  ASSERT_TRUE(manual_db.ok());
  std::string text;
  for (int i = 0; i < 10; ++i) {
    text += "o" + std::to_string(i) + ".m -> " + std::to_string(i) + ". ";
    ASSERT_TRUE(
        (*manual_db)->ImportBase(Base(text.c_str(), manual_engine)).ok());
  }
  EXPECT_EQ((*manual_db)->wal_records_since_checkpoint(), 10u);
  EXPECT_EQ((*manual_db)->checkpoint_generation(), 0u);
}

TEST_F(StorageFixture, FailedProgramLeavesDatabaseUntouched) {
  std::string dbdir = dir_ + "/db3";
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ImportBase(Base("o.m -> a.", engine)).ok());
  // Non-linear program: Execute fails, current() unchanged.
  Result<Program> bad = ParseProgram(
      "r1: mod[o].m -> (a, b) <- o.m -> a."
      "r2: del[o].m -> a <- o.m -> a.", engine);
  ASSERT_TRUE(bad.ok());
  size_t records = (*db)->wal_records_since_checkpoint();
  Result<RunOutcome> out = (*db)->Execute(*bad);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), records);
  Vid o = engine.versions().OfOid(engine.symbols().Symbol("o"));
  GroundApp m;
  m.result = engine.symbols().Symbol("a");
  EXPECT_TRUE((*db)->current().Contains(o, engine.symbols().Method("m"), m));
}

}  // namespace
}  // namespace verso
