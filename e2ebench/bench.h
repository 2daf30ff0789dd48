#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.h"
#include "span_trace.h"
#include "workloads/workloads.h"

namespace e2e {

using verso::Connection;
using verso::ConnectionOptions;
using verso::Result;
using verso::ResultSet;
using verso::Session;
using verso::Statement;
using verso::Status;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// FNV-1a over the op stream: equal hashes mean byte-identical op texts.
class StreamHash {
 public:
  void Add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
    hash_ ^= 0xff;  // op separator
    hash_ *= 0x100000001b3ULL;
  }
  void AddU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One client request of a workload's op stream.
struct Op {
  bool write = false;
  /// The statement text sent through the client API (empty for runs of
  /// a prepared statement).
  std::string text;
  /// Workload-specific operands (object indices, expected values).
  int a = -1;
  int b = -1;
  int64_t value = 0;
};

/// Counts gathered from ResultSets and benchmark-side timers while a loop
/// runs; the per-layer table is computed from these and registry deltas.
struct LayerTotals {
  uint64_t prepares = 0;
  uint64_t prepare_ns = 0;
  uint64_t write_results = 0;
  uint64_t rounds = 0;
  uint64_t body_matches = 0;
  uint64_t t1_updates = 0;
  uint64_t versions_materialized = 0;
  uint64_t queries = 0;
  uint64_t query_rounds = 0;
  uint64_t query_derived_facts = 0;
};

/// The benchmark's single closed-loop client. Every statement goes
/// through here: untraced, as one Session::Execute call; traced, as a
/// timed Session::Prepare followed by Statement::Execute, with spans
/// around both (the API defines Execute as exactly that pair).
class Client {
 public:
  Client(Connection& conn, SpanTrace* spans, LayerTotals* totals)
      : conn_(conn), spans_(spans), totals_(totals) {}

  Connection& conn() { return conn_; }

  Result<ResultSet> Execute(Session& session, std::string_view text);
  Result<ResultSet> Execute(Statement& statement);
  void Refresh(Session& session);

 private:
  void Record(const ResultSet& rs);

  Connection& conn_;
  SpanTrace* spans_;     // null when untraced
  LayerTotals* totals_;  // null outside measured loops
};

/// A canonical key for one fact, from raw ids: lets subscriber replay
/// compare delta rows and result rows without rendering names.
std::string FactKey(const verso::DeltaFact& fact);
/// The FactKeys of a read's rows.
std::set<std::string> RowKeys(const ResultSet& rs);
/// The rendered rows ("obj.m -> r.") of a read, sorted.
std::multiset<std::string> RowTexts(ResultSet& rs);

/// Replays a subscriber's delta stream over the seed it took at
/// subscription time, and digests the stream so that several subscribers
/// of one view can be checked for identical deliveries. A view delta
/// carries the base transition too; the replay keeps only the view's
/// derived method.
class Replica {
 public:
  void Seed(const ResultSet& rows, verso::MethodId derived) {
    facts_ = RowKeys(rows);
    derived_ = derived;
  }
  void Apply(const verso::ViewDelta& delta, bool keep_facts);
  const std::set<std::string>& facts() const { return facts_; }
  uint64_t digest() const { return digest_.value(); }
  uint64_t deliveries() const { return deliveries_; }

 private:
  std::set<std::string> facts_;
  verso::MethodId derived_;
  StreamHash digest_;
  uint64_t deliveries_ = 0;
};

/// One seeded workload. The constructor builds the reference model from
/// the seed alone; Next() generates the op stream and advances the model
/// to the state the op should produce, so each op is checked right after
/// it runs.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual bool persistent() const = 0;
  /// Storage settings the workload names; everything else is default.
  virtual ConnectionOptions Options() const { return ConnectionOptions(); }
  /// Imports the generated base, registers views and attaches
  /// subscribers on a freshly opened connection.
  virtual Status Setup(Client& client) = 0;
  virtual Op Next() = 0;
  /// Runs `op` through `client`, timing only the client calls into
  /// `*latency_ns`, then checks the outcome. Returns "" or a failure.
  virtual std::string Run(const Op& op, Client& client,
                          uint64_t* latency_ns) = 0;
  /// End-of-run checks on the live connection (views against from-scratch
  /// derives, subscriber replay, final state). Returns failures.
  virtual std::vector<std::string> CheckEnd(Client& client) = 0;
  /// Checks on a connection reopened from the run's directory.
  virtual std::vector<std::string> CheckReopened(Client& client) {
    (void)client;
    return {};
  }
  /// Closes every session the workload holds (before its connection
  /// closes); the reference model survives.
  virtual void Detach() = 0;
};

std::unique_ptr<Workload> MakeOltpPoint(uint64_t seed);
std::unique_ptr<Workload> MakeBatchRules(uint64_t seed);
std::unique_ptr<Workload> MakeGraphViews(uint64_t seed);

}  // namespace e2e

#endif  // E2EBENCH_BENCH_H_
