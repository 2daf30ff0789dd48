// End-to-end commit/read benchmark program. One closed-loop, single-thread
// client runs a fixed number of ops of a seeded workload through the
// public client API and checks every op against a reference model. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
// same ops once untraced and once traced (a TraceSink keeping stratum
// spans, plus registry, stats and Env deltas) and prints the per-layer
// metrics. The last stdout line is the JSON result; see README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "counting_env.h"

namespace e2e {
namespace {

constexpr int kSetupReps = 5;
constexpr int kReopenReps = 3;
/// Ops in the stream head whose hash every run prints: equal for one seed
/// however many ops a run gets through.
constexpr size_t kHeadOps = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/e2ebench-work";
  std::string revision = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--revision") {
      args->revision = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

struct WorkloadSpec {
  const char* name;
  std::unique_ptr<Workload> (*make)(uint64_t seed);
  /// Ops per second of --seconds. A run's op count is fixed, so a parent
  /// and a change do identical work and reach identical state (peak RSS
  /// compares too). The rates are what the code sustained, when this
  /// benchmark was written, on a 4-core host in its slower phases, so a
  /// run takes about --seconds there.
  uint64_t ops_per_second;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"oltp_point", MakeOltpPoint, 25},
    {"batch_rules", MakeBatchRules, 24},
    {"graph_views", MakeGraphViews, 80},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  return FindWorkload(name)->make(seed);
}

std::string OpBytes(const Op& op) {
  return std::string(op.write ? "W|" : "R|") + op.text + "|" +
         std::to_string(op.a) + "|" + std::to_string(op.b) + "|" +
         std::to_string(op.value);
}

/// Hash of the first `ops` ops of a fresh generator's stream.
uint64_t StreamHashOf(const Args& args, uint64_t ops) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  StreamHash hash;
  for (uint64_t i = 0; i < ops; ++i) hash.Add(OpBytes(w->Next()));
  return hash.value();
}

using Registry = std::map<std::string, int64_t>;

Registry ReadRegistry() {
  Registry out;
  for (const auto& e : verso::MetricsRegistry::Global().Snapshot()) {
    out[e.name] = e.value;
  }
  return out;
}

/// after - before, per name (names absent before count from 0).
Registry Minus(const Registry& after, const Registry& before) {
  Registry out = after;
  for (auto& [name, value] : out) {
    auto it = before.find(name);
    if (it != before.end()) value -= it->second;
  }
  return out;
}

double Get(const Registry& r, const std::string& name) {
  auto it = r.find(name);
  return it == r.end() ? 0.0 : static_cast<double>(it->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Mean of a registry histogram over a delta, in µs.
double MeanUs(const Registry& d, const std::string& hist) {
  return Ratio(Get(d, hist + ".sum_us"), Get(d, hist + ".count"));
}

/// Nearest-rank quantile of `samples` (ns), in ms.
double QuantileMs(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(samples.size())) {
    ++rank;
  }
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[rank - 1]) / 1e6;
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One opened connection with its workload and client.
struct Live {
  std::unique_ptr<Connection> conn;
  std::unique_ptr<Workload> workload;

  void Close() {
    if (workload != nullptr) workload->Detach();
    conn.reset();
  }
};

class Bench {
 public:
  explicit Bench(Args args)
      : args_(std::move(args)),
        ops_(static_cast<uint64_t>(args_.seconds) *
             FindWorkload(args_.workload)->ops_per_second) {
    dir_ = args_.work_dir + "/" + args_.workload + "-" +
           std::to_string(getpid());
  }
  ~Bench() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  int Main();

 private:
  struct Loop {
    std::vector<uint64_t> write_ns;
    std::vector<uint64_t> read_ns;
    uint64_t ops = 0;
    uint64_t client_ns = 0;  // summed op latencies
    StreamHash hash;
  };

  ConnectionOptions Options(const Workload& w, SpanTrace* trace) {
    ConnectionOptions options = w.Options();
    options.env = &env_;
    options.trace = trace;
    return options;
  }

  /// Opens a fresh database (persistent ones in a new directory) and runs
  /// the workload's setup on it.
  Status SetUp(Live* live, SpanTrace* trace);
  Result<std::unique_ptr<Connection>> Reopen(const Workload& w);
  /// Runs the next `ops` ops of the workload's stream.
  Loop RunLoop(Live& live, Client& client, uint64_t ops);
  void Fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 5) failures_.push_back(what);
  }
  void AddChecks(const std::vector<std::string>& failures) {
    for (const std::string& f : failures) Fail(f);
  }

  int RunUntraced();
  int RunTraced();
  int Report(const Loop& loop, const std::vector<Metric>& metrics);

  Args args_;
  const uint64_t ops_;  // ops per run
  std::string dir_;
  int generation_ = 0;
  CountingEnv env_;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

Status Bench::SetUp(Live* live, SpanTrace* trace) {
  live->Close();
  live->workload = MakeWorkload(args_.workload, args_.seed);
  ConnectionOptions options = Options(*live->workload, trace);
  const bool persistent = live->workload->persistent();
  if (persistent) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
  }
  Result<std::unique_ptr<Connection>> conn =
      persistent ? Connection::Open(
                       dir_ + "/db" + std::to_string(generation_++), options)
                 : Connection::OpenInMemory(options);
  VERSO_RETURN_IF_ERROR(conn.status());
  live->conn = std::move(*conn);
  Client client(*live->conn, nullptr, nullptr);
  return live->workload->Setup(client);
}

Result<std::unique_ptr<Connection>> Bench::Reopen(const Workload& w) {
  return Connection::Open(dir_ + "/db" + std::to_string(generation_ - 1),
                          Options(w, nullptr));
}

Bench::Loop Bench::RunLoop(Live& live, Client& client, uint64_t ops) {
  Loop loop;
  while (loop.ops < ops) {
    Op op = live.workload->Next();
    loop.hash.Add(OpBytes(op));
    uint64_t latency = 0;
    std::string failure = live.workload->Run(op, client, &latency);
    if (!failure.empty()) {
      Fail("op " + std::to_string(loop.ops) + ": " + failure);
    }
    (op.write ? loop.write_ns : loop.read_ns).push_back(latency);
    loop.client_ns += latency;
    ++loop.ops;
  }
  // The self-check: a fresh generator on the same seed must reproduce
  // exactly the ops this loop ran.
  if (StreamHashOf(args_, loop.ops) != loop.hash.value()) {
    Fail("the op stream differs from a fresh generator's on the same seed");
  }
  return loop;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int Bench::RunUntraced() {
  Live live;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    uint64_t start = NowNs();
    Status s = SetUp(&live, nullptr);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!s.ok()) {
      Fail("setup: " + s.ToString());
      return Report(Loop(), {});
    }
  }
  Client client(*live.conn, nullptr, nullptr);
  Loop loop = RunLoop(live, client, ops_);
  AddChecks(live.workload->CheckEnd(client));
  if (live.workload->persistent()) {
    // Recovery must reproduce the final state: reopen the directory.
    live.workload->Detach();
    live.conn.reset();
    Result<std::unique_ptr<Connection>> conn = Reopen(*live.workload);
    if (!conn.ok()) {
      Fail("reopen: " + conn.status().ToString());
    } else {
      Client reopened(**conn, nullptr, nullptr);
      AddChecks(live.workload->CheckReopened(reopened));
    }
  }
  live.Close();

  double loop_s = static_cast<double>(loop.client_ns) / 1e9;
  return Report(
      loop,
      {
          {"commit_p50_ms", QuantileMs(loop.write_ns, 0.50), "ms"},
          {"commit_p90_ms", QuantileMs(loop.write_ns, 0.90), "ms"},
          {"read_p50_ms", QuantileMs(loop.read_ns, 0.50), "ms"},
          {"read_p90_ms", QuantileMs(loop.read_ns, 0.90), "ms"},
          {"ops_per_s", Ratio(static_cast<double>(loop.ops), loop_s), "ops/s"},
          {"setup_s", MedianOf(setup_s), "s"},
          {"peak_rss_mb", PeakRssMb(), "MiB"},
      });
}

int Bench::RunTraced() {
  SpanTrace spans;  // outlives every connection it is wired into
  // Pass 1, untraced: the baseline client time for half the ops.
  Live live;
  Status s = SetUp(&live, nullptr);
  if (!s.ok()) {
    Fail("setup: " + s.ToString());
    return Report(Loop(), {});
  }
  Client plain(*live.conn, nullptr, nullptr);
  Loop base = RunLoop(live, plain, ops_ / 2);
  AddChecks(live.workload->CheckEnd(plain));

  // Pass 2, traced: the same ops again, with spans recorded.
  s = SetUp(&live, &spans);
  if (!s.ok()) {
    Fail("traced setup: " + s.ToString());
    return Report(base, {});
  }
  spans = SpanTrace();  // drop the setup's spans
  LayerTotals totals;
  Client traced(*live.conn, &spans, &totals);
  const std::vector<std::string> views = live.conn->view_names();
  auto view_stats = [&] {
    verso::ViewStats sum;
    for (const std::string& v : views) {
      Result<verso::ViewStats> st = live.conn->GetViewStats(v);
      if (!st.ok()) continue;
      sum.delta_facts_seen += st->delta_facts_seen;
      sum.support_increments += st->support_increments;
      sum.support_decrements += st->support_decrements;
      sum.overdeleted += st->overdeleted;
      sum.rederived += st->rederived;
    }
    return sum;
  };
  verso::ViewStats views_before = view_stats();
  size_t oids_before = live.conn->symbols().oid_count();
  EnvCounts env_before = env_.counts();
  Registry reg_before = ReadRegistry();
  Loop loop = RunLoop(live, traced, ops_ / 2);
  Registry d = Minus(ReadRegistry(), reg_before);
  EnvCounts env = env_.counts().Minus(env_before);
  size_t oids = live.conn->symbols().oid_count() - oids_before;
  verso::ViewStats vs = view_stats();
  vs.delta_facts_seen -= views_before.delta_facts_seen;
  vs.support_increments -= views_before.support_increments;
  vs.support_decrements -= views_before.support_decrements;
  vs.overdeleted -= views_before.overdeleted;
  vs.rederived -= views_before.rederived;
  AddChecks(live.workload->CheckEnd(traced));
  if (loop.hash.value() != base.hash.value()) {
    Fail("traced pass ran a different op stream");
  }

  // Recovery of the traced pass's directory.
  double reopen_s = 0;
  double reopen_count = 0;
  Registry recovery;
  if (live.workload->persistent()) {
    live.workload->Detach();
    live.conn.reset();
    std::vector<double> times;
    Registry before = ReadRegistry();
    for (int rep = 0; rep < kReopenReps; ++rep) {
      uint64_t start = NowNs();
      Result<std::unique_ptr<Connection>> conn = Reopen(*live.workload);
      times.push_back(static_cast<double>(NowNs() - start) / 1e9);
      if (!conn.ok()) {
        Fail("reopen: " + conn.status().ToString());
        break;
      }
      if (rep == 0) {
        Client reopened(**conn, nullptr, nullptr);
        AddChecks(live.workload->CheckReopened(reopened));
      }
    }
    recovery = Minus(ReadRegistry(), before);
    reopen_s = MedianOf(times);
    reopen_count = static_cast<double>(times.size());
  }
  live.Close();
  static const char* kRoles[] = {"wal", "store", "other"};
  for (size_t r = 0; r < env.roles.size(); ++r) {
    std::cout << "env " << kRoles[r] << " calls=" << env.roles[r].calls
              << " writes=" << env.roles[r].writes
              << " bytes=" << env.roles[r].bytes
              << " us=" << env.roles[r].ns / 1000 << "\n";
  }
  std::error_code ec;
  std::filesystem::create_directories(args_.work_dir, ec);
  spans.WriteJsonl(args_.work_dir + "/spans-" + args_.workload + "-seed" +
                   std::to_string(args_.seed) + ".jsonl");

  const double commits = Get(d, "commit.count");
  const double writes = static_cast<double>(loop.write_ns.size());
  const double reads = static_cast<double>(loop.read_ns.size());
  const double evaluations = Get(d, "commit.evaluate_us.count");
  const double evaluate_us = MeanUs(d, "commit.evaluate_us");
  const double strata_us =
      Ratio(static_cast<double>(spans.TotalNs("stratum.")) / 1e3, evaluations);
  const double analyze_sum = Get(d, "analysis.us.sum_us");
  const double prepares = Get(d, "statement.parse_us.count");
  const double wt = static_cast<double>(totals.write_results);
  const double body = static_cast<double>(totals.body_matches);
  const double t1 = static_cast<double>(totals.t1_updates);
  const double queries = static_cast<double>(totals.queries);
  const double reopens = std::max(1.0, reopen_count);
  const double overdeleted = static_cast<double>(vs.overdeleted);
  auto per_commit = [&](double v) { return Ratio(v, commits); };
  return Report(
      loop,
      {
          {"parser.parse_us",
           Ratio(Get(d, "statement.parse_us.sum_us") - analyze_sum, prepares),
           "us"},
          {"analysis.analyze_us", MeanUs(d, "analysis.us"), "us"},
          {"api.prepare_us",
           Ratio(static_cast<double>(totals.prepare_ns) / 1e3,
                 static_cast<double>(totals.prepares)),
           "us"},
          {"api.pin_us", MeanUs(d, "session.pin_us"), "us"},
          {"api.pins_per_read", Ratio(Get(d, "session.pins"), reads), "count"},
          {"api.fanout_us", per_commit(Get(d, "subscription.fanout_us.sum_us")),
           "us"},
          {"api.delivered_facts_per_commit",
           per_commit(Get(d, "subscription.delivered_facts")), "count"},
          {"core.evaluate_us", evaluate_us, "us"},
          {"core.strata_us", strata_us, "us"},
          {"core.base_build_us", evaluate_us - strata_us, "us"},
          {"core.rounds_per_commit",
           Ratio(static_cast<double>(totals.rounds), wt), "count"},
          {"core.body_matches_per_commit", Ratio(body, wt), "count"},
          {"core.t1_updates_per_commit", Ratio(t1, wt), "count"},
          {"core.match_yield", Ratio(t1, body), "ratio"},
          {"core.versions_materialized_per_commit",
           Ratio(static_cast<double>(totals.versions_materialized), wt),
           "count"},
          {"core.index_hit_ratio",
           Ratio(Get(d, "index.hits"), Get(d, "index.probes")), "ratio"},
          {"core.oids_per_commit", per_commit(static_cast<double>(oids)),
           "count"},
          {"core.parallel_strata", Get(d, "eval.parallel_strata"), "count"},
          {"storage.wal_append_us", MeanUs(d, "commit.wal_append_us"), "us"},
          {"storage.install_us", MeanUs(d, "commit.install_us"), "us"},
          {"storage.wal_bytes_per_commit",
           per_commit(static_cast<double>(env[FileRole::kWal].bytes)), "B"},
          {"storage.delta_facts_per_commit",
           per_commit(Get(d, "commit.delta_facts")), "count"},
          {"storage.noop_share", Ratio(Get(d, "commit.noops"), writes),
           "ratio"},
          {"storage.recovery_us",
           Ratio(Get(recovery, "storage.recovery_us"), reopens), "us"},
          {"storage.recovery_replayed_frames",
           Ratio(Get(recovery, "storage.recovery_replayed_frames"), reopens),
           "count"},
          {"storage.reopen_s", reopen_s, "s"},
          {"store.checkpoint_us", MeanUs(d, "storage.checkpoint_us"), "us"},
          {"store.checkpoints_per_1k_commits",
           1000.0 * per_commit(Get(d, "storage.auto_checkpoints")), "count"},
          {"store.bytes_per_checkpoint",
           Ratio(static_cast<double>(env[FileRole::kStore].bytes),
                 Get(d, "storage.checkpoints")),
           "B"},
          {"store.compactions", Get(d, "store.compactions"), "count"},
          {"views.maintain_us",
           per_commit(Get(d, "commit.fanout_us.sum_us") -
                      Get(d, "subscription.fanout_us.sum_us")),
           "us"},
          {"views.delta_facts_per_commit",
           per_commit(static_cast<double>(vs.delta_facts_seen)), "count"},
          {"views.support_changes_per_commit",
           per_commit(static_cast<double>(vs.support_increments +
                                          vs.support_decrements)),
           "count"},
          {"views.overdeleted_per_commit", per_commit(overdeleted), "count"},
          {"views.rederived_per_commit",
           per_commit(static_cast<double>(vs.rederived)), "count"},
          {"views.rederive_yield",
           Ratio(static_cast<double>(vs.rederived), overdeleted), "ratio"},
          {"query.eval_us", MeanUs(d, "query.eval_us"), "us"},
          {"query.rounds_per_query",
           Ratio(static_cast<double>(totals.query_rounds), queries), "count"},
          {"query.derived_facts_per_query",
           Ratio(static_cast<double>(totals.query_derived_facts), queries),
           "count"},
          {"util.env_us_per_commit",
           per_commit(static_cast<double>(env.total_ns()) / 1e3), "us"},
          {"util.env_writes_per_commit",
           per_commit(static_cast<double>(env.total_writes())), "count"},
          {"util.env_bytes_per_commit",
           per_commit(static_cast<double>(env.total_bytes())), "B"},
          {"trace.overhead_share",
           Ratio(static_cast<double>(loop.client_ns),
                 static_cast<double>(base.client_ns)) - 1.0,
           "ratio"},
      });
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

int Bench::Report(const Loop& loop, const std::vector<Metric>& metrics) {
  bool correct = failed_ == 0 && !metrics.empty();
  uint64_t attempted = std::max<uint64_t>(1, loop.ops);
  for (const std::string& f : failures_) {
    std::cout << "FAILED " << f << "\n";
  }
  std::cout << "stream ops=" << loop.ops << " writes=" << loop.write_ns.size()
            << " reads=" << loop.read_ns.size() << " head_hash=" << std::hex
            << StreamHashOf(args_, kHeadOps)
            << " stream_hash=" << loop.hash.value() << std::dec << "\n";
  std::cout << "provenance {\"workload\": \"" << args_.workload
            << "\", \"seed\": " << args_.seed << ", \"ops\": " << loop.ops
            << ", \"seconds\": " << args_.seconds
            << ", \"trace\": " << args_.trace
            << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"compiler\": \"" << E2E_COMPILER
            << "\", \"build_type\": \"" << E2E_BUILD_TYPE
            << "\", \"revision\": \"" << args_.revision
            << "\", \"env_flush\": \"flush to OS cache, no fsync\"}\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << Num(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "metric failed_op_share = "
            << Num(static_cast<double>(failed_) /
                   static_cast<double>(attempted))
            << " ratio\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed_
            << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << Num(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

int Bench::Main() {
  if (StreamHashOf(args_, kHeadOps) != StreamHashOf(args_, kHeadOps)) {
    Fail("one seed produced two different op streams");
  }
  return args_.trace == 0 ? RunUntraced() : RunTraced();
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args) ||
      e2e::FindWorkload(args.workload) == nullptr) {
    std::cerr << "usage: e2ebench --workload oltp_point|batch_rules|"
                 "graph_views --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--revision REV]\n";
    return 2;
  }
  return e2e::Bench(args).Main();
}
