// oltp_point: one-object salary updates and point reads on a large
// persistent enterprise base with a counting view and one subscriber.
// Every op touches one object, so its cost should not depend on the base
// size; the workload also drives small WAL records, auto-checkpoint
// stalls, snapshot re-pins, and parse + analyze on every op.

#include <string>
#include <vector>

#include "bench.h"

namespace e2e {
namespace {

constexpr int kEmployees = 4096;
constexpr int kManagerEvery = 16;
constexpr int kDepartments = 32;
constexpr int64_t kRichAbove = 5000;
/// A one-object commit appends a WAL frame of about 50 bytes, so the
/// store folds the log about every 5 commits: the stalls are a fifth of
/// the commits, well inside commit_p90_ms and well outside the median.
constexpr size_t kCheckpointWalBytes = 256;

const std::string kRichRules =
    "q: derive X.rich -> yes <- X.isa -> empl, X.sal -> S, S > " +
    std::to_string(kRichAbove) + ".";
constexpr const char* kAllSalaries =
    "q: derive X.salq -> S <- X.isa -> empl, X.sal -> S.";

std::string Emp(int i) { return "emp" + std::to_string(i); }

class OltpPoint : public Workload {
 public:
  explicit OltpPoint(uint64_t seed) : rng_(seed ^ 0x6f6c7470ULL) {
    salary_.resize(kEmployees);
    for (int i = 0; i < kEmployees; ++i) {
      salary_[i] = 1000 + static_cast<int64_t>(rng_.Below(8001));
    }
    // Hot keys are scattered over the base by a seeded permutation.
    hot_.resize(kEmployees);
    for (int i = 0; i < kEmployees; ++i) hot_[i] = i;
    for (int i = kEmployees - 1; i > 0; --i) {
      std::swap(hot_[i], hot_[rng_.Below(static_cast<uint64_t>(i) + 1)]);
    }
    base_text_ = BaseText();
  }

  bool persistent() const override { return true; }

  ConnectionOptions Options() const override {
    ConnectionOptions options;
    options.store_backend = verso::StoreBackend::kPageLog;
    options.checkpoint_wal_bytes = kCheckpointWalBytes;
    return options;
  }

  Status Setup(Client& client) override {
    Connection& conn = client.conn();
    VERSO_RETURN_IF_ERROR(conn.ImportText(base_text_));
    writer_ = conn.OpenSession();
    reader_ = conn.OpenSession();
    subscriber_ = conn.OpenSession();
    VERSO_RETURN_IF_ERROR(
        client.Execute(*writer_, "CREATE VIEW rich AS " + kRichRules)
            .status());
    // The first commit after an import materializes every object's
    // existence fact; pay that once here, not in the measured loop.
    VERSO_RETURN_IF_ERROR(
        client.Execute(*writer_, "setup: ins[bench].phase -> ready.")
            .status());
    subscriber_->Refresh();
    VERSO_RETURN_IF_ERROR(
        subscriber_
            ->Subscribe("rich", [this](const verso::ViewDelta& delta) {
              replica_.Apply(delta, /*keep_facts=*/true);
            })
            .status());
    Result<ResultSet> seed = client.Execute(*subscriber_, "QUERY rich");
    VERSO_RETURN_IF_ERROR(seed.status());
    replica_.Seed(*seed, conn.symbols().FindMethod("rich"));
    return Status::Ok();
  }

  /// Four writes, then one read: every read follows a commit, so every
  /// read pays one re-pin.
  Op Next() override {
    Op op;
    op.a = Key();
    if (ops_++ % 5 != 4) {
      int64_t step = 1 + static_cast<int64_t>(rng_.Below(50));
      bool up = rng_.Below(2) == 0;
      salary_[op.a] += up ? step : -step;
      op.write = true;
      op.text = "t: mod[" + Emp(op.a) + "].sal -> (S, S2) <- " + Emp(op.a) +
                ".sal -> S, S2 = S " + (up ? "+ " : "- ") +
                std::to_string(step) + ".";
    } else {
      op.text = "p: derive " + Emp(op.a) + ".salq -> S <- " + Emp(op.a) +
                ".sal -> S.";
    }
    op.value = salary_[op.a];
    return op;
  }

  std::string Run(const Op& op, Client& client,
                  uint64_t* latency_ns) override {
    uint64_t start = NowNs();
    if (!op.write) client.Refresh(*reader_);
    Result<ResultSet> rs = client.Execute(op.write ? *writer_ : *reader_,
                                          op.text);
    *latency_ns = NowNs() - start;
    if (!rs.ok()) return rs.status().ToString();
    std::string expected = std::to_string(op.value);
    while (rs->Next()) {
      if (rs->added() && rs->object() == Emp(op.a) &&
          rs->result_text() == expected) {
        return "";
      }
    }
    return (op.write ? "commit of " : "read of ") + Emp(op.a) +
           " did not yield sal " + expected;
  }

  std::vector<std::string> CheckEnd(Client& client) override {
    std::vector<std::string> failures = CheckSalaries(client, *reader_);
    client.Refresh(*reader_);
    Result<ResultSet> view = client.Execute(*reader_, "QUERY rich");
    Result<ResultSet> scratch = client.Execute(*reader_, kRichRules);
    if (!view.ok() || !scratch.ok()) {
      failures.push_back("rich view read failed");
      return failures;
    }
    if (RowTexts(*view) != RowTexts(*scratch)) {
      failures.push_back("rich view differs from a from-scratch derive");
    }
    size_t rich = 0;
    for (int64_t s : salary_) rich += s > kRichAbove;
    if (view->size() != rich) {
      failures.push_back("rich view has " + std::to_string(view->size()) +
                         " rows, reference " + std::to_string(rich));
    }
    if (replica_.facts() != RowKeys(*view)) {
      failures.push_back("subscriber replay differs from the rich view");
    }
    return failures;
  }

  std::vector<std::string> CheckReopened(Client& client) override {
    std::unique_ptr<Session> session = client.conn().OpenSession();
    return CheckSalaries(client, *session);
  }

  void Detach() override {
    writer_.reset();
    reader_.reset();
    subscriber_.reset();
  }

 private:
  /// Log-uniform skew: a level in [0, 12], then uniform below 2^level.
  int Key() {
    uint64_t level = rng_.Below(13);
    return hot_[rng_.Below(uint64_t{1} << level)];
  }

  std::string BaseText() {
    std::string text;
    for (int i = 0; i < kEmployees; ++i) {
      std::string e = Emp(i);
      text += e + ".isa -> empl. " + e + ".sal -> " +
              std::to_string(salary_[i]) + ". " + e + ".dept -> d" +
              std::to_string(i % kDepartments) + ". ";
      if (i % kManagerEvery == 0) {
        text += e + ".pos -> mgr. ";
      } else {
        text += e + ".boss -> " + Emp(i - i % kManagerEvery) + ". ";
      }
      for (int k = 0; k < 8; ++k) {
        text += e + ".skill@" + std::to_string(k) + " -> " +
                std::to_string(rng_.Below(10)) + ". ";
      }
      for (int k = 1; k <= 2; ++k) {
        text += e + ".ref -> " + Emp((i + 37 * k) % kEmployees) + ".\n";
      }
    }
    return text;
  }

  std::vector<std::string> CheckSalaries(Client& client, Session& session) {
    session.Refresh();
    Result<ResultSet> rs = client.Execute(session, kAllSalaries);
    if (!rs.ok()) return {"salary read failed: " + rs.status().ToString()};
    size_t matched = 0;
    while (rs->Next()) {
      std::string object = rs->object();
      int i = std::stoi(object.substr(3));
      if (i >= 0 && i < kEmployees &&
          rs->result_text() == std::to_string(salary_[i])) {
        ++matched;
      }
    }
    if (matched != kEmployees || rs->size() != kEmployees) {
      return {"salaries differ from the reference map (" +
              std::to_string(matched) + " of " +
              std::to_string(kEmployees) + " match)"};
    }
    return {};
  }

  verso::Rng rng_;
  uint64_t ops_ = 0;
  std::vector<int64_t> salary_;
  std::string base_text_;
  std::vector<int> hot_;
  std::unique_ptr<Session> writer_;
  std::unique_ptr<Session> reader_;
  std::unique_ptr<Session> subscriber_;
  Replica replica_;
};

}  // namespace

std::unique_ptr<Workload> MakeOltpPoint(uint64_t seed) {
  return std::make_unique<OltpPoint>(seed);
}

}  // namespace e2e
