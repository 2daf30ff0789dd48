// batch_rules: the paper's Example 1 enterprise program (4 rules, 3
// strata: mod, del and ins with negation), prepared once and run over the
// whole base per transaction, with one whole-base ad-hoc read of the hpe
// set after each commit. T_P match/derive/apply and large WAL records
// dominate; the program is parsed once and the views layer is idle.

#include <set>
#include <string>
#include <vector>

#include "bench.h"

namespace e2e {
namespace {

constexpr int kEmployees = 2048;
constexpr int kManagerEvery = 8;
constexpr int64_t kManagerRaise = 10;
constexpr int64_t kWorkerRaise = 12;
constexpr int64_t kHpeAbove = 4500;
/// One commit in this many has its whole committed delta checked.
constexpr uint64_t kDeltaCheckEvery = 8;

// Example 1 with integer raise steps, so repeated runs keep numbers a
// constant size. Workers gain 2 per commit on their manager, so rule 3
// deletes a trickle of them as their salaries overtake the boss's.
const std::string kProgram =
    "rule1: mod[E].sal -> (S, S2) <- E.isa -> empl / pos -> mgr / sal -> S,"
    " S2 = S + " + std::to_string(kManagerRaise) + ".\n"
    "rule2: mod[E].sal -> (S, S2) <- E.isa -> empl / sal -> S,"
    " not E.pos -> mgr, S2 = S + " + std::to_string(kWorkerRaise) + ".\n"
    "rule3: del[mod(E)].* <- mod(E).isa -> empl / boss -> B / sal -> SE,"
    " mod(B).isa -> empl / sal -> SB, SE > SB.\n"
    "rule4: ins[mod(E)].isa -> hpe <- mod(E).isa -> empl / sal -> S,"
    " S > " + std::to_string(kHpeAbove) + ", not del[mod(E)].isa -> empl.\n";
constexpr const char* kHpeRead = "h: derive X.hpeq -> yes <- X.isa -> hpe.";
constexpr const char* kStateRead =
    "s: derive X.salq -> S <- X.isa -> empl, X.sal -> S.";

std::string Emp(int i) { return "emp" + std::to_string(i); }

struct Employee {
  int64_t salary = 0;
  int boss = -1;  // -1 for managers
  bool alive = true;
  bool hpe = false;
};

class BatchRules : public Workload {
 public:
  explicit BatchRules(uint64_t seed) : rng_(seed ^ 0x62617463ULL) {
    staff_.resize(kEmployees);
    const uint64_t managers = kEmployees / kManagerEvery;
    for (int i = 0; i < kEmployees; i += kManagerEvery) {
      staff_[i].salary = 5000 + static_cast<int64_t>(rng_.Below(4001));
    }
    // Every worker starts below its boss.
    for (int i = 0; i < kEmployees; ++i) {
      if (i % kManagerEvery == 0) continue;
      Employee& e = staff_[i];
      e.boss = static_cast<int>(rng_.Below(managers)) * kManagerEvery;
      uint64_t below_boss =
          static_cast<uint64_t>(staff_[e.boss].salary - 1000);
      e.salary = 1000 + static_cast<int64_t>(rng_.Below(below_boss));
    }
    for (int i = 0; i < kEmployees; ++i) {
      std::string name = Emp(i);
      base_text_ += name + ".isa -> empl. " + name + ".sal -> " +
                    std::to_string(staff_[i].salary) + ". ";
      base_text_ += staff_[i].boss < 0
                        ? name + ".pos -> mgr.\n"
                        : name + ".boss -> " + Emp(staff_[i].boss) + ".\n";
    }
  }

  bool persistent() const override { return true; }

  Status Setup(Client& client) override {
    Connection& conn = client.conn();
    VERSO_RETURN_IF_ERROR(conn.ImportText(base_text_));
    writer_ = conn.OpenSession();
    // The first commit after an import materializes every object's
    // existence fact; pay that once here, not in the measured loop.
    VERSO_RETURN_IF_ERROR(
        client.Execute(*writer_, "setup: ins[bench].phase -> ready.")
            .status());
    Result<Statement> program = writer_->Prepare(kProgram);
    VERSO_RETURN_IF_ERROR(program.status());
    program_ = std::make_unique<Statement>(std::move(*program));
    return Status::Ok();
  }

  /// Ops alternate: one run of the program, then one hpe read.
  Op Next() override {
    Op op;
    op.write = (ops_++ % 2) == 0;
    if (!op.write) {
      op.text = kHpeRead;
      return op;
    }
    op.a = rng_.Below(kDeltaCheckEvery) == 0;  // check the whole delta
    ApplyRules();
    return op;
  }

  std::string Run(const Op& op, Client& client,
                  uint64_t* latency_ns) override {
    uint64_t start = NowNs();
    Result<ResultSet> rs = op.write ? client.Execute(*program_)
                                    : client.Execute(*writer_, op.text);
    *latency_ns = NowNs() - start;
    if (!rs.ok()) return rs.status().ToString();
    if (!op.write) return CheckHpe(*rs);
    if (rs->empty()) return "commit changed nothing";
    return op.a ? CheckDelta(*rs) : "";
  }

  std::vector<std::string> CheckEnd(Client& client) override {
    return CheckState(client);
  }

  std::vector<std::string> CheckReopened(Client& client) override {
    writer_ = client.conn().OpenSession();
    std::vector<std::string> failures = CheckState(client);
    writer_.reset();
    return failures;
  }

  void Detach() override {
    program_.reset();
    writer_.reset();
  }

 private:
  /// The reference model of one transaction: raise everyone (rules 1-2),
  /// delete workers now above their boss (rule 3), mark the survivors
  /// above the hpe line (rule 4).
  void ApplyRules() {
    for (Employee& e : staff_) {
      if (e.alive) e.salary += e.boss < 0 ? kManagerRaise : kWorkerRaise;
    }
    std::vector<int> doomed;
    for (int i = 0; i < kEmployees; ++i) {
      const Employee& e = staff_[i];
      if (e.alive && e.boss >= 0 && staff_[e.boss].alive &&
          e.salary > staff_[e.boss].salary) {
        doomed.push_back(i);
      }
    }
    for (int i : doomed) staff_[i].alive = false;
    doomed_ = std::set<int>(doomed.begin(), doomed.end());
    promoted_.clear();
    for (int i = 0; i < kEmployees; ++i) {
      Employee& e = staff_[i];
      if (e.alive && !e.hpe && e.salary > kHpeAbove) {
        e.hpe = true;
        promoted_.insert(i);
      }
    }
  }

  /// A commit's delta must add exactly the survivors' new salaries and
  /// the new hpe marks, and retract `isa -> empl` of exactly the deleted.
  std::string CheckDelta(ResultSet& rs) {
    size_t salaries = 0;
    std::set<int> removed;
    std::set<int> promoted;
    while (rs.Next()) {
      std::string method = rs.method();
      int i = std::stoi(rs.object().substr(3));
      if (i < 0 || i >= kEmployees) continue;
      if (method == "sal" && rs.added()) {
        salaries += staff_[i].alive &&
                    rs.result_text() == std::to_string(staff_[i].salary);
      } else if (method == "isa" && rs.result_text() == "empl" &&
                 !rs.added()) {
        removed.insert(i);
      } else if (method == "isa" && rs.result_text() == "hpe" &&
                 rs.added()) {
        promoted.insert(i);
      }
    }
    size_t alive = 0;
    for (const Employee& e : staff_) alive += e.alive;
    if (salaries != alive || removed != doomed_ || promoted != promoted_) {
      return "committed delta differs from the four-rule reference";
    }
    return "";
  }

  std::string CheckHpe(ResultSet& rs) {
    size_t expected = 0;
    for (const Employee& e : staff_) expected += e.alive && e.hpe;
    size_t matched = 0;
    while (rs.Next()) {
      int i = std::stoi(rs.object().substr(3));
      matched += i >= 0 && i < kEmployees && staff_[i].alive && staff_[i].hpe;
    }
    if (matched != expected || rs.size() != expected) {
      return "hpe read has " + std::to_string(rs.size()) +
             " rows, reference " + std::to_string(expected);
    }
    return "";
  }

  std::vector<std::string> CheckState(Client& client) {
    Result<ResultSet> rs = client.Execute(*writer_, kStateRead);
    if (!rs.ok()) return {"state read failed: " + rs.status().ToString()};
    size_t expected = 0;
    for (const Employee& e : staff_) expected += e.alive;
    size_t matched = 0;
    while (rs->Next()) {
      int i = std::stoi(rs->object().substr(3));
      matched += i >= 0 && i < kEmployees && staff_[i].alive &&
                 rs->result_text() == std::to_string(staff_[i].salary);
    }
    if (matched != expected || rs->size() != expected) {
      return {"state after commit differs from the four-rule reference (" +
              std::to_string(matched) + " of " + std::to_string(expected) +
              " employees match)"};
    }
    return {};
  }

  verso::Rng rng_;
  std::vector<Employee> staff_;
  std::set<int> doomed_;    // deleted by the last transaction
  std::set<int> promoted_;  // marked hpe by the last transaction
  std::string base_text_;
  uint64_t ops_ = 0;
  std::unique_ptr<Session> writer_;
  std::unique_ptr<Statement> program_;
};

}  // namespace

std::unique_ptr<Workload> MakeBatchRules(uint64_t seed) {
  return std::make_unique<BatchRules>(seed);
}

}  // namespace e2e
