// Pins the evaluation counters of the semi-naive fixpoint kernel on fixed
// programs: the per-stratum EvalStats of T_P, the QueryStats of
// derived-method evaluation, and the ViewStats of freshly created views.
// Every caller of the kernel is covered, so a change in how any stratum
// is derived, seeded or installed shows up here as a changed count.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.h"
#include "parser/parser.h"
#include "query/query.h"
#include "views/view.h"

namespace verso {
namespace {

// Paper Example 1 (Section 2.3) over the Figure 2 base.
constexpr const char* kEnterpriseProgram = R"(
rule1: mod[E].sal -> (S, S2) <-
    E.isa -> empl / pos -> mgr / sal -> S,
    S2 = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S2) <-
    E.isa -> empl / sal -> S,
    not E.pos -> mgr,
    S2 = S * 1.1.
rule3: del[mod(E)].* <-
    mod(E).isa -> empl / boss -> B / sal -> SE,
    mod(B).isa -> empl / sal -> SB,
    SE > SB.
rule4: ins[mod(E)].isa -> hpe <-
    mod(E).isa -> empl / sal -> S,
    S > 4500,
    not del[mod(E)].isa -> empl.
)";

constexpr const char* kEnterpriseBase = R"(
phil.isa -> empl.  phil.pos -> mgr.   phil.sal -> 4000.
bob.isa -> empl.   bob.boss -> phil.  bob.sal -> 4200.
)";

// A recursive update-program: the closure lands in the ins(X) versions.
constexpr const char* kReachProgram = R"(
r1: ins[X].reach -> Y <- X.next -> Y.
r2: ins[X].reach -> Z <- ins(X).reach -> Y, Y.next -> Z.
)";

constexpr const char* kChainBase = R"(
n1.next -> n2.  n2.next -> n3.  n3.next -> n4.  n4.next -> n5.
n5.next -> n6.  n2.next -> m1.  m1.next -> m2.
)";

constexpr const char* kGraphBase = R"(
a.edge -> b.  b.edge -> c.  c.edge -> d.  d.edge -> e.
x.edge -> y.
)";

constexpr const char* kClosure = R"(
q1: derive X.reaches -> Y <- X.edge -> Y.
q2: derive X.reaches -> Z <- X.reaches -> Y, Y.edge -> Z.
)";

// Two mutually recursive methods in one stratum: each seeds only through
// the other's frontier facts, so the frontier index skips pairs.
constexpr const char* kMutualClosure = R"(
q1: derive X.reaches -> Y <- X.edge -> Y.
q2: derive X.reaches -> Z <- X.hop -> Y, Y.edge -> Z.
q3: derive X.hop -> Y <- X.reaches -> Y.
)";

struct StratumPin {
  uint32_t rounds;
  size_t t1_updates;
  size_t body_matches;
  size_t seed_probes;
  size_t seed_pairs_skipped;
  size_t residual_rule_runs;
  size_t delta_facts;
  size_t index_probes;
};

void ExpectStrata(const EvalStats& stats,
                  const std::vector<StratumPin>& pins) {
  ASSERT_EQ(stats.strata.size(), pins.size());
  for (size_t i = 0; i < pins.size(); ++i) {
    const StratumStats& s = stats.strata[i];
    const StratumPin& p = pins[i];
    EXPECT_EQ(s.rounds, p.rounds) << "stratum " << i;
    EXPECT_EQ(s.t1_updates, p.t1_updates) << "stratum " << i;
    EXPECT_EQ(s.body_matches, p.body_matches) << "stratum " << i;
    EXPECT_EQ(s.seed_probes, p.seed_probes) << "stratum " << i;
    EXPECT_EQ(s.seed_pairs_skipped, p.seed_pairs_skipped) << "stratum " << i;
    EXPECT_EQ(s.residual_rule_runs, p.residual_rule_runs) << "stratum " << i;
    EXPECT_EQ(s.delta_facts, p.delta_facts) << "stratum " << i;
    EXPECT_EQ(s.index_probes, p.index_probes) << "stratum " << i;
  }
}

EvalStats RunProgram(const char* base_text, const char* program_text) {
  Engine engine;
  Result<ObjectBase> base = ParseObjectBase(base_text, engine);
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  Result<Program> program = ParseProgram(program_text, engine);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  Result<RunOutcome> outcome = engine.Run(*program, *base);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return outcome.ok() ? outcome->stats : EvalStats();
}

QueryStats RunQuery(const char* base_text, const char* rules) {
  Engine engine;
  Result<ObjectBase> base = ParseObjectBase(base_text, engine);
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  Result<QueryProgram> program = ParseQueryProgram(rules, engine.symbols());
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  QueryStats stats;
  Result<ObjectBase> out = EvaluateQueries(*program, *base, engine, &stats);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return stats;
}

ViewStats CreateView(const char* base_text, const char* rules) {
  Engine engine;
  Result<ObjectBase> base = ParseObjectBase(base_text, engine);
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  Result<QueryProgram> program = ParseQueryProgram(rules, engine.symbols());
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  Result<std::unique_ptr<MaterializedView>> view = MaterializedView::Create(
      "v", std::move(program).value(), *base, engine.symbols(),
      engine.versions());
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return view.ok() ? (*view)->stats() : ViewStats();
}

TEST(FixpointCountersTest, EnterpriseProgramStrata) {
  EvalStats stats = RunProgram(kEnterpriseBase, kEnterpriseProgram);
  ExpectStrata(stats, {
                          {2, 2, 4, 0, 0, 2, 8, 10},
                          {2, 3, 2, 0, 0, 1, 1, 6},
                          {2, 1, 2, 0, 0, 1, 5, 4},
                      });
  EXPECT_EQ(stats.versions_materialized, 4u);
}

TEST(FixpointCountersTest, InsReachClosureStrata) {
  EvalStats stats = RunProgram(kChainBase, kReachProgram);
  ExpectStrata(stats, {
                          {6, 20, 20, 20, 79, 0, 33, 0},
                      });
  EXPECT_EQ(stats.versions_materialized, 6u);
}

void ExpectQuery(const QueryStats& s, uint32_t rounds, size_t derived_facts,
                 size_t delta_joins, size_t seed_pairs_skipped) {
  EXPECT_EQ(s.rounds, rounds);
  EXPECT_EQ(s.derived_facts, derived_facts);
  EXPECT_EQ(s.delta_joins, delta_joins);
  EXPECT_EQ(s.seed_pairs_skipped, seed_pairs_skipped);
}

TEST(FixpointCountersTest, DerivedReachesClosure) {
  ExpectQuery(RunQuery(kGraphBase, kClosure), 5, 11, 11, 0);
}

TEST(FixpointCountersTest, DerivedMutualClosureSkipsPairs) {
  ExpectQuery(RunQuery(kGraphBase, kMutualClosure), 9, 22, 22, 22);
}

void ExpectView(const ViewStats& s, uint64_t seed_probes,
                uint64_t support_increments, uint64_t index_probes,
                uint64_t index_hits, uint64_t indexed_scan_avoided_facts) {
  EXPECT_EQ(s.full_evaluations, 1u);
  EXPECT_EQ(s.maintenance_runs, 0u);
  EXPECT_EQ(s.delta_facts_seen, 0u);
  EXPECT_EQ(s.facts_added, 0u);
  EXPECT_EQ(s.facts_removed, 0u);
  EXPECT_EQ(s.support_decrements, 0u);
  EXPECT_EQ(s.overdeleted, 0u);
  EXPECT_EQ(s.rederived, 0u);
  EXPECT_EQ(s.rederive_probes, 0u);
  EXPECT_EQ(s.seed_probes, seed_probes);
  EXPECT_EQ(s.support_increments, support_increments);
  EXPECT_EQ(s.index_probes, index_probes);
  EXPECT_EQ(s.index_hits, index_hits);
  EXPECT_EQ(s.indexed_scan_avoided_facts, indexed_scan_avoided_facts);
}

TEST(FixpointCountersTest, FreshCountingView) {
  ExpectView(CreateView(kEnterpriseBase,
                        "q1: derive X.rich -> yes <- X.isa -> empl, "
                        "X.sal -> S, S > 4100."
                        "q2: derive X.rich -> yes <- X.pos -> mgr."),
             0, 2, 3, 3, 0);
}

TEST(FixpointCountersTest, FreshDRedView) {
  ExpectView(CreateView(kGraphBase, kMutualClosure), 22, 0, 0, 0, 0);
}

}  // namespace
}  // namespace verso
