// Derived-method query layer (Section 6 extension): stratified Datalog
// over version-terms with semi-naive evaluation.

#include "query/query.h"

#include <gtest/gtest.h>

#include "core/pretty.h"
#include "parser/parser.h"

namespace verso {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  ObjectBase Base(const char* text) {
    Result<ObjectBase> base = ParseObjectBase(text, engine_);
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    return std::move(base).value();
  }

  ObjectBase Eval(const char* base_text, const char* rules,
                  QueryOptions options = QueryOptions()) {
    ObjectBase base = Base(base_text);
    Result<QueryProgram> program =
        ParseQueryProgram(rules, engine_.symbols());
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    Result<ObjectBase> out =
        EvaluateQueries(*program, base, engine_, &stats_, options);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::move(out).value();
  }

  bool Holds(const ObjectBase& base, const char* object, const char* method,
             const char* result) {
    Vid vid = engine_.versions().OfOid(engine_.symbols().Symbol(object));
    GroundApp app;
    app.result = engine_.symbols().Symbol(result);
    return base.Contains(vid, engine_.symbols().Method(method), app);
  }

  Engine engine_;
  QueryStats stats_;
};

constexpr const char* kGraph = R"(
    a.edge -> b.  b.edge -> c.  c.edge -> d.  d.edge -> e.
    x.edge -> y.
)";

constexpr const char* kClosure = R"(
    q1: derive X.reaches -> Y <- X.edge -> Y.
    q2: derive X.reaches -> Z <- X.reaches -> Y, Y.edge -> Z.
)";

TEST_F(QueryTest, TransitiveClosure) {
  ObjectBase out = Eval(kGraph, kClosure);
  for (const char* to : {"b", "c", "d", "e"}) {
    EXPECT_TRUE(Holds(out, "a", "reaches", to)) << to;
  }
  EXPECT_TRUE(Holds(out, "x", "reaches", "y"));
  EXPECT_FALSE(Holds(out, "x", "reaches", "a"));
  EXPECT_FALSE(Holds(out, "a", "reaches", "a"));
  EXPECT_EQ(stats_.derived_facts, 4u + 3u + 2u + 1u + 1u);
}

TEST_F(QueryTest, SemiNaiveMatchesNaive) {
  QueryOptions naive;
  naive.semi_naive = false;
  ObjectBase semi = Eval(kGraph, kClosure);
  QueryStats semi_stats = stats_;
  ObjectBase full = Eval(kGraph, kClosure, naive);
  EXPECT_TRUE(semi == full);
  EXPECT_GT(semi_stats.delta_joins, 0u);
  // Both modes install at round boundaries, so they take the same rounds.
  EXPECT_EQ(semi_stats.rounds, stats_.rounds);
  EXPECT_EQ(semi_stats.derived_facts, stats_.derived_facts);
  EXPECT_EQ(stats_.delta_joins, 0u);
}

TEST_F(QueryTest, RoundBoundIsDivergenceInBothModes) {
  for (bool semi_naive : {true, false}) {
    ObjectBase base = Base(kGraph);
    Result<QueryProgram> program =
        ParseQueryProgram(kClosure, engine_.symbols());
    ASSERT_TRUE(program.ok());
    QueryOptions options;
    options.semi_naive = semi_naive;
    options.max_rounds_per_stratum = 2;
    Result<ObjectBase> out =
        EvaluateQueries(*program, base, engine_, nullptr, options);
    ASSERT_FALSE(out.ok()) << "semi_naive=" << semi_naive;
    EXPECT_EQ(out.status().code(), StatusCode::kDivergence)
        << "semi_naive=" << semi_naive;
  }
}

TEST_F(QueryTest, StratifiedNegation) {
  ObjectBase out = Eval(
      "a.edge -> b.  b.edge -> c.  s.node -> a. s.node -> b. s.node -> c.",
      R"(
        q1: derive X.reaches -> Y <- X.edge -> Y.
        q2: derive X.reaches -> Z <- X.reaches -> Y, Y.edge -> Z.
        q3: derive X.sink -> yes <- S.node -> X, not X.reaches -> X,
                                    not X.edge -> X.
      )");
  // Everything is a "sink" here (no cycles); the point is that negation
  // of the recursive method evaluates after its stratum completed.
  EXPECT_TRUE(Holds(out, "c", "sink", "yes"));
  EXPECT_GE(stats_.strata, 2u);
}

TEST_F(QueryTest, NegativeRecursionRejected) {
  ObjectBase base = Base("a.edge -> b.");
  Result<QueryProgram> program = ParseQueryProgram(
      "q: derive X.weird -> yes <- X.edge -> Y, not X.weird -> yes.",
      engine_.symbols());
  ASSERT_TRUE(program.ok());
  Result<ObjectBase> out = EvaluateQueries(*program, base, engine_);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotStratifiable);
}

TEST_F(QueryTest, DerivedMethodMayNotBeStored) {
  ObjectBase base = Base("a.reaches -> b.");
  Result<QueryProgram> program = ParseQueryProgram(
      "q: derive X.reaches -> Y <- X.edge -> Y.", engine_.symbols());
  ASSERT_TRUE(program.ok());
  Result<ObjectBase> out = EvaluateQueries(*program, base, engine_);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryTest, BuiltinsInQueries) {
  ObjectBase out = Eval(
      "a.sal -> 100.  b.sal -> 4000.  c.sal -> 5000.",
      "q: derive X.rich -> yes <- X.sal -> S, S > 3000.");
  EXPECT_FALSE(Holds(out, "a", "rich", "yes"));
  EXPECT_TRUE(Holds(out, "b", "rich", "yes"));
  EXPECT_TRUE(Holds(out, "c", "rich", "yes"));
}

TEST_F(QueryTest, DerivedMethodsOverVersionedFacts) {
  // Queries can read versioned stages of result(P): which objects had
  // their salary hypothetically raised?
  ObjectBase out = Eval(
      "a.sal -> 100.  mod(a).sal -> 110.  b.sal -> 50.",
      "q: derive X.was_raised -> yes <- X.sal -> S, mod(X).sal -> S2, "
      "S2 > S.");
  EXPECT_TRUE(Holds(out, "a", "was_raised", "yes"));
  EXPECT_FALSE(Holds(out, "b", "was_raised", "yes"));
}

TEST_F(QueryTest, QueryDoesNotMutateInput) {
  ObjectBase base = Base(kGraph);
  size_t facts = base.fact_count();
  Result<QueryProgram> program =
      ParseQueryProgram(kClosure, engine_.symbols());
  ASSERT_TRUE(program.ok());
  Result<ObjectBase> out = EvaluateQueries(*program, base, engine_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(base.fact_count(), facts);
  EXPECT_GT(out->fact_count(), facts);
}

// Long chain: semi-naive must not blow up rounds (one per depth).
TEST_F(QueryTest, LongChainRounds) {
  std::string base_text;
  for (int i = 0; i < 40; ++i) {
    base_text += "n" + std::to_string(i) + ".edge -> n" +
                 std::to_string(i + 1) + ".\n";
  }
  ObjectBase out = Eval(base_text.c_str(), kClosure);
  EXPECT_TRUE(Holds(out, "n0", "reaches", "n40"));
  EXPECT_EQ(stats_.derived_facts, 40u * 41u / 2u);
}

}  // namespace
}  // namespace verso
