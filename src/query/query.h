#ifndef VERSO_QUERY_QUERY_H_
#define VERSO_QUERY_QUERY_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/fixpoint.h"
#include "core/object_base.h"
#include "core/program.h"
#include "util/result.h"

namespace verso {

/// Derived methods — the "derived objects" extension of Section 6.
///
/// A derived-method program is a set of rules
///
///     derive V.m@A.. -> R <- body.
///
/// whose heads are version-terms (no update is performed; the method
/// result is *defined*). Derived methods behave like stratified Datalog
/// IDB predicates over the object base: bodies may read stored and
/// derived methods, negate lower-stratum methods, and use built-ins.
/// Derived methods can be queried but never updated — update-programs may
/// only write base methods, exactly as the paper prescribes.
///
/// Internally a rule is carried as a core Rule whose head is the
/// ins-update of the head version-term; evaluation inserts facts directly
/// into the queried version instead of creating an ins(...) version.
struct QueryProgram {
  std::vector<Rule> rules;

  /// Methods defined by rule heads (the IDB).
  std::vector<MethodId> derived_methods;
};

/// Parses derived-method rules. Syntax mirrors update-programs but each
/// clause head is `derive <version-term-literal>`:
///
///     derive X.reaches -> Y <- X.edge -> Y.
///     derive X.reaches -> Z <- X.reaches -> Y, Y.edge -> Z.
Result<QueryProgram> ParseQueryProgram(std::string_view source,
                                       SymbolTable& symbols);

/// One stratum of a derived-method program: a strongly connected component
/// of the method dependency graph (methods in the role of predicates),
/// emitted in bottom-up dependency order.
struct QueryStratum {
  /// Indices into QueryProgram::rules, in program order.
  std::vector<uint32_t> rules;
  /// Derived methods defined by this stratum's rule heads (sorted).
  std::vector<MethodId> methods;
  /// True iff some rule body reads a method of this same stratum — the
  /// stratum needs fixpoint iteration (and, in the views subsystem,
  /// delete-and-rederive instead of counting maintenance).
  bool recursive = false;
};

/// SCC-condensation stratification of a derived-method program, the
/// dependency information incremental view maintenance is planned from.
struct QueryStratification {
  std::vector<QueryStratum> strata;
  /// Derived method -> index into `strata` of its defining stratum.
  std::unordered_map<uint32_t, uint32_t> stratum_of_method;
};

/// Runs AnalyzeRule over every rule and computes the SCC-based
/// stratification. Fails (kNotStratifiable) when a negation occurs inside
/// a strongly connected component — recursion through negation. Each
/// rule's seeding plan is then narrowed for the fixpoint kernel: within a
/// stratum only the stratum's own derived facts change between rounds, so
/// the rule seeds through its positive body literals over those methods
/// and is fully seedable.
Result<QueryStratification> AnalyzeQueryProgram(QueryProgram& program,
                                                const SymbolTable& symbols);

struct QueryStats {
  uint32_t strata = 0;
  uint32_t rounds = 0;          // total fixpoint rounds across strata
  size_t derived_facts = 0;     // facts added by rules
  size_t delta_joins = 0;       // semi-naive delta-seeded join probes
  size_t seed_pairs_skipped = 0;  // pairs pruned by the frontier index

  // Result-index counters (bound-result literals answered through
  // ForEachAppWithResult instead of a full per-method scan).
  size_t index_probes = 0;
  size_t index_hits = 0;
  size_t indexed_scan_avoided_facts = 0;
};

struct QueryOptions {
  /// Use semi-naive (delta-driven) evaluation for recursive strata.
  /// Naive re-derivation (same frozen rounds, every rule matched in full)
  /// is kept as the differential oracle and for the ablation benchmark.
  bool semi_naive = true;
  uint32_t max_rounds_per_stratum = 1u << 20;
};

/// Resolves a rule's head under a complete body binding to the ground
/// view fact it derives (`added` always true). The single head-resolution
/// path shared by FactInsertSink and the views maintainer's sinks.
Result<DeltaFact> ResolveHeadFact(const Rule& rule, const Bindings& bindings,
                                  VersionTable& versions);

/// The fact-insert head sink of the fixpoint kernel (core/fixpoint.h) for
/// a derived-method stratum: each body match's head fact is buffered —
/// the matcher holds pointers into the base's fact vectors — and installed
/// into `working` at the round boundary. Counters accumulate into `stats`
/// (rounds, derived_facts, delta_joins, seed_pairs_skipped). Used by
/// EvaluateQueries and by the views subsystem's initial materialization.
struct FactInsertSink {
  FactInsertSink(VersionTable& versions, ObjectBase& working,
                 QueryStats& stats)
      : versions(versions), working(working), stats(stats) {}

  VersionTable& versions;
  ObjectBase& working;
  QueryStats& stats;
  std::vector<DeltaFact> pending;

  Status operator()(const Rule& rule, const Bindings& bindings) {
    VERSO_ASSIGN_OR_RETURN(DeltaFact head,
                           ResolveHeadFact(rule, bindings, versions));
    pending.push_back(std::move(head));
    return Status::Ok();
  }

  void BeginRound(uint32_t) {}

  /// Installs the buffered facts; the ones not yet present go to
  /// `installed`.
  Status EndRound(uint32_t round, const DeltaLog& frontier,
                  const DeriveStats& derive, DeltaLog& installed);
};

/// Evaluates the derived methods over `base`, returning a new object base
/// containing `base` plus all derived facts. Fails if a derived method
/// already occurs in `base` (derived and stored definitions must not mix)
/// or if the rules are not stratifiable w.r.t. negation.
Result<ObjectBase> EvaluateQueries(QueryProgram& program,
                                   const ObjectBase& base,
                                   SymbolTable& symbols,
                                   VersionTable& versions,
                                   QueryStats* stats = nullptr,
                                   const QueryOptions& options = QueryOptions());

/// Engine-bound convenience.
Result<ObjectBase> EvaluateQueries(QueryProgram& program,
                                   const ObjectBase& base, Engine& engine,
                                   QueryStats* stats = nullptr,
                                   const QueryOptions& options = QueryOptions());

}  // namespace verso

#endif  // VERSO_QUERY_QUERY_H_
