#ifndef VERSO_CORE_FIXPOINT_H_
#define VERSO_CORE_FIXPOINT_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "core/delta.h"
#include "core/match.h"
#include "core/rule.h"
#include "util/result.h"

namespace verso {

/// The one semi-naive fixpoint kernel behind every use of rules: T_P
/// strata (Evaluator, Sections 3-4), derived-method strata
/// (EvaluateQueries, Section 6) and the initial materialization of views.
/// Callers differ only in the head sink that receives each satisfying
/// body binding: T¹ merge (TpOperator::DeriveFromBindings), fact insert
/// (FactInsertSink), or support count (counting views).

/// Counters of one derivation pass.
struct DeriveStats {
  size_t seed_probes = 0;         // delta-seeded partial matches launched
  size_t seed_pairs_skipped = 0;  // (seed literal, added fact) pairs the
                                  // frontier's (method, shape) index pruned
  size_t residual_rules = 0;      // rules re-matched in full from a frontier
};

/// One derivation pass over the rules `rule_indices` of `rules`, calling
/// `sink(rule, bindings)` once per satisfying body binding.
///
/// Without a frontier every rule is matched in full. With one, a fully
/// seedable rule is driven from the frontier's added facts: each fact
/// unifies with a seed literal (found through the frontier's (method,
/// shape) index) and the rest of the body is matched around it. A rule
/// that is not fully seedable is re-matched in full, but only when the
/// frontier touches one of its relevant methods. The plan comes from the
/// rule itself (seed_literals, fully_seedable, relevant_methods).
template <typename Sink>
Status Derive(const std::vector<Rule>& rules,
              const std::vector<uint32_t>& rule_indices, MatchContext& ctx,
              const DeltaLog* frontier, DeriveStats& stats, Sink&& sink) {
  if (frontier == nullptr) {
    for (uint32_t r : rule_indices) {
      const Rule& rule = rules[r];
      VERSO_RETURN_IF_ERROR(ForEachBodyMatch(
          rule, ctx,
          [&](const Bindings& bindings) { return sink(rule, bindings); }));
    }
    return Status::Ok();
  }

  DeltaIndex index;
  index.Build(*frontier, ctx.versions);
  std::unordered_set<uint32_t> touched;  // filled for the first residual rule
  Bindings seed;
  for (uint32_t r : rule_indices) {
    const Rule& rule = rules[r];
    auto rule_sink = [&](const Bindings& bindings) {
      return sink(rule, bindings);
    };
    if (!rule.fully_seedable) {
      if (touched.empty()) {
        for (const DeltaFact& fact : *frontier) {
          touched.insert(fact.method.value);
        }
      }
      bool relevant = rule.rerun_on_any_delta;
      for (size_t i = 0; !relevant && i < rule.relevant_methods.size(); ++i) {
        relevant = touched.count(rule.relevant_methods[i].value) != 0;
      }
      if (!relevant) continue;
      ++stats.residual_rules;
      VERSO_RETURN_IF_ERROR(ForEachBodyMatch(rule, ctx, rule_sink));
      continue;
    }
    // One matcher per rule, re-seeded per probe: its bindings and
    // per-depth trails are allocated once, not once per seed.
    match_internal::Matcher<decltype(rule_sink)> matcher(rule, ctx,
                                                         rule_sink);
    for (uint32_t li : rule.seed_literals) {
      MethodId method;
      VidShape shape;
      if (!SeedKeyForLiteral(rule, li, ctx.versions, &method, &shape)) {
        continue;
      }
      const std::vector<const DeltaFact*>* bucket = index.Added(method, shape);
      const size_t hits = bucket == nullptr ? 0 : bucket->size();
      stats.seed_pairs_skipped += index.added_count() - hits;
      if (bucket == nullptr) continue;
      for (const DeltaFact* fact : *bucket) {
        if (!UnifyLiteralPattern(rule, li, *fact, ctx.versions, seed)) {
          continue;
        }
        ++stats.seed_probes;
        VERSO_RETURN_IF_ERROR(matcher.RunFrom(seed, static_cast<int>(li)));
      }
    }
  }
  return Status::Ok();
}

/// Drives the stratum `rule_indices` to its least fixpoint. Each round
/// checks the divergence bound, calls `sink.BeginRound(round)`, derives
/// (in full in round 0 and in naive mode, otherwise from the previous
/// round's frontier), then calls `sink.EndRound(round, frontier, stats,
/// next)`, which installs what the round derived and appends the
/// installed fact-level changes to `next`. Rounds are frozen: derivation
/// reads only the state the round began with, because the matcher holds
/// pointers into the base's fact vectors. A round that installs nothing
/// ends the fixpoint; `stratum` only labels the divergence error.
template <typename Sink>
Status RunFixpoint(const std::vector<Rule>& rules,
                   const std::vector<uint32_t>& rule_indices,
                   MatchContext& ctx, uint32_t stratum, uint32_t max_rounds,
                   bool semi_naive, Sink& sink) {
  DeltaLog frontier;
  DeltaLog next;
  for (uint32_t round = 0;; ++round) {
    if (round >= max_rounds) {
      return Status::Divergence(
          "stratum " + std::to_string(stratum) + " did not reach a "
          "fixpoint within " + std::to_string(max_rounds) + " rounds");
    }
    sink.BeginRound(round);
    DeriveStats stats;
    VERSO_RETURN_IF_ERROR(
        Derive(rules, rule_indices, ctx,
               round > 0 && semi_naive ? &frontier : nullptr, stats, sink));
    next.clear();
    VERSO_RETURN_IF_ERROR(sink.EndRound(round, frontier, stats, next));
    if (next.empty()) return Status::Ok();
    frontier.swap(next);
  }
}

}  // namespace verso

#endif  // VERSO_CORE_FIXPOINT_H_
