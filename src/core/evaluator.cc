#include "core/evaluator.h"

#include "core/fixpoint.h"

namespace verso {

Status Evaluator::NoteMaterialized(
    Vid vid, std::unordered_map<Oid, Vid>& deepest) const {
  Oid root = versions_.root(vid);
  auto it = deepest.find(root);
  if (it == deepest.end()) {
    deepest.emplace(root, vid);
    return Status::Ok();
  }
  if (versions_.IsSubterm(it->second, vid)) {
    it->second = vid;
    return Status::Ok();
  }
  if (versions_.IsSubterm(vid, it->second)) return Status::Ok();
  return Status::NotVersionLinear(
      "object '" + symbols_.OidToString(root) + "' has incomparable versions " +
      versions_.ToString(it->second, symbols_) + " and " +
      versions_.ToString(vid, symbols_) +
      " (neither is a subterm of the other; Section 5 requires a linear "
      "version order)");
}

/// Body matches merge into the stratum's cumulative T¹; each round
/// boundary installs the fresh updates (ApplyRound), checks the linearity
/// of the versions they materialize, and folds the round's counters.
struct Evaluator::StratumSink {
  StratumSink(const Evaluator& evaluator, TpOperator& tp, uint32_t stratum,
              ObjectBase& base, EvalStats& stats,
              std::unordered_map<Oid, Vid>& deepest)
      : evaluator(evaluator),
        tp(tp),
        stratum(stratum),
        base(base),
        stats(stats),
        deepest(deepest) {}

  const Evaluator& evaluator;
  TpOperator& tp;
  uint32_t stratum;
  ObjectBase& base;
  EvalStats& stats;
  std::unordered_map<Oid, Vid>& deepest;
  TpStratumState state;
  TpRoundStats round_stats;

  Status operator()(const Rule& rule, const Bindings& bindings) {
    return tp.DeriveFromBindings(rule, bindings, base, state, round_stats,
                                 evaluator.trace_);
  }

  void BeginRound(uint32_t round) {
    if (evaluator.trace_ != nullptr) {
      evaluator.trace_->OnRoundBegin(stratum, round);
    }
    round_stats = TpRoundStats();
  }

  Status EndRound(uint32_t round, const DeltaLog& frontier,
                  const DeriveStats& derive, DeltaLog& next) {
    TraceSink* trace = evaluator.trace_;
    VERSO_ASSIGN_OR_RETURN(
        TpApplyResult applied,
        tp.ApplyRound(state, base, next, round_stats, trace));
    for (Vid vid : applied.materialized) {
      ++stats.versions_materialized;
      if (evaluator.options_.check_version_linearity) {
        VERSO_RETURN_IF_ERROR(evaluator.NoteMaterialized(vid, deepest));
      }
    }

    StratumStats& sstats = stats.strata[stratum];
    sstats.rounds = round + 1;
    sstats.t1_updates += round_stats.fresh_updates;
    sstats.states_replaced += round_stats.states_changed;
    sstats.copied_facts += round_stats.copied_facts;
    sstats.body_matches += round_stats.body_matches;
    sstats.delta_facts += next.size();
    sstats.seed_probes += derive.seed_probes;
    sstats.seed_pairs_skipped += derive.seed_pairs_skipped;
    sstats.residual_rule_runs += derive.residual_rules;
    // Every consumed round notifies, in naive mode too (naive rounds
    // report 0 seed probes and 0 residual runs), so sinks — the metrics
    // bridge in particular — hear the same per-commit event stream
    // regardless of evaluation mode or of whether the commit arrived
    // through Execute or as an ExecuteBatch member.
    if (trace != nullptr && round > 0) {
      trace->OnDeltaRound(stratum, round, frontier.size(),
                          derive.seed_probes, derive.residual_rules);
    }
    return Status::Ok();
  }
};

Result<EvalStats> Evaluator::Run(const Program& program,
                                 const Stratification& stratification,
                                 ObjectBase& base) {
  EvalStats stats;
  stats.strata.resize(stratification.stratum_count());

  std::unordered_map<Oid, Vid> deepest;
  if (options_.check_version_linearity) {
    for (const auto& [vid, state] : base.versions()) {
      VERSO_RETURN_IF_ERROR(NoteMaterialized(vid, deepest));
    }
  }

  TpOperator tp(symbols_, versions_);
  for (uint32_t stratum = 0; stratum < stratification.stratum_count();
       ++stratum) {
    const std::vector<uint32_t>& rules = stratification.strata[stratum];
    if (trace_ != nullptr) trace_->OnStratumBegin(stratum, rules.size());
    IndexStats istats;
    MatchContext ctx{symbols_, versions_, base, &istats};
    StratumSink sink(*this, tp, stratum, base, stats, deepest);
    VERSO_RETURN_IF_ERROR(RunFixpoint(program.rules, rules, ctx, stratum,
                                      options_.max_rounds_per_stratum,
                                      options_.semi_naive, sink));
    StratumStats& sstats = stats.strata[stratum];
    sstats.index_probes = istats.index_probes;
    sstats.index_hits = istats.index_hits;
    sstats.indexed_scan_avoided_facts = istats.indexed_scan_avoided_facts;
    if (trace_ != nullptr) {
      // Unconditional (zero probes included): whether a sink hears the
      // index summary must not depend on the commit's shape — a batch of
      // probe-free members would otherwise be invisible to sinks that
      // account per-commit index behavior.
      trace_->OnIndexUse(stratum, sstats.index_probes, sstats.index_hits,
                         sstats.indexed_scan_avoided_facts);
      trace_->OnStratumFixpoint(stratum, sstats.rounds);
    }
  }
  return stats;
}

}  // namespace verso
