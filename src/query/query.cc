#include "query/query.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "parser/parser.h"

namespace verso {

namespace {

/// Tarjan's SCC algorithm (iterative) over the derived-method dependency
/// graph: node = derived method, edge head -> body-method for every body
/// literal reading a derived method. Tarjan completes a component only
/// after everything it depends on, so components pop in exactly the
/// bottom-up stratum order the evaluator and the view maintainer need.
class MethodSccFinder {
 public:
  explicit MethodSccFinder(size_t node_count)
      : adjacency_(node_count), state_(node_count) {}

  void AddEdge(uint32_t from, uint32_t to) { adjacency_[from].push_back(to); }

  /// Components in reverse-topological (bottom-up dependency) order.
  std::vector<std::vector<uint32_t>> Run() {
    for (uint32_t n = 0; n < state_.size(); ++n) {
      if (state_[n].index == kUnvisited) Visit(n);
    }
    return std::move(components_);
  }

  /// After Run(): the component index of a node.
  uint32_t ComponentOf(uint32_t node) const { return state_[node].component; }

 private:
  static constexpr uint32_t kUnvisited = UINT32_MAX;

  struct NodeState {
    uint32_t index = kUnvisited;
    uint32_t lowlink = 0;
    uint32_t component = kUnvisited;
    bool on_stack = false;
  };

  void Visit(uint32_t root) {
    struct Frame {
      uint32_t node;
      size_t next_edge = 0;
    };
    std::vector<Frame> frames{{root}};
    Push(root);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      NodeState& node = state_[frame.node];
      if (frame.next_edge < adjacency_[frame.node].size()) {
        uint32_t next = adjacency_[frame.node][frame.next_edge++];
        if (state_[next].index == kUnvisited) {
          Push(next);
          frames.push_back({next});
        } else if (state_[next].on_stack) {
          node.lowlink = std::min(node.lowlink, state_[next].index);
        }
        continue;
      }
      if (node.lowlink == node.index) PopComponent(frame.node);
      uint32_t done = frame.node;
      frames.pop_back();
      if (!frames.empty()) {
        NodeState& parent = state_[frames.back().node];
        parent.lowlink = std::min(parent.lowlink, state_[done].lowlink);
      }
    }
  }

  void Push(uint32_t node) {
    state_[node].index = state_[node].lowlink = next_index_++;
    state_[node].on_stack = true;
    stack_.push_back(node);
  }

  void PopComponent(uint32_t head) {
    std::vector<uint32_t> component;
    while (true) {
      uint32_t node = stack_.back();
      stack_.pop_back();
      state_[node].on_stack = false;
      state_[node].component = static_cast<uint32_t>(components_.size());
      component.push_back(node);
      if (node == head) break;
    }
    components_.push_back(std::move(component));
  }

  std::vector<std::vector<uint32_t>> adjacency_;
  std::vector<NodeState> state_;
  std::vector<uint32_t> stack_;
  std::vector<std::vector<uint32_t>> components_;
  uint32_t next_index_ = 0;
};

}  // namespace

Result<QueryProgram> ParseQueryProgram(std::string_view source,
                                       SymbolTable& symbols) {
  VERSO_ASSIGN_OR_RETURN(Program inner, ParseDerivedRules(source, symbols));
  QueryProgram program;
  std::set<uint32_t> methods;
  for (Rule& rule : inner.rules) {
    methods.insert(rule.head.app.method.value);
    program.rules.push_back(std::move(rule));
  }
  for (uint32_t m : methods) program.derived_methods.push_back(MethodId(m));
  return program;
}

Result<QueryStratification> AnalyzeQueryProgram(QueryProgram& program,
                                                const SymbolTable& symbols) {
  for (Rule& rule : program.rules) {
    VERSO_RETURN_IF_ERROR(AnalyzeRule(rule, symbols));
  }

  // Dense node ids for the derived methods.
  std::unordered_map<uint32_t, uint32_t> node_of_method;
  for (MethodId m : program.derived_methods) {
    node_of_method.emplace(m.value, static_cast<uint32_t>(node_of_method.size()));
  }

  struct Edge {
    uint32_t head_node;
    uint32_t body_node;
    bool negated;
  };
  std::vector<Edge> edges;
  MethodSccFinder scc(node_of_method.size());
  for (const Rule& rule : program.rules) {
    auto head_it = node_of_method.find(rule.head.app.method.value);
    if (head_it == node_of_method.end()) {
      // Caller-assembled programs can desynchronize the two fields;
      // surface it in-band instead of crashing on a map lookup.
      return Status::InvalidArgument(
          "derived method '" +
          std::string(symbols.MethodName(rule.head.app.method)) +
          "' is used as a rule head but missing from derived_methods");
    }
    uint32_t head_node = head_it->second;
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kVersion) continue;
      auto it = node_of_method.find(lit.version.app.method.value);
      if (it == node_of_method.end()) continue;  // base method
      scc.AddEdge(head_node, it->second);
      edges.push_back({head_node, it->second, lit.negated});
    }
  }

  std::vector<std::vector<uint32_t>> components = scc.Run();

  // Condition (d): no negation inside a component. The diagnostic names
  // the actual method cycle (head -> negated body -> ... -> head), found
  // by BFS within the component.
  for (const Edge& edge : edges) {
    if (!edge.negated ||
        scc.ComponentOf(edge.head_node) != scc.ComponentOf(edge.body_node)) {
      continue;
    }
    std::vector<MethodId> method_of_node(node_of_method.size());
    for (const auto& [m, node] : node_of_method) {
      method_of_node[node] = MethodId(m);
    }
    std::string path(symbols.MethodName(method_of_node[edge.head_node]));
    if (edge.head_node == edge.body_node) {
      path += " -> ";
      path += symbols.MethodName(method_of_node[edge.head_node]);
    } else {
      std::vector<std::vector<uint32_t>> adj(node_of_method.size());
      for (const Edge& e : edges) adj[e.head_node].push_back(e.body_node);
      // BFS body -> ... -> head inside the component; pred[x] -> x is an
      // edge, so walking pred back from head then reversing yields the
      // closing path in dependency order.
      std::vector<int> pred(node_of_method.size(), -1);
      std::vector<uint32_t> queue{edge.body_node};
      pred[edge.body_node] = static_cast<int>(edge.body_node);
      for (size_t qi = 0; qi < queue.size() && pred[edge.head_node] == -1;
           ++qi) {
        for (uint32_t next : adj[queue[qi]]) {
          if (scc.ComponentOf(next) != scc.ComponentOf(edge.head_node) ||
              pred[next] != -1) {
            continue;
          }
          pred[next] = static_cast<int>(queue[qi]);
          queue.push_back(next);
        }
      }
      std::vector<uint32_t> back{edge.head_node};
      while (back.back() != edge.body_node) {
        back.push_back(static_cast<uint32_t>(pred[back.back()]));
      }
      for (auto it = back.rbegin(); it != back.rend(); ++it) {
        path += " -> ";
        path += symbols.MethodName(method_of_node[*it]);
      }
    }
    return Status::NotStratifiable(
        "derived methods are recursive through negation: " + path);
  }

  QueryStratification out;
  out.strata.resize(components.size());
  for (MethodId m : program.derived_methods) {
    uint32_t component = scc.ComponentOf(node_of_method.at(m.value));
    out.strata[component].methods.push_back(m);
    out.stratum_of_method.emplace(m.value, component);
  }
  for (QueryStratum& stratum : out.strata) {
    std::sort(stratum.methods.begin(), stratum.methods.end());
    stratum.recursive = stratum.methods.size() > 1;
  }
  for (uint32_t r = 0; r < program.rules.size(); ++r) {
    Rule& rule = program.rules[r];
    uint32_t component =
        out.stratum_of_method.at(rule.head.app.method.value);
    QueryStratum& stratum = out.strata[component];
    stratum.rules.push_back(r);
    // Seeding plan: positive body occurrences of this stratum's methods.
    // A hit also makes a singleton component recursive (self-loop).
    rule.seed_literals.clear();
    for (uint32_t li = 0; li < rule.body.size(); ++li) {
      const Literal& lit = rule.body[li];
      if (lit.kind != Literal::Kind::kVersion) continue;
      MethodId m = lit.version.app.method;
      if (std::binary_search(stratum.methods.begin(), stratum.methods.end(),
                             m)) {
        stratum.recursive = true;
        if (!lit.negated) rule.seed_literals.push_back(li);
      }
    }
    rule.fully_seedable = true;
  }
  return out;
}

Result<DeltaFact> ResolveHeadFact(const Rule& rule, const Bindings& bindings,
                                  VersionTable& versions) {
  Vid vid = ResolveVid(rule.head.version, bindings, versions);
  if (!vid.valid()) {
    return Status::Internal("unbound head version in derived rule");
  }
  return DeltaFact{vid, rule.head.app.method,
                   ResolveApp(rule.head.app, bindings), /*added=*/true};
}

Status FactInsertSink::EndRound(uint32_t, const DeltaLog&,
                                const DeriveStats& derive,
                                DeltaLog& installed) {
  ++stats.rounds;
  stats.delta_joins += derive.seed_probes;
  stats.seed_pairs_skipped += derive.seed_pairs_skipped;
  for (DeltaFact& fact : pending) {
    if (working.Insert(fact.vid, fact.method, fact.app)) {
      ++stats.derived_facts;
      installed.push_back(std::move(fact));
    }
  }
  pending.clear();
  return Status::Ok();
}

Result<ObjectBase> EvaluateQueries(QueryProgram& program,
                                   const ObjectBase& base,
                                   SymbolTable& symbols,
                                   VersionTable& versions, QueryStats* stats,
                                   const QueryOptions& options) {
  // Derived methods must not be stored: the separation between base
  // methods (updatable) and derived methods (defined by rules) is the
  // paper's own (Section 1: "units for updates are the result sets of
  // base methods").
  for (MethodId m : program.derived_methods) {
    if (base.VidsWithMethod(m) != nullptr) {
      return Status::InvalidArgument(
          "derived method '" + std::string(symbols.MethodName(m)) +
          "' already has stored facts in the object base");
    }
  }
  VERSO_ASSIGN_OR_RETURN(QueryStratification stratification,
                         AnalyzeQueryProgram(program, symbols));

  ObjectBase working = base;
  QueryStats local;
  IndexStats istats;
  MatchContext ctx{symbols, versions, working, &istats};
  local.strata = static_cast<uint32_t>(stratification.strata.size());

  for (uint32_t s = 0; s < stratification.strata.size(); ++s) {
    const QueryStratum& stratum = stratification.strata[s];
    FactInsertSink sink(versions, working, local);
    if (stratum.recursive) {
      VERSO_RETURN_IF_ERROR(RunFixpoint(program.rules, stratum.rules, ctx, s,
                                        options.max_rounds_per_stratum,
                                        options.semi_naive, sink));
      continue;
    }
    // A non-recursive stratum reads only lower strata: one full pass is
    // its fixpoint.
    DeriveStats derive;
    DeltaLog installed;
    VERSO_RETURN_IF_ERROR(Derive(program.rules, stratum.rules, ctx,
                                 /*frontier=*/nullptr, derive, sink));
    VERSO_RETURN_IF_ERROR(sink.EndRound(0, DeltaLog(), derive, installed));
  }

  local.index_probes += istats.index_probes;
  local.index_hits += istats.index_hits;
  local.indexed_scan_avoided_facts += istats.indexed_scan_avoided_facts;
  if (stats != nullptr) *stats = local;
  return working;
}

Result<ObjectBase> EvaluateQueries(QueryProgram& program,
                                   const ObjectBase& base, Engine& engine,
                                   QueryStats* stats,
                                   const QueryOptions& options) {
  return EvaluateQueries(program, base, engine.symbols(), engine.versions(),
                         stats, options);
}

}  // namespace verso
