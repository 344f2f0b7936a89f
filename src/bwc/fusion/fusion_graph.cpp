#include "bwc/fusion/fusion_graph.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "bwc/support/error.h"

namespace bwc::fusion {

const analysis::PairAnalysis& FusionGraph::pair(int i, int j) const {
  BWC_CHECK(i >= 0 && j > i && j < node_count(), "pair indices out of range");
  return pair_info[static_cast<std::size_t>(i)]
                  [static_cast<std::size_t>(j - i - 1)];
}

bool FusionGraph::is_preventing(int i, int j) const {
  if (i == j) return false;
  if (i > j) std::swap(i, j);
  return pair(i, j).fusion_preventing;
}

FusionGraph build_fusion_graph(
    const ir::Program& program, const FusionGraphOptions& options,
    const std::vector<analysis::LoopSummary>* statement_summaries) {
  BWC_CHECK(statement_summaries == nullptr ||
                statement_summaries->size() == program.top().size(),
            "statement summaries must cover every top-level statement");
  std::vector<analysis::LoopSummary> computed;
  if (statement_summaries == nullptr) {
    computed = analysis::summarize_statements(program);
    statement_summaries = &computed;
  }
  const std::vector<analysis::LoopSummary>& statements = *statement_summaries;
  // A reduction scalar the program also writes some other way keeps its
  // update order: no pair may fuse on a relaxation the verifiers refuse.
  const std::set<std::string> ordered =
      analysis::order_sensitive_scalars(statements);

  FusionGraph g;
  g.loop_tops = program.top_loop_indices();
  for (int idx : g.loop_tops) {
    g.summaries.push_back(statements[static_cast<std::size_t>(idx)]);
    analysis::clear_reductions(g.summaries.back(), ordered);
  }

  const int n = g.node_count();
  g.sharing = graph::Hypergraph(n);
  g.sharing_bytes = graph::Hypergraph(n);
  g.deps = graph::Digraph(n);

  // One hyper-edge per array over the loops that access it.
  std::map<ir::ArrayId, std::vector<int>> array_pins;
  for (int i = 0; i < n; ++i) {
    for (const auto& [array, access] : g.summaries[static_cast<std::size_t>(i)]
                                           .arrays)
      array_pins[array].push_back(i);
  }
  for (const auto& [array, pins] : array_pins) {
    g.sharing.add_edge(pins, 1, program.array(array).name);
    g.sharing_bytes.add_edge(
        pins, static_cast<std::int64_t>(program.array(array).byte_size()),
        program.array(array).name);
    g.edge_arrays.push_back(array);
  }

  // Pairwise dependence / legality analysis.
  g.pair_info.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      analysis::PairAnalysis pa =
          analysis::analyze_pair(g.summaries[static_cast<std::size_t>(i)],
                                 g.summaries[static_cast<std::size_t>(j)]);
      if (options.allow_shifted_fusion) {
        const auto shift = analysis::min_fusion_shift(
            g.summaries[static_cast<std::size_t>(i)],
            g.summaries[static_cast<std::size_t>(j)], options.max_shift);
        // Without a bounded shift the pair keeps min_shift 0: it fuses
        // unshifted or not at all.
        if (shift.has_value()) {
          pa.min_shift = *shift;
          if (pa.fusion_preventing && *shift > 0) {
            pa.fusion_preventing = false;
            pa.compat = analysis::FusionCompat::kShifted;
          }
        }
      }
      if (pa.dependent) g.deps.add_edge(i, j);
      if (pa.fusion_preventing) g.preventing.emplace_back(i, j);
      g.pair_info[static_cast<std::size_t>(i)].push_back(std::move(pa));
    }
  }

  // Interleaved non-loop statements (e.g. a scalar reset between two
  // reduction loops) pin the loops around them: a loop before and a loop
  // after a statement that conflicts with both may neither be fused nor
  // reordered across it.
  for (int k = 0; k < static_cast<int>(program.top().size()); ++k) {
    if (program.top()[static_cast<std::size_t>(k)]->kind ==
        ir::StmtKind::kLoop)
      continue;
    const analysis::LoopSummary& sk = statements[static_cast<std::size_t>(k)];
    for (int i = 0; i < n; ++i) {
      if (g.loop_tops[static_cast<std::size_t>(i)] > k) break;
      if (!analysis::touch_conflict(sk,
                                    g.summaries[static_cast<std::size_t>(i)]))
        continue;
      for (int j = i + 1; j < n; ++j) {
        if (g.loop_tops[static_cast<std::size_t>(j)] < k) continue;
        if (!analysis::touch_conflict(
                sk, g.summaries[static_cast<std::size_t>(j)]))
          continue;
        auto& pa = g.pair_info[static_cast<std::size_t>(i)]
                              [static_cast<std::size_t>(j - i - 1)];
        if (!pa.fusion_preventing) {
          pa.fusion_preventing = true;
          pa.compat = analysis::FusionCompat::kIncompatible;
          g.preventing.emplace_back(i, j);
        }
        if (!pa.dependent) {
          pa.dependent = true;
          g.deps.add_edge(i, j);
        }
      }
    }
  }
  return g;
}

std::vector<std::vector<int>> FusionPlan::groups() const {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(num_partitions));
  for (int v = 0; v < static_cast<int>(assignment.size()); ++v)
    out[static_cast<std::size_t>(assignment[static_cast<std::size_t>(v)])]
        .push_back(v);
  return out;
}

bool plan_is_valid(const FusionGraph& graph, const std::vector<int>& assignment,
                   std::string* why) {
  const int n = graph.node_count();
  BWC_CHECK(static_cast<int>(assignment.size()) == n,
            "assignment size must match node count");

  for (const auto& [i, j] : graph.preventing) {
    if (assignment[static_cast<std::size_t>(i)] ==
        assignment[static_cast<std::size_t>(j)]) {
      if (why != nullptr)
        *why = "fusion-preventing pair (" + std::to_string(i) + "," +
               std::to_string(j) + ") co-partitioned";
      return false;
    }
  }

  // Contract the dependence graph by partitions and require acyclicity.
  std::map<int, int> dense;  // partition id -> dense id
  for (int v = 0; v < n; ++v) {
    dense.emplace(assignment[static_cast<std::size_t>(v)],
                  static_cast<int>(dense.size()));
  }
  graph::Digraph contracted(static_cast<int>(dense.size()));
  for (int u = 0; u < n; ++u) {
    for (int v : graph.deps.successors(u)) {
      const int pu = dense.at(assignment[static_cast<std::size_t>(u)]);
      const int pv = dense.at(assignment[static_cast<std::size_t>(v)]);
      if (pu != pv) contracted.add_edge(pu, pv);
    }
  }
  if (!contracted.is_acyclic()) {
    if (why != nullptr) *why = "partition dependence graph is cyclic";
    return false;
  }
  return true;
}

std::vector<int> normalize_order(const FusionGraph& graph,
                                 const std::vector<int>& assignment) {
  const int n = graph.node_count();
  std::map<int, int> dense;
  std::vector<int> first_node;  // dense partition id -> first node index
  for (int v = 0; v < n; ++v) {
    const int p = assignment[static_cast<std::size_t>(v)];
    if (dense.emplace(p, static_cast<int>(dense.size())).second)
      first_node.push_back(v);
  }
  const int m = static_cast<int>(dense.size());

  graph::Digraph contracted(m);
  for (int u = 0; u < n; ++u) {
    for (int v : graph.deps.successors(u)) {
      const int pu = dense.at(assignment[static_cast<std::size_t>(u)]);
      const int pv = dense.at(assignment[static_cast<std::size_t>(v)]);
      if (pu != pv) contracted.add_edge(pu, pv);
    }
  }

  // Kahn's algorithm with first-node tie-breaking for deterministic output.
  std::vector<int> indegree(static_cast<std::size_t>(m), 0);
  for (int p = 0; p < m; ++p)
    indegree[static_cast<std::size_t>(p)] =
        static_cast<int>(contracted.predecessors(p).size());
  std::set<std::pair<int, int>> ready;  // (first node, partition)
  for (int p = 0; p < m; ++p) {
    if (indegree[static_cast<std::size_t>(p)] == 0)
      ready.emplace(first_node[static_cast<std::size_t>(p)], p);
  }
  std::vector<int> position(static_cast<std::size_t>(m), -1);
  int next = 0;
  while (!ready.empty()) {
    const auto [fn, p] = *ready.begin();
    ready.erase(ready.begin());
    position[static_cast<std::size_t>(p)] = next++;
    for (int q : contracted.successors(p)) {
      if (--indegree[static_cast<std::size_t>(q)] == 0)
        ready.emplace(first_node[static_cast<std::size_t>(q)], q);
    }
  }
  BWC_CHECK(next == m, "partition dependence graph is cyclic");

  std::vector<int> out(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    out[static_cast<std::size_t>(v)] = position[static_cast<std::size_t>(
        dense.at(assignment[static_cast<std::size_t>(v)]))];
  return out;
}

FusionPlan finish_plan(const FusionGraph& graph, std::vector<int> assignment,
                       std::string solver) {
  std::string why;
  BWC_CHECK(plan_is_valid(graph, assignment, &why), "invalid plan: " + why);
  FusionPlan plan;
  plan.assignment = normalize_order(graph, assignment);
  plan.num_partitions =
      plan.assignment.empty()
          ? 0
          : 1 + *std::max_element(plan.assignment.begin(),
                                  plan.assignment.end());
  plan.cost = graph::partition_cost(graph.sharing, plan.assignment);
  plan.bytes_cost =
      graph::partition_cost(graph.sharing_bytes, plan.assignment);
  plan.solver = std::move(solver);
  return plan;
}

}  // namespace bwc::fusion
