#include "bwc/fusion/solvers.h"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <limits>
#include <numeric>
#include <set>

#include "bwc/graph/hyper_cut.h"
#include "bwc/support/error.h"

namespace bwc::fusion {

FusionCapacityError::FusionCapacityError(const std::string& solver,
                                         int loop_count, int max_nodes)
    : Error("solver '" + solver + "' cannot handle " +
            std::to_string(loop_count) + " loops: exact fusion search "
            "is limited to " + std::to_string(max_nodes) +
            " (the problem is NP-complete); use the 'bisection' heuristic "
            "or best_fusion, which falls back automatically"),
      solver_(solver),
      loop_count_(loop_count),
      max_nodes_(max_nodes) {}

namespace {

using Mask = std::uint64_t;
static_assert(kMaxExactLoops <= 64,
              "the exact search keeps node and partition sets in 64-bit masks");

/// What the exact search minimizes.
enum class Objective {
  /// graph::partition_cost over `sharing`: arrays loaded.
  kArrays,
  /// graph::partition_cost over `sharing_bytes`: bytes loaded.
  kBytes,
  /// The edge-weighted baseline (Gao et al., Kennedy & McKinley): shared
  /// arrays between loops in different partitions, times 64, plus the
  /// number of partitions minus one, so that equal cut weights prefer
  /// fewer partitions like the published fuse-whenever-legal heuristics.
  kCutEdges,
};

/// Depth-first branch-and-bound over set partitions in restricted-growth
/// order: node v joins a partition opened by nodes 0..v-1 or opens the
/// next one. Each objective only grows as nodes are placed, so a branch
/// whose cost plus a lower bound on what the unplaced nodes add reaches
/// the best complete cost cannot hold a strictly cheaper leaf. The result
/// is therefore the first minimum in visit order, the leaf an exhaustive
/// enumeration keeping strict improvements would pick.
class ExactSearch {
 public:
  ExactSearch(const FusionGraph& g, Objective objective)
      : g_(g),
        n_(g.node_count()),
        cut_edges_(objective == Objective::kCutEdges),
        h_(objective == Objective::kBytes ? g.sharing_bytes : g.sharing),
        assignment_(static_cast<std::size_t>(n_), -1) {
    for (const auto& [i, j] : g.preventing) {
      prevents_[static_cast<std::size_t>(i)] |= bit(j);
      prevents_[static_cast<std::size_t>(j)] |= bit(i);
    }
    // graph_from_spec admits backward dependences, so a node may have arcs
    // both from and to the nodes placed before it.
    for (int u = 0; u < n_; ++u) {
      for (int v : g.deps.successors(u)) {
        if (u < v) earlier_preds_[static_cast<std::size_t>(v)] |= bit(u);
        if (v < u) earlier_succs_[static_cast<std::size_t>(u)] |= bit(v);
      }
    }
    if (!cut_edges_) {
      const auto edges = static_cast<std::size_t>(h_.edge_count());
      pins_in_partition_.assign(static_cast<std::size_t>(n_),
                                std::vector<int>(edges, 0));
      pins_placed_.assign(edges, 0);
      unplaced_ = h_.total_weight();
    }
  }

  /// The first minimum-cost valid assignment in visit order; empty when no
  /// assignment is valid.
  std::vector<int> run() {
    search(0, 0, 0);
    return best_;
  }

 private:
  static Mask bit(int i) { return Mask{1} << i; }

  void search(int v, int used, std::int64_t cost) {
    if (v == n_) {  // reached only when strictly cheaper than best_cost_
      best_cost_ = cost;
      best_ = assignment_;
      return;
    }
    const auto sv = static_cast<std::size_t>(v);
    const std::array<Mask, kMaxExactLoops> saved_reach = reach_;
    for (int p = 0; p <= used; ++p) {
      const auto sp = static_cast<std::size_t>(p);
      if ((members_[sp] & prevents_[sv]) != 0) continue;
      if (link(v, p)) {
        const std::int64_t added = place(v, p, used);
        if (cost + added + unplaced_ < best_cost_) {
          assignment_[sv] = p;
          members_[sp] |= bit(v);
          search(v + 1, std::max(used, p + 1), cost + added);
          members_[sp] &= ~bit(v);
        }
        unplace(v, p);
      }
      reach_ = saved_reach;
    }
  }

  /// Adds the arcs of the partition-contracted dependence graph between
  /// partition p, which v joins, and the partitions of earlier nodes;
  /// false when one closes a cycle. Later nodes add their own arcs to v.
  bool link(int v, int p) {
    const auto sv = static_cast<std::size_t>(v);
    for (Mask m = earlier_preds_[sv]; m != 0; m &= m - 1) {
      const int q = assignment_[static_cast<std::size_t>(std::countr_zero(m))];
      if (q != p && !add_arc(q, p)) return false;
    }
    for (Mask m = earlier_succs_[sv]; m != 0; m &= m - 1) {
      const int q = assignment_[static_cast<std::size_t>(std::countr_zero(m))];
      if (q != p && !add_arc(p, q)) return false;
    }
    return true;
  }

  /// reach_[x] holds the partitions reachable from x along one or more
  /// arcs; adding from -> to closes a cycle exactly when `to` reaches
  /// `from`.
  bool add_arc(int from, int to) {
    const Mask to_reach = reach_[static_cast<std::size_t>(to)];
    if ((to_reach & bit(from)) != 0) return false;
    for (int x = 0; x < n_; ++x) {
      Mask& r = reach_[static_cast<std::size_t>(x)];
      if (x == from || (r & bit(from)) != 0) r |= bit(to) | to_reach;
    }
    return true;
  }

  /// Places v in p and returns the cost it adds; also takes the hyper-edges
  /// v is the first pin of out of `unplaced_`.
  std::int64_t place(int v, int p, int used) {
    std::int64_t added = 0;
    if (cut_edges_) {
      for (int u = 0; u < v; ++u) {
        if (assignment_[static_cast<std::size_t>(u)] == p) continue;
        added += static_cast<std::int64_t>(g_.pair(u, v).shared_arrays.size());
      }
      return added * 64 + (p == used && v > 0 ? 1 : 0);
    }
    std::vector<int>& counts = pins_in_partition_[static_cast<std::size_t>(p)];
    for (int e : h_.incident_edges(v)) {
      const auto se = static_cast<std::size_t>(e);
      if (pins_placed_[se]++ == 0) unplaced_ -= h_.weight(e);
      if (counts[se]++ == 0) added += h_.weight(e);
    }
    return added;
  }

  void unplace(int v, int p) {
    if (cut_edges_) return;
    std::vector<int>& counts = pins_in_partition_[static_cast<std::size_t>(p)];
    for (int e : h_.incident_edges(v)) {
      const auto se = static_cast<std::size_t>(e);
      if (--pins_placed_[se] == 0) unplaced_ += h_.weight(e);
      --counts[se];
    }
  }

  const FusionGraph& g_;
  const int n_;
  const bool cut_edges_;
  const graph::Hypergraph& h_;
  std::array<Mask, kMaxExactLoops> prevents_{};
  std::array<Mask, kMaxExactLoops> earlier_preds_{};
  std::array<Mask, kMaxExactLoops> earlier_succs_{};
  /// kArrays / kBytes: pins of each hyper-edge per partition, pins placed
  /// per hyper-edge, and the weight of hyper-edges with no pin placed yet.
  /// Every hyper-edge has a pin, so that weight is a lower bound on the
  /// cost still to come.
  std::vector<std::vector<int>> pins_in_partition_;
  std::vector<int> pins_placed_;
  std::int64_t unplaced_ = 0;

  std::vector<int> assignment_;
  std::array<Mask, kMaxExactLoops> members_{};
  std::array<Mask, kMaxExactLoops> reach_{};
  std::int64_t best_cost_ = std::numeric_limits<std::int64_t>::max();
  std::vector<int> best_;
};

FusionPlan exact_minimize(const FusionGraph& g, Objective objective,
                          std::string solver) {
  if (g.node_count() > kMaxExactLoops) {
    throw FusionCapacityError(solver, g.node_count(), kMaxExactLoops);
  }
  if (g.node_count() == 0) {
    FusionPlan p;
    p.solver = std::move(solver);
    return p;
  }
  std::vector<int> best = ExactSearch(g, objective).run();
  BWC_CHECK(!best.empty(), "no valid partitioning exists");
  return finish_plan(g, std::move(best), std::move(solver));
}

}  // namespace

FusionPlan no_fusion(const FusionGraph& graph) {
  std::vector<int> assignment(static_cast<std::size_t>(graph.node_count()));
  std::iota(assignment.begin(), assignment.end(), 0);
  if (graph.node_count() == 0) {
    FusionPlan p;
    p.solver = "none";
    return p;
  }
  return finish_plan(graph, std::move(assignment), "none");
}

std::optional<FusionPlan> exact_two_partition(const FusionGraph& graph) {
  if (graph.preventing.size() != 1) return std::nullopt;
  const auto [s, t] = graph.preventing.front();

  // Weighted hyper-graph: the data-sharing edges plus heavy dependence
  // enforcement triples (paper Section 3.1.2, last paragraph).
  graph::Hypergraph h(graph.node_count());
  for (int e = 0; e < graph.sharing.edge_count(); ++e)
    h.add_edge(graph.sharing.pins(e), graph.sharing.weight(e));
  const std::int64_t heavy = graph.sharing.total_weight() + 1;
  for (int u = 0; u < graph.node_count(); ++u) {
    for (int v : graph.deps.successors(u)) {
      h.add_edge({s, u}, heavy);
      h.add_edge({u, v}, heavy);
      h.add_edge({v, t}, heavy);
    }
  }

  const graph::HyperCutResult cut = graph::min_hyperedge_cut(h, s, t);
  std::vector<int> assignment(static_cast<std::size_t>(graph.node_count()), 1);
  for (int v : cut.source_side) assignment[static_cast<std::size_t>(v)] = 0;
  if (!plan_is_valid(graph, assignment)) return std::nullopt;
  return finish_plan(graph, std::move(assignment), "exact-two-partition");
}

FusionPlan exact_enumeration(const FusionGraph& graph) {
  return exact_minimize(graph, Objective::kArrays, "exact");
}

FusionPlan exact_enumeration_weighted(const FusionGraph& graph) {
  return exact_minimize(graph, Objective::kBytes, "exact-weighted");
}

FusionPlan greedy_fusion(const FusionGraph& graph) {
  const int n = graph.node_count();
  if (n == 0) {
    FusionPlan p;
    p.solver = "greedy";
    return p;
  }
  // Loops on one dependence cycle share a partition in every valid plan,
  // so each strongly connected component is placed as a unit, named by its
  // smallest loop. Units go in topological order, the smallest ready
  // first (program order when every dependence runs forward): producers
  // are placed before consumers, partitions only grow along dependences,
  // and the plan stays acyclic.
  const std::vector<std::vector<bool>> reach = graph.deps.transitive_closure();
  std::vector<int> unit(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    unit[static_cast<std::size_t>(v)] = v;
    for (int u = 0; u < v; ++u) {
      if (reach[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] &&
          reach[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)]) {
        unit[static_cast<std::size_t>(v)] = unit[static_cast<std::size_t>(u)];
        break;
      }
    }
  }
  graph::Digraph units(n);
  for (int u = 0; u < n; ++u) {
    for (int v : graph.deps.successors(u)) {
      const int a = unit[static_cast<std::size_t>(u)];
      const int b = unit[static_cast<std::size_t>(v)];
      if (a != b) units.add_edge(a, b);
    }
  }

  const std::vector<int> order = *units.topological_order();

  std::vector<int> assignment(static_cast<std::size_t>(n), -1);
  std::vector<std::set<ir::ArrayId>> partition_arrays;
  std::vector<std::vector<int>> members;
  for (int head : order) {
    if (unit[static_cast<std::size_t>(head)] != head) continue;
    std::vector<int> loops;
    std::set<ir::ArrayId> arrays;
    // Earliest partition the unit may join: after every producer's.
    int min_partition = 0;
    for (int v = head; v < n; ++v) {
      if (unit[static_cast<std::size_t>(v)] != head) continue;
      loops.push_back(v);
      for (ir::ArrayId a :
           graph.summaries[static_cast<std::size_t>(v)].touched_arrays())
        arrays.insert(a);
      for (int u : graph.deps.predecessors(v))
        min_partition =
            std::max(min_partition, assignment[static_cast<std::size_t>(u)]);
    }
    const auto prevents = [&](const std::vector<int>& others) {
      for (int u : others) {
        for (int v : loops)
          if (graph.is_preventing(u, v)) return true;
      }
      return false;
    };
    BWC_CHECK(!prevents(loops), "no valid partitioning exists");

    int best_partition = -1;
    std::int64_t best_delta = std::numeric_limits<std::int64_t>::max();
    for (int p = min_partition;
         p < static_cast<int>(partition_arrays.size()); ++p) {
      if (prevents(members[static_cast<std::size_t>(p)])) continue;
      std::int64_t delta = 0;
      for (ir::ArrayId a : arrays) {
        if (partition_arrays[static_cast<std::size_t>(p)].count(a) == 0)
          ++delta;
      }
      // Prefer the latest partition on ties (keeps groups compact).
      if (delta < best_delta ||
          (delta == best_delta && p > best_partition)) {
        best_delta = delta;
        best_partition = p;
      }
    }
    const std::int64_t new_cost = static_cast<std::int64_t>(arrays.size());
    if (best_partition < 0 || best_delta >= new_cost) {
      best_partition = static_cast<int>(partition_arrays.size());
      partition_arrays.emplace_back();
      members.emplace_back();
    }
    for (int v : loops) {
      assignment[static_cast<std::size_t>(v)] = best_partition;
      members[static_cast<std::size_t>(best_partition)].push_back(v);
    }
    partition_arrays[static_cast<std::size_t>(best_partition)].insert(
        arrays.begin(), arrays.end());
  }
  return finish_plan(graph, std::move(assignment), "greedy");
}

FusionPlan recursive_bisection(const FusionGraph& graph) {
  const int n = graph.node_count();
  if (n == 0) {
    FusionPlan p;
    p.solver = "bisection";
    return p;
  }
  std::vector<int> assignment(static_cast<std::size_t>(n), 0);
  int next_partition = 0;

  std::function<void(const std::vector<int>&)> split =
      [&](const std::vector<int>& nodes) {
        // Find a fusion-preventing pair inside this group.
        int s = -1, t = -1;
        for (std::size_t i = 0; i < nodes.size() && s < 0; ++i) {
          for (std::size_t j = i + 1; j < nodes.size(); ++j) {
            if (graph.is_preventing(nodes[i], nodes[j])) {
              s = nodes[i];
              t = nodes[j];
              break;
            }
          }
        }
        if (s < 0) {
          const int p = next_partition++;
          for (int v : nodes) assignment[static_cast<std::size_t>(v)] = p;
          return;
        }

        // Induced hyper-graph over this group with heavy dependence edges.
        std::vector<int> local_of(static_cast<std::size_t>(n), -1);
        for (std::size_t i = 0; i < nodes.size(); ++i)
          local_of[static_cast<std::size_t>(nodes[i])] = static_cast<int>(i);
        graph::Hypergraph h(static_cast<int>(nodes.size()));
        for (int e = 0; e < graph.sharing.edge_count(); ++e) {
          std::vector<int> pins;
          for (int v : graph.sharing.pins(e)) {
            if (local_of[static_cast<std::size_t>(v)] >= 0)
              pins.push_back(local_of[static_cast<std::size_t>(v)]);
          }
          if (!pins.empty())
            h.add_edge(std::move(pins), graph.sharing.weight(e));
        }
        const std::int64_t heavy = graph.sharing.total_weight() + 1;
        const int ls = local_of[static_cast<std::size_t>(s)];
        const int lt = local_of[static_cast<std::size_t>(t)];
        for (int u = 0; u < n; ++u) {
          if (local_of[static_cast<std::size_t>(u)] < 0) continue;
          for (int v : graph.deps.successors(u)) {
            if (local_of[static_cast<std::size_t>(v)] < 0) continue;
            h.add_edge({ls, local_of[static_cast<std::size_t>(u)]}, heavy);
            h.add_edge({local_of[static_cast<std::size_t>(u)],
                        local_of[static_cast<std::size_t>(v)]},
                       heavy);
            h.add_edge({local_of[static_cast<std::size_t>(v)], lt}, heavy);
          }
        }

        const graph::HyperCutResult cut = graph::min_hyperedge_cut(h, ls, lt);
        std::vector<int> first, second;
        std::vector<bool> in_first(nodes.size(), false);
        for (int lv : cut.source_side)
          in_first[static_cast<std::size_t>(lv)] = true;
        for (std::size_t i = 0; i < nodes.size(); ++i)
          (in_first[i] ? first : second).push_back(nodes[i]);
        split(first);
        split(second);
      };

  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  split(all);

  // Bisection order may disagree with dependence order in corner cases;
  // fall back to greedy when the plan cannot be normalized.
  try {
    return finish_plan(graph, std::move(assignment), "bisection");
  } catch (const Error&) {
    FusionPlan p = greedy_fusion(graph);
    p.solver = "bisection(greedy-fallback)";
    return p;
  }
}

FusionPlan edge_weighted_baseline(const FusionGraph& graph) {
  if (graph.node_count() <= kMaxExactLoops)
    return exact_minimize(graph, Objective::kCutEdges, "edge-weighted");
  FusionPlan plan = greedy_fusion(graph);
  plan.solver = "edge-weighted(greedy)";
  return plan;
}

FusionPlan best_fusion(const FusionGraph& graph) {
  if (graph.node_count() <= kMaxExactLoops) {
    FusionPlan plan = exact_enumeration(graph);
    plan.solver = "best(exact)";
    return plan;
  }
  FusionPlan a = recursive_bisection(graph);
  FusionPlan b = greedy_fusion(graph);
  FusionPlan best = a.cost <= b.cost ? std::move(a) : std::move(b);
  best.solver = "best(" + best.solver + ")";
  return best;
}

FusionGraph graph_from_spec(int num_loops,
                            const std::vector<std::vector<int>>& array_pins,
                            const std::vector<std::pair<int, int>>& dep_edges,
                            const std::vector<std::pair<int, int>>& preventing,
                            const std::vector<std::int64_t>& array_bytes) {
  BWC_CHECK(num_loops >= 0, "loop count must be non-negative");
  BWC_CHECK(array_bytes.empty() || array_bytes.size() == array_pins.size(),
            "array_bytes must match array_pins");
  FusionGraph g;
  g.loop_tops.resize(static_cast<std::size_t>(num_loops));
  std::iota(g.loop_tops.begin(), g.loop_tops.end(), 0);
  g.summaries.resize(static_cast<std::size_t>(num_loops));
  g.sharing = graph::Hypergraph(num_loops);
  g.sharing_bytes = graph::Hypergraph(num_loops);
  g.deps = graph::Digraph(num_loops);

  for (std::size_t k = 0; k < array_pins.size(); ++k) {
    const ir::ArrayId id = static_cast<ir::ArrayId>(k);
    g.sharing.add_edge(array_pins[k], 1);
    g.sharing_bytes.add_edge(
        array_pins[k], array_bytes.empty() ? 1 : array_bytes[k]);
    g.edge_arrays.push_back(id);
    // Populate summaries' touched arrays so greedy_fusion can run on specs.
    for (int loop : array_pins[k]) {
      auto& access =
          g.summaries[static_cast<std::size_t>(loop)].arrays[id];
      access.array = id;
    }
  }
  for (const auto& [u, v] : dep_edges) g.deps.add_edge(u, v);

  // Pairwise info: mark preventing pairs; everything else fusable.
  g.pair_info.resize(static_cast<std::size_t>(num_loops));
  for (int i = 0; i < num_loops; ++i) {
    for (int j = i + 1; j < num_loops; ++j) {
      analysis::PairAnalysis pa;
      pa.compat = analysis::FusionCompat::kIdentical;
      pa.fusion_preventing = false;
      pa.dependent = g.deps.has_edge(i, j);
      for (std::size_t k = 0; k < array_pins.size(); ++k) {
        const auto& pins = array_pins[k];
        const bool has_i = std::find(pins.begin(), pins.end(), i) != pins.end();
        const bool has_j = std::find(pins.begin(), pins.end(), j) != pins.end();
        if (has_i && has_j)
          pa.shared_arrays.push_back(static_cast<ir::ArrayId>(k));
      }
      g.pair_info[static_cast<std::size_t>(i)].push_back(std::move(pa));
    }
  }
  for (const auto& [u, v] : preventing) {
    const int i = std::min(u, v);
    const int j = std::max(u, v);
    BWC_CHECK(i >= 0 && j < num_loops && i != j, "bad preventing pair");
    auto& pa = g.pair_info[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j - i - 1)];
    pa.fusion_preventing = true;
    pa.compat = analysis::FusionCompat::kIncompatible;
    g.preventing.emplace_back(i, j);
  }
  return g;
}

}  // namespace bwc::fusion
