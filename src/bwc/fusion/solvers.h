// Solvers for the bandwidth-minimal fusion problem.
//
// The paper gives (a) a polynomial exact algorithm for the restricted
// two-partitioning form -- one fusion-preventing edge, solved by a minimal
// cut on the data-sharing hyper-graph with dependences enforced by heavy
// hyper-edges -- and (b) an NP-completeness proof for the general
// multi-partition form, which therefore gets an exact branch-and-bound
// search for graphs of up to kMaxExactLoops loops and heuristics (greedy,
// recursive bisection) beyond. The search prunes with a lower bound on the
// cost still to come, which keeps typical programs fast, but its worst
// case remains exponential in the loop count; that is why the cap stays.
// The prior edge-weighted formulation of Gao et al. / Kennedy & McKinley
// is included as the comparison baseline; the paper's Figure 4 shows it is
// *not* bandwidth-optimal (8 arrays loaded vs 7).
#pragma once

#include <optional>
#include <string>

#include "bwc/fusion/fusion_graph.h"
#include "bwc/support/error.h"

namespace bwc::fusion {

/// Largest graph the exact solvers accept. The exact search is exponential
/// in the worst case (the general problem is NP-complete), so beyond this
/// best_fusion uses heuristics.
inline constexpr int kMaxExactLoops = 12;

/// Thrown when an exact solver is asked for a graph of more than
/// kMaxExactLoops loops (the exact fusion search is exponential in the
/// worst case; the general problem is NP-complete). Carries the offending
/// loop count, the solver's limit and the heuristic to use instead, so
/// callers can degrade deliberately rather than parse a message.
class FusionCapacityError : public Error {
 public:
  FusionCapacityError(const std::string& solver, int loop_count,
                      int max_nodes);

  const std::string& solver() const { return solver_; }
  int loop_count() const { return loop_count_; }
  int max_nodes() const { return max_nodes_; }
  /// Name of the recommended fallback ("bisection"; best_fusion applies
  /// it automatically).
  const std::string& suggested_solver() const { return suggested_; }

 private:
  std::string solver_;
  int loop_count_;
  int max_nodes_;
  std::string suggested_ = "bisection";
};

/// Every loop in its own partition (cost = sum over loops of arrays
/// accessed; 20 for the paper's Figure 4 example).
FusionPlan no_fusion(const FusionGraph& graph);

/// The paper's polynomial algorithm for the restricted two-partitioning
/// form. Applicable when the graph has exactly one fusion-preventing pair;
/// returns nullopt otherwise. Dependences are enforced by adding, for each
/// dependence edge (u, v), three hyper-edges {s,u}, {u,v}, {v,t} of weight
/// larger than the total array weight, so that any cut placing v's
/// partition before u's cannot be minimal.
std::optional<FusionPlan> exact_two_partition(const FusionGraph& graph);

/// Exact multi-partitioning: a depth-first branch-and-bound over set
/// partitions in restricted-growth order that skips fusion-preventing and
/// cyclic placements as soon as they arise and prunes a branch once its
/// cost plus the weight of the arrays no placed loop touches yet reaches
/// the best plan found. Of several optimal plans it returns the first in
/// that order. Throws FusionCapacityError beyond kMaxExactLoops loops and
/// bwc::Error when no valid partitioning exists.
FusionPlan exact_enumeration(const FusionGraph& graph);

/// exact_enumeration under the byte-weighted objective (total bytes
/// loaded, i.e. hyper-edge lengths weighted by array sizes). With equal
/// array sizes this coincides with exact_enumeration; with mixed sizes it
/// can prefer splitting small arrays to keep one big array resident.
FusionPlan exact_enumeration_weighted(const FusionGraph& graph);

/// Greedy: place each loop, in topological order of the dependences
/// (program order when they all run forward), into the legal partition
/// that minimizes the increase in distinct-array count, else start a new
/// partition. Loops on a dependence cycle move as one unit; throws
/// bwc::Error when such a unit holds a fusion-preventing pair, where no
/// valid partitioning exists.
FusionPlan greedy_fusion(const FusionGraph& graph);

/// Recursive bisection: repeatedly split any group containing a
/// fusion-preventing pair with the hyper-graph minimal cut. This is the
/// heuristic the paper suggests for the NP-complete general case.
FusionPlan recursive_bisection(const FusionGraph& graph);

/// The edge-weighted baseline: minimizes the total weight of
/// cross-partition normal edges (weight = number of shared arrays), the
/// objective of Gao et al. and Kennedy & McKinley, preferring fewer
/// partitions on equal weight. Solved by exact_enumeration's search up to
/// kMaxExactLoops loops, greedy beyond. The returned plan's `cost` is still
/// the bandwidth objective, so it can be compared directly against the
/// other solvers.
FusionPlan edge_weighted_baseline(const FusionGraph& graph);

/// Dispatcher: exact_enumeration up to kMaxExactLoops loops, otherwise the
/// better of recursive bisection and greedy.
FusionPlan best_fusion(const FusionGraph& graph);

/// Build a fusion graph directly from a specification, for experiments on
/// abstract graphs like the paper's Figure 4 (no Program needed; such
/// graphs cannot be fed to the code transformer, only to the solvers).
/// `array_pins[k]` lists the loops accessing array k; dependence edges are
/// (producer, consumer); preventing pairs are undirected.
FusionGraph graph_from_spec(int num_loops,
                            const std::vector<std::vector<int>>& array_pins,
                            const std::vector<std::pair<int, int>>& dep_edges,
                            const std::vector<std::pair<int, int>>& preventing,
                            const std::vector<std::int64_t>& array_bytes = {});

}  // namespace bwc::fusion
