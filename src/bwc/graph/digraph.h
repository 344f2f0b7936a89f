// Directed graph with topological ordering and reachability; models the
// data-dependence edges of fusion graphs.
#pragma once

#include <optional>
#include <vector>

namespace bwc::graph {

class Digraph {
 public:
  explicit Digraph(int node_count = 0);

  int node_count() const { return static_cast<int>(succ_.size()); }
  int add_node();
  /// Add edge u -> v. Parallel edges are deduplicated.
  void add_edge(int u, int v);

  const std::vector<int>& successors(int v) const {
    return succ_[static_cast<std::size_t>(v)];
  }
  const std::vector<int>& predecessors(int v) const {
    return pred_[static_cast<std::size_t>(v)];
  }
  bool has_edge(int u, int v) const;

  /// Topological order taking the smallest ready node first (so a graph
  /// whose edges all run forward yields 0..n-1), or nullopt when the
  /// graph has a cycle.
  std::optional<std::vector<int>> topological_order() const;
  bool is_acyclic() const { return topological_order().has_value(); }

  /// Nodes reachable from v (excluding v itself unless on a cycle).
  std::vector<bool> reachable_from(int v) const;

  /// Full reachability closure: result[u][v] true when a nonempty path
  /// u -> ... -> v exists. O(V * (V + E)).
  std::vector<std::vector<bool>> transitive_closure() const;

 private:
  std::vector<std::vector<int>> succ_;
  std::vector<std::vector<int>> pred_;
};

}  // namespace bwc::graph
