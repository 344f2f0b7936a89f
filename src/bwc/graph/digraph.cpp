#include "bwc/graph/digraph.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "bwc/support/error.h"

namespace bwc::graph {

Digraph::Digraph(int node_count) {
  BWC_CHECK(node_count >= 0, "node count must be non-negative");
  succ_.resize(static_cast<std::size_t>(node_count));
  pred_.resize(static_cast<std::size_t>(node_count));
}

int Digraph::add_node() {
  succ_.emplace_back();
  pred_.emplace_back();
  return node_count() - 1;
}

void Digraph::add_edge(int u, int v) {
  BWC_CHECK(u >= 0 && u < node_count(), "edge source out of range");
  BWC_CHECK(v >= 0 && v < node_count(), "edge target out of range");
  if (has_edge(u, v)) return;
  succ_[static_cast<std::size_t>(u)].push_back(v);
  pred_[static_cast<std::size_t>(v)].push_back(u);
}

bool Digraph::has_edge(int u, int v) const {
  const auto& s = succ_[static_cast<std::size_t>(u)];
  return std::find(s.begin(), s.end(), v) != s.end();
}

std::optional<std::vector<int>> Digraph::topological_order() const {
  const int n = node_count();
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v)
    indegree[static_cast<std::size_t>(v)] =
        static_cast<int>(pred_[static_cast<std::size_t>(v)].size());
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (int v = 0; v < n; ++v)
    if (indegree[static_cast<std::size_t>(v)] == 0) ready.push(v);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const int u = ready.top();
    ready.pop();
    order.push_back(u);
    for (int v : succ_[static_cast<std::size_t>(u)]) {
      if (--indegree[static_cast<std::size_t>(v)] == 0) ready.push(v);
    }
  }
  if (static_cast<int>(order.size()) != n) return std::nullopt;
  return order;
}

std::vector<bool> Digraph::reachable_from(int v) const {
  BWC_CHECK(v >= 0 && v < node_count(), "node out of range");
  std::vector<bool> seen(static_cast<std::size_t>(node_count()), false);
  std::queue<int> q;
  for (int w : succ_[static_cast<std::size_t>(v)]) {
    if (!seen[static_cast<std::size_t>(w)]) {
      seen[static_cast<std::size_t>(w)] = true;
      q.push(w);
    }
  }
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (int w : succ_[static_cast<std::size_t>(u)]) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        q.push(w);
      }
    }
  }
  return seen;
}

std::vector<std::vector<bool>> Digraph::transitive_closure() const {
  std::vector<std::vector<bool>> closure;
  closure.reserve(static_cast<std::size_t>(node_count()));
  for (int v = 0; v < node_count(); ++v) closure.push_back(reachable_from(v));
  return closure;
}

}  // namespace bwc::graph
