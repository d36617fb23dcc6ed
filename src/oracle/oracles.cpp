#include "oracle/oracles.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "oracle/dsu.hpp"

namespace oracle {

std::vector<VertexId> connected_components(const DynamicGraph& g) {
  const std::size_t n = g.num_vertices();
  Dsu dsu(n);
  for (const auto& e : g.edges()) {
    dsu.unite(static_cast<std::size_t>(e.u), static_cast<std::size_t>(e.v));
  }
  // Canonicalize: label = smallest vertex id in the component.
  std::vector<VertexId> label(n, dmpc::kNoVertex);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t root = dsu.find(v);
    if (label[root] == dmpc::kNoVertex) {
      label[root] = static_cast<VertexId>(v);
    }
  }
  std::vector<VertexId> out(n);
  for (std::size_t v = 0; v < n; ++v) out[v] = label[dsu.find(v)];
  return out;
}

bool same_component(const DynamicGraph& g, VertexId u, VertexId v) {
  const auto labels = connected_components(g);
  return labels[static_cast<std::size_t>(u)] ==
         labels[static_cast<std::size_t>(v)];
}

namespace {

/// The label each label of one side must always pair with.  Labels are
/// vertex ids in practice, so [0, n) indexes dense arrays; any other
/// label takes a hash-map slot.
class Pairing {
 public:
  explicit Pairing(std::size_t n) : dense_(n), paired_(n, 0) {}

  /// Pairs x with y, or reports whether x was already paired with y.
  bool consistent(VertexId x, VertexId y) {
    if (x < 0 || static_cast<std::size_t>(x) >= dense_.size()) {
      return sparse_.try_emplace(x, y).first->second == y;
    }
    const auto i = static_cast<std::size_t>(x);
    if (paired_[i] == 0) {
      paired_[i] = 1;
      dense_[i] = y;
    }
    return dense_[i] == y;
  }

 private:
  std::vector<VertexId> dense_;
  std::vector<std::uint8_t> paired_;
  std::unordered_map<VertexId, VertexId> sparse_;
};

}  // namespace

bool same_partition(const std::vector<VertexId>& a,
                    const std::vector<VertexId>& b) {
  if (a.size() != b.size()) return false;
  Pairing a2b(a.size()), b2a(a.size());
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (!a2b.consistent(a[v], b[v]) || !b2a.consistent(b[v], a[v])) {
      return false;
    }
  }
  return true;
}

Weight msf_weight(const WeightedDynamicGraph& g) {
  struct E {
    Weight w;
    VertexId u, v;
  };
  std::vector<E> edges;
  edges.reserve(g.num_edges());
  for (const auto& [key, w] : g.weights()) edges.push_back({w, key.u, key.v});
  std::sort(edges.begin(), edges.end(),
            [](const E& a, const E& b) { return a.w < b.w; });
  Dsu dsu(g.num_vertices());
  Weight total = 0;
  for (const E& e : edges) {
    if (dsu.unite(static_cast<std::size_t>(e.u),
                  static_cast<std::size_t>(e.v))) {
      total += e.w;
    }
  }
  return total;
}

bool matching_is_valid(const DynamicGraph& g, const Matching& m) {
  if (m.size() != g.num_vertices()) return false;
  for (std::size_t v = 0; v < m.size(); ++v) {
    const VertexId mate = m[v];
    if (mate == dmpc::kNoVertex) continue;
    if (mate < 0 || mate >= static_cast<VertexId>(m.size())) return false;
    if (m[static_cast<std::size_t>(mate)] != static_cast<VertexId>(v)) {
      return false;
    }
    if (mate == static_cast<VertexId>(v)) return false;
    if (!g.has_edge(static_cast<VertexId>(v), mate)) return false;
  }
  return true;
}

bool matching_is_maximal(const DynamicGraph& g, const Matching& m) {
  for (const auto& e : g.edges()) {
    if (m[static_cast<std::size_t>(e.u)] == dmpc::kNoVertex &&
        m[static_cast<std::size_t>(e.v)] == dmpc::kNoVertex) {
      return false;
    }
  }
  return true;
}

std::size_t count_augmenting_edges(const DynamicGraph& g, const Matching& m) {
  std::size_t count = 0;
  for (const auto& e : g.edges()) {
    if (m[static_cast<std::size_t>(e.u)] == dmpc::kNoVertex &&
        m[static_cast<std::size_t>(e.v)] == dmpc::kNoVertex) {
      ++count;
    }
  }
  return count;
}

bool has_length3_augmenting_path(const DynamicGraph& g, const Matching& m) {
  // A length-3 augmenting path exists iff some matched edge (a,b) has a
  // free neighbor of a (other than b's side) and a free neighbor of b,
  // distinct from each other.
  for (std::size_t a = 0; a < m.size(); ++a) {
    const VertexId b = m[a];
    if (b == dmpc::kNoVertex || b < static_cast<VertexId>(a)) continue;
    std::vector<VertexId> free_a;
    for (VertexId x : g.neighbors(static_cast<VertexId>(a))) {
      if (m[static_cast<std::size_t>(x)] == dmpc::kNoVertex) {
        free_a.push_back(x);
      }
    }
    if (free_a.empty()) continue;
    for (VertexId y : g.neighbors(b)) {
      if (m[static_cast<std::size_t>(y)] != dmpc::kNoVertex) continue;
      // Need a free neighbor of a distinct from y.
      for (VertexId x : free_a) {
        if (x != y) return true;
      }
    }
  }
  return false;
}

std::size_t matching_size(const Matching& m) {
  std::size_t matched = 0;
  for (VertexId mate : m) {
    if (mate != dmpc::kNoVertex) ++matched;
  }
  return matched / 2;
}

namespace {

/// Blossom (Edmonds) maximum matching on general graphs.  Classic O(V^3)
/// formulation with base-array blossom contraction.
class Blossom {
 public:
  explicit Blossom(const DynamicGraph& g)
      : g_(g),
        n_(g.num_vertices()),
        match_(n_, -1),
        parent_(n_),
        base_(n_),
        q_(),
        used_(n_),
        blossom_(n_) {}

  std::size_t solve() {
    std::size_t result = 0;
    for (std::size_t v = 0; v < n_; ++v) {
      if (match_[v] == -1 && try_augment(static_cast<int>(v))) ++result;
    }
    return result;
  }

 private:
  int lca(int a, int b) {
    std::vector<bool> used(n_, false);
    for (;;) {
      a = static_cast<int>(base_[static_cast<std::size_t>(a)]);
      used[static_cast<std::size_t>(a)] = true;
      if (match_[static_cast<std::size_t>(a)] == -1) break;
      a = parent_[static_cast<std::size_t>(
          match_[static_cast<std::size_t>(a)])];
    }
    for (;;) {
      b = static_cast<int>(base_[static_cast<std::size_t>(b)]);
      if (used[static_cast<std::size_t>(b)]) return b;
      b = parent_[static_cast<std::size_t>(
          match_[static_cast<std::size_t>(b)])];
    }
  }

  void mark_path(int v, int b, int child) {
    while (static_cast<int>(base_[static_cast<std::size_t>(v)]) != b) {
      blossom_[base_[static_cast<std::size_t>(v)]] = true;
      blossom_[base_[static_cast<std::size_t>(
          match_[static_cast<std::size_t>(v)])]] = true;
      parent_[static_cast<std::size_t>(v)] = child;
      child = match_[static_cast<std::size_t>(v)];
      v = parent_[static_cast<std::size_t>(
          match_[static_cast<std::size_t>(v)])];
    }
  }

  bool try_augment(int root) {
    std::fill(used_.begin(), used_.end(), false);
    std::fill(parent_.begin(), parent_.end(), -1);
    for (std::size_t i = 0; i < n_; ++i) base_[i] = i;
    used_[static_cast<std::size_t>(root)] = true;
    std::queue<int> q;
    q.push(root);
    while (!q.empty()) {
      int v = q.front();
      q.pop();
      for (VertexId to_id : g_.neighbors(v)) {
        int to = static_cast<int>(to_id);
        if (base_[static_cast<std::size_t>(v)] ==
                base_[static_cast<std::size_t>(to)] ||
            match_[static_cast<std::size_t>(v)] == to) {
          continue;
        }
        if (to == root ||
            (match_[static_cast<std::size_t>(to)] != -1 &&
             parent_[static_cast<std::size_t>(
                 match_[static_cast<std::size_t>(to)])] != -1)) {
          // Odd cycle: contract the blossom.
          int cur_base = lca(v, to);
          std::fill(blossom_.begin(), blossom_.end(), false);
          mark_path(v, cur_base, to);
          mark_path(to, cur_base, v);
          for (std::size_t i = 0; i < n_; ++i) {
            if (blossom_[base_[i]]) {
              base_[i] = static_cast<std::size_t>(cur_base);
              if (!used_[i]) {
                used_[i] = true;
                q.push(static_cast<int>(i));
              }
            }
          }
        } else if (parent_[static_cast<std::size_t>(to)] == -1) {
          parent_[static_cast<std::size_t>(to)] = v;
          if (match_[static_cast<std::size_t>(to)] == -1) {
            // Augment along the path to the root.
            int u = to;
            while (u != -1) {
              int pv = parent_[static_cast<std::size_t>(u)];
              int ppv = match_[static_cast<std::size_t>(pv)];
              match_[static_cast<std::size_t>(u)] = pv;
              match_[static_cast<std::size_t>(pv)] = u;
              u = ppv;
            }
            return true;
          }
          used_[static_cast<std::size_t>(
              match_[static_cast<std::size_t>(to)])] = true;
          q.push(match_[static_cast<std::size_t>(to)]);
        }
      }
    }
    return false;
  }

  const DynamicGraph& g_;
  std::size_t n_;
  std::vector<int> match_;
  std::vector<int> parent_;
  std::vector<std::size_t> base_;
  std::queue<int> q_;
  std::vector<bool> used_;
  std::vector<bool> blossom_;
};

}  // namespace

std::size_t maximum_matching_size(const DynamicGraph& g) {
  Blossom b(g);
  return b.solve();
}

}  // namespace oracle
