#include "graph/metrics.h"

namespace kgfd {
namespace {

/// Number of elements in the sorted ranges' intersection.
size_t SortedIntersectionSize(const EntityId* a_begin, const EntityId* a_end,
                              const EntityId* b_begin, const EntityId* b_end,
                              EntityId exclude) {
  size_t count = 0;
  while (a_begin != a_end && b_begin != b_end) {
    if (*a_begin < *b_begin) {
      ++a_begin;
    } else if (*b_begin < *a_begin) {
      ++b_begin;
    } else {
      if (*a_begin != exclude) ++count;
      ++a_begin;
      ++b_begin;
    }
  }
  return count;
}

}  // namespace

std::vector<uint64_t> LocalTriangleCounts(const Adjacency& adj) {
  // Forward counting (Schank & Wagner 2005; Latapy 2008): orient each edge
  // toward its higher (degree, id) end. A triangle whose corners rank
  // u < v < w is then found exactly once: w is in the out-lists of both u
  // and v, and v is in u's.
  const size_t n = adj.num_nodes();
  const auto ranks_above = [&adj](EntityId v, EntityId u) {
    const size_t dv = adj.Degree(v);
    const size_t du = adj.Degree(u);
    return dv > du || (dv == du && v > u);
  };
  std::vector<size_t> out_offsets(n + 1, 0);
  std::vector<EntityId> out_ids;
  out_ids.reserve(adj.num_edges());
  for (EntityId u = 0; u < n; ++u) {
    for (const EntityId* vp = adj.NeighborsBegin(u); vp != adj.NeighborsEnd(u);
         ++vp) {
      if (ranks_above(*vp, u)) out_ids.push_back(*vp);
    }
    out_offsets[u + 1] = out_ids.size();
  }

  std::vector<uint64_t> counts(n, 0);
  // stamp[w] == u while u's out-list is marked; n means never marked.
  std::vector<size_t> stamp(n, n);
  for (EntityId u = 0; u < n; ++u) {
    const EntityId* u_begin = out_ids.data() + out_offsets[u];
    const EntityId* u_end = out_ids.data() + out_offsets[u + 1];
    for (const EntityId* wp = u_begin; wp != u_end; ++wp) stamp[*wp] = u;
    for (const EntityId* vp = u_begin; vp != u_end; ++vp) {
      const EntityId v = *vp;
      const EntityId* v_end = out_ids.data() + out_offsets[v + 1];
      for (const EntityId* wp = out_ids.data() + out_offsets[v]; wp != v_end;
           ++wp) {
        if (stamp[*wp] != u) continue;
        ++counts[u];
        ++counts[v];
        ++counts[*wp];
      }
    }
  }
  return counts;
}

std::vector<double> LocalClusteringCoefficients(
    const Adjacency& adj, const std::vector<uint64_t>& triangles) {
  const size_t n = adj.num_nodes();
  std::vector<double> c(n, 0.0);
  for (EntityId v = 0; v < n; ++v) {
    const double deg = static_cast<double>(adj.Degree(v));
    if (deg >= 2.0) {
      c[v] = 2.0 * static_cast<double>(triangles[v]) / (deg * (deg - 1.0));
    }
  }
  return c;
}

std::vector<double> LocalClusteringCoefficients(const Adjacency& adj) {
  return LocalClusteringCoefficients(adj, LocalTriangleCounts(adj));
}

double AverageClusteringCoefficient(const Adjacency& adj) {
  const std::vector<double> c = LocalClusteringCoefficients(adj);
  if (c.empty()) return 0.0;
  double sum = 0.0;
  for (double v : c) sum += v;
  return sum / static_cast<double>(c.size());
}

std::vector<double> SquareClusteringCoefficients(const Adjacency& adj) {
  // Zhang et al. (2008) as implemented by NetworkX square_clustering: for
  // each pair (u, w) of neighbors of v, q = |N(u) ∩ N(w) \ {v}| squares are
  // closed, against a potential of (k_u - degm) + (k_w - degm) + q where
  // degm = q + 1 + [u ~ w].
  const size_t n = adj.num_nodes();
  std::vector<double> c4(n, 0.0);
  for (EntityId v = 0; v < n; ++v) {
    const EntityId* nv_begin = adj.NeighborsBegin(v);
    const EntityId* nv_end = adj.NeighborsEnd(v);
    double closed = 0.0;
    double potential = 0.0;
    for (const EntityId* up = nv_begin; up != nv_end; ++up) {
      for (const EntityId* wp = up + 1; wp != nv_end; ++wp) {
        const EntityId u = *up;
        const EntityId w = *wp;
        const double q = static_cast<double>(SortedIntersectionSize(
            adj.NeighborsBegin(u), adj.NeighborsEnd(u),
            adj.NeighborsBegin(w), adj.NeighborsEnd(w), v));
        double degm = q + 1.0;
        if (adj.HasEdge(u, w)) degm += 1.0;
        closed += q;
        potential += (static_cast<double>(adj.Degree(u)) - degm) +
                     (static_cast<double>(adj.Degree(w)) - degm) + q;
      }
    }
    if (potential > 0.0) c4[v] = closed / potential;
  }
  return c4;
}

std::vector<uint64_t> Degrees(const Adjacency& adj) {
  std::vector<uint64_t> deg(adj.num_nodes());
  for (EntityId v = 0; v < adj.num_nodes(); ++v) deg[v] = adj.Degree(v);
  return deg;
}

namespace reference {

std::vector<uint64_t> LocalTriangleCountsBruteForce(const Adjacency& adj) {
  // Direct transcription of the definition: T(v) = |{(u, w) ⊆ N(v) : u~w}|.
  const size_t n = adj.num_nodes();
  std::vector<uint64_t> counts(n, 0);
  for (EntityId v = 0; v < n; ++v) {
    for (const EntityId* up = adj.NeighborsBegin(v);
         up != adj.NeighborsEnd(v); ++up) {
      for (const EntityId* wp = up + 1; wp != adj.NeighborsEnd(v); ++wp) {
        if (adj.HasEdge(*up, *wp)) ++counts[v];
      }
    }
  }
  return counts;
}

std::vector<double> SquareClusteringCoefficientsBruteForce(
    const Adjacency& adj) {
  // Counts 4-cycles through v directly: v - u - x - w - v with u != w,
  // x != v; each square is found twice per (u, w) unordered pair, so the
  // per-pair counting below matches the formula's q_v(u, w).
  const size_t n = adj.num_nodes();
  std::vector<double> c4(n, 0.0);
  for (EntityId v = 0; v < n; ++v) {
    double closed = 0.0;
    double potential = 0.0;
    for (const EntityId* up = adj.NeighborsBegin(v);
         up != adj.NeighborsEnd(v); ++up) {
      for (const EntityId* wp = up + 1; wp != adj.NeighborsEnd(v); ++wp) {
        const EntityId u = *up;
        const EntityId w = *wp;
        double q = 0.0;
        for (const EntityId* xp = adj.NeighborsBegin(u);
             xp != adj.NeighborsEnd(u); ++xp) {
          if (*xp != v && adj.HasEdge(*xp, w)) q += 1.0;
        }
        double degm = q + 1.0;
        if (adj.HasEdge(u, w)) degm += 1.0;
        closed += q;
        potential += (static_cast<double>(adj.Degree(u)) - degm) +
                     (static_cast<double>(adj.Degree(w)) - degm) + q;
      }
    }
    if (potential > 0.0) c4[v] = closed / potential;
  }
  return c4;
}

}  // namespace reference
}  // namespace kgfd
