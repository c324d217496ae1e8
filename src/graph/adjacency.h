#ifndef KGFD_GRAPH_ADJACENCY_H_
#define KGFD_GRAPH_ADJACENCY_H_

#include <cstddef>
#include <vector>

#include "kg/triple_store.h"
#include "kg/types.h"

namespace kgfd {

/// Undirected homogeneous projection of a KG, as assumed by the paper's
/// triangle/clustering/square strategies: relation labels and edge
/// directions are dropped, parallel edges collapse, self-loops are removed.
/// Neighbor lists are sorted and duplicate-free (CSR layout). Both
/// builders run one counting sort: a pass counts each node's edge ends, a
/// second drops both directions of every edge into its source's row, then
/// each row is sorted and deduplicated in place, in O(|E| + sum of d log d).
class Adjacency {
 public:
  /// Builds the projection of `store` over all its entities, reading
  /// `store.triples()` directly.
  static Adjacency FromTripleStore(const TripleStore& store);

  /// Builds from an explicit undirected edge list over `num_nodes` nodes
  /// (used by tests and the synthetic generator's diagnostics). Self-loops
  /// and duplicates are dropped.
  static Adjacency FromEdges(size_t num_nodes,
                             const std::vector<std::pair<EntityId, EntityId>>&
                                 edges);

  size_t num_nodes() const { return offsets_.size() - 1; }
  size_t num_edges() const { return neighbor_ids_.size() / 2; }

  /// Undirected degree of `v` (number of distinct neighbors).
  size_t Degree(EntityId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Sorted distinct neighbors of `v`.
  const EntityId* NeighborsBegin(EntityId v) const {
    return neighbor_ids_.data() + offsets_[v];
  }
  const EntityId* NeighborsEnd(EntityId v) const {
    return neighbor_ids_.data() + offsets_[v + 1];
  }

  /// Binary-search membership test.
  bool HasEdge(EntityId u, EntityId v) const;

 private:
  Adjacency() = default;

  /// The one builder: `for_each_edge(emit)` calls `emit(u, v)` for every
  /// input edge and is called twice. Self-loops and ids >= num_nodes are
  /// dropped.
  template <typename ForEachEdge>
  static Adjacency Build(size_t num_nodes, const ForEachEdge& for_each_edge);

  std::vector<size_t> offsets_;      // num_nodes + 1
  std::vector<EntityId> neighbor_ids_;
};

}  // namespace kgfd

#endif  // KGFD_GRAPH_ADJACENCY_H_
