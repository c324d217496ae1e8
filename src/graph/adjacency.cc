#include "graph/adjacency.h"

#include <algorithm>

namespace kgfd {

template <typename ForEachEdge>
Adjacency Adjacency::Build(size_t num_nodes,
                           const ForEachEdge& for_each_edge) {
  // Counting sort: bucket both directions of every kept edge by source,
  // then sort and dedupe each row in place, packing rows down as we go.
  Adjacency adj;
  adj.offsets_.assign(num_nodes + 1, 0);
  const auto keep = [num_nodes](EntityId u, EntityId v) {
    return u != v && u < num_nodes && v < num_nodes;
  };
  for_each_edge([&](EntityId u, EntityId v) {
    if (!keep(u, v)) return;
    ++adj.offsets_[u + 1];
    ++adj.offsets_[v + 1];
  });
  for (size_t i = 1; i <= num_nodes; ++i) {
    adj.offsets_[i] += adj.offsets_[i - 1];
  }
  adj.neighbor_ids_.resize(adj.offsets_[num_nodes]);
  std::vector<size_t> cursor(adj.offsets_.begin(), adj.offsets_.end() - 1);
  for_each_edge([&](EntityId u, EntityId v) {
    if (!keep(u, v)) return;
    adj.neighbor_ids_[cursor[u]++] = v;
    adj.neighbor_ids_[cursor[v]++] = u;
  });

  EntityId* ids = adj.neighbor_ids_.data();
  size_t packed = 0;
  for (size_t u = 0; u < num_nodes; ++u) {
    EntityId* row = ids + adj.offsets_[u];
    EntityId* row_end = ids + adj.offsets_[u + 1];
    std::sort(row, row_end);
    row_end = std::unique(row, row_end);
    adj.offsets_[u] = packed;
    // packed <= the row's start, so moving the row down is a forward copy.
    for (const EntityId* p = row; p != row_end; ++p) ids[packed++] = *p;
  }
  adj.offsets_[num_nodes] = packed;
  adj.neighbor_ids_.resize(packed);
  return adj;
}

Adjacency Adjacency::FromTripleStore(const TripleStore& store) {
  return Build(store.num_entities(), [&store](const auto& emit) {
    for (const Triple& t : store.triples()) emit(t.subject, t.object);
  });
}

Adjacency Adjacency::FromEdges(
    size_t num_nodes,
    const std::vector<std::pair<EntityId, EntityId>>& edges) {
  return Build(num_nodes, [&edges](const auto& emit) {
    for (const auto& [u, v] : edges) emit(u, v);
  });
}

bool Adjacency::HasEdge(EntityId u, EntityId v) const {
  if (u >= num_nodes()) return false;
  return std::binary_search(NeighborsBegin(u), NeighborsEnd(u), v);
}

}  // namespace kgfd
