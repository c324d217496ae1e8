#ifndef KGFD_GRAPH_METRICS_H_
#define KGFD_GRAPH_METRICS_H_

#include <vector>

#include "graph/adjacency.h"
#include "kg/types.h"

namespace kgfd {

/// Per-node local triangle counts T(v): the number of edges among the
/// neighbors of v in the undirected projection. Degree-ordered "forward"
/// counting: each edge points at its higher (degree, id) end, so every node
/// scans only out-lists of O(sqrt |E|) entries, and each triangle is found
/// once and credits 1 to each of its three corners. Exact integer counts,
/// O(|E|^1.5) time, O(|E| + |V|) extra memory.
std::vector<uint64_t> LocalTriangleCounts(const Adjacency& adj);

/// Per-node local clustering coefficient (Watts-Strogatz):
///   c(v) = 2 T(v) / (deg(v) (deg(v) - 1)), and 0 when deg(v) < 2.
std::vector<double> LocalClusteringCoefficients(const Adjacency& adj);

/// Same, reusing precomputed triangle counts.
std::vector<double> LocalClusteringCoefficients(
    const Adjacency& adj, const std::vector<uint64_t>& triangles);

/// Mean of the local clustering coefficients over all nodes — the dataset
/// density measure the paper's Fig. 3 reports (red line).
double AverageClusteringCoefficient(const Adjacency& adj);

/// Per-node square (4-cycle) clustering coefficient of Zhang et al. (2008),
/// the weight source of CLUSTERING_SQUARES. Deliberately follows the
/// paper's formula directly (pairwise neighbor enumeration), which is the
/// reason the strategy is orders of magnitude slower — the behaviour the
/// paper reports when excluding it.
std::vector<double> SquareClusteringCoefficients(const Adjacency& adj);

/// Undirected degrees deg(v), the weight source of GRAPH_DEGREE.
std::vector<uint64_t> Degrees(const Adjacency& adj);

namespace reference {

/// O(n^3)-ish brute-force implementations used only by the property tests.
std::vector<uint64_t> LocalTriangleCountsBruteForce(const Adjacency& adj);
std::vector<double> SquareClusteringCoefficientsBruteForce(
    const Adjacency& adj);

}  // namespace reference

}  // namespace kgfd

#endif  // KGFD_GRAPH_METRICS_H_
