// Connectivity queries over (subsets of) a WPG.
//
// The distributed clustering algorithm works on the "remaining WPG": the
// graph minus already-clustered vertices. Rather than materializing
// subgraphs, these helpers take an `active` mask (nullptr = all vertices
// active).

#ifndef NELA_GRAPH_CONNECTIVITY_H_
#define NELA_GRAPH_CONNECTIVITY_H_

#include <cstdint>
#include <vector>

#include "graph/wpg.h"

namespace nela::graph {

// Vertices reachable from `start` via active vertices and edges with
// KeyOf(edge) <= `t` (the refined t-connectivity class of Definition 4.1;
// use EdgeKey::UpTo(w) for a plain scalar threshold). When `stop_size` > 0
// the search stops as soon as that many vertices are found (used by the
// "does v have a valid t-connectivity cluster" check, which only needs
// size >= k). Result is in BFS order, `start` first.
std::vector<VertexId> ThresholdComponent(const Wpg& graph, VertexId start,
                                         EdgeKey t,
                                         const std::vector<bool>* active,
                                         uint32_t stop_size = 0);

// Scalar-threshold convenience overload (admits every edge of weight <= t).
inline std::vector<VertexId> ThresholdComponent(
    const Wpg& graph, VertexId start, double t,
    const std::vector<bool>* active, uint32_t stop_size = 0) {
  return ThresholdComponent(graph, start, EdgeKey::UpTo(t), active,
                            stop_size);
}

// True when the subgraph induced by `vertices` is connected. An empty set
// is connected by convention.
bool IsInducedConnected(const Wpg& graph, const std::vector<VertexId>& vertices);

// Connected components of the subgraph induced by `vertices`, each sorted
// ascending; component order follows the smallest contained vertex.
std::vector<std::vector<VertexId>> InducedComponents(
    const Wpg& graph, const std::vector<VertexId>& vertices);

// Edges of the subgraph induced by `vertices` (duplicates in `vertices`
// are ignored), read from the members' CSR slices in O(sum of member
// degrees * log |vertices|) -- never from the global edge list. Each edge
// appears once, oriented u < v, ordered by u then by adjacency order;
// callers that need a canonical order sort by KeyOf.
std::vector<Edge> InducedEdges(const Wpg& graph,
                               const std::vector<VertexId>& vertices);

}  // namespace nela::graph

#endif  // NELA_GRAPH_CONNECTIVITY_H_
