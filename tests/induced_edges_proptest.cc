// Differential property test for graph::InducedEdges: the CSR-slice
// implementation (cost = sum of member degrees) must return exactly the
// edge set of the retained whole-edge-list reference below, on random
// graphs with heavy weight ties, isolated vertices, duplicate ids in the
// subset, the empty subset and the full vertex set. The two consumers
// whose results hang on the edge set -- MaxEdgeWeightWithin and
// ReferenceCentralizedKClustering -- must agree through both versions too.

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/centralized_tconn.h"
#include "graph/connectivity.h"
#include "graph/metrics.h"
#include "graph/wpg.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace nela::graph {
namespace {

// The original InducedEdges: one pass over the whole edge list with a hash
// probe per endpoint (O(E) whatever the subset), in edge-insertion order
// and orientation.
std::vector<Edge> ReferenceInducedEdges(const Wpg& graph,
                                        const std::vector<VertexId>& vertices) {
  std::unordered_set<VertexId> in_set(vertices.begin(), vertices.end());
  std::vector<Edge> out;
  for (const Edge& e : graph.edges()) {
    if (in_set.count(e.u) > 0 && in_set.count(e.v) > 0) out.push_back(e);
  }
  return out;
}

// Order- and orientation-free form of an edge list: (weight, lo, hi)
// triples sorted by KeyOf.
std::vector<std::tuple<double, VertexId, VertexId>> Canonical(
    std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return KeyOf(a) < KeyOf(b);
  });
  std::vector<std::tuple<double, VertexId, VertexId>> out;
  out.reserve(edges.size());
  for (const Edge& e : edges) {
    const EdgeKey key = KeyOf(e);
    out.emplace_back(key.weight, key.lo, key.hi);
  }
  return out;
}

// A random graph on `n` vertices: a sparse random edge set (so isolated
// vertices are common) with small integer weights (so ties are pervasive).
Wpg RandomGraph(util::Rng& rng, uint32_t n) {
  Wpg graph(n);
  std::set<std::pair<VertexId, VertexId>> used;
  const uint64_t attempts = rng.NextUint64(3ull * n + 1);
  const uint64_t weights = 1 + rng.NextUint64(6);
  for (uint64_t i = 0; i < attempts; ++i) {
    const auto a = static_cast<VertexId>(rng.NextUint64(n));
    const auto b = static_cast<VertexId>(rng.NextUint64(n));
    if (a == b || !used.insert({std::min(a, b), std::max(a, b)}).second) {
      continue;
    }
    graph.AddEdge(a, b, static_cast<double>(1 + rng.NextUint64(weights)));
  }
  graph.SortAdjacencyByWeight();
  return graph;
}

std::set<std::pair<std::vector<VertexId>, double>> AsSet(
    const cluster::Partition& partition) {
  std::set<std::pair<std::vector<VertexId>, double>> out;
  for (size_t i = 0; i < partition.clusters.size(); ++i) {
    out.insert({partition.clusters[i], partition.connectivity[i]});
  }
  return out;
}

// Checks one (graph, subset) pair; `subset` may contain duplicates.
std::optional<std::string> CheckSubset(const Wpg& graph,
                                       const std::vector<VertexId>& subset,
                                       const std::string& what) {
  const std::vector<Edge> fast = InducedEdges(graph, subset);
  const std::vector<Edge> reference = ReferenceInducedEdges(graph, subset);
  if (Canonical(fast) != Canonical(reference)) {
    return what + ": edge sets differ (" + std::to_string(fast.size()) +
           " CSR vs " + std::to_string(reference.size()) + " reference)";
  }
  for (const Edge& e : fast) {
    if (e.u >= e.v) return what + ": edge not oriented from its lower end";
  }
  double reference_mew = 0.0;
  for (const Edge& e : reference) {
    reference_mew = std::max(reference_mew, e.weight);
  }
  if (MaxEdgeWeightWithin(graph, subset) != reference_mew) {
    return what + ": MaxEdgeWeightWithin differs from the reference";
  }
  return std::nullopt;
}

std::optional<std::string> CsrMatchesReference(util::Rng& rng,
                                               uint32_t size) {
  const uint32_t n = 1 + size;
  const Wpg graph = RandomGraph(rng, n);

  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  std::vector<VertexId> picked;
  for (VertexId v = 0; v < n; ++v) {
    if (rng.NextBernoulli(0.5)) picked.push_back(v);
  }
  std::vector<VertexId> with_duplicates = picked;
  for (uint64_t i = rng.NextUint64(n + 1); i > 0; --i) {
    with_duplicates.push_back(static_cast<VertexId>(rng.NextUint64(n)));
  }
  // Shuffle so neither version can lean on sorted input.
  for (size_t i = with_duplicates.size(); i > 1; --i) {
    std::swap(with_duplicates[i - 1],
              with_duplicates[rng.NextUint64(static_cast<uint64_t>(i))]);
  }

  for (const auto& [subset, what] :
       {std::pair{std::vector<VertexId>{}, std::string("empty set")},
        std::pair{all, std::string("full vertex set")},
        std::pair{picked, std::string("random subset")},
        std::pair{with_duplicates, std::string("subset with duplicates")}}) {
    if (auto failure = CheckSubset(graph, subset, what)) return failure;
  }

  // ReferenceCentralizedKClustering through both versions: on `graph` it
  // reads the CSR InducedEdges; on the subgraph holding exactly the
  // reference induced edges, every edge is induced, so it reads the
  // reference set. The partitions (clusters with their connectivity) must
  // match.
  if (!picked.empty()) {
    Wpg induced(n);
    for (const Edge& e : ReferenceInducedEdges(graph, picked)) {
      induced.AddEdge(e.u, e.v, e.weight);
    }
    induced.SortAdjacencyByWeight();
    const auto k = static_cast<uint32_t>(1 + rng.NextUint64(4));
    const cluster::Partition through_csr =
        cluster::ReferenceCentralizedKClustering(graph, picked, k);
    const cluster::Partition through_reference =
        cluster::ReferenceCentralizedKClustering(induced, picked, k);
    if (AsSet(through_csr) != AsSet(through_reference)) {
      return "ReferenceCentralizedKClustering differs through the two "
             "InducedEdges versions (k=" +
             std::to_string(k) + ")";
    }
  }
  return std::nullopt;
}

TEST(InducedEdgesProptest, CsrSlicesMatchWholeEdgeListReference) {
  util::PropSpec spec;
  spec.name = "induced_edges_proptest";
  spec.base_seed = 0x1d1ced6e5ull;
  spec.iterations = 200;  // CI elevates via NELA_PROPTEST_ITERS
  spec.min_size = 0;
  spec.max_size = 80;

  auto failure = util::RunProperty(spec, CsrMatchesReference);
  ASSERT_FALSE(failure.has_value()) << failure->message << "\n"
                                    << failure->repro;
}

// An edgeless graph: every subset, duplicates included, induces nothing.
TEST(InducedEdgesProptest, IsolatedVerticesInduceNothing) {
  const Wpg graph(5);
  EXPECT_TRUE(InducedEdges(graph, {0, 1, 2, 3, 4}).empty());
  EXPECT_TRUE(InducedEdges(graph, {3, 3, 1}).empty());
  EXPECT_DOUBLE_EQ(MaxEdgeWeightWithin(graph, {0, 4}), 0.0);
}

}  // namespace
}  // namespace nela::graph
