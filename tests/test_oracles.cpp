// Tests for the ground-truth oracles themselves (DSU, components, MSF,
// matching validators, blossom maximum matching).
#include <gtest/gtest.h>

#include <random>

#include "graph/generators.hpp"
#include "oracle/dsu.hpp"
#include "oracle/oracles.hpp"

namespace {

using graph::DynamicGraph;
using graph::VertexId;
using graph::WeightedDynamicGraph;
using oracle::Matching;

TEST(Dsu, UniteAndFind) {
  oracle::Dsu dsu(5);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_FALSE(dsu.unite(1, 0));
  EXPECT_TRUE(dsu.unite(2, 3));
  EXPECT_FALSE(dsu.connected(0, 2));
  dsu.unite(1, 3);
  EXPECT_TRUE(dsu.connected(0, 2));
}

TEST(ConnectedComponents, CanonicalLabels) {
  DynamicGraph g(6);
  g.insert_edge(0, 1);
  g.insert_edge(1, 2);
  g.insert_edge(4, 5);
  const auto labels = oracle::connected_components(g);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 0);
  EXPECT_EQ(labels[2], 0);
  EXPECT_EQ(labels[3], 3);
  EXPECT_EQ(labels[4], 4);
  EXPECT_EQ(labels[5], 4);
}

TEST(SamePartition, ComparesClassesNotLabels) {
  using L = std::vector<VertexId>;
  // Canonical vertex-id labels against a forest's arbitrary component
  // ids: in-range, past n and negative labels alike.
  EXPECT_TRUE(oracle::same_partition({0, 0, 2, 3}, {9, 9, -5, 1}));
  EXPECT_TRUE(oracle::same_partition({0, 0, 2, 3}, {1, 1, 0, 2}));
  EXPECT_FALSE(oracle::same_partition({0, 0, 2, 3}, {9, 9, 9, 1}));  // merged
  EXPECT_FALSE(oracle::same_partition({0, 0, 2, 3}, {9, 7, 8, 1}));  // split
  EXPECT_FALSE(oracle::same_partition({0, 0, 2, 2}, {-1, -1, 7, -1}));
  EXPECT_FALSE(oracle::same_partition(L{0, 0}, L{0, 0, 0}));
  EXPECT_TRUE(oracle::same_partition(L{}, L{}));
}

TEST(MsfWeight, MatchesHandComputedTree) {
  WeightedDynamicGraph g(4);
  g.insert_edge(0, 1, 1);
  g.insert_edge(1, 2, 2);
  g.insert_edge(2, 3, 3);
  g.insert_edge(0, 3, 10);  // not in the MSF
  EXPECT_EQ(oracle::msf_weight(g), 6);
}

TEST(MsfWeight, HandlesForests) {
  WeightedDynamicGraph g(5);
  g.insert_edge(0, 1, 5);
  g.insert_edge(3, 4, 7);
  EXPECT_EQ(oracle::msf_weight(g), 12);
}

TEST(MatchingValidators, ValidityChecks) {
  DynamicGraph g(4);
  g.insert_edge(0, 1);
  g.insert_edge(2, 3);
  Matching m(4, dmpc::kNoVertex);
  EXPECT_TRUE(oracle::matching_is_valid(g, m));
  EXPECT_FALSE(oracle::matching_is_maximal(g, m));
  m[0] = 1;
  m[1] = 0;
  EXPECT_TRUE(oracle::matching_is_valid(g, m));
  EXPECT_EQ(oracle::count_augmenting_edges(g, m), 1u);
  m[2] = 3;
  m[3] = 2;
  EXPECT_TRUE(oracle::matching_is_maximal(g, m));
  EXPECT_EQ(oracle::matching_size(m), 2u);
  // Asymmetric mate array is invalid.
  m[3] = dmpc::kNoVertex;
  EXPECT_FALSE(oracle::matching_is_valid(g, m));
  // Matching over a non-edge is invalid.
  Matching bad(4, dmpc::kNoVertex);
  bad[0] = 2;
  bad[2] = 0;
  EXPECT_FALSE(oracle::matching_is_valid(g, bad));
}

TEST(MatchingValidators, Length3AugmentingPathDetection) {
  // Path 0-1-2-3 with only (1,2) matched has the length-3 augmenting path
  // 0,1,2,3.
  DynamicGraph g(4);
  g.insert_edge(0, 1);
  g.insert_edge(1, 2);
  g.insert_edge(2, 3);
  Matching m(4, dmpc::kNoVertex);
  m[1] = 2;
  m[2] = 1;
  EXPECT_TRUE(oracle::has_length3_augmenting_path(g, m));
  // Matching (0,1),(2,3) is maximum: no augmenting path.
  Matching mm(4, dmpc::kNoVertex);
  mm[0] = 1;
  mm[1] = 0;
  mm[2] = 3;
  mm[3] = 2;
  EXPECT_FALSE(oracle::has_length3_augmenting_path(g, mm));
}

TEST(MatchingValidators, TriangleHasNoLength3Path) {
  DynamicGraph g(3);
  g.insert_edge(0, 1);
  g.insert_edge(1, 2);
  g.insert_edge(0, 2);
  Matching m(3, dmpc::kNoVertex);
  m[0] = 1;
  m[1] = 0;
  // Vertex 2 is free and adjacent to both matched endpoints, but a
  // length-3 path needs two distinct free endpoints.
  EXPECT_FALSE(oracle::has_length3_augmenting_path(g, m));
}

TEST(Blossom, PathGraphMatching) {
  DynamicGraph g(5);
  for (VertexId v = 0; v + 1 < 5; ++v) g.insert_edge(v, v + 1);
  EXPECT_EQ(oracle::maximum_matching_size(g), 2u);
}

TEST(Blossom, OddCycleNeedsContraction) {
  DynamicGraph g(5);
  for (VertexId v = 0; v < 5; ++v) g.insert_edge(v, (v + 1) % 5);
  EXPECT_EQ(oracle::maximum_matching_size(g), 2u);
}

TEST(Blossom, PetersenGraphHasPerfectMatching) {
  DynamicGraph g(10);
  for (VertexId v = 0; v < 5; ++v) {
    g.insert_edge(v, (v + 1) % 5);      // outer cycle
    g.insert_edge(5 + v, 5 + (v + 2) % 5);  // inner pentagram
    g.insert_edge(v, 5 + v);            // spokes
  }
  EXPECT_EQ(oracle::maximum_matching_size(g), 5u);
}

TEST(Blossom, CompleteGraphPerfectMatching) {
  DynamicGraph g(8);
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) g.insert_edge(u, v);
  }
  EXPECT_EQ(oracle::maximum_matching_size(g), 4u);
}

TEST(Blossom, StarMatchesOneEdge) {
  DynamicGraph g(6);
  for (VertexId v = 1; v < 6; ++v) g.insert_edge(0, v);
  EXPECT_EQ(oracle::maximum_matching_size(g), 1u);
}

class BlossomRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlossomRandomTest, AtLeastGreedyAndAtMostHalfVertices) {
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 16;
  const auto edges = graph::gnm(n, 30, GetParam());
  DynamicGraph g(n);
  for (auto [u, v] : edges) g.insert_edge(u, v);
  // Greedy maximal matching lower-bounds maximum matching via the
  // 2-approximation property: max <= 2 * greedy, and max >= greedy.
  Matching greedy(n, dmpc::kNoVertex);
  for (auto [u, v] : edges) {
    if (greedy[static_cast<std::size_t>(u)] == dmpc::kNoVertex &&
        greedy[static_cast<std::size_t>(v)] == dmpc::kNoVertex) {
      greedy[static_cast<std::size_t>(u)] = v;
      greedy[static_cast<std::size_t>(v)] = u;
    }
  }
  const std::size_t gm = oracle::matching_size(greedy);
  const std::size_t mm = oracle::maximum_matching_size(g);
  EXPECT_GE(mm, gm);
  EXPECT_LE(mm, 2 * gm);
  EXPECT_LE(mm, n / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlossomRandomTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
