#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/registry.h"

namespace nela::cluster {
namespace {

TEST(RegistryTest, StartsUnclustered) {
  Registry registry(4);
  EXPECT_EQ(registry.user_count(), 4u);
  EXPECT_EQ(registry.cluster_count(), 0u);
  EXPECT_EQ(registry.clustered_user_count(), 0u);
  for (graph::VertexId v = 0; v < 4; ++v) {
    EXPECT_FALSE(registry.IsClustered(v));
    EXPECT_EQ(registry.ClusterOf(v), kNoCluster);
    EXPECT_TRUE(registry.active()[v]);
  }
}

TEST(RegistryTest, RegisterAssignsAllMembers) {
  Registry registry(5);
  auto id = registry.Register({3, 1}, 2.0, true);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(registry.cluster_count(), 1u);
  EXPECT_EQ(registry.clustered_user_count(), 2u);
  EXPECT_TRUE(registry.IsClustered(1));
  EXPECT_TRUE(registry.IsClustered(3));
  EXPECT_FALSE(registry.IsClustered(0));
  EXPECT_EQ(registry.ClusterOf(1), id.value());
  EXPECT_EQ(registry.ClusterOf(3), id.value());
  EXPECT_FALSE(registry.active()[1]);
  // Members are stored sorted: reciprocity means one shared set.
  EXPECT_EQ(registry.info(id.value()).members,
            (std::vector<graph::VertexId>{1, 3}));
  EXPECT_DOUBLE_EQ(registry.info(id.value()).connectivity, 2.0);
  EXPECT_TRUE(registry.info(id.value()).valid);
}

TEST(RegistryTest, RejectsEmptyCluster) {
  Registry registry(3);
  EXPECT_FALSE(registry.Register({}, 0.0, true).ok());
}

TEST(RegistryTest, RejectsOutOfRangeMember) {
  Registry registry(3);
  EXPECT_FALSE(registry.Register({5}, 0.0, true).ok());
}

TEST(RegistryTest, RejectsDuplicateMember) {
  Registry registry(3);
  EXPECT_FALSE(registry.Register({1, 1}, 0.0, true).ok());
}

TEST(RegistryTest, ReciprocityForbidsReassignment) {
  Registry registry(4);
  ASSERT_TRUE(registry.Register({0, 1}, 1.0, true).ok());
  auto second = registry.Register({1, 2}, 1.0, true);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), util::StatusCode::kFailedPrecondition);
  // The failed registration must not have clustered vertex 2.
  EXPECT_FALSE(registry.IsClustered(2));
}

TEST(RegistryTest, RegionSetOnce) {
  Registry registry(2);
  auto id = registry.Register({0, 1}, 1.0, true);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(registry.info(id.value()).region.has_value());
  registry.SetRegion(id.value(), geo::Rect(0, 0, 1, 1));
  ASSERT_TRUE(registry.info(id.value()).region.has_value());
  EXPECT_EQ(*registry.info(id.value()).region, geo::Rect(0, 0, 1, 1));
}

TEST(RegistryTest, InvalidClusterIsRecorded) {
  Registry registry(2);
  auto id = registry.Register({0}, 0.0, false);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(registry.info(id.value()).valid);
}

// ------------------------------------------------- Snapshot() views

// A live registry of 40 users with three committed clusters (one invalid)
// and one published region.
std::unique_ptr<Registry> PopulatedRegistry() {
  auto live = std::make_unique<Registry>(40);
  EXPECT_TRUE(live->Register({4, 9, 13}, 2.0, true).ok());
  EXPECT_TRUE(live->Register({20, 1}, 3.0, false).ok());
  EXPECT_TRUE(live->Register({39, 30, 31, 35}, 1.5, true).ok());
  live->SetRegion(0, geo::Rect(0, 0, 1, 1));
  return live;
}

TEST(RegistryViewTest, IsClusteredMatchesLiveForEveryUser) {
  const auto live = PopulatedRegistry();
  uint64_t version = 0;
  const auto view = live->Snapshot(&version);
  EXPECT_EQ(version, live->version());
  EXPECT_EQ(view->version(), live->version());
  EXPECT_EQ(view->clustered_user_count(), live->clustered_user_count());
  for (graph::VertexId v = 0; v < live->user_count(); ++v) {
    EXPECT_EQ(view->IsClustered(v), live->IsClustered(v)) << "user " << v;
    EXPECT_EQ(view->active()[v], live->active()[v]) << "user " << v;
  }
  // The view is a snapshot: later live commits do not reach it.
  ASSERT_TRUE(live->Register({2, 3}, 1.0, true).ok());
  EXPECT_FALSE(view->IsClustered(2));
}

TEST(RegistryViewTest, RegisteringOnAViewLeavesTheLiveRegistryUnchanged) {
  const auto live = PopulatedRegistry();
  const uint64_t version = live->version();
  const uint64_t digest = live->Digest();
  const uint32_t clusters = live->cluster_count();
  const uint32_t clustered = live->clustered_user_count();

  const auto view = live->Snapshot();
  ASSERT_TRUE(view->Register({0, 2, 3}, 1.0, true).ok());
  ASSERT_TRUE(view->Register({5}, 0.0, false).ok());
  EXPECT_EQ(view->version(), version + 2);
  EXPECT_EQ(view->clustered_user_count(), clustered + 4);

  EXPECT_EQ(live->version(), version);
  EXPECT_EQ(live->Digest(), digest);
  EXPECT_EQ(live->cluster_count(), clusters);
  EXPECT_EQ(live->clustered_user_count(), clustered);
  EXPECT_FALSE(live->IsClustered(0));
  EXPECT_EQ(live->ClusterOf(5), kNoCluster);
}

TEST(RegistryViewTest, NewIdsStartAtTheLiveClusterCount) {
  const auto live = PopulatedRegistry();
  const auto view = live->Snapshot();
  EXPECT_EQ(view->cluster_count(), live->cluster_count());
  auto first = view->Register({7, 6}, 2.5, true);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), live->cluster_count());
  auto second = view->Register({8}, 0.0, false);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), live->cluster_count() + 1);
  EXPECT_EQ(view->cluster_count(), live->cluster_count() + 2);

  // The view's own clusters read back like live ones.
  EXPECT_EQ(view->ClusterOf(6), first.value());
  EXPECT_EQ(view->ClusterOf(8), second.value());
  EXPECT_EQ(view->ClusterOf(0), kNoCluster);
  EXPECT_EQ(view->info(first.value()).members,
            (std::vector<graph::VertexId>{6, 7}));
  EXPECT_DOUBLE_EQ(view->info(first.value()).connectivity, 2.5);
  EXPECT_FALSE(view->info(second.value()).valid);
  EXPECT_FALSE(view->RegionOf(first.value()).has_value());
  view->SetRegion(first.value(), geo::Rect(0, 0, 2, 2));
  EXPECT_EQ(*view->RegionOf(first.value()), geo::Rect(0, 0, 2, 2));
}

TEST(RegistryViewTest, ViewEnforcesReciprocityAgainstPreSnapshotClusters) {
  const auto live = PopulatedRegistry();
  const auto view = live->Snapshot();
  auto clash = view->Register({9, 10}, 1.0, true);
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(view->IsClustered(10));
  EXPECT_EQ(view->cluster_count(), live->cluster_count());
}

TEST(RegistryViewDeathTest, ClusterOfAPreSnapshotClusterAborts) {
  const auto live = PopulatedRegistry();
  const auto view = live->Snapshot();
  EXPECT_DEATH((void)view->ClusterOf(9), "NELA_CHECK");
}

TEST(RegistryViewDeathTest, InfoOfAPreSnapshotClusterAborts) {
  const auto live = PopulatedRegistry();
  const auto view = live->Snapshot();
  EXPECT_DEATH((void)view->info(0), "NELA_CHECK");
  EXPECT_DEATH((void)view->RegionOf(0), "NELA_CHECK");
  EXPECT_DEATH(view->SetRegion(1, geo::Rect(0, 0, 1, 1)), "NELA_CHECK");
}

}  // namespace
}  // namespace nela::cluster
