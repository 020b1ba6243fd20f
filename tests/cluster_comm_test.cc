#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.h"
#include "cluster/link.h"
#include "comm/collective.h"
#include "comm/group_pool.h"

namespace galvatron {
namespace {

TEST(ClusterTest, TitanNode8Shape) {
  ClusterSpec c = MakeTitanNode8(8 * kGiB);
  EXPECT_EQ(c.num_devices(), 8);
  EXPECT_EQ(c.device_memory_bytes(), 8 * kGiB);
  ASSERT_EQ(c.levels().size(), 1u);
  EXPECT_EQ(c.levels()[0].link.cls, LinkClass::kPcie3);
}

TEST(ClusterTest, Cluster16HasTwoIslands) {
  ClusterSpec c = MakeTitanCluster16(16 * kGiB);
  EXPECT_EQ(c.num_devices(), 16);
  ASSERT_EQ(c.levels().size(), 2u);
  // Within an island: PCIe. Across: InfiniBand.
  EXPECT_EQ(c.LinkBetween(0, 7).cls, LinkClass::kPcie3);
  EXPECT_EQ(c.LinkBetween(0, 8).cls, LinkClass::kInfiniBand100);
  EXPECT_EQ(c.LinkBetween(9, 15).cls, LinkClass::kPcie3);
}

TEST(ClusterTest, A100Cluster64) {
  ClusterSpec c = MakeA100Cluster64(32 * kGiB);
  EXPECT_EQ(c.num_devices(), 64);
  EXPECT_EQ(c.LinkBetween(0, 7).cls, LinkClass::kNvLink);
  EXPECT_EQ(c.LinkBetween(7, 8).cls, LinkClass::kInfiniBand100);
  EXPECT_GT(c.LinkBetween(0, 1).bandwidth_bytes_per_sec,
            c.LinkBetween(0, 63).bandwidth_bytes_per_sec);
}

TEST(ClusterTest, GroupBottleneckLink) {
  ClusterSpec c = MakeTitanCluster16(16 * kGiB);
  EXPECT_EQ(c.GroupBottleneckLink({0, 1, 2, 3}).cls, LinkClass::kPcie3);
  EXPECT_EQ(c.GroupBottleneckLink({0, 8}).cls, LinkClass::kInfiniBand100);
  EXPECT_EQ(c.GroupBottleneckLink({4, 5, 12, 13}).cls,
            LinkClass::kInfiniBand100);
}

TEST(ClusterTest, WithMemoryBudgetChangesOnlyMemory) {
  ClusterSpec c = MakeTitanNode8(8 * kGiB);
  ClusterSpec c20 = c.WithMemoryBudget(20 * kGiB);
  EXPECT_EQ(c20.device_memory_bytes(), 20 * kGiB);
  EXPECT_EQ(c20.num_devices(), c.num_devices());
  EXPECT_DOUBLE_EQ(c20.sustained_flops(), c.sustained_flops());
}

TEST(ClusterTest, CreateRejectsBadTopologies) {
  // Outermost span must equal device count.
  auto r1 = ClusterSpec::Create("bad", 8, kGiB, 1e12,
                                {TopologyLevel{4, DefaultLinkSpec(LinkClass::kPcie3)}});
  EXPECT_FALSE(r1.ok());
  // Spans must be nested multiples.
  auto r2 = ClusterSpec::Create(
      "bad", 12, kGiB, 1e12,
      {TopologyLevel{8, DefaultLinkSpec(LinkClass::kPcie3)},
       TopologyLevel{12, DefaultLinkSpec(LinkClass::kInfiniBand100)}});
  EXPECT_FALSE(r2.ok());
  // Zero devices.
  EXPECT_FALSE(ClusterSpec::Create("bad", 0, kGiB, 1e12, {}).ok());
}

// The per-device factory builds the same device table as re-applying
// each differing device through the copying range setters, and the range
// queries answer alike on both.
TEST(ClusterTest, CreateWithDevicesMatchesRangeSetters) {
  const ClusterSpec base = MakeTitanCluster16(16 * kGB);
  const ClusterSpec chained =
      base.WithDeviceMemoryRange(3, 5, 8 * kGB)
          .WithDeviceComputeRange(8, 8, 9e12, /*small_batch_half_life=*/0.5);
  std::vector<int64_t> memory;
  std::vector<double> flops;
  std::vector<double> half_life;
  for (const Device& d : chained.devices()) {
    memory.push_back(d.memory_bytes);
    flops.push_back(d.sustained_flops);
    half_life.push_back(d.small_batch_half_life);
  }
  auto built = ClusterSpec::CreateWithDevices(
      base.name(), memory, base.devices().front().sustained_flops, flops,
      half_life, base.levels());
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_EQ(built->num_devices(), chained.num_devices());
  EXPECT_FALSE(built->HasUniformCompute());
  for (int first = 0; first < chained.num_devices(); ++first) {
    for (int count = 1; first + count <= chained.num_devices(); ++count) {
      EXPECT_EQ(built->MinMemoryInRange(first, count),
                chained.MinMemoryInRange(first, count));
      EXPECT_EQ(built->MinSustainedFlopsInRange(first, count),
                chained.MinSustainedFlopsInRange(first, count));
      EXPECT_EQ(built->SmallBatchHalfLifeInRange(first, count),
                chained.SmallBatchHalfLifeInRange(first, count));
    }
  }

  // Without per-device compute the cluster stays uniform (the O(1) range
  // path), whatever the budgets.
  auto uniform = ClusterSpec::CreateWithDevices(
      base.name(), memory, 6.5e12, {}, {}, base.levels());
  ASSERT_TRUE(uniform.ok()) << uniform.status();
  EXPECT_TRUE(uniform->HasUniformCompute());
  EXPECT_EQ(uniform->MinSustainedFlopsInRange(2, 9), 6.5e12);
  EXPECT_EQ(uniform->SmallBatchHalfLifeInRange(2, 9),
            uniform->small_batch_half_life());

  EXPECT_FALSE(ClusterSpec::CreateWithDevices(base.name(), memory, 6.5e12,
                                              {1.0}, {}, base.levels())
                   .ok());
  EXPECT_FALSE(ClusterSpec::CreateWithDevices(base.name(), {}, 6.5e12, {},
                                              {}, base.levels())
                   .ok());
}

TEST(ClusterTest, SameBlock) {
  ClusterSpec c = MakeTitanCluster16(kGiB);
  EXPECT_TRUE(c.SameBlock(0, {0, 3, 7}));
  EXPECT_FALSE(c.SameBlock(0, {0, 8}));
  EXPECT_TRUE(c.SameBlock(1, {0, 8}));
}

TEST(CollectiveTest, RingFactors) {
  EXPECT_DOUBLE_EQ(RingTrafficFactor(CollectiveKind::kAllReduce, 8),
                   2.0 * 7 / 8);
  EXPECT_DOUBLE_EQ(RingTrafficFactor(CollectiveKind::kAllGather, 8), 7.0 / 8);
  EXPECT_DOUBLE_EQ(RingTrafficFactor(CollectiveKind::kReduceScatter, 4),
                   3.0 / 4);
  EXPECT_DOUBLE_EQ(RingTrafficFactor(CollectiveKind::kPointToPoint, 2), 1.0);
  EXPECT_DOUBLE_EQ(RingTrafficFactor(CollectiveKind::kAllReduce, 1), 0.0);
}

TEST(CollectiveTest, SdpTrafficIs1Point5xDp) {
  // Paper Sec 3.1.1: SDP = 2x all-gather + 1x reduce-scatter = 1.5x the
  // all-reduce cost of DP, for any group size.
  for (int n : {2, 4, 8, 16}) {
    const double dp = RingTrafficFactor(CollectiveKind::kAllReduce, n);
    const double sdp = 2 * RingTrafficFactor(CollectiveKind::kAllGather, n) +
                       RingTrafficFactor(CollectiveKind::kReduceScatter, n);
    EXPECT_NEAR(sdp / dp, 1.5, 1e-9);
  }
}

TEST(CollectiveTest, TimeScalesWithBytesAndBandwidth) {
  LinkSpec fast = DefaultLinkSpec(LinkClass::kNvLink);
  LinkSpec slow = DefaultLinkSpec(LinkClass::kPcie3);
  const int64_t bytes = 1 << 28;
  double t_fast = CollectiveTime(CollectiveKind::kAllReduce, bytes, 8, fast);
  double t_slow = CollectiveTime(CollectiveKind::kAllReduce, bytes, 8, slow);
  EXPECT_LT(t_fast, t_slow);
  // Doubling payload roughly doubles time (latency is negligible here).
  double t2 = CollectiveTime(CollectiveKind::kAllReduce, 2 * bytes, 8, slow);
  EXPECT_NEAR(t2 / t_slow, 2.0, 0.01);
}

TEST(CollectiveTest, ZeroForSingletonOrEmpty) {
  LinkSpec link = DefaultLinkSpec(LinkClass::kPcie3);
  EXPECT_DOUBLE_EQ(
      CollectiveTime(CollectiveKind::kAllReduce, 1 << 20, 1, link), 0.0);
  EXPECT_DOUBLE_EQ(CollectiveTime(CollectiveKind::kAllReduce, 0, 8, link),
                   0.0);
}

TEST(CollectiveTest, LatencyTermMatters) {
  LinkSpec link = DefaultLinkSpec(LinkClass::kInfiniBand100);
  // Tiny payload: time is dominated by steps * latency.
  double t = CollectiveTime(CollectiveKind::kAllReduce, 4, 8, link);
  EXPECT_GE(t, RingSteps(CollectiveKind::kAllReduce, 8) * link.latency_sec);
}

TEST(ClusterTest, CollectiveLinkMatchesLegacyPricingWithoutAGraph) {
  // On level-priced clusters the stage-aware collective query is defined
  // to be exactly the old two-endpoint group bottleneck, whatever the
  // stride/degree/stage shape.
  const ClusterSpec cluster = MakeTitanCluster16(16 * kGB);
  for (int stride : {1, 2, 4, 8}) {
    for (int degree : {2, 4, 8}) {
      const int span = (degree - 1) * stride;
      for (int first = 0; first + span < cluster.num_devices(); ++first) {
        const int width = stride * degree;
        if (first % width != 0 || first + width > cluster.num_devices()) {
          continue;
        }
        EXPECT_EQ(cluster.CollectiveLink(first, stride, degree, width),
                  cluster.GroupBottleneckLink(first, first + span))
            << "first=" << first << " stride=" << stride
            << " degree=" << degree;
      }
    }
  }
}

TEST(ClusterTest, WholeClusterAccessorsRequireUniformity) {
  const ClusterSpec uniform = MakeTitanNode8(16 * kGB);
  EXPECT_EQ(uniform.device_memory_bytes(), 16 * kGB);
  EXPECT_DOUBLE_EQ(uniform.sustained_flops(),
                   uniform.device(0).sustained_flops);
  const ClusterSpec mixed_memory =
      uniform.WithDeviceMemoryRange(0, 4, 8 * kGB);
  EXPECT_DEATH(mixed_memory.device_memory_bytes(), "MinMemoryInRange");
  const ClusterSpec mixed_compute =
      uniform.WithDeviceComputeRange(0, 4, 60e12);
  EXPECT_DEATH(mixed_compute.sustained_flops(), "MinSustainedFlopsInRange");
}

TEST(GroupPoolTest, DeduplicatesGroups) {
  CommGroupPool pool;
  auto g1 = pool.GetOrCreate({3, 1, 2});
  auto g2 = pool.GetOrCreate({1, 2, 3});
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g1->id, g2->id);
  EXPECT_EQ(pool.num_groups(), 1);
  EXPECT_EQ(pool.hits(), 1);
  EXPECT_EQ(pool.misses(), 1);
}

TEST(GroupPoolTest, DistinctGroupsGetDistinctIds) {
  CommGroupPool pool;
  auto g1 = pool.GetOrCreate({0, 1});
  auto g2 = pool.GetOrCreate({2, 3});
  EXPECT_NE(g1->id, g2->id);
  EXPECT_EQ(pool.num_groups(), 2);
}

TEST(GroupPoolTest, RejectsBadGroups) {
  CommGroupPool pool;
  EXPECT_FALSE(pool.GetOrCreate({}).ok());
  EXPECT_FALSE(pool.GetOrCreate({1, 1}).ok());
}

}  // namespace
}  // namespace galvatron
