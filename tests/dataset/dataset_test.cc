#include "dataset/dataset.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/rng.hpp"

namespace gcp {
namespace {

using testing::MakeCycle;
using testing::MakePath;

GraphDataset MakeDataset(std::size_t n) {
  std::vector<Graph> graphs;
  for (std::size_t i = 0; i < n; ++i) {
    graphs.push_back(MakePath({static_cast<Label>(i), 0, 1}));
  }
  GraphDataset ds;
  ds.Bootstrap(std::move(graphs));
  return ds;
}

TEST(DatasetTest, BootstrapDoesNotLog) {
  const GraphDataset ds = MakeDataset(4);
  EXPECT_EQ(ds.NumLive(), 4u);
  EXPECT_EQ(ds.IdHorizon(), 4u);
  EXPECT_EQ(ds.log().size(), 0u);
  EXPECT_EQ(ds.log().LatestSeq(), 0u);
}

TEST(DatasetTest, AddGraphAssignsNextIdAndLogs) {
  GraphDataset ds = MakeDataset(2);
  const GraphId id = ds.AddGraph(MakeCycle({0, 1, 2}));
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(ds.IdHorizon(), 3u);
  EXPECT_EQ(ds.NumLive(), 3u);
  ASSERT_EQ(ds.log().size(), 1u);
  EXPECT_EQ(ds.log().records()[0].type, ChangeType::kAdd);
  EXPECT_EQ(ds.log().records()[0].graph_id, 2u);
}

TEST(DatasetTest, DeleteLeavesHole) {
  GraphDataset ds = MakeDataset(3);
  ASSERT_TRUE(ds.DeleteGraph(1).ok());
  EXPECT_FALSE(ds.IsLive(1));
  EXPECT_TRUE(ds.IsLive(0));
  EXPECT_TRUE(ds.IsLive(2));
  EXPECT_EQ(ds.NumLive(), 2u);
  EXPECT_EQ(ds.IdHorizon(), 3u);  // horizon unchanged: ids not reused
  EXPECT_EQ(ds.DeleteGraph(1).code(), StatusCode::kNotFound);
}

TEST(DatasetTest, IdsNeverReused) {
  GraphDataset ds = MakeDataset(2);
  ASSERT_TRUE(ds.DeleteGraph(1).ok());
  const GraphId id = ds.AddGraph(MakePath({9, 9}));
  EXPECT_EQ(id, 2u);  // not 1
  EXPECT_FALSE(ds.IsLive(1));
}

TEST(DatasetTest, EdgeMutationsLogUaUr) {
  GraphDataset ds = MakeDataset(1);  // path 0-1-2
  ASSERT_TRUE(ds.AddEdge(0, 0, 2).ok());
  ASSERT_TRUE(ds.RemoveEdge(0, 0, 1).ok());
  ASSERT_EQ(ds.log().size(), 2u);
  EXPECT_EQ(ds.log().records()[0].type, ChangeType::kEdgeAdd);
  EXPECT_EQ(ds.log().records()[1].type, ChangeType::kEdgeRemove);
  EXPECT_EQ(ds.log().records()[1].edge_u, 0u);
  EXPECT_EQ(ds.log().records()[1].edge_v, 1u);
  EXPECT_TRUE(ds.graph(0).HasEdge(0, 2));
  EXPECT_FALSE(ds.graph(0).HasEdge(0, 1));
}

TEST(DatasetTest, EdgeMutationFailuresDoNotLog) {
  GraphDataset ds = MakeDataset(1);
  EXPECT_FALSE(ds.AddEdge(0, 0, 1).ok());     // already exists
  EXPECT_FALSE(ds.RemoveEdge(0, 0, 2).ok());  // absent
  EXPECT_FALSE(ds.AddEdge(9, 0, 1).ok());     // unknown graph
  EXPECT_EQ(ds.log().size(), 0u);
}

TEST(DatasetTest, LiveMaskTracksHoles) {
  GraphDataset ds = MakeDataset(4);
  ds.DeleteGraph(2).ok();
  const DynamicBitset mask = ds.LiveMask();
  EXPECT_EQ(mask.size(), 4u);
  EXPECT_TRUE(mask.Test(0));
  EXPECT_TRUE(mask.Test(1));
  EXPECT_FALSE(mask.Test(2));
  EXPECT_TRUE(mask.Test(3));
  EXPECT_EQ(ds.LiveIds(), (std::vector<GraphId>{0, 1, 3}));
}

/// Test-side mirror of the dataset's graph slots: the live mask, IsLive
/// and LiveIds must always agree with a walk over it.
class SlotMirror {
 public:
  void Bootstrap(std::size_t n) { slots_.assign(n, true); }
  void Add() { slots_.push_back(true); }
  void Delete(GraphId id) { slots_[id] = false; }

  DynamicBitset LiveMaskByWalk() const {
    DynamicBitset mask(slots_.size());
    for (std::size_t id = 0; id < slots_.size(); ++id) {
      if (slots_[id]) mask.Set(id);
    }
    return mask;
  }

  std::vector<GraphId> LiveIdsByWalk() const {
    std::vector<GraphId> out;
    for (std::size_t id = 0; id < slots_.size(); ++id) {
      if (slots_[id]) out.push_back(static_cast<GraphId>(id));
    }
    return out;
  }

 private:
  std::vector<bool> slots_;
};

void ExpectMatchesWalk(const GraphDataset& ds, const SlotMirror& mirror) {
  const DynamicBitset want = mirror.LiveMaskByWalk();
  ASSERT_EQ(ds.IdHorizon(), want.size());
  EXPECT_TRUE(ds.LiveMask() == want);
  EXPECT_EQ(ds.NumLive(), want.Count());
  for (std::size_t id = 0; id <= ds.IdHorizon(); ++id) {
    EXPECT_EQ(ds.IsLive(static_cast<GraphId>(id)), want.TestOrFalse(id))
        << "id " << id;
  }
  EXPECT_EQ(ds.LiveIds(), mirror.LiveIdsByWalk());
}

TEST(DatasetTest, MaintainedLiveMaskMatchesSlotWalk) {
  GraphDataset ds;
  SlotMirror mirror;
  ExpectMatchesWalk(ds, mirror);
  // 70 bootstrapped graphs straddle the first 64-bit word boundary.
  std::vector<Graph> graphs;
  for (Label i = 0; i < 70; ++i) graphs.push_back(MakePath({i, 0, 1}));
  ds.Bootstrap(std::move(graphs));
  mirror.Bootstrap(70);
  ExpectMatchesWalk(ds, mirror);
  // The first and the last id.
  ASSERT_TRUE(ds.DeleteGraph(0).ok());
  mirror.Delete(0);
  ExpectMatchesWalk(ds, mirror);
  ASSERT_TRUE(ds.DeleteGraph(69).ok());
  mirror.Delete(69);
  ExpectMatchesWalk(ds, mirror);
  // A failed delete changes nothing.
  EXPECT_FALSE(ds.DeleteGraph(69).ok());
  EXPECT_FALSE(ds.DeleteGraph(70).ok());
  ExpectMatchesWalk(ds, mirror);
  // Seeded churn: adds carry the horizon across 128 and 192 while deletes
  // keep punching holes, including at freshly added ids.
  Rng rng(17);
  while (ds.IdHorizon() < 200) {
    if (rng.UniformBelow(3) == 0 && ds.NumLive() > 0) {
      const std::vector<GraphId> live = ds.LiveIds();
      const GraphId id = live[rng.UniformBelow(live.size())];
      ASSERT_TRUE(ds.DeleteGraph(id).ok());
      mirror.Delete(id);
    } else {
      const GraphId id = ds.AddGraph(MakeCycle({1, 2, 3}));
      EXPECT_EQ(id, ds.IdHorizon() - 1);
      mirror.Add();
    }
    ExpectMatchesWalk(ds, mirror);
  }
  // Deleting the current last id right after it was added.
  const GraphId last = ds.AddGraph(MakePath({4, 5}));
  mirror.Add();
  ASSERT_TRUE(ds.DeleteGraph(last).ok());
  mirror.Delete(last);
  ExpectMatchesWalk(ds, mirror);
}

TEST(DatasetTest, TotalsOverLiveOnly) {
  GraphDataset ds = MakeDataset(3);  // each path: 3 vertices, 2 edges
  EXPECT_EQ(ds.TotalLiveVertices(), 9u);
  EXPECT_EQ(ds.TotalLiveEdges(), 6u);
  ds.DeleteGraph(0).ok();
  EXPECT_EQ(ds.TotalLiveVertices(), 6u);
  EXPECT_EQ(ds.TotalLiveEdges(), 4u);
}

TEST(DatasetTest, MutationsOnDeletedGraphFail) {
  GraphDataset ds = MakeDataset(2);
  ds.DeleteGraph(0).ok();
  EXPECT_EQ(ds.AddEdge(0, 0, 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(ds.RemoveEdge(0, 0, 1).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace gcp
