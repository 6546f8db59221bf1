#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "quadtree/memory_limited_quadtree.h"

namespace mlq {
namespace {

MlqConfig Config(InsertionStrategy strategy, int64_t memory_bytes,
                 double gamma = 0.001, int max_depth = 6) {
  MlqConfig config;
  config.strategy = strategy;
  config.max_depth = max_depth;
  config.memory_limit_bytes = memory_bytes;
  config.gamma = gamma;
  return config;
}

TEST(CompressionTest, MemoryNeverExceedsLimit) {
  const int64_t limit = 1800;
  MemoryLimitedQuadtree tree(Box::Cube(4, 0.0, 1000.0),
                             Config(InsertionStrategy::kEager, limit));
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    Point p(4);
    for (int d = 0; d < 4; ++d) p[d] = rng.Uniform(0.0, 1000.0);
    tree.Insert(p, rng.Uniform(0.0, 10000.0));
    ASSERT_LE(tree.memory_used(), limit) << "exceeded at insert " << i;
  }
  EXPECT_GT(tree.counters().compressions, 0);
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
}

TEST(CompressionTest, CompressionFreesAtLeastGammaFraction) {
  MlqConfig config = Config(InsertionStrategy::kEager, 1 << 20, /*gamma=*/0.01);
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 100.0), config);
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    tree.Insert(Point{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)},
                rng.Uniform(0.0, 100.0));
  }
  const int64_t before = tree.memory_used();
  tree.Compress();
  const int64_t freed = before - tree.memory_used();
  EXPECT_GE(freed, static_cast<int64_t>(0.01 * config.memory_limit_bytes));
}

TEST(CompressionTest, RemovesSmallestSsegLeafFirst) {
  // Build a depth-1 tree over [0,8) x [0,8) with three leaves of different
  // SSEG and compress with a tiny gamma (removes exactly one leaf).
  MlqConfig config = Config(InsertionStrategy::kEager, 1 << 20,
                            /*gamma=*/1e-9, /*max_depth=*/1);
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 8.0), config);
  // Leaf 0 (lower-left): values near the overall average -> small SSEG.
  tree.Insert(Point{1.0, 1.0}, 50.0);
  // Leaf 1 (lower-right): far from average, 2 points -> large SSEG.
  tree.Insert(Point{6.0, 1.0}, 100.0);
  tree.Insert(Point{6.5, 1.5}, 100.0);
  // Leaf 2 (upper-left): far from average -> large SSEG.
  tree.Insert(Point{1.0, 6.0}, 0.0);

  // Averages: root = 62.5. SSEG(leaf0) = 1 * 12.5^2; SSEG(leaf1) =
  // 2 * 37.5^2; SSEG(leaf2) = 1 * 62.5^2. Leaf0 must go first.
  tree.Compress();
  const NodeView root = tree.root();
  EXPECT_FALSE(root.Child(0).valid()) << "smallest-SSEG leaf should be removed";
  EXPECT_TRUE(root.Child(1).valid());
  EXPECT_TRUE(root.Child(2).valid());
}

TEST(CompressionTest, ParentBecomesLeafAndIsReconsidered) {
  // Force removal of an entire subtree: deep chain with a generous gamma.
  MlqConfig config = Config(InsertionStrategy::kEager, 1 << 20,
                            /*gamma=*/1.0, /*max_depth=*/4);
  MemoryLimitedQuadtree tree(Box::Cube(1, 0.0, 16.0), config);
  tree.Insert(Point{1.0}, 5.0);
  EXPECT_EQ(tree.num_nodes(), 5);  // Root + chain of 4.
  tree.Compress();
  // gamma = 100% can never be met, but the queue drains: everything except
  // the root goes.
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_TRUE(tree.root().IsLeaf());
  EXPECT_EQ(tree.root().summary().count, 1);  // Summary survives.
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
}

TEST(CompressionTest, RootIsNeverRemoved) {
  MlqConfig config = Config(InsertionStrategy::kEager, 1 << 20, 1.0);
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 100.0), config);
  tree.Compress();  // Compressing an empty tree must be safe.
  EXPECT_EQ(tree.num_nodes(), 1);
  tree.Insert(Point{1.0, 1.0}, 2.0);
  tree.Compress();
  tree.Compress();
  EXPECT_EQ(tree.num_nodes(), 1);
}

TEST(CompressionTest, PredictionsFallBackToParentAfterCompression) {
  MlqConfig config = Config(InsertionStrategy::kEager, 1 << 20, 1.0,
                            /*max_depth=*/3);
  MemoryLimitedQuadtree tree(Box::Cube(1, 0.0, 8.0), config);
  tree.Insert(Point{1.0}, 10.0);
  tree.Insert(Point{7.0}, 50.0);
  tree.Compress();  // Removes everything below the root.
  const CostEstimate p = tree.Predict(Point{1.0});
  EXPECT_EQ(p.depth, 0);
  EXPECT_DOUBLE_EQ(p.value, 30.0);
}

// SSENC(b) from the stored summaries: SSE(b) minus every existing child's
// (SSE + SSEG) contribution — the quantity TotalSsenc sums over non-full
// blocks.
double NodeSsenc(const NodeView& node) {
  double ssenc = node.summary().Sse();
  for (const NodeView child : node.children()) {
    ssenc -= child.summary().Sse() + child.Sseg();
  }
  return std::max(0.0, ssenc);
}

TEST(CompressionTest, SsegEqualsTssencIncrease) {
  // Equivalence of Eq. 8 and Eq. 9: removing leaf b increases TSSENC by
  // exactly SSEG(b) when b's parent was already a non-full block, and by
  // SSEG(b) + SSENC(parent) when the parent was full (it then joins the
  // non-full set of Eq. 6).
  MlqConfig config = Config(InsertionStrategy::kEager, 1 << 20,
                            /*gamma=*/1e-9, /*max_depth=*/2);
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 8.0), config);
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    tree.Insert(Point{rng.Uniform(0.0, 8.0), rng.Uniform(0.0, 8.0)},
                rng.Uniform(0.0, 100.0));
  }
  const int full_children = 1 << 2;
  for (int round = 0; round < 8; ++round) {
    const double tssenc_before = tree.TotalSsenc();
    // Find the minimum-SSEG leaf (what compression will remove next).
    NodeView victim;
    tree.ForEachNode([&](const NodeView& node, const Box&) {
      if (node.IsLeaf() && node.has_parent()) {
        if (!victim.valid() || node.Sseg() < victim.Sseg()) victim = node;
      }
    });
    if (!victim.valid()) break;  // Only the root remains.
    const double sseg = victim.Sseg();
    const bool parent_was_full =
        victim.parent().num_children() == full_children;
    // Expected delta: SSEG(b), plus — if the parent was full — the parent's
    // previously hidden SSENC (it joins the non-full set of Eq. 6).
    const double expected_delta =
        parent_was_full ? NodeSsenc(victim.parent()) + sseg : sseg;
    tree.Compress();  // gamma ~ 0: removes exactly one leaf.
    const double tssenc_after = tree.TotalSsenc();
    EXPECT_NEAR(tssenc_after - tssenc_before, expected_delta,
                1e-6 * std::max(1.0, expected_delta))
        << "round " << round;
  }
}

TEST(CompressionTest, PaperFigureSevenSequence) {
  // Reproduces Fig. 7: B141 and B144 (SSEG 1 each) go before B11 (SSEG 2),
  // and removing both raises TSSENC by 2.
  MlqConfig config = Config(InsertionStrategy::kEager, 1 << 20,
                            /*gamma=*/1e-9, /*max_depth=*/2);
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 16.0), config);
  // Root block [0,16)^2; B11 = child 0 of root; B14 = child 3 of B1... the
  // paper's 1-level numbering maps here to: B11 -> root child 0, B14 ->
  // root child 3 with two sub-blocks B141 -> child 0, B144 -> child 3.
  // Values chosen to reproduce the figure's summaries:
  //   B11: 1 point value 8, root avg 10 -> SSEG(B11) = (10-8)^2 = 4.
  //   Actually the figure has SSEG(B11) = 2; we only need the *ordering*.
  tree.Insert(Point{1.0, 1.0}, 9.0);     // B11-ish leaf.
  tree.Insert(Point{9.0, 9.0}, 9.0);     // B141: low SSEG.
  tree.Insert(Point{15.0, 15.0}, 11.0);  // B144: low SSEG.
  // Root avg now 29/3.
  const double tssenc0 = tree.TotalSsenc();
  tree.Compress();  // Removes one of the two SSEG-minimal deep leaves.
  tree.Compress();
  const double tssenc1 = tree.TotalSsenc();
  // The two cheapest removals happened; the increase equals the sum of the
  // two smallest SSEGs at the time of removal.
  EXPECT_GT(tssenc1, tssenc0);
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
}

TEST(CompressionTest, BudgetTooSmallForAnyChildStillWorks) {
  // A budget that only fits the root: every insert accumulates there and
  // predictions are the global average — degraded, never broken.
  MlqConfig config = Config(InsertionStrategy::kEager, kNodeBaseBytes);
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 100.0), config);
  tree.Insert(Point{10.0, 10.0}, 10.0);
  tree.Insert(Point{90.0, 90.0}, 30.0);
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_DOUBLE_EQ(tree.Predict(Point{50.0, 50.0}).value, 20.0);
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
}

TEST(CompressionTest, SingleChildBudgetRecyclesTheChild) {
  // Room for the root plus exactly one child: inserts into different
  // quadrants must evict the previous child (it is not on the new path) and
  // the tree keeps answering from the best information it has.
  MlqConfig config =
      Config(InsertionStrategy::kEager, kNodeBaseBytes + kNonRootNodeBytes,
             /*gamma=*/0.001, /*max_depth=*/1);
  MemoryLimitedQuadtree tree(Box::Cube(1, 0.0, 8.0), config);
  tree.Insert(Point{1.0}, 10.0);
  EXPECT_EQ(tree.num_nodes(), 2);
  tree.Insert(Point{7.0}, 90.0);  // Evicts the left child, creates the right.
  EXPECT_EQ(tree.num_nodes(), 2);
  EXPECT_FALSE(tree.root().Child(0).valid());
  ASSERT_TRUE(tree.root().Child(1).valid());
  EXPECT_DOUBLE_EQ(tree.Predict(Point{7.0}).value, 90.0);
  // The left region falls back to the root, which remembers both points.
  EXPECT_DOUBLE_EQ(tree.Predict(Point{1.0}).value, 50.0);
  EXPECT_EQ(tree.counters().compressions, 1);
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
}

TEST(CompressionTest, CountersTrackCompressions) {
  MemoryLimitedQuadtree tree(Box::Cube(4, 0.0, 1000.0),
                             Config(InsertionStrategy::kEager, 1800));
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    Point p(4);
    for (int d = 0; d < 4; ++d) p[d] = rng.Uniform(0.0, 1000.0);
    tree.Insert(p, rng.Uniform(0.0, 10000.0));
  }
  EXPECT_GT(tree.counters().compressions, 0);
  EXPECT_GT(tree.counters().nodes_freed, 0);
  EXPECT_EQ(tree.counters().nodes_created - tree.counters().nodes_freed + 1,
            tree.num_nodes());
}

TEST(CompressionTest, LazyCompressesLessOftenThanEager) {
  // The paper's core trade-off (Experiment 2): lazy insertion delays
  // reaching the memory limit and compresses less frequently.
  const Box space = Box::Cube(4, 0.0, 1000.0);
  MemoryLimitedQuadtree eager(space, Config(InsertionStrategy::kEager, 1800));
  MemoryLimitedQuadtree lazy(space, Config(InsertionStrategy::kLazy, 1800));
  Rng rng(9);
  for (int i = 0; i < 3000; ++i) {
    Point p(4);
    for (int d = 0; d < 4; ++d) p[d] = rng.Uniform(0.0, 1000.0);
    const double v = rng.Uniform(0.0, 10000.0);
    eager.Insert(p, v);
    lazy.Insert(p, v);
  }
  EXPECT_LT(lazy.counters().compressions, eager.counters().compressions);
}

// Property sweep: budget limits are honored for many (dims, budget, gamma)
// combinations and the tree stays structurally sound.
class CompressionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t, double>> {};

TEST_P(CompressionPropertyTest, BudgetHonoredAndInvariantsHold) {
  const auto [dims, budget, gamma] = GetParam();
  MlqConfig config = Config(InsertionStrategy::kEager, budget, gamma);
  MemoryLimitedQuadtree tree(Box::Cube(dims, 0.0, 1000.0), config);
  Rng rng(1000 + static_cast<uint64_t>(dims) + static_cast<uint64_t>(budget));
  for (int i = 0; i < 800; ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) p[d] = rng.Uniform(0.0, 1000.0);
    tree.Insert(p, rng.Uniform(0.0, 10000.0));
    ASSERT_LE(tree.memory_used(), budget);
  }
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
  // The tree must still answer every prediction.
  for (int i = 0; i < 50; ++i) {
    Point q(dims);
    for (int d = 0; d < dims; ++d) q[d] = rng.Uniform(0.0, 1000.0);
    const CostEstimate p = tree.Predict(q);
    EXPECT_GE(p.value, 0.0);
    EXPECT_LE(p.value, 10000.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompressionPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values<int64_t>(500, 1800, 8192),
                       ::testing::Values(0.001, 0.05, 0.25)));

}  // namespace
}  // namespace mlq
