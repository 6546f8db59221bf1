#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "quadtree/memory_limited_quadtree.h"

namespace mlq {
namespace {

MlqConfig BigBudgetConfig(InsertionStrategy strategy, int max_depth = 6) {
  MlqConfig config;
  config.strategy = strategy;
  config.max_depth = max_depth;
  config.memory_limit_bytes = 1 << 20;  // Never compress in these tests.
  return config;
}

TEST(InsertTest, EmptyTreePredictionIsUnreliableZero) {
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 100.0),
                             BigBudgetConfig(InsertionStrategy::kEager));
  const CostEstimate p = tree.Predict(Point{50.0, 50.0});
  EXPECT_FALSE(p.reliable);
  EXPECT_DOUBLE_EQ(p.value, 0.0);
  EXPECT_EQ(p.count, 0);
}

TEST(InsertTest, FirstInsertEnablesPrediction) {
  // The quadtree partitions the whole space, so it predicts immediately
  // after one data point (Section 1 of the paper).
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 100.0),
                             BigBudgetConfig(InsertionStrategy::kEager));
  tree.Insert(Point{10.0, 10.0}, 42.0);
  // Same region: exact value.
  EXPECT_DOUBLE_EQ(tree.Predict(Point{10.0, 10.0}).value, 42.0);
  // Far corner: falls back to the root average, still 42.
  const CostEstimate far = tree.Predict(Point{99.0, 99.0});
  EXPECT_TRUE(far.reliable);
  EXPECT_DOUBLE_EQ(far.value, 42.0);
  EXPECT_EQ(far.depth, 0);
}

TEST(InsertTest, EagerPartitionsToMaxDepth) {
  MemoryLimitedQuadtree tree(
      Box::Cube(2, 0.0, 100.0),
      BigBudgetConfig(InsertionStrategy::kEager, /*max_depth=*/5));
  tree.Insert(Point{10.0, 10.0}, 7.0);
  // Every insert materializes the full path: depth 0..5 -> 6 nodes.
  EXPECT_EQ(tree.num_nodes(), 6);
  const CostEstimate p = tree.Predict(Point{10.0, 10.0});
  EXPECT_EQ(p.depth, 5);
}

TEST(InsertTest, LazyBeforeFirstCompressionBehavesEagerly) {
  // th_SSE is defined relative to SSE(root) only after the first
  // compression; before that, lazy partitions like eager (Section 5.1
  // protocol: "after the first compression").
  MemoryLimitedQuadtree lazy(Box::Cube(2, 0.0, 100.0),
                             BigBudgetConfig(InsertionStrategy::kLazy));
  MemoryLimitedQuadtree eager(Box::Cube(2, 0.0, 100.0),
                              BigBudgetConfig(InsertionStrategy::kEager));
  EXPECT_DOUBLE_EQ(lazy.CurrentSseThreshold(), 0.0);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Point p{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const double v = rng.Uniform(0.0, 10.0);
    lazy.Insert(p, v);
    eager.Insert(p, v);
  }
  EXPECT_EQ(lazy.num_nodes(), eager.num_nodes());
}

TEST(InsertTest, LazyThresholdActivatesAfterCompression) {
  MlqConfig config = BigBudgetConfig(InsertionStrategy::kLazy);
  config.alpha = 0.05;
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 100.0), config);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    tree.Insert(Point{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)},
                rng.Uniform(0.0, 100.0));
  }
  tree.Compress();
  const double threshold = tree.CurrentSseThreshold();
  EXPECT_GT(threshold, 0.0);
  EXPECT_DOUBLE_EQ(threshold, 0.05 * tree.root().summary().Sse());
}

TEST(InsertTest, EagerThresholdAlwaysZero) {
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 100.0),
                             BigBudgetConfig(InsertionStrategy::kEager));
  tree.Insert(Point{1.0, 1.0}, 5.0);
  tree.Compress();
  EXPECT_DOUBLE_EQ(tree.CurrentSseThreshold(), 0.0);
}

TEST(InsertTest, SummariesAccumulateAlongPath) {
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 8.0),
                             BigBudgetConfig(InsertionStrategy::kEager, 2));
  tree.Insert(Point{1.0, 1.0}, 10.0);  // Child 0 everywhere.
  tree.Insert(Point{7.0, 7.0}, 20.0);  // Child 3 at the top.
  const NodeView root = tree.root();
  EXPECT_EQ(root.summary().count, 2);
  EXPECT_DOUBLE_EQ(root.summary().sum, 30.0);
  const NodeView lower_left = root.Child(0);
  ASSERT_TRUE(lower_left.valid());
  EXPECT_EQ(lower_left.summary().count, 1);
  EXPECT_DOUBLE_EQ(lower_left.summary().sum, 10.0);
  const NodeView upper_right = root.Child(3);
  ASSERT_TRUE(upper_right.valid());
  EXPECT_DOUBLE_EQ(upper_right.summary().sum, 20.0);
}

TEST(InsertTest, PredictionIsBlockAverage) {
  MemoryLimitedQuadtree tree(Box::Cube(1, 0.0, 8.0),
                             BigBudgetConfig(InsertionStrategy::kEager, 1));
  // Depth limited to 1: left block [0,4), right block [4,8].
  tree.Insert(Point{1.0}, 10.0);
  tree.Insert(Point{2.0}, 20.0);
  tree.Insert(Point{6.0}, 100.0);
  EXPECT_DOUBLE_EQ(tree.Predict(Point{0.5}).value, 15.0);
  EXPECT_DOUBLE_EQ(tree.Predict(Point{7.0}).value, 100.0);
}

TEST(InsertTest, BetaRequiresEnoughPoints) {
  MemoryLimitedQuadtree tree(Box::Cube(1, 0.0, 8.0),
                             BigBudgetConfig(InsertionStrategy::kEager, 1));
  tree.Insert(Point{1.0}, 10.0);
  tree.Insert(Point{2.0}, 20.0);
  tree.Insert(Point{6.0}, 100.0);
  // beta = 1: deepest node (left leaf, count 2) answers.
  EXPECT_DOUBLE_EQ(tree.PredictWithBeta(Point{1.0}, 1).value, 15.0);
  // beta = 2: left leaf still qualifies.
  EXPECT_DOUBLE_EQ(tree.PredictWithBeta(Point{1.0}, 2).value, 15.0);
  // beta = 3: only the root qualifies -> average of all three points.
  const CostEstimate root_pred = tree.PredictWithBeta(Point{1.0}, 3);
  EXPECT_TRUE(root_pred.reliable);
  EXPECT_EQ(root_pred.depth, 0);
  EXPECT_NEAR(root_pred.value, 130.0 / 3.0, 1e-12);
  // beta = 4: nothing qualifies; unreliable root average.
  const CostEstimate none = tree.PredictWithBeta(Point{1.0}, 4);
  EXPECT_FALSE(none.reliable);
  EXPECT_NEAR(none.value, 130.0 / 3.0, 1e-12);
}

TEST(InsertTest, PredictionStddevReflectsBlockSpread) {
  MemoryLimitedQuadtree tree(Box::Cube(1, 0.0, 8.0),
                             BigBudgetConfig(InsertionStrategy::kEager, 1));
  tree.Insert(Point{1.0}, 10.0);
  tree.Insert(Point{2.0}, 20.0);
  // Left leaf: values {10, 20} -> stddev sqrt(SSE/C) = sqrt(50/2) = 5.
  const CostEstimate left = tree.Predict(Point{1.5});
  EXPECT_DOUBLE_EQ(left.stddev, 5.0);
  // Single-point block: stddev 0.
  tree.Insert(Point{7.0}, 99.0);
  EXPECT_DOUBLE_EQ(tree.Predict(Point{7.0}).stddev, 0.0);
  // beta above everything: unreliable root fallback still reports spread.
  const CostEstimate root = tree.PredictWithBeta(Point{1.0}, 100);
  EXPECT_FALSE(root.reliable);
  EXPECT_GT(root.stddev, 0.0);
}

TEST(InsertTest, NonFiniteObservationsAreDropped) {
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 100.0),
                             BigBudgetConfig(InsertionStrategy::kEager));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  tree.Insert(Point{10.0, 10.0}, nan);
  tree.Insert(Point{10.0, 10.0}, inf);
  tree.Insert(Point{nan, 10.0}, 5.0);
  tree.Insert(Point{10.0, -inf}, 5.0);
  EXPECT_EQ(tree.root().summary().count, 0)
      << "garbled measurements must not poison the model";
  tree.Insert(Point{10.0, 10.0}, 5.0);
  EXPECT_EQ(tree.root().summary().count, 1);
  EXPECT_DOUBLE_EQ(tree.Predict(Point{10.0, 10.0}).value, 5.0);
}

TEST(InsertTest, OutOfSpacePointsAreClamped) {
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 100.0),
                             BigBudgetConfig(InsertionStrategy::kEager));
  tree.Insert(Point{-50.0, 500.0}, 9.0);  // Clamps to (0, 100).
  EXPECT_EQ(tree.root().summary().count, 1);
  EXPECT_DOUBLE_EQ(tree.Predict(Point{0.0, 100.0}).value, 9.0);
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
}

TEST(InsertTest, UpperBoundaryPointIsOwned) {
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 100.0),
                             BigBudgetConfig(InsertionStrategy::kEager));
  tree.Insert(Point{100.0, 100.0}, 3.0);
  EXPECT_DOUBLE_EQ(tree.Predict(Point{100.0, 100.0}).value, 3.0);
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
}

TEST(InsertTest, CountersTrackInsertions) {
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 100.0),
                             BigBudgetConfig(InsertionStrategy::kEager));
  for (int i = 0; i < 10; ++i) {
    tree.Insert(Point{static_cast<double>(i * 10), 5.0}, 1.0);
  }
  EXPECT_EQ(tree.counters().insertions, 10);
  EXPECT_GT(tree.counters().nodes_created, 0);
  EXPECT_EQ(tree.counters().compressions, 0);
}

// Property test: after arbitrary workloads the structural invariants hold
// and the root summarizes every inserted point, for all dimensionalities
// and both strategies.
class InsertPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, InsertionStrategy>> {};

TEST_P(InsertPropertyTest, InvariantsAfterRandomWorkload) {
  const auto [dims, strategy] = GetParam();
  MemoryLimitedQuadtree tree(Box::Cube(dims, 0.0, 1000.0),
                             BigBudgetConfig(strategy));
  Rng rng(1234 + static_cast<uint64_t>(dims));
  double total = 0.0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) p[d] = rng.Uniform(0.0, 1000.0);
    const double v = rng.Uniform(0.0, 10000.0);
    tree.Insert(p, v);
    total += v;
  }
  EXPECT_EQ(tree.root().summary().count, n);
  EXPECT_NEAR(tree.root().summary().sum, total, 1e-6 * total);
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
}

TEST_P(InsertPropertyTest, PredictionsAreWithinObservedValueRange) {
  const auto [dims, strategy] = GetParam();
  MemoryLimitedQuadtree tree(Box::Cube(dims, 0.0, 1000.0),
                             BigBudgetConfig(strategy));
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) p[d] = rng.Uniform(0.0, 1000.0);
    tree.Insert(p, rng.Uniform(100.0, 200.0));
  }
  // Averages of values in [100, 200] must stay in [100, 200].
  for (int i = 0; i < 100; ++i) {
    Point q(dims);
    for (int d = 0; d < dims; ++d) q[d] = rng.Uniform(0.0, 1000.0);
    const CostEstimate pred = tree.Predict(q);
    EXPECT_GE(pred.value, 100.0);
    EXPECT_LE(pred.value, 200.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndStrategies, InsertPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(InsertionStrategy::kEager,
                                         InsertionStrategy::kLazy)));

TEST(InsertTest, ArenaGrowsAcrossBudgetBoundaryUnderCompressionChurn) {
  // A tight budget forces the tree to oscillate: partition to the limit,
  // compress, repartition elsewhere. The pool must keep recycling blocks
  // (bounded arena) while the logical accounting never crosses the budget.
  MlqConfig config;
  config.strategy = InsertionStrategy::kEager;
  config.max_depth = 6;
  config.memory_limit_bytes = 1800;
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 1000.0), config);
  Rng rng(99);
  size_t max_slots = 0;
  for (int i = 0; i < 5000; ++i) {
    // Shift the hot region every 500 inserts so old structure gets evicted
    // and new blocks are demanded at full budget.
    const double center = 100.0 + 800.0 * ((i / 500) % 2);
    Point p{rng.Gaussian(center, 50.0), rng.Gaussian(center, 50.0)};
    tree.Insert(p, rng.Uniform(0.0, 10000.0));
    ASSERT_LE(tree.memory_used(), config.memory_limit_bytes);
    max_slots = std::max(max_slots, tree.pool().slot_count());
  }
  EXPECT_GT(tree.counters().compressions, 0);
  EXPECT_GT(tree.counters().nodes_freed, 0);
  // The arena's physical slot count stays within a small factor of the
  // budget's node ceiling: recycling works, growth is bounded.
  const int64_t max_nodes =
      1 + (config.memory_limit_bytes - kNodeBaseBytes) / kNonRootNodeBytes;
  const int fanout = tree.pool().fanout();
  EXPECT_LE(max_slots, static_cast<size_t>(max_nodes * fanout));
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
}

TEST(PredictBatchTest, MatchesPerPointPredictions) {
  // The batched entry point must be element-wise identical to the scalar
  // path: same descent, same summaries, same reliability flags.
  for (const int dims : {1, 3}) {
    MlqConfig config = BigBudgetConfig(InsertionStrategy::kEager);
    MemoryLimitedQuadtree tree(Box::Cube(dims, 0.0, 1000.0), config);
    Rng rng(1234);
    for (int i = 0; i < 2000; ++i) {
      Point p(dims);
      for (int d = 0; d < dims; ++d) p[d] = rng.Uniform(0.0, 1000.0);
      tree.Insert(p, rng.Uniform(0.0, 10000.0));
    }
    std::vector<Point> queries;
    for (int i = 0; i < 300; ++i) {
      Point q(dims);
      // Include out-of-space points: clamping must match too.
      for (int d = 0; d < dims; ++d) q[d] = rng.Uniform(-200.0, 1200.0);
      queries.push_back(q);
    }
    std::vector<CostEstimate> batch(queries.size());
    tree.PredictBatch(queries, batch);
    for (size_t i = 0; i < queries.size(); ++i) {
      const CostEstimate scalar = tree.Predict(queries[i]);
      ASSERT_DOUBLE_EQ(batch[i].value, scalar.value) << "dims " << dims;
      ASSERT_DOUBLE_EQ(batch[i].stddev, scalar.stddev);
      ASSERT_EQ(batch[i].depth, scalar.depth);
      ASSERT_EQ(batch[i].count, scalar.count);
      ASSERT_EQ(batch[i].reliable, scalar.reliable);
    }
  }
}

TEST(PredictBatchTest, ExplicitBetaVariant) {
  MlqConfig config = BigBudgetConfig(InsertionStrategy::kEager);
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 1000.0), config);
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    tree.Insert(p, rng.Uniform(0.0, 100.0));
  }
  std::vector<Point> queries;
  for (int i = 0; i < 50; ++i) {
    queries.push_back(Point{rng.Uniform(0.0, 1000.0),
                            rng.Uniform(0.0, 1000.0)});
  }
  std::vector<CostEstimate> batch(queries.size());
  tree.PredictBatchWithBeta(queries, batch, /*beta=*/10);
  for (size_t i = 0; i < queries.size(); ++i) {
    const CostEstimate scalar = tree.PredictWithBeta(queries[i], 10);
    ASSERT_DOUBLE_EQ(batch[i].value, scalar.value);
    ASSERT_GE(batch[i].count, 10);
  }
}

TEST(PredictBatchTest, EmptyBatchIsANoOp) {
  MlqConfig config = BigBudgetConfig(InsertionStrategy::kEager);
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 1000.0), config);
  tree.PredictBatch({}, {});
}

}  // namespace
}  // namespace mlq
