// Differential validation of the prediction currency (CostEstimate /
// PredictStats / PredictBatch). For every model class and every
// concurrency decoration, the value-only Predict shim must equal
// PredictStats(p).value BIT FOR BIT, and PredictBatch must return exactly
// what PredictStats returns point by point, every field included — the
// contract that lets variance-blind and batched callers observe no change.
//
// Also regression-tests the stddev NaN fix: sqrt(SSE/C) on an empty
// summary used to be sqrt(0/0) = NaN, and cancellation residue in SSE
// could produce sqrt(negative). SummaryTriple::Stddev() is the single
// robust spelling; these tests pin its edge cases.

#include <cmath>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "model/concurrent_model.h"
#include "model/global_average_model.h"
#include "model/mlq_model.h"
#include "model/neural_model.h"
#include "model/online_grid_model.h"
#include "model/sharded_model.h"
#include "model/static_histogram.h"

namespace mlq {
namespace {

// A smooth deterministic 2-d cost surface with enough structure that node
// summaries carry non-trivial variance.
double Surface(const Point& p) {
  const double x = p[0] / 1000.0;
  const double y = p[1] / 1000.0;
  return 1000.0 * (1.0 + std::sin(3.0 * x) * std::cos(2.0 * y)) +
         500.0 * x * y;
}

MlqConfig DiffConfig(InsertionStrategy strategy, int64_t budget) {
  MlqConfig config;
  config.strategy = strategy;
  config.max_depth = 6;
  config.beta = 1;
  config.memory_limit_bytes = budget;
  return config;
}

std::vector<Point> TrainingPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    points.push_back(Point{rng.Uniform(0.0, 1000.0),
                           rng.Uniform(0.0, 1000.0)});
  }
  return points;
}

// Checks the value shim on a trained model over a probe set: value
// bit-identical, stddev finite and non-negative, count and depth
// non-negative.
void CheckStatsIdentity(const CostModel& model,
                        const std::vector<Point>& probes) {
  for (const Point& p : probes) {
    const CostEstimate stats = model.PredictStats(p);
    EXPECT_EQ(model.Predict(p), stats.value);  // Bitwise: == on doubles.
    EXPECT_FALSE(std::isnan(stats.stddev));
    EXPECT_GE(stats.stddev, 0.0);
    EXPECT_GE(stats.count, 0);
    EXPECT_GE(stats.depth, 0);
  }
}

// Checks that the batched path is element-wise identical to the scalar
// path, field by field.
void CheckBatchIdentity(const CostModel& model,
                        const std::vector<Point>& probes) {
  std::vector<CostEstimate> batch(probes.size());
  model.PredictBatch(probes, batch);
  for (size_t i = 0; i < probes.size(); ++i) {
    const CostEstimate scalar = model.PredictStats(probes[i]);
    EXPECT_EQ(batch[i].value, scalar.value) << "probe " << i;
    EXPECT_EQ(batch[i].stddev, scalar.stddev) << "probe " << i;
    EXPECT_EQ(batch[i].count, scalar.count) << "probe " << i;
    EXPECT_EQ(batch[i].reliable, scalar.reliable) << "probe " << i;
    EXPECT_EQ(batch[i].depth, scalar.depth) << "probe " << i;
  }
}

TEST(VarianceStatsTest, BareMlqScalarAndStatsAgreeBitwise) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const auto train = TrainingPoints(2000, 42);
  const auto probes = TrainingPoints(500, 777);
  for (const InsertionStrategy strategy :
       {InsertionStrategy::kEager, InsertionStrategy::kLazy}) {
    MlqModel model(space, DiffConfig(strategy, 1800));
    for (const Point& p : train) model.Observe(p, Surface(p));
    CheckStatsIdentity(model, probes);
    CheckBatchIdentity(model, probes);
  }
}

TEST(VarianceStatsTest, ConcurrentDecorationPreservesIdentity) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  ConcurrentCostModel model(std::make_unique<MlqModel>(
      space, DiffConfig(InsertionStrategy::kEager, 1800)));
  for (const Point& p : TrainingPoints(2000, 42)) {
    model.Observe(p, Surface(p));
  }
  const auto probes = TrainingPoints(500, 777);
  CheckStatsIdentity(model, probes);
  CheckBatchIdentity(model, probes);
}

TEST(VarianceStatsTest, ShardedDecorationPreservesIdentity) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  ShardedModelOptions options;
  options.num_shards = 4;
  options.drain_on_predict = true;
  options.queue_capacity = 4096;
  ShardedCostModel model(space, DiffConfig(InsertionStrategy::kLazy, 7200),
                         options);
  for (const Point& p : TrainingPoints(2000, 42)) {
    model.Observe(p, Surface(p));
  }
  model.Flush();
  const auto probes = TrainingPoints(500, 777);
  CheckStatsIdentity(model, probes);
  CheckBatchIdentity(model, probes);
}

TEST(VarianceStatsTest, StatsValueTracksScalarUnderInterleaving) {
  // Mirrors the sharded differential harness: a mixed Observe/Predict
  // stream, checking the identity continuously as the tree reshapes
  // (splits, compressions) rather than only at the end.
  const Box space = Box::Cube(2, 0.0, 1000.0);
  MlqModel model(space, DiffConfig(InsertionStrategy::kEager, 1800));
  Rng rng(1234);
  for (int i = 0; i < 3000; ++i) {
    const Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    if (rng.NextDouble() < 0.6) {
      model.Observe(p, Surface(p));
    } else {
      EXPECT_EQ(model.Predict(p), model.PredictStats(p).value);
    }
  }
}

// ---------------------------------------------------------------------------
// NaN regression: the centralized SummaryTriple::Stddev().

TEST(VarianceStatsTest, EmptySummaryStddevIsZeroNotNan) {
  SummaryTriple t;
  EXPECT_EQ(t.count, 0);
  EXPECT_DOUBLE_EQ(t.Stddev(), 0.0);  // Was sqrt(0/0) = NaN before the fix.
  EXPECT_FALSE(std::isnan(t.Stddev()));
}

TEST(VarianceStatsTest, ConstantValuesHaveExactlyZeroStddev) {
  SummaryTriple t;
  for (int i = 0; i < 3; ++i) t.Add(5.0);
  EXPECT_DOUBLE_EQ(t.Stddev(), 0.0);
}

TEST(VarianceStatsTest, CancellationResidueNeverGoesNegative) {
  // Large near-constant values: SS - C*AVG^2 can land epsilon below zero
  // in floating point. The Sse() clamp must keep Stddev() at 0, never
  // sqrt(negative) = NaN.
  SummaryTriple t;
  t.sum = 3e8;
  t.count = 3;
  t.sum_squares = 3e16 - 3.0;  // Exact SSE would be -3: pure residue.
  EXPECT_DOUBLE_EQ(t.Sse(), 0.0);
  EXPECT_DOUBLE_EQ(t.Stddev(), 0.0);
  EXPECT_FALSE(std::isnan(t.Stddev()));

  SummaryTriple big;
  for (int i = 0; i < 1000; ++i) big.Add(1e8 + (i % 2 == 0 ? 1e-4 : -1e-4));
  EXPECT_FALSE(std::isnan(big.Stddev()));
  EXPECT_GE(big.Stddev(), 0.0);
}

TEST(VarianceStatsTest, EmptyTreePredictionHasZeroStddev) {
  // beta <= 0 admits the empty root as an answer; its summary has count
  // 0, which used to surface NaN stddev through the prediction path.
  const Box space = Box::Cube(2, 0.0, 1000.0);
  MlqConfig config = DiffConfig(InsertionStrategy::kEager, 1800);
  config.beta = 0;
  MlqModel model(space, config);
  const CostEstimate e = model.PredictStats(Point{500.0, 500.0});
  EXPECT_FALSE(std::isnan(e.stddev));
  EXPECT_DOUBLE_EQ(e.stddev, 0.0);
}

// ---------------------------------------------------------------------------
// Baseline models: the stats currency is honest where native, a safe
// default elsewhere.

TEST(VarianceStatsTest, GlobalAverageReportsNativeStats) {
  GlobalAverageModel model;
  const Point p{1.0, 2.0};
  const CostEstimate empty = model.PredictStats(p);
  EXPECT_DOUBLE_EQ(empty.value, 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev, 0.0);
  EXPECT_EQ(empty.count, 0);
  EXPECT_FALSE(empty.reliable);

  model.Observe(p, 10.0);
  model.Observe(p, 20.0);
  const CostEstimate stats = model.PredictStats(p);
  EXPECT_EQ(stats.value, model.Predict(p));
  EXPECT_DOUBLE_EQ(stats.value, 15.0);
  EXPECT_DOUBLE_EQ(stats.stddev, 5.0);  // Population stddev of {10, 20}.
  EXPECT_EQ(stats.count, 2);
  EXPECT_TRUE(stats.reliable);
}

TEST(VarianceStatsTest, TrainedBaselinesKeepIdentity) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const auto train = TrainingPoints(500, 9);
  std::vector<double> costs;
  costs.reserve(train.size());
  for (const Point& p : train) costs.push_back(Surface(p));

  EquiWidthHistogram equi_width(space, 1800);
  equi_width.Train(train, costs);
  EquiHeightHistogram equi_height(space, 1800);
  equi_height.Train(train, costs);
  InfluenceWeightedHistogram influence(space, 1800);
  influence.Train(train, costs);
  OnlineGridModel grid(space, 1800);
  NeuralCostModel neural(space, 1800);
  GlobalAverageModel global;
  for (size_t i = 0; i < train.size(); ++i) {
    grid.Observe(train[i], costs[i]);
    neural.Observe(train[i], costs[i]);
    global.Observe(train[i], costs[i]);
  }

  const auto probes = TrainingPoints(200, 321);
  for (const CostModel* model :
       std::initializer_list<const CostModel*>{&equi_width, &equi_height,
                                               &influence, &grid, &neural,
                                               &global}) {
    SCOPED_TRACE(std::string(model->name()));
    CheckStatsIdentity(*model, probes);
    CheckBatchIdentity(*model, probes);
  }
}

TEST(VarianceStatsTest, ConfidenceHalfWidthShrinksWithSupport) {
  CostEstimate none{10.0, 4.0, 0, false};
  EXPECT_DOUBLE_EQ(none.ConfidenceHalfWidth(), 0.0);
  CostEstimate one{10.0, 4.0, 1, true};
  EXPECT_DOUBLE_EQ(one.ConfidenceHalfWidth(), 1.96 * 4.0);
  CostEstimate four{10.0, 4.0, 4, true};
  EXPECT_DOUBLE_EQ(four.ConfidenceHalfWidth(), 1.96 * 2.0);
  EXPECT_LT(four.ConfidenceHalfWidth(), one.ConfidenceHalfWidth());
}

}  // namespace
}  // namespace mlq
