// Tests for the CostModel adapters: MlqModel and GlobalAverageModel.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/experiment_setup.h"
#include "model/global_average_model.h"
#include "model/mlq_model.h"

namespace mlq {
namespace {

TEST(MlqModelTest, NamesFollowStrategy) {
  const Box space = Box::Cube(2, 0.0, 100.0);
  MlqModel eager(space, MakePaperMlqConfig(InsertionStrategy::kEager,
                                           CostKind::kCpu));
  MlqModel lazy(space, MakePaperMlqConfig(InsertionStrategy::kLazy,
                                          CostKind::kCpu));
  EXPECT_EQ(eager.name(), "MLQ-E");
  EXPECT_EQ(lazy.name(), "MLQ-L");
  EXPECT_TRUE(eager.IsSelfTuning());
}

TEST(MlqModelTest, ObserveUpdatesPredictions) {
  const Box space = Box::Cube(2, 0.0, 100.0);
  MlqModel model(space,
                 MakePaperMlqConfig(InsertionStrategy::kEager, CostKind::kCpu));
  EXPECT_DOUBLE_EQ(model.Predict(Point{10.0, 10.0}), 0.0);
  model.Observe(Point{10.0, 10.0}, 500.0);
  EXPECT_DOUBLE_EQ(model.Predict(Point{10.0, 10.0}), 500.0);
}

TEST(MlqModelTest, PaperBetaDependsOnCostKind) {
  EXPECT_EQ(MakePaperMlqConfig(InsertionStrategy::kEager, CostKind::kCpu).beta,
            1);
  EXPECT_EQ(MakePaperMlqConfig(InsertionStrategy::kEager, CostKind::kIo).beta,
            10);
}

TEST(MlqModelTest, MemoryStaysWithinPaperBudget) {
  const Box space = Box::Cube(4, 0.0, 1000.0);
  MlqModel model(space,
                 MakePaperMlqConfig(InsertionStrategy::kEager, CostKind::kCpu));
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    Point p(4);
    for (int d = 0; d < 4; ++d) p[d] = rng.Uniform(0.0, 1000.0);
    model.Observe(p, rng.Uniform(0.0, 10000.0));
    ASSERT_LE(model.MemoryBytes(), kPaperMemoryBytes);
  }
}

TEST(MlqModelTest, BreakdownAccumulates) {
  const Box space = Box::Cube(4, 0.0, 1000.0);
  MlqModel model(space,
                 MakePaperMlqConfig(InsertionStrategy::kEager, CostKind::kCpu));
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    Point p(4);
    for (int d = 0; d < 4; ++d) p[d] = rng.Uniform(0.0, 1000.0);
    model.Observe(p, rng.Uniform(0.0, 10000.0));
  }
  const ModelUpdateBreakdown breakdown = model.update_breakdown();
  EXPECT_EQ(breakdown.insertions, 500);
  EXPECT_GT(breakdown.compressions, 0);
  EXPECT_GT(breakdown.insert_seconds, 0.0);
  EXPECT_GT(breakdown.compress_seconds, 0.0);
  EXPECT_DOUBLE_EQ(breakdown.UpdateSeconds(),
                   breakdown.insert_seconds + breakdown.compress_seconds);
}

TEST(MlqModelTest, PredictStatsExposesDepthAndCount) {
  const Box space = Box::Cube(2, 0.0, 100.0);
  MlqModel model(space,
                 MakePaperMlqConfig(InsertionStrategy::kEager, CostKind::kCpu));
  model.Observe(Point{10.0, 10.0}, 5.0);
  const CostEstimate p = model.PredictStats(Point{10.0, 10.0});
  EXPECT_TRUE(p.reliable);
  EXPECT_EQ(p.depth, 6);  // Paper lambda.
  EXPECT_EQ(p.count, 1);
}

TEST(GlobalAverageModelTest, PredictsRunningMean) {
  GlobalAverageModel model;
  EXPECT_DOUBLE_EQ(model.Predict(Point{1.0}), 0.0);
  model.Observe(Point{1.0}, 10.0);
  model.Observe(Point{500.0}, 20.0);
  EXPECT_DOUBLE_EQ(model.Predict(Point{250.0}), 15.0);
  EXPECT_TRUE(model.IsSelfTuning());
  EXPECT_EQ(model.MemoryBytes(), 24);
  EXPECT_EQ(model.update_breakdown().insertions, 2);
}

TEST(GlobalAverageModelTest, PredictionIgnoresLocation) {
  GlobalAverageModel model;
  model.Observe(Point{0.0, 0.0}, 100.0);
  EXPECT_DOUBLE_EQ(model.Predict(Point{0.0, 0.0}),
                   model.Predict(Point{999.0, 999.0}));
}

// On a spatially structured surface, MLQ must beat the global average — the
// sanity floor that justifies the structure.
TEST(ModelComparisonTest, MlqBeatsGlobalAverageOnStructuredSurface) {
  const Box space = Box::Cube(2, 0.0, 100.0);
  MlqConfig config = MakePaperMlqConfig(InsertionStrategy::kEager,
                                        CostKind::kCpu, /*memory=*/8192);
  MlqModel mlq(space, config);
  GlobalAverageModel global;

  // Surface: high plateau left, low plateau right.
  auto surface = [](const Point& p) { return p[0] < 50.0 ? 1000.0 : 10.0; };

  Rng rng(5);
  double mlq_err = 0.0;
  double global_err = 0.0;
  for (int i = 0; i < 2000; ++i) {
    Point p{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const double actual = surface(p);
    if (i > 200) {  // Skip the cold start for both.
      mlq_err += std::abs(mlq.Predict(p) - actual);
      global_err += std::abs(global.Predict(p) - actual);
    }
    mlq.Observe(p, actual);
    global.Observe(p, actual);
  }
  EXPECT_LT(mlq_err, 0.25 * global_err);
}

}  // namespace
}  // namespace mlq
