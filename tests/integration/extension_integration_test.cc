// Cross-extension integration: the paper-faithful core combined with the
// repository's extensions, exercised together the way a deployment would.

#include <cmath>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/experiment_setup.h"
#include "eval/trace.h"
#include "model/mlq_model.h"
#include "model/partitioned_model.h"
#include "model/serialization.h"
#include "udf/transformed_udf.h"

namespace mlq {
namespace {

TEST(ExtensionIntegrationTest, TransformedModelSurvivesCatalogRoundTrip) {
  // Transform -> train -> serialize -> load -> identical predictions on the
  // transformed space.
  const RealUdfSuite suite = MakeRealUdfSuite(SubstrateScale::kSmall);
  CostedUdf* win = suite.Find("WIN");
  std::vector<std::unique_ptr<VariableTransform>> vars;
  vars.push_back(Identity(0));
  vars.push_back(Identity(1));
  vars.push_back(Product(2, 3));
  auto transform = std::make_shared<const ArgumentTransform>(
      win->model_space(), std::move(vars));
  TransformedUdf transformed(win, transform);

  MlqModel model(transformed.model_space(),
                 MakePaperMlqConfig(InsertionStrategy::kLazy, CostKind::kCpu));
  const auto queries = MakePaperWorkload(
      transformed.execution_space(), QueryDistributionKind::kGaussianRandom,
      1000, 5);
  for (const Point& q : queries) {
    model.Observe(transformed.ToModelPoint(q), transformed.Execute(q).cpu_work);
  }

  std::string error;
  auto restored = DeserializeQuadtree(SerializeQuadtree(model.tree()), &error);
  ASSERT_NE(restored, nullptr) << error;
  for (int i = 0; i < 200; ++i) {
    const Point& q = queries[static_cast<size_t>(i)];
    const Point mp = transformed.ToModelPoint(q);
    ASSERT_DOUBLE_EQ(model.Predict(mp), restored->Predict(mp).value);
  }
}

TEST(ExtensionIntegrationTest, TraceReplayIntoPartitionedModel) {
  // Nominal routing over traces: capture per-UDF traces, replay each into
  // its partition of one shared-budget PartitionedCostModel.
  const RealUdfSuite suite = MakeRealUdfSuite(SubstrateScale::kSmall);
  CostedUdf* knn = suite.Find("KNN");
  CostedUdf* range = suite.Find("RANGE");
  ASSERT_EQ(knn->model_space().dims(), range->model_space().dims());

  PartitionedCostModel model(
      [&](int64_t budget) {
        return std::make_unique<MlqModel>(
            knn->model_space(),
            MakePaperMlqConfig(InsertionStrategy::kEager, CostKind::kCpu,
                               budget));
      },
      /*max_partitions=*/2, /*total_budget=*/5400);

  const auto points = MakePaperWorkload(
      knn->model_space(), QueryDistributionKind::kUniform, 400, 6);
  const auto knn_trace = CaptureTrace(*knn, points);
  const auto range_trace = CaptureTrace(*range, points);
  for (const TraceRecord& r : knn_trace) model.Observe(1, r.point, r.cpu_cost);
  for (const TraceRecord& r : range_trace) {
    model.Observe(2, r.point, r.cpu_cost);
  }

  // Each partition should reflect its own UDF's cost level at a dense
  // probe (KNN and RANGE have very different magnitudes).
  double knn_avg = 0.0;
  double range_avg = 0.0;
  for (const TraceRecord& r : knn_trace) knn_avg += r.cpu_cost;
  for (const TraceRecord& r : range_trace) range_avg += r.cpu_cost;
  knn_avg /= static_cast<double>(knn_trace.size());
  range_avg /= static_cast<double>(range_trace.size());

  double knn_pred = 0.0;
  double range_pred = 0.0;
  for (const Point& p : points) {
    knn_pred += model.Predict(1, p);
    range_pred += model.Predict(2, p);
  }
  knn_pred /= static_cast<double>(points.size());
  range_pred /= static_cast<double>(points.size());
  // At 1800 bytes per partition predictions are coarse; what must hold is
  // that each partition tracks its own UDF's cost level (within 40%) and
  // the budget is honored.
  EXPECT_NEAR(knn_pred, knn_avg, 0.40 * knn_avg);
  EXPECT_NEAR(range_pred, range_avg, 0.40 * range_avg);
  EXPECT_LE(model.MemoryBytes(), 5400);
}

TEST(ExtensionIntegrationTest, AutoExpandWithRecencyUnderGrowingDriftingLoad) {
  // Everything at once: a workload whose argument range grows over time
  // (auto_expand) while its locality drifts (recency decay), at a tight
  // budget, with noisy values. The model must remain bounded, consistent,
  // and usable throughout.
  MlqConfig config;
  config.strategy = InsertionStrategy::kLazy;
  config.memory_limit_bytes = 1800;
  config.auto_expand = true;
  config.recency_half_life = 500.0;
  MemoryLimitedQuadtree tree(Box::Cube(2, 0.0, 10.0), config);

  Rng rng(7);
  double center = 5.0;
  double scale = 10.0;
  for (int i = 0; i < 3000; ++i) {
    if (i % 500 == 499) {
      scale *= 2.0;             // Range grows.
      center = scale * rng.NextDouble();  // Locality jumps.
    }
    Point p{std::clamp(rng.Gaussian(center, scale * 0.05), 0.0, scale),
            std::clamp(rng.Gaussian(center, scale * 0.05), 0.0, scale)};
    tree.Insert(p, rng.Uniform(0.0, 100.0));
    ASSERT_LE(tree.memory_used(), 1800);
  }
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
  EXPECT_TRUE(tree.space().ContainsClosed(Point{0.0, 0.0}));
  EXPECT_GE(tree.space().hi()[0], 80.0);  // Expanded several times.
  const CostEstimate p = tree.Predict(Point{center, center});
  EXPECT_GE(p.value, 0.0);
  EXPECT_LE(p.value, 100.0);
}

TEST(ExtensionIntegrationTest, TraceTextFormatIsStableAcrossWriteRead) {
  // A trace written by one component and read by another (the CLI, a test,
  // a user script) must agree byte-for-byte on re-serialization.
  auto udf = MakePaperSyntheticUdf(10, 0.0, 8);
  const auto points = MakePaperWorkload(
      udf->model_space(), QueryDistributionKind::kUniform, 100, 9);
  const auto records = CaptureTrace(*udf, points);

  std::stringstream first;
  WriteTrace(first, records, 4);
  std::vector<TraceRecord> loaded;
  std::string error;
  std::stringstream reread(first.str());
  ASSERT_TRUE(ReadTrace(reread, &loaded, &error)) << error;
  std::stringstream second;
  WriteTrace(second, loaded, 4);
  EXPECT_EQ(first.str(), second.str());
}

}  // namespace
}  // namespace mlq
