#include "eval/trace.h"

#include <sstream>

#include <gtest/gtest.h>

#include "eval/experiment_setup.h"
#include "model/mlq_model.h"

namespace mlq {
namespace {

std::vector<TraceRecord> SampleRecords() {
  return {
      {Point{1.0, 2.0}, 100.0, 3.0},
      {Point{4.5, -6.0}, 250.5, 0.0},
      {Point{0.0, 0.0}, 0.0, 0.0},
  };
}

TEST(TraceTest, WriteReadRoundTrip) {
  std::stringstream stream;
  const auto records = SampleRecords();
  WriteTrace(stream, records, 2);

  std::vector<TraceRecord> loaded;
  std::string error;
  ASSERT_TRUE(ReadTrace(stream, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded[i].point, records[i].point);
    EXPECT_DOUBLE_EQ(loaded[i].cpu_cost, records[i].cpu_cost);
    EXPECT_DOUBLE_EQ(loaded[i].io_cost, records[i].io_cost);
  }
}

TEST(TraceTest, RoundTripPreservesFullDoublePrecision) {
  std::stringstream stream;
  std::vector<TraceRecord> records = {
      {Point{1.0 / 3.0}, 1e300 * (1.0 / 7.0), 1e-300}};
  WriteTrace(stream, records, 1);
  std::vector<TraceRecord> loaded;
  std::string error;
  ASSERT_TRUE(ReadTrace(stream, &loaded, &error)) << error;
  EXPECT_DOUBLE_EQ(loaded[0].point[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(loaded[0].cpu_cost, 1e300 * (1.0 / 7.0));
  EXPECT_DOUBLE_EQ(loaded[0].io_cost, 1e-300);
}

TEST(TraceTest, CommentsAndBlankLinesIgnored) {
  std::stringstream stream;
  stream << "# mlq-trace v1 dims=1\n"
         << "# a comment\n"
         << "\n"
         << "5.0,10.0,1.0\n";
  std::vector<TraceRecord> loaded;
  std::string error;
  ASSERT_TRUE(ReadTrace(stream, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0].point[0], 5.0);
}

TEST(TraceTest, RejectsMalformedInput) {
  const char* bad_inputs[] = {
      "",                                  // Empty.
      "not a header\n1,2,3\n",             // Bad header.
      "# mlq-trace v1 dims=0\n",           // Bad dims.
      "# mlq-trace v1 dims=8\n",           // More dims than a quadtree has.
      "# mlq-trace v1 dims=2\n1.0,2.0\n",  // Too few fields.
      "# mlq-trace v1 dims=1\n1.0,2.0,3.0,4.0\n",  // Too many fields.
      "# mlq-trace v1 dims=1\nx,2.0,3.0\n",        // Not a number.
  };
  for (const char* input : bad_inputs) {
    std::istringstream stream{std::string(input)};
    std::vector<TraceRecord> loaded;
    std::string error;
    EXPECT_FALSE(ReadTrace(stream, &loaded, &error)) << "input: " << input;
    EXPECT_FALSE(error.empty());
  }
}

TEST(TraceTest, CaptureRecordsUdfCosts) {
  auto udf = MakePaperSyntheticUdf(/*num_peaks=*/10, 0.0, /*seed=*/1);
  const auto points = MakePaperWorkload(
      udf->model_space(), QueryDistributionKind::kUniform, 50, 2);
  const auto records = CaptureTrace(*udf, points);
  ASSERT_EQ(records.size(), 50u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].point, points[i]);
    EXPECT_DOUBLE_EQ(records[i].cpu_cost, udf->TrueCost(points[i]));
  }
}

TEST(TraceTest, ReplayEqualsLiveEvaluation) {
  // Replaying a captured trace into a fresh model must produce the exact
  // same NAE as the live predict-execute-observe loop (the UDF is
  // deterministic here).
  auto udf = MakePaperSyntheticUdf(/*num_peaks=*/20, 0.0, /*seed=*/3);
  const auto points = MakePaperWorkload(
      udf->model_space(), QueryDistributionKind::kGaussianRandom, 800, 4);
  const auto records = CaptureTrace(*udf, points);

  MlqModel live(udf->model_space(),
                MakePaperMlqConfig(InsertionStrategy::kEager, CostKind::kCpu));
  double live_err = 0.0;
  double live_act = 0.0;
  for (const Point& p : points) {
    const double actual = udf->Execute(p).cpu_work;
    live_err += std::abs(live.Predict(p) - actual);
    live_act += actual;
    live.Observe(p, actual);
  }

  MlqModel replayed(udf->model_space(),
                    MakePaperMlqConfig(InsertionStrategy::kEager,
                                       CostKind::kCpu));
  const double replay_nae = ReplayTrace(replayed, records, CostKind::kCpu);
  EXPECT_NEAR(replay_nae, live_err / live_act, 1e-12);
}

TEST(TraceTest, FileStyleRoundTripThroughStrings) {
  // Capture -> serialize -> parse -> replay, end to end.
  auto udf = MakePaperSyntheticUdf(/*num_peaks=*/15, 0.0, /*seed=*/5);
  const auto points = MakePaperWorkload(
      udf->model_space(), QueryDistributionKind::kUniform, 200, 6);
  const auto records = CaptureTrace(*udf, points);

  std::stringstream stream;
  WriteTrace(stream, records, udf->model_space().dims());
  std::vector<TraceRecord> loaded;
  std::string error;
  ASSERT_TRUE(ReadTrace(stream, &loaded, &error)) << error;

  MlqModel model(udf->model_space(),
                 MakePaperMlqConfig(InsertionStrategy::kLazy, CostKind::kIo));
  const double nae = ReplayTrace(model, loaded, CostKind::kIo);
  EXPECT_GE(nae, 0.0);
  EXPECT_EQ(model.update_breakdown().insertions, 200);
}

}  // namespace
}  // namespace mlq
