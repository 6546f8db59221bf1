// Concurrency stress for the batched prediction path over the pooled
// arena tree. Built to run clean under TSan (it is part of the curated
// thread-sanitizer suite): reader threads hammer PredictBatch while writer
// threads feed observations, against both concurrency decorators.
//
// The point is the data-race surface, not prediction quality: batched
// descent walks pool-internal arrays (node vector, child blocks) that
// inserts grow and compression recycles, so any missing synchronization in
// the serving layer shows up here first.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/concurrent_model.h"
#include "model/mlq_model.h"
#include "model/sharded_model.h"

namespace mlq {
namespace {

constexpr int kReaders = 3;
constexpr int kWriters = 2;
constexpr size_t kBatch = 64;
constexpr int kRoundsPerReader = 150;
constexpr int kObservationsPerWriter = 3000;

MlqConfig StressConfig() {
  MlqConfig config;
  config.strategy = InsertionStrategy::kEager;
  config.max_depth = 6;
  config.beta = 2;
  // Small budget: compression (and so block recycling through the pool
  // free-list) triggers many times during the run.
  config.memory_limit_bytes = 4096;
  return config;
}

// A deterministic per-thread workload point in [0, 1000)^2.
Point WorkloadPoint(Rng& rng) {
  return Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
}

double WorkloadCost(const Point& p) { return 10.0 + p[0] * 0.5 + p[1] * 0.25; }

// Runs readers and writers concurrently against `model`, which must be a
// thread-safe CostModel. Returns the number of reliable predictions seen,
// as a cheap liveness signal that batches actually hit warmed regions.
int64_t RunStress(CostModel& model) {
  std::atomic<int64_t> reliable{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + kWriters);

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&model, w]() {
      Rng rng(1000 + w);
      for (int i = 0; i < kObservationsPerWriter; ++i) {
        const Point p = WorkloadPoint(rng);
        model.Observe(p, WorkloadCost(p));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&model, &reliable, r]() {
      Rng rng(2000 + r);
      std::vector<Point> points(kBatch);
      std::vector<CostEstimate> out(kBatch);
      int64_t local_reliable = 0;
      for (int round = 0; round < kRoundsPerReader; ++round) {
        for (Point& p : points) p = WorkloadPoint(rng);
        model.PredictBatch(points, out);
        for (const CostEstimate& p : out) {
          // Every slot must be written: value finite-or-zero and count
          // non-negative are cheap structural checks on each element.
          EXPECT_GE(p.count, 0);
          EXPECT_GE(p.depth, 0);
          if (p.reliable) ++local_reliable;
        }
      }
      reliable.fetch_add(local_reliable, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();
  model.Flush();
  return reliable.load();
}

TEST(ConcurrentBatchStressTest, MutexModelSurvivesBatchPredictInsertRace) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  ConcurrentCostModel model(
      std::make_unique<MlqModel>(space, StressConfig()));

  const int64_t reliable = RunStress(model);
  // With kEager inserts racing ahead of the readers, the later rounds must
  // see warmed cells; an all-unreliable run means feedback never landed.
  EXPECT_GT(reliable, 0);

  // The tree underneath must come out structurally intact.
  auto& mlq = static_cast<MlqModel&>(model.inner());
  std::string error;
  EXPECT_TRUE(mlq.tree().CheckInvariants(&error)) << error;
}

TEST(ConcurrentBatchStressTest, ShardedModelSurvivesBatchPredictInsertRace) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  ShardedModelOptions options;
  options.num_shards = 4;
  options.drain_on_predict = true;
  ShardedCostModel model(space, StressConfig(), options);

  const int64_t reliable = RunStress(model);
  EXPECT_GT(reliable, 0);

  // After Flush with no live producers, every shard tree is quiescent and
  // must satisfy the tree invariants.
  for (int s = 0; s < model.num_shards(); ++s) {
    std::string error;
    EXPECT_TRUE(model.shard_model(s).tree().CheckInvariants(&error))
        << "shard " << s << ": " << error;
  }
  const ShardedModelStats stats = model.stats();
  EXPECT_EQ(stats.pending, 0);
}

TEST(ConcurrentBatchStressTest, BatchResultsMatchScalarUnderQuiescence) {
  // Sanity anchor for the two racing tests above: once writers stop, a
  // batch must be element-wise identical to the scalar path.
  const Box space = Box::Cube(2, 0.0, 1000.0);
  ConcurrentCostModel model(
      std::make_unique<MlqModel>(space, StressConfig()));
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const Point p = WorkloadPoint(rng);
    model.Observe(p, WorkloadCost(p));
  }
  std::vector<Point> points(kBatch);
  for (Point& p : points) p = WorkloadPoint(rng);
  std::vector<CostEstimate> batch(kBatch);
  model.PredictBatch(points, batch);
  for (size_t i = 0; i < kBatch; ++i) {
    const CostEstimate scalar = model.PredictStats(points[i]);
    EXPECT_DOUBLE_EQ(batch[i].value, scalar.value);
    EXPECT_EQ(batch[i].count, scalar.count);
    EXPECT_EQ(batch[i].depth, scalar.depth);
  }
}

}  // namespace
}  // namespace mlq
