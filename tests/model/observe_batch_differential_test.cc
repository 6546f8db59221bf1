// Differential validation of the batched feedback pipeline.
//
// The contract of ObserveBatch (CostModel through ShardedCostModel down to
// MemoryLimitedQuadtree::InsertBatch) is that batching amortizes overhead
// WITHOUT changing semantics: feeding a model one batch must leave it in
// exactly the state of a scalar Observe loop over the same sequence. For
// MLQ models "exactly" means bit-identical — same serialized tree bytes,
// same predictions — for both insertion strategies and any chunking.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/trace.h"
#include "model/concurrent_model.h"
#include "model/global_average_model.h"
#include "model/mlq_model.h"
#include "model/online_grid_model.h"
#include "model/serialization.h"
#include "model/sharded_model.h"

namespace mlq {
namespace {

double Surface(const Point& p) {
  const double x = p[0] / 1000.0;
  const double y = p[1] / 1000.0;
  return 1000.0 * (1.0 + std::sin(3.0 * x) * std::cos(2.0 * y)) +
         500.0 * x * y;
}

MlqConfig DiffConfig(InsertionStrategy strategy) {
  MlqConfig config;
  config.strategy = strategy;
  config.max_depth = 6;
  config.beta = 1;
  // Small enough that the 4000-observation workload forces many
  // compression passes: the differential covers eviction, not just growth.
  config.memory_limit_bytes = 1800;
  return config;
}

std::vector<Observation> MakeWorkload(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Observation> workload;
  workload.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    workload.push_back({p, Surface(p) + rng.Gaussian(0.0, 25.0)});
  }
  return workload;
}

std::vector<Point> ProbeGrid() {
  std::vector<Point> probes;
  for (int i = 0; i <= 20; ++i) {
    for (int j = 0; j <= 20; ++j) {
      probes.push_back(Point{i * 50.0, j * 50.0});
    }
  }
  return probes;
}

// Feeds `workload` to `model` in chunks of `chunk` via ObserveBatch.
void FeedBatched(CostModel& model, const std::vector<Observation>& workload,
                 size_t chunk) {
  for (size_t begin = 0; begin < workload.size(); begin += chunk) {
    const size_t end = std::min(workload.size(), begin + chunk);
    model.ObserveBatch(
        std::span<const Observation>(workload.data() + begin, end - begin));
  }
}

void ExpectIdenticalPredictions(const CostModel& a, const CostModel& b) {
  for (const Point& p : ProbeGrid()) {
    const CostEstimate pa = a.PredictStats(p);
    const CostEstimate pb = b.PredictStats(p);
    ASSERT_EQ(pa.value, pb.value) << "at " << p.ToString();
    ASSERT_EQ(pa.stddev, pb.stddev);
    ASSERT_EQ(pa.depth, pb.depth);
    ASSERT_EQ(pa.count, pb.count);
    ASSERT_EQ(pa.reliable, pb.reliable);
  }
}

class ObserveBatchDifferentialTest
    : public ::testing::TestWithParam<InsertionStrategy> {};

// The core tentpole guarantee: for MLQ-E and MLQ-L, batch ≡ scalar down to
// the serialized tree bytes, at every chunking.
TEST_P(ObserveBatchDifferentialTest, BatchEqualsScalarBitIdentical) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const MlqConfig config = DiffConfig(GetParam());
  const std::vector<Observation> workload = MakeWorkload(4000, 99);

  MlqModel reference(space, config);
  for (const Observation& o : workload) reference.Observe(o.point, o.value);
  ASSERT_GT(reference.tree().counters().compressions, 0);
  const std::vector<uint8_t> reference_bytes =
      SerializeQuadtree(reference.tree());

  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{64},
                             workload.size()}) {
    MlqModel batched(space, config);
    FeedBatched(batched, workload, chunk);
    EXPECT_EQ(SerializeQuadtree(batched.tree()), reference_bytes)
        << "chunk=" << chunk;
    ExpectIdenticalPredictions(reference, batched);
    std::string invariant_error;
    EXPECT_TRUE(batched.tree().CheckInvariants(&invariant_error))
        << invariant_error;
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, ObserveBatchDifferentialTest,
                         ::testing::Values(InsertionStrategy::kEager,
                                           InsertionStrategy::kLazy));

// Non-MLQ models never override ObserveBatch; the CostModel default loop
// must make batch and scalar feedback indistinguishable for them too.
TEST(ObserveBatchDefaultLoop, NonMlqModelsUnmodified) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const std::vector<Observation> workload = MakeWorkload(1500, 7);

  GlobalAverageModel avg_scalar;
  GlobalAverageModel avg_batched;
  OnlineGridModel grid_scalar(space, 4096);
  OnlineGridModel grid_batched(space, 4096);

  for (const Observation& o : workload) {
    avg_scalar.Observe(o.point, o.value);
    grid_scalar.Observe(o.point, o.value);
  }
  FeedBatched(avg_batched, workload, 64);
  FeedBatched(grid_batched, workload, 64);

  ExpectIdenticalPredictions(avg_scalar, avg_batched);
  ExpectIdenticalPredictions(grid_scalar, grid_batched);
}

// The mutex decorator forwards a batch under one lock acquisition; state
// must match the bare model's exactly.
TEST(ObserveBatchDecorators, ConcurrentCostModelForwards) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const MlqConfig config = DiffConfig(InsertionStrategy::kLazy);
  const std::vector<Observation> workload = MakeWorkload(3000, 21);

  MlqModel reference(space, config);
  for (const Observation& o : workload) reference.Observe(o.point, o.value);

  ConcurrentCostModel locked(std::make_unique<MlqModel>(space, config));
  FeedBatched(locked, workload, 64);

  ExpectIdenticalPredictions(reference, locked);
}

// One-shard sharded model: ObserveBatch goes through the per-shard queue's
// PushBatch and the drain path's tree InsertBatch, yet the single-threaded
// insert sequence — and so the tree — is unchanged.
TEST(ObserveBatchDecorators, OneShardShardedMatchesBareModel) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const MlqConfig config = DiffConfig(InsertionStrategy::kLazy);
  const std::vector<Observation> workload = MakeWorkload(3000, 35);

  MlqModel reference(space, config);
  for (const Observation& o : workload) reference.Observe(o.point, o.value);

  ShardedModelOptions options;
  options.num_shards = 1;
  options.queue_capacity = 8192;  // No drops, or the trees diverge.
  ShardedCostModel sharded(space, config, options);
  FeedBatched(sharded, workload, 64);
  sharded.Flush();

  EXPECT_EQ(sharded.stats().observations_dropped, 0);
  ExpectIdenticalPredictions(reference, sharded);
  EXPECT_EQ(SerializeQuadtree(sharded.shard_model(0).tree()),
            SerializeQuadtree(reference.tree()));
}

// The eval drivers ride the same pipeline: a batched replay must build the
// same tree as the scalar replay, and IngestTrace the same tree as an
// Observe loop.
TEST(ObserveBatchEvalDrivers, ReplayAndIngestBuildTheSameTree) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const MlqConfig config = DiffConfig(InsertionStrategy::kLazy);
  const std::vector<Observation> workload = MakeWorkload(2500, 11);

  std::vector<TraceRecord> records;
  records.reserve(workload.size());
  for (const Observation& o : workload) {
    records.push_back(TraceRecord{o.point, o.value, /*io_cost=*/0.0});
  }

  MlqModel scalar_replayed(space, config);
  const double scalar_nae =
      ReplayTrace(scalar_replayed, records, CostKind::kCpu);
  MlqModel batch_replayed(space, config);
  const double batched_nae =
      ReplayTraceBatched(batch_replayed, records, CostKind::kCpu, 64);
  EXPECT_EQ(SerializeQuadtree(batch_replayed.tree()),
            SerializeQuadtree(scalar_replayed.tree()));
  // NAEs differ (within-block predictions precede the block's feedback)
  // but both replays must have learned the surface.
  EXPECT_LT(scalar_nae, 1.0);
  EXPECT_LT(batched_nae, 1.0);

  MlqModel ingested(space, config);
  IngestTrace(ingested, records, CostKind::kCpu, /*chunk_size=*/128);
  EXPECT_EQ(SerializeQuadtree(ingested.tree()),
            SerializeQuadtree(scalar_replayed.tree()));
}

}  // namespace
}  // namespace mlq
