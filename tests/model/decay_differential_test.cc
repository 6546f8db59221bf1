// Differential validation of the windowed-summary (decay) extension.
//
// The contract is strict backwards compatibility: with decay disabled
// (MlqConfig::decay_half_life == 0, the default) the feature must be
// invisible — same serialized bytes (version 2, the pre-decay format),
// same predictions, AdvanceDecayEpoch a strict no-op — across MLQ-E and
// MLQ-L, scalar and batched feedback, and all three catalog concurrency
// shapes. With decay enabled but the clock never advanced, predictions
// must also match a decay-off model exactly: decay only acts through
// epoch age.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/concurrent_model.h"
#include "model/mlq_model.h"
#include "model/serialization.h"
#include "model/sharded_model.h"

namespace mlq {
namespace {

double Surface(const Point& p) {
  const double x = p[0] / 1000.0;
  const double y = p[1] / 1000.0;
  return 400.0 * (1.0 + 0.5 * x - 0.3 * y) + 150.0 * x * y;
}

Box Space() { return Box(Point{0.0, 0.0}, Point{1000.0, 1000.0}); }

MlqConfig Config(InsertionStrategy strategy, double half_life) {
  MlqConfig config;
  config.strategy = strategy;
  config.max_depth = 6;
  config.beta = 1;
  // Tight enough that the workload forces compressions, so the decay-off
  // differential also covers the eviction key's decay branch.
  config.memory_limit_bytes = 1800;
  config.decay_half_life = half_life;
  return config;
}

std::vector<Observation> MakeWorkload(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Observation> workload;
  workload.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    workload.push_back({p, Surface(p) + rng.Gaussian(0.0, 10.0)});
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

uint16_t FormatVersion(const std::vector<uint8_t>& bytes) {
  // Layout: [magic u32][version u16] ... (little-endian).
  EXPECT_GE(bytes.size(), 6u);
  return static_cast<uint16_t>(bytes[4]) |
         static_cast<uint16_t>(static_cast<uint16_t>(bytes[5]) << 8);
}

class DecayDifferentialTest
    : public ::testing::TestWithParam<InsertionStrategy> {};

// Decay off: the serialized format is exactly the pre-decay version 2, and
// AdvanceDecayEpoch between inserts changes nothing — bytes or predictions.
TEST_P(DecayDifferentialTest, DisabledDecayIsByteIdenticalAndInert) {
  const auto workload = MakeWorkload(4000, 7);
  MlqModel plain(Space(), Config(GetParam(), 0.0));
  MlqModel poked(Space(), Config(GetParam(), 0.0));
  for (size_t i = 0; i < workload.size(); ++i) {
    plain.Observe(workload[i].point, workload[i].value);
    poked.Observe(workload[i].point, workload[i].value);
    if (i % 97 == 0) poked.AdvanceDecayEpoch(3);  // Must be a no-op.
  }
  const auto plain_bytes = SerializeQuadtree(plain.tree());
  const auto poked_bytes = SerializeQuadtree(poked.tree());
  EXPECT_EQ(FormatVersion(plain_bytes), 2u);
  ASSERT_EQ(plain_bytes, poked_bytes);
  ExpectIdenticalPredictions(plain, poked);
  EXPECT_EQ(poked.tree().decay_epoch(), 0u);
}

// Decay configured but the clock never advanced: every summary is at age
// zero, so predictions match a decay-off model bit for bit.
TEST_P(DecayDifferentialTest, EnabledButUnadvancedMatchesDisabled) {
  const auto workload = MakeWorkload(4000, 11);
  MlqModel off(Space(), Config(GetParam(), 0.0));
  MlqModel on(Space(), Config(GetParam(), 16.0));
  for (const Observation& o : workload) {
    off.Observe(o.point, o.value);
    on.Observe(o.point, o.value);
  }
  ExpectIdenticalPredictions(off, on);
  // The on-disk formats differ deliberately (v2 vs v3)...
  EXPECT_EQ(FormatVersion(SerializeQuadtree(off.tree())), 2u);
  EXPECT_EQ(FormatVersion(SerializeQuadtree(on.tree())), 3u);
  // ...but the decayed tree round-trips to identical predictions.
  std::string error;
  auto reloaded = DeserializeQuadtree(SerializeQuadtree(on.tree()), &error);
  ASSERT_NE(reloaded, nullptr) << error;
  for (const Point& p : ProbeGrid()) {
    const CostEstimate a = on.tree().Predict(p);
    const CostEstimate b = reloaded->Predict(p);
    ASSERT_EQ(a.value, b.value);
    ASSERT_EQ(a.count, b.count);
  }
}

// Scalar Observe loop vs chunked ObserveBatch with identically interleaved
// epoch advances: the batch path must hit the same materialization points.
TEST_P(DecayDifferentialTest, LoopVsBatchIdenticalUnderDecay) {
  const auto workload = MakeWorkload(4000, 13);
  MlqModel loop(Space(), Config(GetParam(), 8.0));
  MlqModel batch(Space(), Config(GetParam(), 8.0));
  const size_t chunk = 64;
  for (size_t begin = 0; begin < workload.size(); begin += chunk) {
    const size_t end = std::min(workload.size(), begin + chunk);
    for (size_t i = begin; i < end; ++i) {
      loop.Observe(workload[i].point, workload[i].value);
    }
    batch.ObserveBatch(
        std::span<const Observation>(workload.data() + begin, end - begin));
    loop.AdvanceDecayEpoch(1);
    batch.AdvanceDecayEpoch(1);
  }
  ASSERT_EQ(SerializeQuadtree(loop.tree()), SerializeQuadtree(batch.tree()));
  ExpectIdenticalPredictions(loop, batch);
}

// All three catalog concurrency shapes over the same sequence (single
// caller, one shard) stay bit-identical to the bare model, decay on & off.
TEST_P(DecayDifferentialTest, ConcurrencyModesIdenticalWithAndWithoutDecay) {
  for (const double half_life : {0.0, 8.0}) {
    SCOPED_TRACE(half_life);
    const auto workload = MakeWorkload(3000, 17);
    const MlqConfig config = Config(GetParam(), half_life);

    MlqModel bare(Space(), config);
    ConcurrentCostModel mutexed(std::make_unique<MlqModel>(Space(), config));
    ShardedModelOptions options;
    options.num_shards = 1;
    options.drain_on_predict = true;
    ShardedCostModel sharded(Space(), config, options);

    for (size_t i = 0; i < workload.size(); ++i) {
      bare.Observe(workload[i].point, workload[i].value);
      mutexed.Observe(workload[i].point, workload[i].value);
      sharded.Observe(workload[i].point, workload[i].value);
      if (i % 250 == 249) {
        bare.AdvanceDecayEpoch(1);
        sharded.Flush();  // Queued feedback must land before the clock ticks.
        mutexed.AdvanceDecayEpoch(1);
        sharded.AdvanceDecayEpoch(1);
      }
    }
    sharded.Flush();
    ExpectIdenticalPredictions(bare, mutexed);
    ExpectIdenticalPredictions(bare, sharded);
    ASSERT_EQ(SerializeQuadtree(bare.tree()),
              SerializeQuadtree(sharded.shard_model(0).tree()));
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, DecayDifferentialTest,
                         ::testing::Values(InsertionStrategy::kEager,
                                           InsertionStrategy::kLazy));

}  // namespace
}  // namespace mlq
