// Differential validation of the sharded serving layer against the
// single-threaded reference model.
//
// (1) With one shard, ShardedCostModel is the same tree fed the same
//     insert sequence, so every prediction must be bit-identical to the
//     bare MlqModel's under any single-threaded interleaving of
//     Observe/Predict/Flush.
// (2) With N shards, each shard is an independent tree under budget/N, so
//     equality cannot be expected — prediction quality is validated
//     instead: aggregate MAE on a held-out probe set must stay within a
//     fixed factor of the single-tree model's.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/mlq_model.h"
#include "model/sharded_model.h"

namespace mlq {
namespace {

// A smooth deterministic 2-d cost surface: cheap to evaluate, non-trivial
// structure for the trees to learn.
double Surface(const Point& p) {
  const double x = p[0] / 1000.0;
  const double y = p[1] / 1000.0;
  return 1000.0 * (1.0 + std::sin(3.0 * x) * std::cos(2.0 * y)) +
         500.0 * x * y;
}

MlqConfig DiffConfig(int64_t budget) {
  MlqConfig config;
  config.strategy = InsertionStrategy::kLazy;
  config.max_depth = 6;
  config.beta = 1;
  config.memory_limit_bytes = budget;
  return config;
}

TEST(ShardedDifferentialTest, OneShardIsBitIdenticalToBareModel) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const MlqConfig config = DiffConfig(/*budget=*/1800);

  MlqModel reference(space, config);
  ShardedModelOptions options;
  options.num_shards = 1;
  options.drain_on_predict = true;
  // Ample queue: no observation may be dropped, or the trees diverge.
  options.queue_capacity = 4096;
  ShardedCostModel sharded(space, config, options);

  Rng rng(1234);
  int64_t checked = 0;
  for (int i = 0; i < 3000; ++i) {
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    const double dice = rng.NextDouble();
    if (dice < 0.55) {
      const double value = Surface(p) + rng.Gaussian(0.0, 25.0);
      reference.Observe(p, value);
      sharded.Observe(p, value);
    } else if (dice < 0.95) {
      const CostEstimate a = reference.PredictStats(p);
      const CostEstimate b = sharded.PredictStats(p);
      // Bit-identical: same tree, same insert order, same arithmetic.
      ASSERT_EQ(a.value, b.value) << "at op " << i << " point " << p.ToString();
      ASSERT_EQ(a.stddev, b.stddev);
      ASSERT_EQ(a.depth, b.depth);
      ASSERT_EQ(a.count, b.count);
      ASSERT_EQ(a.reliable, b.reliable);
      ++checked;
    } else {
      sharded.Flush();  // No-op for the reference; must not perturb.
    }
  }
  sharded.Flush();
  EXPECT_GT(checked, 500);
  EXPECT_EQ(sharded.stats().observations_dropped, 0);
  // Final tree shapes agree too.
  EXPECT_EQ(sharded.shard_model(0).tree().num_nodes(),
            reference.tree().num_nodes());
  EXPECT_EQ(sharded.MemoryBytes(), reference.MemoryBytes());
}

TEST(ShardedDifferentialTest, MultiShardMaeStaysWithinFactorOfSingleTree) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  // Generous budget so each of the 4 shards still gets a paper-sized tree.
  const int64_t budget = 8192;

  MlqModel reference(space, DiffConfig(budget));
  ShardedModelOptions options;
  options.num_shards = 4;
  options.queue_capacity = 8192;
  ShardedCostModel sharded(space, DiffConfig(budget), options);

  // Same fixed-seed training workload into both.
  Rng rng(777);
  for (int i = 0; i < 6000; ++i) {
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    const double value = Surface(p);
    reference.Observe(p, value);
    sharded.Observe(p, value);
  }
  sharded.Flush();
  ASSERT_EQ(sharded.stats().observations_dropped, 0);

  // Held-out probe set from an independent stream.
  Rng probe_rng(778);
  double mae_reference = 0.0;
  double mae_sharded = 0.0;
  constexpr int kProbes = 2000;
  for (int i = 0; i < kProbes; ++i) {
    Point p{probe_rng.Uniform(0.0, 1000.0), probe_rng.Uniform(0.0, 1000.0)};
    const double truth = Surface(p);
    mae_reference += std::abs(reference.Predict(p) - truth);
    mae_sharded += std::abs(sharded.Predict(p) - truth);
  }
  mae_reference /= kProbes;
  mae_sharded /= kProbes;

  // The sharded model must have actually learned the surface (mean value
  // is ~1000, so MAE far below that), and must stay within a fixed factor
  // of the single tree despite the budget split.
  EXPECT_LT(mae_sharded, 500.0);
  EXPECT_LT(mae_sharded, 3.0 * mae_reference + 1e-9)
      << "reference MAE " << mae_reference << ", sharded MAE " << mae_sharded;
}

}  // namespace
}  // namespace mlq
