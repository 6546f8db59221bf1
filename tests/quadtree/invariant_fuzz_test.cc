// Property/fuzz test for the MLQ core: random insert/predict/compression
// sequences across random configurations (dimension, strategy, beta,
// lambda, budget, eviction policy, decay, auto-expansion), with
// CheckInvariants called after every compression and at the end of every
// sequence. Fixed master seed: failures reproduce exactly.

#include "quadtree/memory_limited_quadtree.h"

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mlq {
namespace {

MlqConfig RandomConfig(Rng& rng) {
  MlqConfig config;
  config.strategy = rng.NextBool(0.5) ? InsertionStrategy::kEager
                                      : InsertionStrategy::kLazy;
  config.max_depth = static_cast<int>(rng.UniformInt(2, 7));
  config.alpha = rng.Uniform(0.01, 0.2);
  config.gamma = rng.Uniform(0.001, 0.05);
  config.beta = rng.UniformInt(1, 10);
  config.memory_limit_bytes = rng.UniformInt(150, 4000);
  config.auto_expand = rng.NextBool(0.25);
  const int64_t policy = rng.UniformInt(0, 2);
  config.eviction_policy = policy == 0   ? EvictionPolicy::kSseg
                           : policy == 1 ? EvictionPolicy::kCountOnly
                                         : EvictionPolicy::kRandom;
  config.recency_half_life = rng.NextBool(0.3) ? rng.Uniform(50.0, 2000.0)
                                               : 0.0;
  return config;
}

std::string DescribeConfig(const MlqConfig& c, int dims) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "dims=%d strategy=%s lambda=%d alpha=%.3f gamma=%.4f "
                "beta=%lld budget=%lld expand=%d policy=%d half_life=%.0f",
                dims,
                c.strategy == InsertionStrategy::kEager ? "eager" : "lazy",
                c.max_depth, c.alpha, c.gamma,
                static_cast<long long>(c.beta),
                static_cast<long long>(c.memory_limit_bytes),
                c.auto_expand ? 1 : 0, static_cast<int>(c.eviction_policy),
                c.recency_half_life);
  return buf;
}

TEST(InvariantFuzzTest, RandomOpSequencesKeepTreeConsistent) {
  Rng master(0xF0220);
  constexpr int kConfigs = 40;
  constexpr int kOpsPerConfig = 600;
  int64_t total_compressions = 0;

  for (int round = 0; round < kConfigs; ++round) {
    Rng rng(master.Next64());
    const int dims = static_cast<int>(rng.UniformInt(1, 4));
    const MlqConfig config = RandomConfig(rng);
    const std::string description = DescribeConfig(config, dims);
    SCOPED_TRACE("round " + std::to_string(round) + ": " + description);

    const Box space = Box::Cube(dims, 0.0, 1000.0);
    MemoryLimitedQuadtree tree(space, config);
    std::string error;
    int64_t compressions_seen = 0;

    for (int op = 0; op < kOpsPerConfig; ++op) {
      const double dice = rng.NextDouble();
      // Points slightly beyond the space exercise clamping (or, with
      // auto_expand, root expansion).
      const double lo = config.auto_expand ? -200.0 : -50.0;
      const double hi = config.auto_expand ? 1200.0 : 1050.0;
      Point p(dims);
      for (int d = 0; d < dims; ++d) p[d] = rng.Uniform(lo, hi);

      if (dice < 0.80) {
        tree.Insert(p, rng.Uniform(0.0, 10000.0));
      } else if (dice < 0.95) {
        const CostEstimate prediction = tree.Predict(p);
        ASSERT_GE(prediction.value, 0.0);
        ASSERT_GE(prediction.count, 0);
      } else {
        tree.Compress();
      }

      // The compressor is the most delicate mutation path: validate the
      // whole structure every time it ran (inserts trigger it internally
      // too, so watch the counter rather than the op kind).
      const int64_t compressions = tree.counters().compressions;
      if (compressions != compressions_seen) {
        compressions_seen = compressions;
        ASSERT_TRUE(tree.CheckInvariants(&error))
            << "after compression #" << compressions << " (op " << op
            << "): " << error;
      }
      ASSERT_LE(tree.memory_used(), tree.memory_limit());
    }

    ASSERT_TRUE(tree.CheckInvariants(&error)) << "final: " << error;
    total_compressions += compressions_seen;
  }

  // The budgets above are tight enough that compression must actually have
  // been exercised, or the test is vacuous.
  EXPECT_GT(total_compressions, 100);
}

}  // namespace
}  // namespace mlq
