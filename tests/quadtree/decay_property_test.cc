// Property/fuzz test for windowed (exponential-decay) summaries: random
// insert / predict / epoch-advance / compress interleavings across random
// configurations must keep every summary triple non-negative and finite,
// keep predictions inside the observed value range (decay is
// average-preserving), and leave CheckInvariants clean — including when
// several decayed trees share one arena and incremental CompactStep runs
// between (and inside) decay epochs. Fixed master seed: failures
// reproduce exactly.

#include "quadtree/memory_limited_quadtree.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "quadtree/shared_node_arena.h"

namespace mlq {
namespace {

constexpr double kMaxValue = 10000.0;

MlqConfig RandomDecayConfig(Rng& rng) {
  MlqConfig config;
  config.strategy = rng.NextBool(0.5) ? InsertionStrategy::kEager
                                      : InsertionStrategy::kLazy;
  config.max_depth = static_cast<int>(rng.UniformInt(2, 7));
  config.alpha = rng.Uniform(0.01, 0.2);
  config.gamma = rng.Uniform(0.001, 0.05);
  config.beta = rng.UniformInt(1, 10);
  config.memory_limit_bytes = rng.UniformInt(150, 4000);
  // Short half-lives age summaries aggressively (counts collapse to zero),
  // long ones decay by sub-unit amounts that round away — both ends have
  // bitten during development, so the fuzz covers the whole range.
  config.decay_half_life = rng.Uniform(0.5, 64.0);
  config.recency_half_life =
      rng.NextBool(0.3) ? rng.Uniform(50.0, 2000.0) : 0.0;
  return config;
}

// Every node summary must stay a plausible aggregate: non-negative count
// and variance accumulator, finite everything, and — because all inserted
// values are in [0, kMaxValue] and decay preserves averages — node
// averages inside that range.
void CheckSummaries(const MemoryLimitedQuadtree& tree) {
  tree.ForEachNode([&](const NodeView& node, const Box&) {
    const SummaryTriple& s = node.summary();
    ASSERT_GE(s.count, 0);
    ASSERT_TRUE(std::isfinite(s.sum));
    ASSERT_TRUE(std::isfinite(s.sum_squares));
    ASSERT_GE(s.sum_squares, 0.0);
    if (s.count > 0) {
      ASSERT_GE(s.Avg(), 0.0);
      ASSERT_LE(s.Avg(), kMaxValue * (1.0 + 1e-9));
    } else {
      ASSERT_EQ(s.sum, 0.0);
    }
  });
}

TEST(DecayPropertyTest, RandomDecayInterleavingsKeepTreeConsistent) {
  Rng master(0xDECA1);
  constexpr int kConfigs = 40;
  constexpr int kOpsPerConfig = 600;
  int64_t total_compressions = 0;
  int64_t total_epochs = 0;

  for (int round = 0; round < kConfigs; ++round) {
    Rng rng(master.Next64());
    const int dims = static_cast<int>(rng.UniformInt(1, 3));
    const MlqConfig config = RandomDecayConfig(rng);
    SCOPED_TRACE("round " + std::to_string(round) +
                 " half_life=" + std::to_string(config.decay_half_life));

    const Box space = Box::Cube(dims, 0.0, 1000.0);
    MemoryLimitedQuadtree tree(space, config);
    std::string error;
    int64_t compressions_seen = 0;

    for (int op = 0; op < kOpsPerConfig; ++op) {
      const double dice = rng.NextDouble();
      Point p(dims);
      for (int d = 0; d < dims; ++d) p[d] = rng.Uniform(0.0, 1000.0);

      if (dice < 0.70) {
        tree.Insert(p, rng.Uniform(0.0, kMaxValue));
      } else if (dice < 0.85) {
        const CostEstimate prediction = tree.Predict(p);
        ASSERT_TRUE(std::isfinite(prediction.value));
        ASSERT_GE(prediction.value, 0.0);
        ASSERT_LE(prediction.value, kMaxValue * (1.0 + 1e-9));
      } else if (dice < 0.95) {
        // Bursty clock: single ticks and multi-epoch jumps (several
        // half-lives at once, as after an abrupt-drift burst).
        tree.AdvanceDecayEpoch(rng.UniformInt(1, 12));
        ++total_epochs;
      } else {
        tree.Compress();
      }

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
    CheckSummaries(tree);
    total_compressions += compressions_seen;
  }

  // Vacuity guards: the sequences must actually have compressed and aged.
  EXPECT_GT(total_compressions, 50);
  EXPECT_GT(total_epochs, 100);
}

// Several decayed trees on one shared arena, with incremental CompactStep
// interleaved between inserts and epoch advances: relocation must move the
// per-node decay epochs with the blocks (a block whose epoch were lost
// would decay twice or never).
TEST(DecayPropertyTest, SharedArenaCompactStepInterleavesWithDecay) {
  Rng rng(0xDECA2);
  auto arena = std::make_shared<SharedNodeArena>(/*fanout=*/4);

  MlqConfig config;
  config.strategy = InsertionStrategy::kLazy;
  config.max_depth = 6;
  config.beta = 1;
  config.memory_limit_bytes = 1800;
  config.decay_half_life = 4.0;

  const Box space = Box::Cube(2, 0.0, 1000.0);
  std::vector<std::unique_ptr<MemoryLimitedQuadtree>> trees;
  for (int i = 0; i < 3; ++i) {
    trees.push_back(std::make_unique<MemoryLimitedQuadtree>(space, config,
                                                            arena));
  }

  std::string error;
  for (int op = 0; op < 6000; ++op) {
    auto& tree = *trees[static_cast<size_t>(rng.UniformInt(0, 2))];
    const double dice = rng.NextDouble();
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    if (dice < 0.80) {
      tree.Insert(p, rng.Uniform(0.0, kMaxValue));
    } else if (dice < 0.90) {
      tree.AdvanceDecayEpoch(rng.UniformInt(1, 6));
    } else {
      // Tiny budgets maximize the number of partial relocation passes a
      // node block can live through.
      arena->CompactStep(rng.UniformInt(1, 64));
    }
    if (op % 500 == 499) {
      for (auto& t : trees) {
        ASSERT_TRUE(t->CheckInvariants(&error)) << "op " << op << ": "
                                                << error;
      }
    }
  }
  // Converge the compaction, then re-validate everything end to end.
  while (!arena->CompactStep(4096).done) {
  }
  for (auto& t : trees) {
    ASSERT_TRUE(t->CheckInvariants(&error)) << error;
    CheckSummaries(*t);
    for (int i = 0; i < 50; ++i) {
      Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
      const CostEstimate prediction = t->Predict(p);
      ASSERT_TRUE(std::isfinite(prediction.value));
      ASSERT_GE(prediction.value, 0.0);
    }
  }
}

}  // namespace
}  // namespace mlq
