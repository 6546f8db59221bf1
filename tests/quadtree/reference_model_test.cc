// Differential test: the quadtree against an independent brute-force
// oracle.
//
// With eager insertion and a budget large enough that compression never
// runs, the tree's state has a purely *geometric* characterization: a block
// at depth k exists iff at least one inserted point maps into it, and its
// summary aggregates exactly the inserted points in its region (every
// insert materializes its full path, so a block exists from the first
// arrival in its region onward and absorbs everything after — i.e. all of
// them). Prediction with parameter beta then has a closed form the oracle
// computes directly from the stored points, with none of the tree's code.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "quadtree/memory_limited_quadtree.h"

namespace mlq {
namespace {

struct Observation {
  Point point;
  double value;
};

// Brute-force re-implementation of Fig. 3's prediction semantics from first
// principles (region arithmetic over the raw observations).
class ReferenceOracle {
 public:
  ReferenceOracle(const Box& space, int max_depth)
      : space_(space), max_depth_(max_depth) {}

  void Insert(const Point& p, double v) { data_.push_back({p, v}); }

  // Deepest block containing `q` with >= beta points; returns its average.
  // Falls back to the root average (reliable = count >= beta) like the tree.
  CostEstimate Predict(const Point& q, int64_t beta) const {
    CostEstimate best;
    best.reliable = false;
    for (int depth = 0; depth <= max_depth_; ++depth) {
      const Box region = RegionAt(q, depth);
      double sum = 0.0;
      int64_t count = 0;
      for (const Observation& o : data_) {
        if (InRegion(region, o.point, depth)) {
          sum += o.value;
          ++count;
        }
      }
      if (depth == 0) {
        best.value = count > 0 ? sum / static_cast<double>(count) : 0.0;
        best.count = count;
        best.depth = 0;
        best.reliable = count >= beta;
        if (!best.reliable) return best;
        continue;
      }
      if (count >= beta && count > 0) {
        best.value = sum / static_cast<double>(count);
        best.count = count;
        best.depth = depth;
      } else {
        break;  // Counts shrink with depth; nothing deeper qualifies.
      }
    }
    return best;
  }

 private:
  // The depth-k quadtree block containing q, derived by repeated halving.
  Box RegionAt(const Point& q, int depth) const {
    Box box = space_;
    for (int k = 0; k < depth; ++k) box = box.Child(box.ChildIndexOf(q));
    return box;
  }

  // Membership must use the same tie-breaking as the tree: a point belongs
  // to the child chosen by ChildIndexOf at every level, not to a closed
  // box. Recompute its path and compare prefixes.
  bool InRegion(const Box& region, const Point& p, int depth) const {
    Box box = space_;
    for (int k = 0; k < depth; ++k) {
      box = box.Child(box.ChildIndexOf(p));
    }
    return box == region;
  }

  Box space_;
  int max_depth_;
  std::vector<Observation> data_;
};

class ReferenceModelTest : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(ReferenceModelTest, TreeMatchesOracleOnRandomWorkloads) {
  const auto [dims, beta] = GetParam();
  const Box space = Box::Cube(dims, 0.0, 1024.0);
  MlqConfig config;
  config.strategy = InsertionStrategy::kEager;
  config.max_depth = 4;
  config.memory_limit_bytes = 64 << 20;  // Compression never triggers.

  MemoryLimitedQuadtree tree(space, config);
  ReferenceOracle oracle(space, config.max_depth);

  Rng rng(31337 + static_cast<uint64_t>(dims) * 100 +
          static_cast<uint64_t>(beta));
  for (int i = 0; i < 400; ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) p[d] = rng.Uniform(0.0, 1024.0);
    const double v = rng.Uniform(0.0, 10000.0);
    tree.Insert(p, v);
    oracle.Insert(p, v);

    // Interleave predictions with inserts so every tree size is checked.
    if (i % 20 == 19) {
      for (int probe = 0; probe < 10; ++probe) {
        Point q(dims);
        for (int d = 0; d < dims; ++d) q[d] = rng.Uniform(0.0, 1024.0);
        const CostEstimate actual = tree.PredictWithBeta(q, beta);
        const CostEstimate expected = oracle.Predict(q, beta);
        ASSERT_EQ(actual.reliable, expected.reliable)
            << "after " << i + 1 << " inserts at " << q.ToString();
        ASSERT_EQ(actual.depth, expected.depth)
            << "after " << i + 1 << " inserts at " << q.ToString();
        ASSERT_EQ(actual.count, expected.count) << q.ToString();
        ASSERT_NEAR(actual.value, expected.value,
                    1e-9 * std::max(1.0, std::abs(expected.value)))
            << q.ToString();
      }
    }
  }
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
}

TEST_P(ReferenceModelTest, ClusteredWorkloadsMatchToo) {
  const auto [dims, beta] = GetParam();
  const Box space = Box::Cube(dims, -8.0, 8.0);
  MlqConfig config;
  config.strategy = InsertionStrategy::kEager;
  config.max_depth = 3;
  config.memory_limit_bytes = 64 << 20;

  MemoryLimitedQuadtree tree(space, config);
  ReferenceOracle oracle(space, config.max_depth);
  Rng rng(999 + static_cast<uint64_t>(dims));
  for (int i = 0; i < 300; ++i) {
    // Tight cluster: many duplicate blocks, stressing count aggregation.
    Point p(dims);
    for (int d = 0; d < dims; ++d) {
      p[d] = std::clamp(rng.Gaussian(1.0, 0.5), -8.0, 8.0);
    }
    const double v = rng.Uniform(0.0, 10.0);
    tree.Insert(p, v);
    oracle.Insert(p, v);
  }
  for (int probe = 0; probe < 60; ++probe) {
    Point q(dims);
    for (int d = 0; d < dims; ++d) {
      q[d] = std::clamp(rng.Gaussian(1.0, 1.0), -8.0, 8.0);
    }
    const CostEstimate actual = tree.PredictWithBeta(q, beta);
    const CostEstimate expected = oracle.Predict(q, beta);
    ASSERT_EQ(actual.depth, expected.depth) << q.ToString();
    ASSERT_EQ(actual.count, expected.count) << q.ToString();
    ASSERT_NEAR(actual.value, expected.value, 1e-9) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndBeta, ReferenceModelTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values<int64_t>(1, 3, 10)));

}  // namespace
}  // namespace mlq
