#include "model/serialization.h"

#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/experiment_setup.h"

namespace mlq {
namespace {

std::unique_ptr<MemoryLimitedQuadtree> MakeTrainedTree(
    InsertionStrategy strategy, int dims, int64_t budget, int n,
    uint64_t seed) {
  MlqConfig config = MakePaperMlqConfig(strategy, CostKind::kCpu, budget);
  auto tree = std::make_unique<MemoryLimitedQuadtree>(
      Box::Cube(dims, 0.0, 1000.0), config);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) p[d] = rng.Uniform(0.0, 1000.0);
    tree->Insert(p, rng.Uniform(0.0, 10000.0));
  }
  return tree;
}

void ExpectTreesPredictIdentically(const MemoryLimitedQuadtree& a,
                                   const MemoryLimitedQuadtree& b,
                                   uint64_t seed) {
  ASSERT_EQ(a.space(), b.space());
  Rng rng(seed);
  for (int i = 0; i < 500; ++i) {
    Point q(a.space().dims());
    for (int d = 0; d < q.dims(); ++d) q[d] = rng.Uniform(0.0, 1000.0);
    const CostEstimate pa = a.Predict(q);
    const CostEstimate pb = b.Predict(q);
    ASSERT_DOUBLE_EQ(pa.value, pb.value) << q.ToString();
    ASSERT_EQ(pa.depth, pb.depth);
    ASSERT_EQ(pa.count, pb.count);
  }
}

TEST(SerializationTest, RoundTripPreservesEverything) {
  auto tree = MakeTrainedTree(InsertionStrategy::kEager, 4, 1800, 1000, 1);
  const auto bytes = SerializeQuadtree(*tree);
  std::string error;
  auto loaded = DeserializeQuadtree(bytes, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->num_nodes(), tree->num_nodes());
  EXPECT_EQ(loaded->memory_used(), tree->memory_used());
  EXPECT_EQ(loaded->config().max_depth, tree->config().max_depth);
  EXPECT_EQ(loaded->config().beta, tree->config().beta);
  EXPECT_EQ(loaded->compressed_once(), tree->compressed_once());
  ExpectTreesPredictIdentically(*tree, *loaded, 2);
}

TEST(SerializationTest, RoundTripEmptyTree) {
  MemoryLimitedQuadtree tree(
      Box::Cube(2, -5.0, 5.0),
      MakePaperMlqConfig(InsertionStrategy::kLazy, CostKind::kIo));
  std::string error;
  auto loaded = DeserializeQuadtree(SerializeQuadtree(tree), &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->num_nodes(), 1);
  EXPECT_EQ(loaded->config().strategy, InsertionStrategy::kLazy);
  EXPECT_EQ(loaded->config().beta, kPaperBetaIo);
}

TEST(SerializationTest, LoadedTreeKeepsLearning) {
  // The whole point of catalog persistence: resume self-tuning after a
  // restart. Insert into the loaded tree and check it stays consistent.
  auto tree = MakeTrainedTree(InsertionStrategy::kLazy, 3, 1800, 500, 3);
  std::string error;
  auto loaded = DeserializeQuadtree(SerializeQuadtree(*tree), &error);
  ASSERT_NE(loaded, nullptr) << error;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0),
            rng.Uniform(0.0, 1000.0)};
    loaded->Insert(p, rng.Uniform(0.0, 10000.0));
    ASSERT_LE(loaded->memory_used(), loaded->memory_limit());
  }
  EXPECT_TRUE(loaded->CheckInvariants(&error)) << error;
}

TEST(SerializationTest, BytesAreCompact) {
  // The serialized size should be in the same ballpark as the logical
  // memory charge (it stores the same information).
  auto tree = MakeTrainedTree(InsertionStrategy::kEager, 4, 1800, 2000, 5);
  const auto bytes = SerializeQuadtree(*tree);
  EXPECT_LT(static_cast<int64_t>(bytes.size()), 3 * tree->memory_used());
}

TEST(SerializationTest, RejectsBadMagic) {
  auto tree = MakeTrainedTree(InsertionStrategy::kEager, 2, 1800, 10, 6);
  auto bytes = SerializeQuadtree(*tree);
  bytes[0] ^= 0xff;
  std::string error;
  EXPECT_EQ(DeserializeQuadtree(bytes, &error), nullptr);
  EXPECT_EQ(error, "bad magic");
}

TEST(SerializationTest, RejectsDimsBeyondTreeLimit) {
  // Byte 6 is the dims field (after the 4-byte magic and 2-byte version).
  // 8 dims is a valid model space, but a quadtree node tags at most 2^7
  // quadrants.
  auto tree = MakeTrainedTree(InsertionStrategy::kEager, 2, 1800, 10, 6);
  auto bytes = SerializeQuadtree(*tree);
  ASSERT_EQ(bytes[6], 2);
  bytes[6] = 8;
  std::string error;
  EXPECT_EQ(DeserializeQuadtree(bytes, &error), nullptr);
  EXPECT_EQ(error, "dims out of range");
}

TEST(SerializationTest, RejectsTruncation) {
  auto tree = MakeTrainedTree(InsertionStrategy::kEager, 2, 1800, 100, 7);
  auto bytes = SerializeQuadtree(*tree);
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{5}}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    std::string error;
    EXPECT_EQ(DeserializeQuadtree(truncated, &error), nullptr)
        << "cut at " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(SerializationTest, RejectsTrailingGarbage) {
  auto tree = MakeTrainedTree(InsertionStrategy::kEager, 2, 1800, 10, 8);
  auto bytes = SerializeQuadtree(*tree);
  bytes.push_back(0x42);
  std::string error;
  EXPECT_EQ(DeserializeQuadtree(bytes, &error), nullptr);
  EXPECT_EQ(error, "trailing bytes");
}

TEST(SerializationTest, RejectsEmptyInput) {
  std::string error;
  EXPECT_EQ(DeserializeQuadtree({}, &error), nullptr);
}

// Byte-level builder mirroring the v1 wire format, so the v1 read-compat
// path is exercised against a blob the current writer can no longer emit.
class BlobBuilder {
 public:
  template <typename T>
  BlobBuilder& Put(T value) {
    const size_t offset = bytes_.size();
    bytes_.resize(offset + sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
    return *this;
  }
  std::vector<uint8_t>& bytes() { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

BlobBuilder V1Header(uint16_t version = 1) {
  BlobBuilder b;
  b.Put<uint32_t>(0x4d4c5154)  // "MLQT"
      .Put<uint16_t>(version)
      .Put<uint8_t>(1)   // dims
      .Put<uint8_t>(0)   // strategy = eager
      .Put<int32_t>(4)   // max_depth
      .Put<double>(0.1)  // alpha
      .Put<double>(0.01)  // gamma
      .Put<int64_t>(1)    // beta
      .Put<int64_t>(1800)  // memory_limit_bytes
      .Put<double>(0.0)    // lo
      .Put<double>(100.0)  // hi
      .Put<uint8_t>(0);    // compressed_once
  return b;
}

TEST(SerializationTest, ReadsVersionOneBlobs) {
  // v1 body: recursive pre-order, each node is
  // [sum f64][count i64][sum_squares f64][num_children u8]
  // followed by ([quadrant u8][child record])* in ascending quadrant order.
  BlobBuilder b = V1Header();
  // Root: {sum 30, count 3, ssq 350}, two children.
  b.Put<double>(30.0).Put<int64_t>(3).Put<double>(350.0).Put<uint8_t>(2);
  // Child quadrant 0 (leaf): one point, value 9.
  b.Put<uint8_t>(0);
  b.Put<double>(9.0).Put<int64_t>(1).Put<double>(81.0).Put<uint8_t>(0);
  // Child quadrant 1 (leaf): two points summing to 21.
  b.Put<uint8_t>(1);
  b.Put<double>(21.0).Put<int64_t>(2).Put<double>(269.0).Put<uint8_t>(0);

  std::string error;
  auto tree = DeserializeQuadtree(b.bytes(), &error);
  ASSERT_NE(tree, nullptr) << error;
  EXPECT_EQ(tree->num_nodes(), 3);
  EXPECT_EQ(tree->root().summary().count, 3);
  // Lower half [0, 50): value 9; upper half [50, 100]: average 10.5.
  EXPECT_DOUBLE_EQ(tree->Predict(Point{10.0}).value, 9.0);
  EXPECT_DOUBLE_EQ(tree->Predict(Point{90.0}).value, 10.5);
  EXPECT_TRUE(tree->CheckInvariants(&error)) << error;
  // Re-serializing writes the current (v2) format, which round-trips.
  auto reloaded = DeserializeQuadtree(SerializeQuadtree(*tree), &error);
  ASSERT_NE(reloaded, nullptr) << error;
  EXPECT_EQ(reloaded->num_nodes(), 3);
}

TEST(SerializationTest, RejectsUnknownFutureVersion) {
  BlobBuilder b = V1Header(/*version=*/99);
  b.Put<double>(0.0).Put<int64_t>(0).Put<double>(0.0).Put<uint8_t>(0);
  std::string error;
  EXPECT_EQ(DeserializeQuadtree(b.bytes(), &error), nullptr);
  EXPECT_EQ(error, "unsupported version");
}

TEST(SerializationTest, CurrentFormatIsVersionTwo) {
  // Pin the on-disk version so a format change is a conscious decision.
  auto tree = MakeTrainedTree(InsertionStrategy::kEager, 2, 1800, 10, 11);
  const auto bytes = SerializeQuadtree(*tree);
  ASSERT_GE(bytes.size(), 6u);
  uint16_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, 2);
}

TEST(SerializationTest, FileRoundTrip) {
  auto tree = MakeTrainedTree(InsertionStrategy::kEager, 3, 1800, 300, 9);
  const std::string path = ::testing::TempDir() + "/mlq_model.bin";
  ASSERT_TRUE(SaveQuadtreeToFile(*tree, path));
  std::string error;
  auto loaded = LoadQuadtreeFromFile(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  ExpectTreesPredictIdentically(*tree, *loaded, 10);
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadMissingFileFails) {
  std::string error;
  EXPECT_EQ(LoadQuadtreeFromFile("/nonexistent/path/model.bin", &error),
            nullptr);
  EXPECT_EQ(error, "cannot open file");
}

TEST(SerializationTest, FuzzedCorruptionNeverCrashes) {
  // Randomized robustness check: arbitrary single-byte corruptions and
  // truncations must either round-trip to a valid tree (benign mutations,
  // e.g. in a summary value) or fail cleanly with an error — never crash
  // or produce a tree violating its invariants.
  auto tree = MakeTrainedTree(InsertionStrategy::kEager, 3, 1800, 400, 21);
  const auto pristine = SerializeQuadtree(*tree);
  Rng rng(12345);
  int clean_failures = 0;
  int survivors = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<uint8_t> mutated = pristine;
    // 1-3 random byte mutations, sometimes a truncation.
    const int edits = static_cast<int>(rng.UniformInt(1, 3));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    if (rng.NextBool(0.3)) {
      mutated.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()))));
    }
    std::string error;
    auto loaded = DeserializeQuadtree(mutated, &error);
    if (loaded == nullptr) {
      ++clean_failures;
      EXPECT_FALSE(error.empty());
    } else {
      ++survivors;
      std::string invariant_error;
      EXPECT_TRUE(loaded->CheckInvariants(&invariant_error)) << invariant_error;
    }
  }
  // Most corruptions must be caught; some (value-only) legitimately load.
  EXPECT_GT(clean_failures, 200);
  EXPECT_EQ(clean_failures + survivors, 1000);
}

// --- Histogram persistence ---------------------------------------------

template <typename H>
std::unique_ptr<H> MakeTrainedHistogram(const Box& space, int64_t budget,
                                        int n, uint64_t seed) {
  auto histogram = std::make_unique<H>(space, budget);
  Rng rng(seed);
  std::vector<Point> points;
  std::vector<double> costs;
  for (int i = 0; i < n; ++i) {
    Point p(space.dims());
    for (int d = 0; d < space.dims(); ++d) {
      p[d] = rng.Uniform(space.lo()[d], space.hi()[d]);
    }
    points.push_back(p);
    costs.push_back(rng.Uniform(0.0, 5000.0));
  }
  histogram->Train(points, costs);
  return histogram;
}

TEST(HistogramSerializationTest, EquiWidthRoundTrip) {
  const Box space = Box::Cube(3, 0.0, 100.0);
  auto original =
      MakeTrainedHistogram<EquiWidthHistogram>(space, 1800, 500, 31);
  std::string error;
  auto loaded = DeserializeHistogram(SerializeHistogram(*original), &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->name(), "SH-W");
  EXPECT_EQ(loaded->intervals_per_dim(), original->intervals_per_dim());
  EXPECT_EQ(loaded->MemoryBytes(), original->MemoryBytes());
  Rng rng(32);
  for (int i = 0; i < 300; ++i) {
    Point q{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0),
            rng.Uniform(0.0, 100.0)};
    ASSERT_DOUBLE_EQ(loaded->Predict(q), original->Predict(q));
  }
}

TEST(HistogramSerializationTest, EquiHeightRoundTrip) {
  const Box space = Box::Cube(2, -10.0, 10.0);
  auto original =
      MakeTrainedHistogram<EquiHeightHistogram>(space, 1800, 800, 33);
  std::string error;
  auto loaded = DeserializeHistogram(SerializeHistogram(*original), &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->name(), "SH-H");
  Rng rng(34);
  for (int i = 0; i < 300; ++i) {
    Point q{rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0)};
    ASSERT_DOUBLE_EQ(loaded->Predict(q), original->Predict(q));
  }
}

TEST(HistogramSerializationTest, UntrainedRoundTrip) {
  EquiWidthHistogram original(Box::Cube(2, 0.0, 1.0), 800);
  std::string error;
  auto loaded = DeserializeHistogram(SerializeHistogram(original), &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_FALSE(loaded->trained());
  EXPECT_DOUBLE_EQ(loaded->Predict(Point{0.5, 0.5}), 0.0);
}

TEST(HistogramSerializationTest, RejectsCorruption) {
  const Box space = Box::Cube(2, 0.0, 100.0);
  auto original =
      MakeTrainedHistogram<EquiHeightHistogram>(space, 1800, 100, 35);
  auto bytes = SerializeHistogram(*original);
  // Bad magic.
  {
    auto corrupted = bytes;
    corrupted[0] ^= 0xff;
    std::string error;
    EXPECT_EQ(DeserializeHistogram(corrupted, &error), nullptr);
  }
  // Truncations at assorted cut points.
  for (size_t cut : {size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    std::string error;
    EXPECT_EQ(DeserializeHistogram(truncated, &error), nullptr)
        << "cut " << cut;
  }
  // A quadtree blob is not a histogram blob.
  {
    auto tree = MakeTrainedTree(InsertionStrategy::kEager, 2, 1800, 10, 36);
    std::string error;
    EXPECT_EQ(DeserializeHistogram(SerializeQuadtree(*tree), &error), nullptr);
    EXPECT_EQ(DeserializeQuadtree(SerializeHistogram(*original), &error),
              nullptr);
  }
}

// Round-trip must hold across dimensions and strategies.
class SerializationSweepTest
    : public ::testing::TestWithParam<std::tuple<int, InsertionStrategy>> {};

TEST_P(SerializationSweepTest, RoundTrip) {
  const auto [dims, strategy] = GetParam();
  auto tree = MakeTrainedTree(strategy, dims, 4096, 800,
                              100 + static_cast<uint64_t>(dims));
  std::string error;
  auto loaded = DeserializeQuadtree(SerializeQuadtree(*tree), &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_TRUE(loaded->CheckInvariants(&error)) << error;
  ExpectTreesPredictIdentically(*tree, *loaded, 11);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerializationSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(InsertionStrategy::kEager,
                                         InsertionStrategy::kLazy)));

}  // namespace
}  // namespace mlq
