#include "model/serialization.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>

namespace mlq {
namespace {

constexpr uint32_t kMagic = 0x4d4c5154;  // "MLQT"
// Version history:
//   1 — recursive pre-order records, one per node:
//       [sum f64][count i64][sum_squares f64][num_children u8]
//       ([quadrant u8][child record])*
//   2 — flat pooled layout: [num_nodes u32] then one record per node in
//       pre-order: [parent_record u32][quadrant u8][sum f64][count i64]
//       [sum_squares f64], parent_record = 0xFFFFFFFF for the root.
//       Mirrors the in-memory arena (32-bit links, no recursion) and lets
//       the reader Reserve() the exact node count before rebuilding.
//   3 — v2 plus the windowed-summary decay section: the header gains
//       [decay_half_life f64][decay_epoch u32] after [compressed_once u8],
//       and every node record gains a trailing [decay_epoch u32]. Emitted
//       ONLY for trees with decay enabled; a decay-off tree serializes as
//       byte-identical v2, and v1/v2 snapshots load as no-decay (epoch 0).
// Readers accept all three; writers emit kVersion (kDecayVersion when the
// tree ages its summaries).
constexpr uint16_t kVersion = 2;
constexpr uint16_t kDecayVersion = 3;
constexpr uint32_t kNoParentRecord = 0xFFFFFFFFu;

// --- little write/read cursor helpers --------------------------------------

class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t offset = out_->size();
    out_->resize(offset + sizeof(T));
    std::memcpy(out_->data() + offset, &value, sizeof(T));
  }

 private:
  std::vector<uint8_t>* out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& in) : in_(in) {}

  template <typename T>
  bool Get(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset_ + sizeof(T) > in_.size()) return false;
    std::memcpy(value, in_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return true;
  }

  bool AtEnd() const { return offset_ == in_.size(); }
  size_t Remaining() const { return in_.size() - offset_; }

 private:
  const std::vector<uint8_t>& in_;
  size_t offset_ = 0;
};

// v2 node body: parent/quadrant are emitted by the caller.
void WriteSummary(const SummaryTriple& summary, Writer& writer) {
  writer.Put<double>(summary.sum);
  writer.Put<int64_t>(summary.count);
  writer.Put<double>(summary.sum_squares);
}

}  // namespace

std::vector<uint8_t> SerializeQuadtree(const MemoryLimitedQuadtree& tree) {
  std::vector<uint8_t> bytes;
  Writer writer(&bytes);
  const MlqConfig& config = tree.config();
  const Box& space = tree.space();

  const bool decayed = tree.decay_enabled();
  writer.Put<uint32_t>(kMagic);
  writer.Put<uint16_t>(decayed ? kDecayVersion : kVersion);
  writer.Put<uint8_t>(static_cast<uint8_t>(space.dims()));
  writer.Put<uint8_t>(static_cast<uint8_t>(config.strategy));
  writer.Put<int32_t>(config.max_depth);
  writer.Put<double>(config.alpha);
  writer.Put<double>(config.gamma);
  writer.Put<int64_t>(config.beta);
  writer.Put<int64_t>(config.memory_limit_bytes);
  for (int d = 0; d < space.dims(); ++d) writer.Put<double>(space.lo()[d]);
  for (int d = 0; d < space.dims(); ++d) writer.Put<double>(space.hi()[d]);
  writer.Put<uint8_t>(tree.compressed_once() ? 1 : 0);
  if (decayed) {
    writer.Put<double>(config.decay_half_life);
    writer.Put<uint32_t>(tree.decay_epoch());
  }

  // Flat pooled body: pre-order records with 32-bit parent-record links.
  // Pool slot indices are renumbered to visit order so the byte stream is
  // independent of the free-list history of the tree being saved.
  writer.Put<uint32_t>(static_cast<uint32_t>(tree.num_nodes()));
  std::vector<uint32_t> record_of(tree.pool().slot_count(), kNoParentRecord);
  uint32_t next_record = 0;
  tree.ForEachNode([&](const NodeView& node, const Box&) {
    record_of[node.index()] = next_record++;
    if (node.has_parent()) {
      writer.Put<uint32_t>(record_of[node.parent().index()]);
      writer.Put<uint8_t>(static_cast<uint8_t>(node.index_in_parent()));
    } else {
      writer.Put<uint32_t>(kNoParentRecord);
      writer.Put<uint8_t>(0);
    }
    WriteSummary(node.summary(), writer);
    if (decayed) {
      writer.Put<uint32_t>(tree.pool().node(node.index()).decay_epoch);
    }
  });
  return bytes;
}

std::unique_ptr<MemoryLimitedQuadtree> DeserializeQuadtree(
    const std::vector<uint8_t>& bytes, std::string* error) {
  return DeserializeQuadtree(bytes, nullptr, error);
}

std::unique_ptr<MemoryLimitedQuadtree> DeserializeQuadtree(
    const std::vector<uint8_t>& bytes, std::shared_ptr<SharedNodeArena> arena,
    std::string* error) {
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  Reader reader(bytes);

  uint32_t magic = 0;
  uint16_t version = 0;
  uint8_t dims = 0;
  uint8_t strategy = 0;
  MlqConfig config;
  if (!reader.Get(&magic) || !reader.Get(&version) || !reader.Get(&dims) ||
      !reader.Get(&strategy) || !reader.Get(&config.max_depth) ||
      !reader.Get(&config.alpha) || !reader.Get(&config.gamma) ||
      !reader.Get(&config.beta) || !reader.Get(&config.memory_limit_bytes)) {
    *err = "truncated header";
    return nullptr;
  }
  if (magic != kMagic) {
    *err = "bad magic";
    return nullptr;
  }
  if (version != 1 && version != 2 && version != kDecayVersion) {
    *err = "unsupported version";
    return nullptr;
  }
  const bool decayed = version == kDecayVersion;
  if (dims < 1 || dims > kMaxTreeDims) {
    *err = "dims out of range";
    return nullptr;
  }
  if (strategy > static_cast<uint8_t>(InsertionStrategy::kLazy)) {
    *err = "unknown insertion strategy";
    return nullptr;
  }
  config.strategy = static_cast<InsertionStrategy>(strategy);
  if (config.max_depth < 0 || config.memory_limit_bytes < kNodeBaseBytes) {
    *err = "invalid config";
    return nullptr;
  }

  Point lo(dims);
  Point hi(dims);
  for (int d = 0; d < dims; ++d) {
    if (!reader.Get(&lo[d])) {
      *err = "truncated space";
      return nullptr;
    }
  }
  for (int d = 0; d < dims; ++d) {
    if (!reader.Get(&hi[d])) {
      *err = "truncated space";
      return nullptr;
    }
    if (!(lo[d] < hi[d])) {
      *err = "degenerate space";
      return nullptr;
    }
  }
  uint8_t compressed_once = 0;
  if (!reader.Get(&compressed_once)) {
    *err = "truncated flags";
    return nullptr;
  }
  uint32_t tree_decay_epoch = 0;
  if (decayed) {
    if (!reader.Get(&config.decay_half_life) ||
        !reader.Get(&tree_decay_epoch)) {
      *err = "truncated decay section";
      return nullptr;
    }
    if (!(config.decay_half_life > 0.0) ||
        !std::isfinite(config.decay_half_life)) {
      *err = "invalid decay half-life";
      return nullptr;
    }
  }

  if (arena != nullptr && arena->fanout() != (1 << dims)) {
    *err = "arena fanout does not match serialized dims";
    return nullptr;
  }
  auto tree = std::make_unique<MemoryLimitedQuadtree>(Box(lo, hi), config,
                                                      std::move(arena));
  NodePool& pool = tree->pool_;
  tree->decay_epoch_ = tree_decay_epoch;

  if (version >= 2) {
    // Flat pooled layout. Records are renumbered to pre-order on write, and
    // block allocation places nodes wherever their parent's child block
    // lives, so the reader keeps a record -> pool-slot mapping.
    uint32_t num_nodes = 0;
    if (!reader.Get(&num_nodes)) {
      *err = "truncated node count";
      return nullptr;
    }
    if (num_nodes < 1) {
      *err = "node count must include the root";
      return nullptr;
    }
    // Each record is at least 29 bytes (33 with the decay epoch); a
    // corrupted count larger than the payload could possibly justify must
    // not drive a giant Reserve.
    const size_t record_bytes = sizeof(uint32_t) + sizeof(uint8_t) +
                                2 * sizeof(double) + sizeof(int64_t) +
                                (decayed ? sizeof(uint32_t) : 0);
    if (num_nodes > reader.Remaining() / record_bytes) {
      *err = "node count exceeds payload";
      return nullptr;
    }
    pool.Reserve(num_nodes);
    std::vector<NodeIndex> slot_of_record;
    slot_of_record.reserve(num_nodes);
    for (uint32_t i = 0; i < num_nodes; ++i) {
      uint32_t parent_record = 0;
      uint8_t quadrant = 0;
      SummaryTriple summary;
      if (!reader.Get(&parent_record) || !reader.Get(&quadrant) ||
          !reader.Get(&summary.sum) || !reader.Get(&summary.count) ||
          !reader.Get(&summary.sum_squares)) {
        *err = "truncated node record";
        return nullptr;
      }
      uint32_t node_epoch = 0;
      if (decayed) {
        if (!reader.Get(&node_epoch)) {
          *err = "truncated node decay epoch";
          return nullptr;
        }
        if (node_epoch > tree_decay_epoch) {
          *err = "node decay epoch ahead of the tree clock";
          return nullptr;
        }
      }
      if (i == 0) {
        if (parent_record != kNoParentRecord) {
          *err = "first record is not a root";
          return nullptr;
        }
        pool.node(tree->root_).summary = summary;
        pool.node(tree->root_).decay_epoch = node_epoch;
        slot_of_record.push_back(tree->root_);
        continue;
      }
      if (parent_record >= i) {
        *err = "parent record out of order";
        return nullptr;
      }
      const NodeIndex parent = slot_of_record[parent_record];
      if (quadrant >= (1 << dims)) {
        *err = "child quadrant out of range";
        return nullptr;
      }
      if (pool.node(parent).depth >= config.max_depth) {
        *err = "internal node at max depth";
        return nullptr;
      }
      if (pool.Child(parent, quadrant) != kInvalidNodeIndex) {
        *err = "duplicate child quadrant";
        return nullptr;
      }
      const NodeIndex child = pool.CreateChild(parent, quadrant);
      pool.node(child).summary = summary;
      pool.node(child).decay_epoch = node_epoch;
      slot_of_record.push_back(child);
    }
  } else {
    // v1: recursive pre-order with per-node child counts. Kept so catalogs
    // saved before the pooled layout still load.
    struct Frame {
      NodeIndex node;
      int children_left;
      int previous_quadrant;
    };
    std::vector<Frame> stack;
    auto read_into = [&](NodeIndex node, std::string* e) -> bool {
      SummaryTriple summary;
      uint8_t num_children = 0;
      if (!reader.Get(&summary.sum) || !reader.Get(&summary.count) ||
          !reader.Get(&summary.sum_squares) || !reader.Get(&num_children)) {
        *e = "truncated node";
        return false;
      }
      pool.node(node).summary = summary;
      if (num_children > (1 << dims)) {
        *e = "child count exceeds 2^d";
        return false;
      }
      if (num_children > 0 && pool.node(node).depth >= config.max_depth) {
        *e = "internal node at max depth";
        return false;
      }
      stack.push_back(Frame{node, num_children, -1});
      return true;
    };
    if (!read_into(tree->root_, err)) return nullptr;
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.children_left == 0) {
        stack.pop_back();
        continue;
      }
      --top.children_left;
      uint8_t quadrant = 0;
      if (!reader.Get(&quadrant)) {
        *err = "truncated child index";
        return nullptr;
      }
      if (quadrant >= (1 << dims) ||
          static_cast<int>(quadrant) <= top.previous_quadrant) {
        *err = "child index out of range or out of order";
        return nullptr;
      }
      top.previous_quadrant = quadrant;
      const NodeIndex child = pool.CreateChild(top.node, quadrant);
      // CreateChild may grow the pool; `top` could dangle — re-read nothing
      // from it until the next loop iteration re-fetches stack.back().
      if (!read_into(child, err)) return nullptr;
    }
  }

  if (!reader.AtEnd()) {
    *err = "trailing bytes";
    return nullptr;
  }
  tree->SyncBudget();
  if (tree->budget_.used() > tree->budget_.limit()) {
    *err = "tree larger than its own memory budget";
    return nullptr;
  }
  tree->compressed_once_ = compressed_once != 0;

  std::string invariant_error;
  if (!tree->CheckInvariants(&invariant_error)) {
    *err = "invariants violated after load: " + invariant_error;
    return nullptr;
  }
  return tree;
}

namespace {

constexpr uint32_t kHistogramMagic = 0x4d4c5148;  // "MLQH"
constexpr uint16_t kHistogramVersion = 1;

}  // namespace

std::vector<uint8_t> SerializeHistogram(const StaticHistogram& histogram) {
  std::vector<uint8_t> bytes;
  Writer writer(&bytes);
  const Box& space = histogram.space();
  const bool is_height = histogram.name() == "SH-H";

  writer.Put<uint32_t>(kHistogramMagic);
  writer.Put<uint16_t>(kHistogramVersion);
  writer.Put<uint8_t>(is_height ? 1 : 0);
  writer.Put<uint8_t>(static_cast<uint8_t>(space.dims()));
  writer.Put<int64_t>(histogram.memory_limit_bytes_);
  writer.Put<int32_t>(histogram.intervals_per_dim_);
  writer.Put<uint8_t>(histogram.trained_ ? 1 : 0);
  for (int d = 0; d < space.dims(); ++d) writer.Put<double>(space.lo()[d]);
  for (int d = 0; d < space.dims(); ++d) writer.Put<double>(space.hi()[d]);
  if (!histogram.trained_) return bytes;

  for (const auto& dim_bounds : histogram.boundaries_) {
    for (double b : dim_bounds) writer.Put<double>(b);
  }
  writer.Put<double>(histogram.global_avg_);
  for (size_t b = 0; b < histogram.bucket_avgs_.size(); ++b) {
    writer.Put<double>(histogram.bucket_avgs_[b]);
    writer.Put<int64_t>(histogram.bucket_counts_[b]);
  }
  return bytes;
}

std::unique_ptr<StaticHistogram> DeserializeHistogram(
    const std::vector<uint8_t>& bytes, std::string* error) {
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  Reader reader(bytes);

  uint32_t magic = 0;
  uint16_t version = 0;
  uint8_t kind = 0;
  uint8_t dims = 0;
  int64_t budget = 0;
  int32_t intervals = 0;
  uint8_t trained = 0;
  if (!reader.Get(&magic) || !reader.Get(&version) || !reader.Get(&kind) ||
      !reader.Get(&dims) || !reader.Get(&budget) || !reader.Get(&intervals) ||
      !reader.Get(&trained)) {
    *err = "truncated histogram header";
    return nullptr;
  }
  if (magic != kHistogramMagic) {
    *err = "bad histogram magic";
    return nullptr;
  }
  if (version != kHistogramVersion) {
    *err = "unsupported histogram version";
    return nullptr;
  }
  if (kind > 1 || dims < 1 || dims > kMaxDims || intervals < 1 ||
      budget < 8) {
    *err = "invalid histogram header";
    return nullptr;
  }
  Point lo(dims);
  Point hi(dims);
  for (int d = 0; d < dims; ++d) {
    if (!reader.Get(&lo[d])) {
      *err = "truncated histogram space";
      return nullptr;
    }
  }
  for (int d = 0; d < dims; ++d) {
    if (!reader.Get(&hi[d]) || !(lo[d] < hi[d])) {
      *err = "truncated or degenerate histogram space";
      return nullptr;
    }
  }
  const Box space(lo, hi);
  std::unique_ptr<StaticHistogram> histogram;
  if (kind == 1) {
    histogram = std::make_unique<EquiHeightHistogram>(space, budget);
  } else {
    histogram = std::make_unique<EquiWidthHistogram>(space, budget);
  }
  if (trained == 0) {
    if (!reader.AtEnd()) {
      *err = "trailing bytes in untrained histogram";
      return nullptr;
    }
    return histogram;
  }

  histogram->intervals_per_dim_ = intervals;
  histogram->boundaries_.assign(static_cast<size_t>(dims), {});
  for (int d = 0; d < dims; ++d) {
    auto& dim_bounds = histogram->boundaries_[static_cast<size_t>(d)];
    dim_bounds.resize(static_cast<size_t>(intervals - 1));
    double previous = -std::numeric_limits<double>::infinity();
    for (double& b : dim_bounds) {
      if (!reader.Get(&b)) {
        *err = "truncated boundaries";
        return nullptr;
      }
      if (b < previous) {
        *err = "boundaries out of order";
        return nullptr;
      }
      previous = b;
    }
  }
  if (!reader.Get(&histogram->global_avg_)) {
    *err = "truncated global average";
    return nullptr;
  }
  int64_t buckets = 1;
  for (int d = 0; d < dims; ++d) {
    if (buckets > (1 << 28) / intervals) {
      *err = "bucket count overflow";
      return nullptr;
    }
    buckets *= intervals;
  }
  histogram->bucket_avgs_.resize(static_cast<size_t>(buckets));
  histogram->bucket_counts_.resize(static_cast<size_t>(buckets));
  for (int64_t b = 0; b < buckets; ++b) {
    if (!reader.Get(&histogram->bucket_avgs_[static_cast<size_t>(b)]) ||
        !reader.Get(&histogram->bucket_counts_[static_cast<size_t>(b)])) {
      *err = "truncated buckets";
      return nullptr;
    }
    if (histogram->bucket_counts_[static_cast<size_t>(b)] < 0) {
      *err = "negative bucket count";
      return nullptr;
    }
  }
  if (!reader.AtEnd()) {
    *err = "trailing bytes";
    return nullptr;
  }
  histogram->charged_bytes_ = buckets * 8;
  for (int d = 0; d < dims; ++d) {
    histogram->charged_bytes_ += histogram->BoundaryBytesPerDim(intervals);
  }
  histogram->trained_ = true;
  return histogram;
}

bool SaveQuadtreeToFile(const MemoryLimitedQuadtree& tree,
                        const std::string& path) {
  const std::vector<uint8_t> bytes = SerializeQuadtree(tree);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::unique_ptr<MemoryLimitedQuadtree> LoadQuadtreeFromFile(
    const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    if (error != nullptr) *error = "cannot open file";
    return nullptr;
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (!in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    if (error != nullptr) *error = "cannot read file";
    return nullptr;
  }
  return DeserializeQuadtree(bytes, error);
}

}  // namespace mlq
