#ifndef MLQ_QUADTREE_MEMORY_LIMITED_QUADTREE_H_
#define MLQ_QUADTREE_MEMORY_LIMITED_QUADTREE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/memory_budget.h"
#include "common/timer.h"
#include "quadtree/node_pool.h"
#include "quadtree/quadtree_config.h"

namespace mlq {

// One feedback sample: a model point and the cost observed there. The
// currency of the batched feedback pipeline (tree InsertBatch → model
// ObserveBatch → catalog RecordExecutionBatch) and of the sharded feedback
// queues.
struct Observation {
  Point point;
  double value = 0.0;
};

// Result of a point prediction (Fig. 3 of the paper), and the one
// prediction currency of every cost model and the catalog: a predicted
// value together with the uncertainty the model can attach to it. Models
// without a tree report what coarser confidence they have and depth 0.
struct CostEstimate {
  // Predicted cost: the average stored in the chosen node.
  double value = 0.0;
  // Sample standard deviation of the costs summarized in the chosen node
  // (sqrt(SSE/C), from the stored sum-of-squares): a confidence measure an
  // optimizer can use for risk-aware planning. 0 for a single point.
  double stddev = 0.0;
  // Number of data points summarized in that node (0 = unsupported
  // default).
  int64_t count = 0;
  // False when even the root had fewer than beta points (including the
  // empty-tree case, where value is 0): the caller is on its own.
  bool reliable = false;
  // Depth of the node the prediction came from (0 = root). Last, so
  // four-value initializers {value, stddev, count, reliable} stay valid.
  int depth = 0;

  // Half-width of the ~95% normal confidence interval on the value, given
  // that it averages `count` observations. 0 when nothing supports it.
  double ConfidenceHalfWidth() const {
    if (count <= 0) return 0.0;
    return 1.96 * stddev / std::sqrt(static_cast<double>(count));
  }
};
static_assert(sizeof(CostEstimate) == 32, "keep the currency packed");

// Aggregate operation counters, exposed for the modeling-cost experiments
// (Experiment 2 / Fig. 10).
struct QuadtreeCounters {
  int64_t insertions = 0;
  int64_t compressions = 0;
  int64_t nodes_created = 0;
  int64_t nodes_freed = 0;
  double insert_seconds = 0.0;    // Total time inside Insert, compression excluded.
  double compress_seconds = 0.0;  // Total time inside Compress.
};

// The memory-limited quadtree (MLQ) of Section 4: a d-dimensional quadtree
// over a fixed model space, storing a summary triple per block, supporting
// beta-guided prediction, eager/lazy insertion and SSEG-guided compression
// under a strict logical memory budget.
//
// Nodes live in a contiguous arena (NodePool) allocated in 2^d-slot child
// blocks: the child for quadrant q is always at slot first_child + q, so a
// prediction descent does one indexed load per level into one
// cache-friendly vector instead of chasing heap pointers, and compression
// recycles whole blocks through the pool's free-list. The logical memory
// accounting (what the budget is charged) is derived exactly from the
// pool's live-node count.
//
// Thread-compatible; not thread-safe (one model instance per UDF and cost
// kind, as the paper assumes).
class MemoryLimitedQuadtree {
 public:
  // `space` is the full model-variable space (the root block). Its
  // dimensionality fixes d; 2^d children per node.
  MemoryLimitedQuadtree(const Box& space, const MlqConfig& config);

  // Same, allocating nodes from a shared arena (fanout must equal 2^d)
  // instead of a private one. The tree registers its root with the arena so
  // SharedNodeArena::Compact() can relocate it, and releases its blocks
  // back to the shared free-list on destruction. Logical budgeting is
  // unchanged — only the physical slabs are shared.
  MemoryLimitedQuadtree(const Box& space, const MlqConfig& config,
                        std::shared_ptr<SharedNodeArena> arena);

  ~MemoryLimitedQuadtree();

  MemoryLimitedQuadtree(const MemoryLimitedQuadtree&) = delete;
  MemoryLimitedQuadtree& operator=(const MemoryLimitedQuadtree&) = delete;

  const Box& space() const { return space_; }
  const MlqConfig& config() const { return config_; }

  // Predicts the cost at `point` using the configured beta: the average of
  // the lowest node containing the point with count >= beta.
  CostEstimate Predict(const Point& point) const;

  // Same, with an explicit beta (the paper uses beta=1 for CPU and beta=10
  // for disk-IO predictions from the same tree shape).
  CostEstimate PredictWithBeta(const Point& point, int64_t beta) const;

  // Batched prediction: out[i] = Predict(points[i]), with the per-call
  // observability overhead amortized over the whole batch (one span, one
  // counter bump). `out.size()` must equal `points.size()`. The pooled
  // layout makes consecutive descents hit the same cache lines, so this is
  // the fast path for optimizers that cost many candidate points at once.
  void PredictBatch(std::span<const Point> points,
                    std::span<CostEstimate> out) const;
  void PredictBatchWithBeta(std::span<const Point> points,
                            std::span<CostEstimate> out, int64_t beta) const;

  // Inserts the observed cost `value` at `point` (Fig. 4), compressing
  // first whenever materializing a new node would exceed the memory budget
  // (Fig. 6). Points outside the model space are clamped onto its boundary,
  // mirroring an optimizer that saturates out-of-range model variables —
  // unless config.auto_expand is set, in which case the space grows to
  // cover the point first (see ExpandToInclude).
  void Insert(const Point& point, double value);

  // Batched insertion: semantically identical to calling Insert per
  // observation in order — same descents, same per-point compression
  // triggers, bit-identical tree — but the per-call overhead (wall timers,
  // observability hooks, the path scratch vector) is paid once per batch.
  // The serving-side amortization lever that PredictBatch is for reads.
  void InsertBatch(std::span<const Observation> batch);

  // Gather form: inserts all[indices[0]], all[indices[1]], ... in that
  // order without materializing a contiguous copy of the selected
  // observations (each is an 80-byte value with its Point inline). Same
  // bit-identity guarantee as InsertBatch. The sharded model uses this to
  // apply one caller batch as per-shard index runs.
  void InsertBatch(std::span<const Observation> all,
                   std::span<const uint32_t> indices);

  // Grows the model space until it covers `point` by repeatedly doubling
  // the root block toward the point: a new root is created whose children
  // include the old root, depths shift down one level, and max_depth grows
  // by one so leaf resolution is unchanged. No-op for covered points.
  // Extension beyond the paper (unknown argument ranges).
  void ExpandToInclude(const Point& point);

  // Forces one compression pass (normally triggered internally). Public so
  // tests and ablations can exercise compression in isolation.
  void Compress();

  // Re-targets the tree's logical byte budget (clamped to at least the
  // root's own charge). Shrinking below the current footprint runs
  // SSEG-guided compression passes until the tree fits — the same eviction
  // order a budget-pressure compression would have used, so the surviving
  // summaries are exactly the ones compression would have kept. Growing
  // only raises the limit; the insertion path fills the headroom. The new
  // limit is also written into config().memory_limit_bytes so serialized
  // snapshots carry the governed budget. Returns the applied (clamped)
  // limit.
  int64_t SetMemoryLimit(int64_t limit_bytes);

  // --- Windowed-summary decay (see MlqConfig::decay_half_life) -------------

  // True when this tree ages its summaries (config.decay_half_life > 0).
  bool decay_enabled() const { return config_.decay_half_life > 0.0; }

  // The tree's global decay epoch. Nodes age lazily: a node's summary is
  // only re-aged to the current epoch when the insertion path next touches
  // it, so advancing the epoch is O(1) regardless of tree size.
  uint32_t decay_epoch() const { return decay_epoch_; }

  // Advances the global decay epoch by `epochs` (the serving layer's
  // logical forgetting clock — typically one per maintenance tick, more
  // after a detected drift). No-op when decay is disabled or epochs <= 0.
  void AdvanceDecayEpoch(int64_t epochs = 1);

  // Current lazy-insertion partitioning threshold th_SSE (Eq. 7): zero for
  // the eager strategy and before the first compression, alpha * SSE(root)
  // afterwards.
  double CurrentSseThreshold() const;

  // --- Introspection -------------------------------------------------------

  NodeView root() const { return NodeView(&pool_, root_); }
  const NodePool& pool() const { return pool_; }
  int64_t num_nodes() const { return pool_.live_count(); }
  int64_t memory_used() const { return budget_.used(); }
  int64_t memory_limit() const { return budget_.limit(); }
  int64_t memory_peak() const { return budget_.peak(); }
  // Bytes of process memory the node arena actually occupies (backing
  // capacity, including free-listed slots) — the physical complement of the
  // logical catalog-byte accounting above.
  int64_t arena_bytes() const { return pool_.PhysicalCapacityBytes(); }
  const QuadtreeCounters& counters() const { return counters_; }

  // TSSENC(qt) of Eq. 6: the sum over all non-full blocks of their SSENC.
  // SSENC of a block is estimated from the stored summaries as
  // SSE(b) - sum_children SSE(child) - sum_children SSEG(child); exact for
  // the quantities the tree maintains. O(num_nodes); used by tests and the
  // compression-quality ablation, not on the hot path.
  double TotalSsenc() const;

  // Walks the whole tree calling `fn` on every node (pre-order, children in
  // ascending quadrant order).
  void ForEachNode(const std::function<void(const NodeView&, const Box&)>& fn) const;

  // Validates structural invariants (child counts vs parent counts, depth
  // bounds, memory accounting derived from the pool, sorted child chains,
  // pool free-list integrity). Returns true when consistent; otherwise
  // false with a description in `error`.
  bool CheckInvariants(std::string* error) const;

  // True once any compression has run (the lazy strategy keys th_SSE off
  // this, Section 4.4); exposed for catalog serialization.
  bool compressed_once() const { return compressed_once_; }

 private:
  // Catalog persistence rebuilds trees node by node (model/serialization.h).
  friend std::unique_ptr<MemoryLimitedQuadtree> DeserializeQuadtree(
      const std::vector<uint8_t>& bytes,
      std::shared_ptr<SharedNodeArena> arena, std::string* error);

  // Logical catalog bytes for `nodes` materialized nodes: one root charge
  // plus a base + parent-slot charge per non-root node. This is exact, not
  // incremental: it is recomputed from the pool's live count after every
  // structural change, so the accounting can never drift.
  static int64_t LogicalBytesFor(int64_t nodes) {
    return kNodeBaseBytes + (nodes - 1) * kNonRootNodeBytes;
  }
  void SyncBudget() { budget_.SetUsed(LogicalBytesFor(pool_.live_count())); }

  // Single-point descent without observability hooks; shared by Predict and
  // PredictBatch.
  CostEstimate PredictInternal(const Point& point, int64_t beta) const;

  // One insertion descent without timers or observability hooks; shared by
  // Insert and InsertBatch. `path` is caller-provided scratch for the
  // compression-protected insertion path. The point/value must already have
  // passed the finiteness screen.
  void InsertOne(const Point& point, double value,
                 std::vector<NodeIndex>& path);

  // Attempts to materialize child `quadrant` of `parent`, compressing if
  // the budget requires it. Returns kInvalidNodeIndex when compression
  // could not free enough memory (the insert then stops partitioning).
  // `protected_path` holds the nodes on the current insertion path, which
  // compression must not delete.
  NodeIndex TryCreateChild(NodeIndex parent, int quadrant,
                           const std::vector<NodeIndex>& protected_path);

  // Compression pass (Fig. 6) that never removes nodes in `protected_path`.
  void CompressInternal(const std::vector<NodeIndex>& protected_path);

  // 2^(-(current epoch - node_epoch) / decay_half_life): the factor a
  // node's summary weight has decayed by since it was last aged. Requires
  // decay_enabled() and node_epoch <= decay_epoch_.
  double DecayFactor(uint32_t node_epoch) const;

  // Ages `node`'s summary to the current epoch (insert path only; the
  // predict path never mutates). AVG-preserving: count is rounded to the
  // nearest integer and sum/sum-of-squares scale by the same exact ratio,
  // so the average is unchanged and SSE scales by the ratio (stays >= 0).
  // When rounding would leave the count unchanged the node is left
  // untouched — including its epoch stamp, so the un-applied age is not
  // forgotten but re-applied (accumulated) on a later touch.
  void MaterializeDecay(PooledNode& node);

  Box space_;
  MlqConfig config_;
  MemoryBudget budget_;
  NodePool pool_;  // Constructed with fanout 2^dims.
  NodeIndex root_ = kInvalidNodeIndex;
  bool compressed_once_ = false;
  uint32_t decay_epoch_ = 0;
  QuadtreeCounters counters_;
};

}  // namespace mlq

#endif  // MLQ_QUADTREE_MEMORY_LIMITED_QUADTREE_H_
