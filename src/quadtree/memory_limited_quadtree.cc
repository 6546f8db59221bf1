#include "quadtree/memory_limited_quadtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <queue>

#include "obs/obs.h"

namespace mlq {
namespace {

// Clamps `point` onto the closed box `space`, coordinate by coordinate,
// writing into a raw coordinate array (the descent below works on raw
// doubles to avoid Point/Box copies per level).
void ClampToSpace(const Point& point, const Box& space, double* out) {
  for (int i = 0; i < space.dims(); ++i) {
    double v = point[i];
    if (v < space.lo()[i]) v = space.lo()[i];
    if (v > space.hi()[i]) v = space.hi()[i];
    out[i] = v;
  }
}

}  // namespace

MemoryLimitedQuadtree::MemoryLimitedQuadtree(const Box& space,
                                             const MlqConfig& config)
    : MemoryLimitedQuadtree(space, config, nullptr) {}

MemoryLimitedQuadtree::MemoryLimitedQuadtree(
    const Box& space, const MlqConfig& config,
    std::shared_ptr<SharedNodeArena> arena)
    : space_(space),
      config_(config),
      budget_(config.memory_limit_bytes),
      pool_(1 << space.dims(), std::move(arena)) {
  assert(space.dims() >= 1 && space.dims() <= kMaxTreeDims);
  assert(config.max_depth >= 0);
  assert(config.memory_limit_bytes >= kNodeBaseBytes);
  // Pre-size the arena for the budget ceiling. Child blocks hold vacant
  // slots for unmaterialized quadrants, so the slot demand can exceed the
  // live-node ceiling; reserving the node ceiling covers the common case
  // and the vector's growth doubling absorbs the rest.
  const int64_t max_nodes =
      1 + (config.memory_limit_bytes - kNodeBaseBytes) / kNonRootNodeBytes;
  pool_.Reserve(static_cast<size_t>(std::min<int64_t>(max_nodes, 1 << 20)));
  root_ = pool_.AllocateRoot();
  SyncBudget();
  counters_.nodes_created = 0;  // The root is not counted as "created".
  // On a shared arena, Compact() relocates blocks and must patch this
  // tree's root index in place.
  if (pool_.shares_arena()) pool_.arena().RegisterRoot(&root_);
}

MemoryLimitedQuadtree::~MemoryLimitedQuadtree() {
  // A private arena simply dies with the pool; a shared one outlives this
  // tree, so hand every block back to the communal free-list.
  if (pool_.shares_arena()) {
    pool_.arena().UnregisterRoot(&root_);
    pool_.ReleaseTree(root_);
  }
}

CostEstimate MemoryLimitedQuadtree::Predict(const Point& point) const {
  return PredictWithBeta(point, config_.beta);
}

CostEstimate MemoryLimitedQuadtree::PredictInternal(const Point& point,
                                                    int64_t beta) const {
  const int dims = space_.dims();
  double p[kMaxDims];
  ClampToSpace(point, space_, p);

  // Node addresses are slab-stable, so holding references across the
  // (read-only) descent is safe even while sibling trees grow the arena.
  const SharedNodeArena& arena = pool_.arena();
  const PooledNode* cn = &arena.node(root_);
  CostEstimate out;
  // With decay on, the beta reliability test weighs each node's count by
  // its un-materialized age (the predict path never mutates the tree): a
  // stale node counts as 2^(-age/H) of itself, so the descent stops higher
  // in regions the workload has left. With decay off this is the seed's
  // exact integer comparison.
  const bool decay_on = decay_enabled();
  auto under_beta = [&](const PooledNode& n) {
    if (!decay_on) return n.summary.count < beta;
    double c = static_cast<double>(n.summary.count);
    if (n.decay_epoch != decay_epoch_) c *= DecayFactor(n.decay_epoch);
    return c < static_cast<double>(beta);
  };
  if (under_beta(*cn)) {
    // Not even the root qualifies; fall back to whatever average exists.
    out.value = cn->summary.Avg();
    out.stddev = cn->summary.Stddev();
    out.count = cn->summary.count;
    out.depth = 0;
    out.reliable = false;
    return out;
  }
  // Counts shrink monotonically along a root-to-leaf path (summaries are
  // cumulative), so the lowest node with count >= beta is found by walking
  // down until the next child is absent or under-populated. The block
  // bounds are maintained in place — same arithmetic as Box::ChildIndexOf /
  // Box::Child, without materializing a Box per level.
  double lo[kMaxDims];
  double hi[kMaxDims];
  double mid[kMaxDims];
  for (int d = 0; d < dims; ++d) {
    lo[d] = space_.lo()[d];
    hi[d] = space_.hi()[d];
  }
  while (true) {
    int ci = 0;
    for (int d = 0; d < dims; ++d) {
      mid[d] = 0.5 * (lo[d] + hi[d]);
      if (p[d] >= mid[d]) ci |= (1 << d);
    }
    // Block layout: the child for quadrant ci, when present, is exactly at
    // slot first_child + ci — a single indexed load, no sibling scan.
    const NodeIndex base = cn->first_child;
    if (base == kInvalidNodeIndex) break;
    const PooledNode* child = &arena.node(base + static_cast<NodeIndex>(ci));
    if (child->index_in_parent != ci || under_beta(*child)) break;
    cn = child;
    for (int d = 0; d < dims; ++d) {
      if ((ci >> d) & 1) {
        lo[d] = mid[d];
      } else {
        hi[d] = mid[d];
      }
    }
  }
  out.value = cn->summary.Avg();
  // Stddev() rather than a bare sqrt(SSE/C): an explicit beta <= 0 admits
  // empty nodes as "reliable", and 0/0 under the sqrt would surface NaN.
  out.stddev = cn->summary.Stddev();
  out.count = cn->summary.count;
  out.depth = cn->depth;
  out.reliable = true;
  return out;
}

CostEstimate MemoryLimitedQuadtree::PredictWithBeta(const Point& point,
                                                    int64_t beta) const {
  obs::ScopedLatency latency(obs::Core().predict_ns, obs::Core().predicts,
                             obs::TraceEventType::kPredict);
  const CostEstimate out = PredictInternal(point, beta);
  latency.set_args(out.value, out.depth);
  return out;
}

void MemoryLimitedQuadtree::PredictBatch(std::span<const Point> points,
                                         std::span<CostEstimate> out) const {
  PredictBatchWithBeta(points, out, config_.beta);
}

void MemoryLimitedQuadtree::PredictBatchWithBeta(std::span<const Point> points,
                                                 std::span<CostEstimate> out,
                                                 int64_t beta) const {
  assert(points.size() == out.size());
  const bool obs_on = obs::Enabled();
  const int64_t t0 = obs_on ? obs::NowNs() : 0;
  for (size_t i = 0; i < points.size(); ++i) {
    out[i] = PredictInternal(points[i], beta);
  }
  if (obs_on && !points.empty()) {
    obs::CoreMetrics& core = obs::Core();
    core.predicts.Inc(static_cast<int64_t>(points.size()));
    core.predict_batches.Inc();
    const int64_t dur = obs::NowNs() - t0;
    core.predict_batch_ns.Record(dur);
    MLQ_TRACE_EVENT(obs::TraceEventType::kPredict, t0, dur,
                    static_cast<double>(points.size()),
                    out[0].value);
  }
}

double MemoryLimitedQuadtree::CurrentSseThreshold() const {
  if (config_.strategy == InsertionStrategy::kEager) return 0.0;
  // Lazy uses th_SSE = alpha * SSE(root) only once the first compression
  // has established how much cost variation the space holds (Section 4.4);
  // before that it partitions eagerly.
  if (!compressed_once_) return 0.0;
  return config_.alpha * pool_.node(root_).summary.Sse();
}

void MemoryLimitedQuadtree::AdvanceDecayEpoch(int64_t epochs) {
  if (!decay_enabled() || epochs <= 0) return;
  decay_epoch_ += static_cast<uint32_t>(epochs);
  if (obs::Enabled()) obs::Core().decay_epochs.Inc(epochs);
}

double MemoryLimitedQuadtree::DecayFactor(uint32_t node_epoch) const {
  const double age = static_cast<double>(decay_epoch_ - node_epoch);
  return std::exp2(-age / config_.decay_half_life);
}

void MemoryLimitedQuadtree::MaterializeDecay(PooledNode& node) {
  if (node.decay_epoch == decay_epoch_) return;
  const int64_t count = node.summary.count;
  const int64_t decayed = std::llround(
      DecayFactor(node.decay_epoch) * static_cast<double>(count));
  if (decayed >= count) {
    // Rounding kept the count intact (small count or small age): leave the
    // node — including its epoch stamp — untouched, so the age keeps
    // accumulating and is applied in full on a later touch. Stamping here
    // instead would let a count-1 node shrug off any number of sub-half-life
    // nudges and never forget.
    return;
  }
  node.decay_epoch = decay_epoch_;
  if (decayed <= 0) {
    node.summary = SummaryTriple{};
    return;
  }
  // Scale sum and sum-of-squares by the exact realized ratio so
  // AVG = sum/count is preserved bit-for-bit-in-spirit (same real value)
  // and SSE = SS - C * AVG^2 scales by the ratio, staying non-negative.
  const double ratio =
      static_cast<double>(decayed) / static_cast<double>(count);
  node.summary.sum *= ratio;
  node.summary.sum_squares *= ratio;
  node.summary.count = decayed;
}

void MemoryLimitedQuadtree::ExpandToInclude(const Point& point) {
  while (!space_.ContainsClosed(point)) {
    if (obs::Enabled()) {
      obs::Core().expansions.Inc();
      MLQ_TRACE_EVENT(obs::TraceEventType::kExpand, obs::NowNs(), 0,
                      static_cast<double>(config_.max_depth + 1), 0.0);
    }
    // Grow the space away from the point's overflow direction: along every
    // dimension where the point lies below the space, the old block becomes
    // the *upper* half of the doubled space; everywhere else the lower half.
    Point new_lo(space_.dims());
    Point new_hi(space_.dims());
    int old_root_quadrant = 0;
    for (int d = 0; d < space_.dims(); ++d) {
      const double extent = space_.Extent(d);
      if (point[d] < space_.lo()[d]) {
        new_lo[d] = space_.lo()[d] - extent;
        new_hi[d] = space_.hi()[d];
        old_root_quadrant |= (1 << d);
      } else {
        new_lo[d] = space_.lo()[d];
        new_hi[d] = space_.hi()[d] + extent;
      }
    }

    // A tree that has never absorbed an observation just grows its space:
    // demoting the empty root to a child slot would create a node with no
    // data points, which every non-root node must have.
    if (pool_.node(root_).IsLeaf() && pool_.node(root_).summary.count == 0) {
      space_ = Box(new_lo, new_hi);
      ++config_.max_depth;  // Preserve the finest block resolution.
      continue;
    }

    // The old root becomes a non-root node: it now occupies a child slot,
    // and the new root costs a base charge. Make room first if needed.
    const int64_t extra = kNodeBaseBytes + kChildSlotBytes;
    if (!budget_.CanCharge(extra)) CompressInternal({});
    // Even if compression could not free enough, expansion must proceed —
    // the space has to cover the data. The budget check above keeps this
    // within limits in all but pathological tiny-budget cases.

    const NodeIndex old_root = root_;
    const NodeIndex new_root = pool_.AllocateRoot();
    {
      // AllocateRoot may grow the arena: fetch references afterwards.
      PooledNode& new_root_node = pool_.node(new_root);
      const PooledNode& old_root_node = pool_.node(old_root);
      new_root_node.summary = old_root_node.summary;
      new_root_node.last_touch = old_root_node.last_touch;
      new_root_node.decay_epoch = old_root_node.decay_epoch;
    }
    // Move the old root into the new root's child block (this relocates it
    // to slot first_child + quadrant and recycles its old block), then shift
    // the whole demoted subtree one level down (iterative pre-order; the
    // pool makes an explicit stack natural).
    const NodeIndex demoted =
        pool_.AdoptChild(new_root, old_root_quadrant, old_root);
    const int fanout = pool_.fanout();
    std::vector<NodeIndex> stack{demoted};
    while (!stack.empty()) {
      const NodeIndex index = stack.back();
      stack.pop_back();
      PooledNode& node = pool_.node(index);
      assert(node.depth < 0xFFFF);
      ++node.depth;
      if (node.first_child == kInvalidNodeIndex) continue;
      const PooledNode* block = pool_.block(node.first_child);
      for (int q = 0; q < fanout; ++q) {
        if (block[q].index_in_parent == q) {
          stack.push_back(node.first_child + static_cast<NodeIndex>(q));
        }
      }
    }
    root_ = new_root;
    space_ = Box(new_lo, new_hi);
    ++config_.max_depth;  // Preserve the finest block resolution.
    SyncBudget();
    ++counters_.nodes_created;
  }
}

namespace {

// Non-finite feedback would permanently poison the summary triples (a
// single NaN makes every ancestor average NaN); drop such observations,
// as a production system would drop a garbled measurement.
bool IsFiniteObservation(const Point& point, double value) {
  if (!std::isfinite(value)) return false;
  for (int d = 0; d < point.dims(); ++d) {
    if (!std::isfinite(point[d])) return false;
  }
  return true;
}

}  // namespace

void MemoryLimitedQuadtree::Insert(const Point& point, double value) {
  if (!IsFiniteObservation(point, value)) return;

  WallTimer timer;
  const double compress_seconds_before = counters_.compress_seconds;
  obs::ScopedLatency latency(obs::Core().insert_ns, obs::Core().inserts,
                             obs::TraceEventType::kInsert);

  std::vector<NodeIndex> path;
  path.reserve(static_cast<size_t>(config_.max_depth) + 1);
  InsertOne(point, value, path);

  const double compress_delta =
      counters_.compress_seconds - compress_seconds_before;
  counters_.insert_seconds += timer.ElapsedSeconds() - compress_delta;
  latency.set_args(value, static_cast<double>(path.size()));
}

void MemoryLimitedQuadtree::InsertBatch(std::span<const Observation> batch) {
  if (batch.empty()) return;

  WallTimer timer;
  const double compress_seconds_before = counters_.compress_seconds;
  const bool obs_on = obs::Enabled();
  const int64_t t0 = obs_on ? obs::NowNs() : 0;

  // One path scratch vector for the whole batch — and, being thread_local,
  // for every batch this thread ever delivers, so the allocation happens
  // once per thread, not once per call. The per-insert descent is
  // identical to Insert's (per-point th_SSE, per-point compression
  // triggers — required for bit-identical trees), only the per-call
  // overhead is amortized.
  static thread_local std::vector<NodeIndex> path;
  path.reserve(static_cast<size_t>(config_.max_depth) + 1);
  int64_t accepted = 0;
  for (const Observation& o : batch) {
    if (!IsFiniteObservation(o.point, o.value)) continue;
    InsertOne(o.point, o.value, path);
    ++accepted;
  }

  const double compress_delta =
      counters_.compress_seconds - compress_seconds_before;
  counters_.insert_seconds += timer.ElapsedSeconds() - compress_delta;
  if (obs_on) {
    obs::CoreMetrics& core = obs::Core();
    core.inserts.Inc(accepted);
    core.observe_batches.Inc();
    const int64_t dur = obs::NowNs() - t0;
    core.observe_batch_ns.Record(dur);
    core.observe_batch_points.Record(static_cast<int64_t>(batch.size()));
    MLQ_TRACE_EVENT(obs::TraceEventType::kInsert, t0, dur,
                    static_cast<double>(batch.size()), batch[0].value);
  }
}

void MemoryLimitedQuadtree::InsertBatch(std::span<const Observation> all,
                                        std::span<const uint32_t> indices) {
  if (indices.empty()) return;

  WallTimer timer;
  const double compress_seconds_before = counters_.compress_seconds;
  const bool obs_on = obs::Enabled();
  const int64_t t0 = obs_on ? obs::NowNs() : 0;

  // Same thread_local scratch reuse as the span overload.
  static thread_local std::vector<NodeIndex> path;
  path.reserve(static_cast<size_t>(config_.max_depth) + 1);
  int64_t accepted = 0;
  for (const uint32_t i : indices) {
    const Observation& o = all[i];
    if (!IsFiniteObservation(o.point, o.value)) continue;
    InsertOne(o.point, o.value, path);
    ++accepted;
  }

  const double compress_delta =
      counters_.compress_seconds - compress_seconds_before;
  counters_.insert_seconds += timer.ElapsedSeconds() - compress_delta;
  if (obs_on) {
    obs::CoreMetrics& core = obs::Core();
    core.inserts.Inc(accepted);
    core.observe_batches.Inc();
    const int64_t dur = obs::NowNs() - t0;
    core.observe_batch_ns.Record(dur);
    core.observe_batch_points.Record(static_cast<int64_t>(indices.size()));
    MLQ_TRACE_EVENT(obs::TraceEventType::kInsert, t0, dur,
                    static_cast<double>(indices.size()),
                    all[indices[0]].value);
  }
}

void MemoryLimitedQuadtree::InsertOne(const Point& point, double value,
                                      std::vector<NodeIndex>& path) {
  ++counters_.insertions;

  if (config_.auto_expand) ExpandToInclude(point);
  const int dims = space_.dims();
  double p[kMaxDims];
  ClampToSpace(point, space_, p);
  const double th_sse = CurrentSseThreshold();

  path.clear();

  double lo[kMaxDims];
  double hi[kMaxDims];
  double mid[kMaxDims];
  for (int d = 0; d < dims; ++d) {
    lo[d] = space_.lo()[d];
    hi[d] = space_.hi()[d];
  }

  // The decay guard is one double compare per touched node; the decay-off
  // hot path is otherwise byte-for-byte the seed's (bench/decay_overhead
  // holds the guard cost under 2%).
  const bool decay_on = decay_enabled();

  NodeIndex cn = root_;
  {
    PooledNode& root_node = pool_.node(cn);
    if (decay_on) MaterializeDecay(root_node);
    root_node.summary.Add(value);
    root_node.last_touch = counters_.insertions;
  }
  path.push_back(cn);

  // Fig. 4: descend while the current node wants partitioning (SSE above
  // threshold and below max depth) or is already internal; create missing
  // children along the way. References into the pool are re-fetched each
  // round: TryCreateChild can compress (freeing slots) or allocate.
  while (true) {
    const PooledNode& node = pool_.node(cn);
    if (!((node.summary.Sse() >= th_sse && node.depth < config_.max_depth) ||
          !node.IsLeaf())) {
      break;
    }
    int ci = 0;
    for (int d = 0; d < dims; ++d) {
      mid[d] = 0.5 * (lo[d] + hi[d]);
      if (p[d] >= mid[d]) ci |= (1 << d);
    }
    NodeIndex child = pool_.Child(cn, ci);
    if (child == kInvalidNodeIndex) {
      if (node.depth >= config_.max_depth) break;  // Never exceed lambda.
      child = TryCreateChild(cn, ci, path);
      if (child == kInvalidNodeIndex) break;  // Budget exhausted even after compression.
    }
    cn = child;
    for (int d = 0; d < dims; ++d) {
      if ((ci >> d) & 1) {
        lo[d] = mid[d];
      } else {
        hi[d] = mid[d];
      }
    }
    PooledNode& child_node = pool_.node(cn);
    if (decay_on) MaterializeDecay(child_node);
    child_node.summary.Add(value);
    child_node.last_touch = counters_.insertions;
    path.push_back(cn);
  }
}

NodeIndex MemoryLimitedQuadtree::TryCreateChild(
    NodeIndex parent, int quadrant,
    const std::vector<NodeIndex>& protected_path) {
  const int64_t cost = kNonRootNodeBytes;
  if (!budget_.CanCharge(cost)) {
    CompressInternal(protected_path);
    if (!budget_.CanCharge(cost)) return kInvalidNodeIndex;
  }
  const NodeIndex child = pool_.CreateChild(parent, quadrant);
  // A fresh node is born fully aged to the current epoch (0 when decay is
  // off, matching the vacant-slot state bit for bit).
  pool_.node(child).decay_epoch = decay_epoch_;
  SyncBudget();
  ++counters_.nodes_created;
  if (obs::Enabled()) {
    obs::Core().partitions.Inc();
    MLQ_TRACE_EVENT(obs::TraceEventType::kPartition, obs::NowNs(), 0,
                    static_cast<double>(pool_.node(parent).depth + 1),
                    static_cast<double>(quadrant));
  }
  return child;
}

void MemoryLimitedQuadtree::Compress() { CompressInternal({}); }

int64_t MemoryLimitedQuadtree::SetMemoryLimit(int64_t limit_bytes) {
  // The root is never evictable, so no budget below its charge is
  // enforceable.
  const int64_t applied = std::max<int64_t>(limit_bytes, kNodeBaseBytes);
  budget_.SetLimit(applied);
  config_.memory_limit_bytes = applied;
  // Shrink-to-fit: every CompressInternal pass frees at least one node
  // (when any non-root leaf exists), so this loop strictly decreases the
  // footprint and terminates — at the latest when only the root remains.
  while (budget_.used() > budget_.limit() && pool_.live_count() > 1) {
    CompressInternal({});
  }
  return applied;
}

void MemoryLimitedQuadtree::CompressInternal(
    const std::vector<NodeIndex>& protected_path) {
  WallTimer timer;
  const bool obs_on = obs::Enabled();
  const int64_t obs_t0 = obs_on ? obs::NowNs() : 0;
  ++counters_.compressions;
  compressed_once_ = true;
  // Budget-pressure signal for the maintenance scheduler: compression is
  // what parks blocks on the arena free-list.
  pool_.arena().NoteCompression();

  auto is_protected = [&protected_path](NodeIndex n) {
    return std::find(protected_path.begin(), protected_path.end(), n) !=
           protected_path.end();
  };

  // Min-heap over leaves keyed by SSEG (Fig. 6, line 1). SSEG values never
  // change during a compression pass — removing a leaf leaves every other
  // node's summary intact — so entries are never stale. With the optional
  // recency extension the key is SSEG damped by the node's idle age.
  struct Entry {
    double key;
    NodeIndex node;
  };
  auto cmp = [](const Entry& a, const Entry& b) { return a.key > b.key; };
  std::vector<Entry> pq_storage;
  pq_storage.reserve(static_cast<size_t>(pool_.live_count()));
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> pq(
      cmp, std::move(pq_storage));

  // The eviction key: smaller evicts first. kSseg is Eq. 9; the ablation
  // policies replace it. Random hashes the node's pool slot with a per-pass
  // salt — slot indices are stable and reproducible across runs, so the
  // random policy is now deterministic for a fixed insertion sequence
  // (addresses, the old hash input, were not).
  const uint64_t random_salt =
      0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(counters_.compressions);
  auto eviction_key = [this, random_salt](NodeIndex index) {
    const PooledNode& node = pool_.node(index);
    double key = 0.0;
    switch (config_.eviction_policy) {
      case EvictionPolicy::kSseg: {
        const PooledNode& parent = pool_.node(node.parent);
        const double diff = parent.summary.Avg() - node.summary.Avg();
        key = static_cast<double>(node.summary.count) * diff * diff;
        break;
      }
      case EvictionPolicy::kCountOnly:
        key = static_cast<double>(node.summary.count);
        break;
      case EvictionPolicy::kRandom: {
        uint64_t h = static_cast<uint64_t>(index) ^ random_salt;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        key = static_cast<double>(h >> 11);
        break;
      }
    }
    if (config_.recency_half_life > 0.0) {
      const double age =
          static_cast<double>(counters_.insertions - node.last_touch);
      key *= std::exp2(-age / config_.recency_half_life);
    }
    // Windowed-summary decay: the node's EFFECTIVE count is its stored
    // count times the un-materialized decay factor, so Eq. 9's key (and
    // the count-only ablation) scale by the same factor — stale structure
    // yields its memory first. Applied uniformly (also to kRandom) so the
    // policies rank stale blocks consistently. Composes with the recency
    // damping above.
    if (config_.decay_half_life > 0.0 && node.decay_epoch != decay_epoch_) {
      key *= DecayFactor(node.decay_epoch);
    }
    return key;
  };

  // Collect all evictable leaves (iterative pre-order over the arena).
  const int fanout = pool_.fanout();
  std::vector<NodeIndex> stack{root_};
  while (!stack.empty()) {
    const NodeIndex index = stack.back();
    stack.pop_back();
    const PooledNode& node = pool_.node(index);
    if (node.IsLeaf()) {
      if (index != root_ && !is_protected(index)) {
        pq.push(Entry{eviction_key(index), index});
      }
      continue;
    }
    // One slab resolution for the whole child block: this scan visits
    // every node times fanout and dominates the pass on large trees.
    const PooledNode* block = pool_.block(node.first_child);
    for (int q = 0; q < fanout; ++q) {
      if (block[q].index_in_parent == q) {
        stack.push_back(node.first_child + static_cast<NodeIndex>(q));
      }
    }
  }

  // Free at least gamma * budget bytes (Fig. 6, line 2), always at least
  // one node so a triggered compression makes progress.
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(config_.gamma *
                                           static_cast<double>(budget_.limit()))));
  int64_t freed = 0;
  while (!pq.empty() && freed < target) {
    const NodeIndex leaf = pq.top().node;
    pq.pop();
    const NodeIndex parent = pool_.node(leaf).parent;
    pool_.RemoveLeafChild(parent, pool_.node(leaf).index_in_parent);
    freed += kNonRootNodeBytes;
    ++counters_.nodes_freed;
    if (parent != root_ && pool_.node(parent).IsLeaf() &&
        !is_protected(parent)) {
      pq.push(Entry{eviction_key(parent), parent});
    }
  }
  SyncBudget();

  counters_.compress_seconds += timer.ElapsedSeconds();
  if (obs_on) {
    obs::CoreMetrics& core = obs::Core();
    core.compressions.Inc();
    core.compress_bytes_freed.Inc(freed);
    const double th_sse = CurrentSseThreshold();
    core.sse_threshold.Set(th_sse);
    const int64_t dur = obs::NowNs() - obs_t0;
    core.compress_ns.Record(dur);
    MLQ_TRACE_EVENT(obs::TraceEventType::kCompress, obs_t0, dur,
                    static_cast<double>(freed), th_sse);
    // Journal 1-in-64 passes: compression is per-insert-frequent in
    // budget-tight workloads (unlike the other journal kinds, which are
    // genuine macro events), and an unsampled stream would wrap the
    // journal past the drift/maintenance entries an operator needs. The
    // full-rate signal stays in the counters and the trace ring above.
    if ((counters_.compressions & 63) == 1) {
      obs::GlobalEventLog().Append(obs::EventKind::kCompressionEpoch, "tree",
                                   static_cast<double>(freed), th_sse,
                                   static_cast<double>(pool_.live_count()));
    }
  }
}

double MemoryLimitedQuadtree::TotalSsenc() const {
  const int full_children = 1 << space_.dims();
  double total = 0.0;
  std::function<void(const NodeView&)> walk = [&](const NodeView& node) {
    // SSENC(b) = SSE(b) - sum_children [SSE(c) + SSEG(c)]: the squared error
    // about AVG(b) of points not summarized by any existing child.
    double ssenc = node.summary().Sse();
    for (const NodeView child : node.children()) {
      ssenc -= child.summary().Sse() + child.Sseg();
      walk(child);
    }
    if (node.num_children() < full_children) {
      total += std::max(0.0, ssenc);
    }
  };
  walk(root());
  return total;
}

void MemoryLimitedQuadtree::ForEachNode(
    const std::function<void(const NodeView&, const Box&)>& fn) const {
  std::function<void(const NodeView&, const Box&)> walk =
      [&](const NodeView& node, const Box& box) {
        fn(node, box);
        for (const NodeView child : node.children()) {
          walk(child, box.Child(child.index_in_parent()));
        }
      };
  walk(root(), space_);
}

bool MemoryLimitedQuadtree::CheckInvariants(std::string* error) const {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  char buf[256];

  int64_t nodes_seen = 0;
  bool ok = true;
  std::string first_error;

  std::function<void(const NodeView&, const Box&)> walk =
      [&](const NodeView& node, const Box& box) {
        if (!ok) return;
        ++nodes_seen;
        if (node.depth() > config_.max_depth) {
          std::snprintf(buf, sizeof(buf), "node at depth %d exceeds lambda %d",
                        node.depth(), config_.max_depth);
          first_error = buf;
          ok = false;
          return;
        }
        if (!node.has_parent() && node.index() != root_) {
          first_error = "non-root node without parent";
          ok = false;
          return;
        }
        // Every node summarizes at least one data point — except the root
        // of a never-inserted-into tree.
        if (node.summary().count <= 0 && node.has_parent()) {
          first_error = "node with no data points at " + box.ToString();
          ok = false;
          return;
        }
        int64_t child_count_sum = 0;
        int chain_length = 0;
        int previous_index = -1;
        for (const NodeView child : node.children()) {
          ++chain_length;
          if (child.index_in_parent() <= previous_index) {
            first_error = "child chain not sorted/unique";
            ok = false;
            return;
          }
          previous_index = child.index_in_parent();
          if (child.index_in_parent() >= (1 << space_.dims())) {
            first_error = "child quadrant out of range";
            ok = false;
            return;
          }
          if (!child.has_parent() || child.parent().index() != node.index() ||
              child.depth() != node.depth() + 1) {
            first_error = "child back-links inconsistent";
            ok = false;
            return;
          }
          child_count_sum += child.summary().count;
        }
        if (chain_length != node.num_children()) {
          first_error = "num_children disagrees with sibling chain";
          ok = false;
          return;
        }
        // Summaries are cumulative, so each parent covers at least its
        // children — except under decay, where lazy per-node aging shrinks
        // a touched parent while untouched children keep their stale
        // counts; the relation is then only eventual, not structural.
        if (!decay_enabled() && child_count_sum > node.summary().count) {
          std::snprintf(buf, sizeof(buf),
                        "children count %lld exceeds parent count %lld",
                        static_cast<long long>(child_count_sum),
                        static_cast<long long>(node.summary().count));
          first_error = buf;
          ok = false;
          return;
        }
        // Decay bookkeeping: node epochs never lead the tree's clock, and
        // with decay off every node must still carry the zero stamp the
        // seed layout had (the differential tests pin this).
        const PooledNode& raw = pool_.node(node.index());
        if (raw.decay_epoch > decay_epoch_ ||
            (!decay_enabled() && raw.decay_epoch != 0)) {
          first_error = "node decay epoch inconsistent";
          ok = false;
          return;
        }
        if (raw.summary.count < 0 || raw.summary.sum_squares < 0.0 ||
            !std::isfinite(raw.summary.sum) ||
            !std::isfinite(raw.summary.sum_squares)) {
          first_error = "summary triple negative or non-finite";
          ok = false;
          return;
        }
        for (const NodeView child : node.children()) {
          walk(child, box.Child(child.index_in_parent()));
        }
      };
  walk(root(), space_);
  if (!ok) return fail(first_error);

  if (nodes_seen != pool_.live_count()) {
    std::snprintf(buf, sizeof(buf), "pool live count %lld but %lld reachable",
                  static_cast<long long>(pool_.live_count()),
                  static_cast<long long>(nodes_seen));
    return fail(buf);
  }
  if (!pool_.CheckConsistency(&first_error)) {
    return fail("node pool inconsistent: " + first_error);
  }
  if (LogicalBytesFor(nodes_seen) != budget_.used()) {
    std::snprintf(buf, sizeof(buf), "memory accounting %lld != expected %lld",
                  static_cast<long long>(budget_.used()),
                  static_cast<long long>(LogicalBytesFor(nodes_seen)));
    return fail(buf);
  }
  if (budget_.used() > budget_.limit()) {
    return fail("memory over budget");
  }
  return true;
}

}  // namespace mlq
