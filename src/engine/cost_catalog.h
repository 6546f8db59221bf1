#ifndef MLQ_ENGINE_COST_CATALOG_H_
#define MLQ_ENGINE_COST_CATALOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/drift_detector.h"
#include "model/cost_model.h"
#include "obs/telemetry.h"
#include "quadtree/shared_node_arena.h"
#include "udf/costed_udf.h"

namespace mlq {

class MaintenanceScheduler;
class MlqModel;

// How the catalog's models are protected against concurrent access.
enum class CatalogConcurrency {
  // Bare single-threaded models, zero locking — the paper's setting and
  // the default. One planner/executor thread only.
  kSingleThread,
  // Every model behind one mutex (ConcurrentCostModel). Correct under any
  // interleaving; throughput capped at one core per model.
  kGlobalMutex,
  // Sharded serving models (ShardedCostModel): striped locks, queued
  // feedback. Prediction throughput scales across threads; Observe never
  // blocks the prediction path. See docs/concurrency.md.
  kSharded,
};

// The optimizer-side metadata for UDFs: for every UDF, the two cost
// estimators the paper prescribes (one CPU, one disk-IO; Section 1) plus —
// reusing the same machinery — a self-tuning *selectivity* estimator, an
// MLQ whose "cost" values are the 0/1 pass outcomes of the predicate, so
// its block averages are local pass probabilities.
//
// Every executed predicate feeds all three models (the Fig. 1 feedback
// loop); the optimizer reads them when costing plans. In the concurrent
// modes, predictions and feedback may come from many threads at once.
class CostCatalog {
 public:
  // Exponentially weighted windows over recently observed ACTUAL execution
  // outcomes of one UDF — not model re-estimates. This is what the estimate
  // audit compares plan estimates against: a converged model's re-estimate
  // tracks the plan no matter what the workload does, while these windows
  // follow the executions themselves, so drift stays visible after millions
  // of stable observations (see docs/drift.md).
  struct WindowedActuals {
    // Per-call cost in nominal microseconds (CPU + IO combined, the same
    // unit PredictCostMicros reports), on two horizons.
    double fast_cost_micros = 0.0;
    double slow_cost_micros = 0.0;
    // Pass fraction on the same two horizons.
    double fast_selectivity = 0.0;
    double slow_selectivity = 0.0;
    // Executions folded in (0 = no feedback yet, windows meaningless).
    int64_t observations = 0;
  };

  // EWMA weights for WindowedActuals: the fast window reacts within ~5
  // observations, the slow window remembers the last ~50.
  static constexpr double kFastAlpha = 0.2;
  static constexpr double kSlowAlpha = 0.02;

  struct Entry {
    CostedUdf* udf;
    // Owning tenant id (multi-tenant quota accounting; "default" unless
    // the UDF was registered through the tenant-qualified For overload).
    std::string tenant;
    std::unique_ptr<CostModel> cpu_model;
    std::unique_ptr<CostModel> io_model;
    std::unique_ptr<CostModel> selectivity_model;
    // Predictions served through this entry since registration — the
    // governor's traffic / LRU-by-traffic signal. Relaxed: an approximate
    // count read racily by the governor is exactly what is needed.
    mutable std::atomic<int64_t> traffic{0};
    // Entry-level byte budget currently granted (split evenly across the
    // three models by SetEntryByteBudget). Guarded by entries_mutex_ in
    // the concurrent modes, like entries_ itself.
    int64_t budget_bytes = 0;
    // Windowed actual-outcome tracking plus the per-model drift detectors,
    // updated on the feedback path. Guarded by windowed_mutex. Lock order:
    // entries_mutex_ (when held at all) before windowed_mutex; nothing may
    // take entries_mutex_ while holding a windowed_mutex.
    mutable std::mutex windowed_mutex;
    WindowedActuals windowed;
    DriftDetector cost_detector;
    DriftDetector selectivity_detector;
  };

  // One execution outcome, buffered by the batched executor path and
  // delivered through RecordExecutionBatch.
  struct ExecutionRecord {
    Point model_point;
    UdfCost cost;
    bool passed = false;
  };

  // Result of one maintenance epoch (stop-the-world CompactArenas or a
  // CompactArenasIncremental run of bounded steps), summed over all of the
  // catalog's shared arenas.
  struct ArenaMaintenanceStats {
    int64_t physical_bytes_before = 0;
    int64_t physical_bytes_after = 0;
    int64_t bytes_reclaimed = 0;
    int64_t blocks_moved = 0;
    int arenas_compacted = 0;
    // Quiesce windows taken: 1 for stop-the-world, >= 1 for incremental.
    int steps = 0;
    // Longest / cumulative single quiesce window (locks held) in micros —
    // the serving pause the epoch imposed.
    int64_t max_pause_us = 0;
    int64_t total_pause_us = 0;
  };

  // Observable maintenance signals aggregated over the catalog's arenas;
  // what a MaintenanceScheduler policy decides from.
  struct ArenaSignals {
    // Tree compressions recorded by any model in any shared arena since the
    // catalog was created (monotonic).
    int64_t tree_compressions = 0;
    // Worst (highest) reclaimable slot fraction across arenas, in [0, 1].
    double max_fragmentation = 0.0;
    // Live (occupied) node slots across arenas; a cheap change detector.
    int64_t live_nodes = 0;
  };

  // `memory_limit_bytes` is the per-model budget (the paper's 1.8 KB each).
  // `num_shards` only applies to CatalogConcurrency::kSharded.
  explicit CostCatalog(
      int64_t memory_limit_bytes = 1800,
      CatalogConcurrency concurrency = CatalogConcurrency::kSingleThread,
      int num_shards = 4);

  CostCatalog(const CostCatalog&) = delete;
  CostCatalog& operator=(const CostCatalog&) = delete;

  // Lazily creates the entry for a UDF (tenant "default"), or — when the
  // UDF was evicted by the governor — restores it from its snapshot.
  // Thread-safe in concurrent modes. A resident UDF resolves through a
  // lock-free hashed index; only a miss (first registration or reload)
  // takes entries_mutex_.
  Entry& For(CostedUdf* udf);
  // Same, registering the UDF under an explicit tenant id. The tenant is
  // fixed at first registration; later calls (with any tenant) return the
  // existing entry unchanged.
  Entry& For(CostedUdf* udf, std::string_view tenant);
  // Read-only lookup; nullptr if the UDF has never been registered or is
  // currently evicted (Find never triggers a reload). Lock-free.
  const Entry* Find(const CostedUdf* udf) const;

  // Records one execution outcome for the UDF at the given model point.
  void RecordExecution(CostedUdf* udf, const Point& model_point,
                       const UdfCost& cost, bool passed);

  // Batched feedback: applies every record to the UDF's three models with
  // one ObserveBatch call each (one lock round-trip per model in the
  // concurrent modes) instead of three virtual dispatches per record. The
  // per-model insert sequences — hence the trees — are identical to calling
  // RecordExecution in a loop.
  void RecordExecutionBatch(CostedUdf* udf,
                            std::span<const ExecutionRecord> records);

  // Predicted per-call cost in nominal microseconds (CPU + IO combined).
  double PredictCostMicros(CostedUdf* udf, const Point& model_point);

  // Predicted pass probability in [0.01, 1] (clamped away from 0 so plan
  // cost formulas stay finite); 0.5 when nothing is known yet.
  double PredictSelectivity(CostedUdf* udf, const Point& model_point);

  // Batched variants: out[i] corresponds to model_points[i], element-wise
  // identical to the scalar calls. One entry lookup and one batched model
  // call per underlying model instead of 2-3 virtual dispatches (plus, in
  // the concurrent modes, lock round-trips) per point — the form the
  // optimizer's stride-sampling estimators use.
  void PredictCostMicrosBatch(CostedUdf* udf,
                              std::span<const Point> model_points,
                              std::span<double> out);
  void PredictSelectivityBatch(CostedUdf* udf,
                               std::span<const Point> model_points,
                               std::span<double> out);

  // --- Variance-aware prediction currency ----------------------------------
  //
  // Stats forms of the batched predictors above. Values are bit-identical
  // to the scalar and batched value calls (same model probes, same
  // arithmetic); the extra fields carry per-point uncertainty for
  // risk-aware planning:
  //   * cost: CPU and IO estimates combine as independent scaled terms —
  //     value = cpu*kMicrosPerWorkUnit + io*kMicrosPerPageMiss, stddev is
  //     the root-sum-square of the scaled stddevs, count is the smaller
  //     support, reliable requires both.
  //   * selectivity: the unknown-UDF fallback reports the max-uncertainty
  //     prior {0.5, stddev 0.5, count 0, unreliable}.
  // The cost form cross-checks against the entry's windowed actuals: when
  // the fast and slow windows of OBSERVED outcomes disagree strongly (the
  // workload is moving), in-node variance understates true uncertainty, so
  // the windowed disagreement is folded into stddev and `reliable` is
  // dropped.
  void PredictCostStatsBatch(CostedUdf* udf,
                             std::span<const Point> model_points,
                             std::span<CostEstimate> out);
  void PredictSelectivityStatsBatch(CostedUdf* udf,
                                    std::span<const Point> model_points,
                                    std::span<CostEstimate> out);

  // Snapshot of the windowed actual-outcome EWMAs for `udf` (all zeros when
  // the UDF is unknown or has never executed).
  WindowedActuals ReadWindowedActuals(const CostedUdf* udf) const;

  // Decay policy for the catalog's models: entries created AFTER this call
  // build their trees with the given summary half-life (in decay epochs;
  // 0 disables — the default, matching the paper's unbounded-memory-of-the-
  // past summaries). Set it before the first For() on a UDF; existing
  // entries keep the config they were built with.
  void SetModelDecayHalfLife(double half_life);
  double model_decay_half_life() const;

  // Advances every model's summary-decay clock by `epochs`. Called by the
  // maintenance scheduler: one epoch per steady-state interval, a burst
  // after the drift detector fires. No-op for decay-off models.
  void AdvanceDecayEpochs(int64_t epochs);

  // Worst drift-detector staleness (fast/slow windowed-error ratio) across
  // all entries; 1.0 when stable or when no entry has data.
  double MaxModelStaleness() const;

  // Applies any queued feedback in every model (kSharded); no-op in the
  // synchronous modes.
  void FlushFeedback();

  // The shared arena all models over a `dims`-dimensional space allocate
  // from (fanout 2^dims). Lazily created; stable for the catalog's life.
  // Exposed so callers can hand the same slabs to models they build
  // outside the catalog (e.g. PartitionedCostModel sub-models).
  std::shared_ptr<SharedNodeArena> ArenaForDims(int dims);

  // Explicit maintenance epoch: flush all queued feedback, take every
  // model's maintenance lock, and compact every shared arena — rewriting
  // live node blocks contiguously and returning high-water slab memory.
  // Blocks all predictions and feedback for the (short) duration; no
  // prediction changes. Returns what was reclaimed.
  ArenaMaintenanceStats CompactArenas();

  // One bounded incremental compaction step: flush feedback, quiesce every
  // model, and relocate at most `budget_slots` node slots per arena toward
  // the dense layout, then release all locks. Serving proceeds between
  // steps. Accumulates into *stats (steps, pauses, blocks moved, bytes
  // reclaimed). Returns true once every arena is fully dense — at which
  // point the physical footprint equals what stop-the-world CompactArenas
  // would have produced, and predictions / serialized trees are identical.
  bool CompactArenasStep(int64_t budget_slots, ArenaMaintenanceStats* stats);

  // A full incremental epoch: loops CompactArenasStep until convergence,
  // releasing every lock between steps so traffic interleaves with
  // maintenance. Equivalent end state to CompactArenas() with the
  // stop-the-world pause replaced by many bounded pauses.
  ArenaMaintenanceStats CompactArenasIncremental(int64_t budget_slots);

  // Snapshot of the scheduler-facing maintenance signals.
  ArenaSignals ReadArenaSignals() const;

  // Per-entry health snapshot for the telemetry exporter: footprint
  // (bytes, nodes over all three models), windowed NAE (normalized
  // fast-vs-slow deviation of the WindowedActuals cost windows),
  // staleness (worst detector fast/slow ratio), the entry's arena
  // fragmentation, and the derived accuracy-per-byte score. One vector
  // element per catalog entry, in registration order. Intended as the
  // exporter's health provider:
  //   exporter.SetHealthProvider([&] { return catalog.ReadModelHealth(); });
  std::vector<obs::ModelHealth> ReadModelHealth() const;

  // Same snapshot, additionally filling `udfs` (when non-null) with the
  // matching CostedUdf handle per element — one consistent pass under the
  // catalog lock, so the governor can act on exactly the entries it
  // scored (a plain ReadModelHealth + name lookup would race with
  // registration and be O(n^2) at catalog scale).
  std::vector<obs::ModelHealth> ReadModelHealth(
      std::vector<CostedUdf*>* udfs) const;

  // --- Governor hooks (catalog-level budget redistribution) ---------------

  // Re-targets one entry's TOTAL byte budget: each of the entry's three
  // models is resized to max(entry_bytes / 3, kNodeBaseBytes), triggering
  // an eviction-compression pass when shrinking. Returns false when the
  // UDF has no resident entry. O(1) lookup, so a rebalance that changes k
  // budgets costs O(n + k). Thread-safe in the concurrent modes (same
  // lock order as the maintenance epochs: entries_mutex_, then the models'
  // own synchronization).
  bool SetEntryByteBudget(CostedUdf* udf, int64_t entry_bytes);

  // Evicts a whole resident entry: flushes its queued feedback, serializes
  // its three trees (serialization v2/v3) plus the windowed/drift state
  // into the in-memory snapshot store, and destroys the entry. The next
  // For() on the UDF restores it with bit-identical predictions. Returns
  // false for unknown/already-evicted UDFs and in kSharded mode (shard
  // trees don't round-trip through a single serialized image).
  //
  // Concurrency contract: callers must guarantee no thread holds (or
  // concurrently acquires) a reference to this UDF's entry — evict only
  // UDFs whose traffic has quiesced, or stop serving first. The governor
  // enforces this by evicting only zero-traffic-since-last-rebalance
  // entries and only when eviction is explicitly enabled.
  bool EvictEntry(CostedUdf* udf);

  // Entries currently parked in the snapshot store.
  int evicted_count() const;

  // Sum of serialized snapshot bytes currently parked in the store.
  int64_t evicted_snapshot_bytes() const;

  // Safe point for autonomous maintenance: forwards to the registered
  // scheduler's Tick(), unless a maintenance epoch (or feedback flush) is
  // already running on this thread or another — then it returns
  // immediately (skipping a tick is always safe; re-entering would
  // deadlock on entries_mutex_). Called by the batched executor at block
  // boundaries and by ShardedCostModel's post-drain hook.
  void MaintenanceTick();

  // Registers (or, with nullptr, unregisters) the scheduler MaintenanceTick
  // forwards to. The scheduler must outlive all ticks: unregister (or
  // destroy the scheduler, which unregisters itself) only after serving
  // traffic has quiesced.
  void SetMaintenanceScheduler(MaintenanceScheduler* scheduler);

  // Current physical footprint of the catalog's shared arenas (slab bytes
  // actually allocated — distinct from the per-model logical budgets).
  int64_t ArenaPhysicalBytes() const;

  int size() const;
  int64_t memory_limit_bytes() const { return memory_limit_bytes_; }
  CatalogConcurrency concurrency() const { return concurrency_; }

 private:
  // A snapshot of an evicted entry: the three serialized trees plus the
  // scalar serving state needed to resume exactly where the entry left
  // off. Keyed by CostedUdf pointer in evicted_.
  struct EvictedEntry {
    std::string tenant;
    int64_t budget_bytes = 0;
    int64_t traffic = 0;
    std::vector<uint8_t> cpu_image;
    std::vector<uint8_t> io_image;
    std::vector<uint8_t> selectivity_image;
    WindowedActuals windowed;
    DriftDetector cost_detector;
    DriftDetector selectivity_detector;

    int64_t ImageBytes() const {
      return static_cast<int64_t>(cpu_image.size() + io_image.size() +
                                  selectivity_image.size());
    }
  };

  // Open-addressing (linear probing) index from UDF to resident entry.
  // Readers probe it without any lock; writers (registration, reload,
  // eviction, growth) are serialized by entries_mutex_. A key, once
  // inserted, is never removed or moved within its table: eviction leaves
  // a tombstone (key kept, entry cleared) that a reload fills again. Load
  // factor stays at most 1/2, so every probe sequence reaches an empty
  // slot.
  struct IndexSlot {
    std::atomic<const CostedUdf*> udf{nullptr};
    std::atomic<Entry*> entry{nullptr};
  };
  struct IndexTable {
    explicit IndexTable(size_t capacity);
    size_t capacity() const { return mask + 1; }
    // The slot holding `udf`, or the empty slot that ends its probe
    // sequence (which a concurrent writer may fill at any moment).
    IndexSlot& Probe(const CostedUdf* udf) const;

    const size_t mask;  // capacity - 1; capacity is a power of two.
    const std::unique_ptr<IndexSlot[]> slots;
  };

  // Lock-free probe of the published table: the resident entry, or
  // nullptr for an unknown or evicted UDF.
  Entry* Lookup(const CostedUdf* udf) const;

  // Points `udf`'s index slots (in the published table and in every
  // retired table that holds the key) at `entry` (nullptr = evicted),
  // inserting the key — and doubling the table first when it would pass
  // half full — if it is new. Caller holds entries_mutex_ in the
  // concurrent modes.
  void PublishLocked(const CostedUdf* udf, Entry* entry);

  // Wraps a freshly configured MLQ model according to concurrency_.
  std::unique_ptr<CostModel> MakeModel(const Box& space, int64_t beta);

  // Rebuilds one model from a serialized tree image (reload path); null on
  // malformed input. Caller holds entries_mutex_ in the concurrent modes.
  std::unique_ptr<CostModel> MakeModelFromImage(
      const std::vector<uint8_t>& image, int dims);

  // The bare quadtree model behind `model` under concurrency_ (the catalog
  // built every model, so the wrapping is known). Null in kSharded mode.
  const MlqModel* BareModel(const CostModel* model) const;

  // Miss path of For(udf, tenant): re-probes the index, then reloads or
  // registers the entry and publishes it. Caller holds entries_mutex_ in
  // the concurrent modes.
  Entry& ForLocked(CostedUdf* udf, std::string_view tenant);

  // Folds one execution outcome into the entry's windowed EWMAs and feeds
  // the drift detectors. Takes entry.windowed_mutex; returns the worst
  // drift classification this outcome triggered.
  DriftKind UpdateWindowed(Entry& entry, const UdfCost& cost, bool passed);

  // Cross-check input for the stats predictors: how far the entry's fast
  // and slow windowed-actual cost EWMAs disagree (in micros), or 0 when
  // the windows agree / lack support. Takes entry.windowed_mutex briefly;
  // the batch predictors read it once per batch, not per point.
  double WindowedCostDisagreement(const Entry& entry) const;

  // Forwards a non-kNone detector verdict to the registered scheduler.
  // Must be called with no catalog or entry lock held.
  void NotifyDriftDetected(DriftKind kind);

  // ArenaForDims body with entries_mutex_ already held (concurrent modes).
  std::shared_ptr<SharedNodeArena>& ArenaForDimsLocked(int dims);

  // Flushes one entry's three models (any queued feedback applied inline).
  static void FlushEntry(Entry& entry);

  // Marks a maintenance epoch / feedback flush as running for the guarded
  // scope so MaintenanceTick() backs off instead of re-entering
  // entries_mutex_ from inside one.
  class BusyScope;

  int64_t memory_limit_bytes_;
  CatalogConcurrency concurrency_;
  int num_shards_;
  // Summary half-life applied to models created from now on (guarded by
  // entries_mutex_ in the concurrent modes, like entries_).
  double model_decay_half_life_ = 0.0;
  // Serializes, in the concurrent modes, every writer of the catalog's
  // structure: index writers (registration, reload, eviction, growth),
  // entries_, evicted_, arenas_, model_decay_half_life_ and each
  // Entry::budget_bytes; plus the whole-catalog walks (maintenance
  // epochs, decay, health and signal reads, flushes), so no entry appears
  // or disappears under them. Lookups that hit the index do not take it.
  // The models themselves carry their own synchronization.
  mutable std::mutex entries_mutex_;
  // Resident entries in registration order (a reload re-appends).
  std::vector<std::unique_ptr<Entry>> entries_;
  // The table readers probe. Acquire-loaded by readers; release-stored by
  // the writer that grows the index.
  std::atomic<IndexTable*> index_;
  // Every table the index has used, the published one last. A grown-out
  // table stays allocated until the catalog is destroyed, so a reader
  // still probing it never touches freed memory; capacities double, so
  // the retired tables together are smaller than the live one.
  std::vector<std::unique_ptr<IndexTable>> index_tables_;
  // Keys (resident plus tombstoned UDFs) in the published table.
  size_t index_keys_ = 0;
  // Snapshot store for governor-evicted entries (guarded by entries_mutex_
  // in the concurrent modes). In-memory: the serialized images ARE the
  // catalog-persistence format, so spilling them to files is a plain
  // write; the store keeps the round-trip testable without filesystem
  // dependencies.
  std::map<const CostedUdf*, EvictedEntry> evicted_;
  // One shared arena per node fanout (= 2^dims): every model whose space
  // has the same dimensionality draws physical slabs from the same arena,
  // while each tree keeps its own logical byte budget.
  std::map<int, std::shared_ptr<SharedNodeArena>> arenas_;
  // Scheduler MaintenanceTick() forwards to; nullptr when none registered.
  std::atomic<MaintenanceScheduler*> scheduler_{nullptr};
  // > 0 while a maintenance epoch or feedback flush is in flight anywhere;
  // MaintenanceTick() treats that as "not a safe point" and returns.
  std::atomic<int> maintenance_busy_{0};
};

}  // namespace mlq

#endif  // MLQ_ENGINE_COST_CATALOG_H_
