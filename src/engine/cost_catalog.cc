#include "engine/cost_catalog.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "common/hash.h"
#include "common/timer.h"
#include "engine/maintenance_scheduler.h"
#include "model/concurrent_model.h"
#include "model/mlq_model.h"
#include "model/serialization.h"
#include "model/sharded_model.h"
#include "obs/obs.h"

namespace mlq {
namespace {

// The paper's tuning (Section 5.1) with the beta appropriate to what the
// model predicts: 1 for deterministic CPU costs, 10 for cache-noisy IO
// costs, 5 for Bernoulli-noisy pass outcomes.
MlqConfig CatalogModelConfig(int64_t memory_limit_bytes, int64_t beta) {
  MlqConfig config;
  config.strategy = InsertionStrategy::kLazy;
  config.max_depth = 6;
  config.alpha = 0.05;
  config.gamma = 0.001;
  config.beta = beta;
  config.memory_limit_bytes = memory_limit_bytes;
  return config;
}

// Index slots in a fresh catalog: room for 32 UDFs before the first
// doubling.
constexpr size_t kInitialIndexCapacity = 64;

}  // namespace

// RAII marker for "a maintenance epoch or feedback flush is running".
// MaintenanceTick() checks the counter and backs off, which (a) prevents a
// sharded model's post-drain hook — fired while an epoch's flush drains its
// queues — from re-entering entries_mutex_, and (b) keeps other threads'
// ticks from piling onto an epoch already in flight.
class CostCatalog::BusyScope {
 public:
  explicit BusyScope(CostCatalog& catalog) : catalog_(catalog) {
    catalog_.maintenance_busy_.fetch_add(1, std::memory_order_relaxed);
  }
  ~BusyScope() {
    catalog_.maintenance_busy_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  CostCatalog& catalog_;
};

CostCatalog::CostCatalog(int64_t memory_limit_bytes,
                         CatalogConcurrency concurrency, int num_shards)
    : memory_limit_bytes_(memory_limit_bytes),
      concurrency_(concurrency),
      num_shards_(std::max(num_shards, 1)) {
  index_tables_.push_back(std::make_unique<IndexTable>(kInitialIndexCapacity));
  index_.store(index_tables_.back().get(), std::memory_order_release);
}

CostCatalog::IndexTable::IndexTable(size_t capacity)
    : mask(capacity - 1), slots(std::make_unique<IndexSlot[]>(capacity)) {
  assert(capacity > 0 && (capacity & mask) == 0);
}

CostCatalog::IndexSlot& CostCatalog::IndexTable::Probe(
    const CostedUdf* udf) const {
  for (size_t i = Mix64(reinterpret_cast<uintptr_t>(udf)) & mask;;
       i = (i + 1) & mask) {
    const CostedUdf* key = slots[i].udf.load(std::memory_order_acquire);
    if (key == udf || key == nullptr) return slots[i];
  }
}

CostCatalog::Entry* CostCatalog::Lookup(const CostedUdf* udf) const {
  // Acquire pairs with PublishLocked's release stores: a reader that sees
  // a table sees every slot copied into it, and a reader that sees a key
  // or entry pointer sees the fully built entry behind it.
  const IndexSlot& slot = index_.load(std::memory_order_acquire)->Probe(udf);
  // Re-read the key: the probe may have ended on an empty slot that a
  // writer has since filled, possibly with another UDF.
  if (slot.udf.load(std::memory_order_acquire) != udf) return nullptr;
  return slot.entry.load(std::memory_order_acquire);
}

void CostCatalog::PublishLocked(const CostedUdf* udf, Entry* entry) {
  IndexTable* table = index_.load(std::memory_order_relaxed);
  IndexSlot* slot = &table->Probe(udf);
  if (slot->udf.load(std::memory_order_relaxed) == udf) {
    // Evict or reload. Retired tables that hold the key get the new
    // pointer too: a reader still probing one must not return an entry
    // after eviction has freed it.
    for (const auto& t : index_tables_) {
      IndexSlot& s = t->Probe(udf);
      if (s.udf.load(std::memory_order_relaxed) == udf) {
        s.entry.store(entry, std::memory_order_release);
      }
    }
    return;
  }
  assert(entry != nullptr);  // Only an indexed UDF is ever evicted.
  if (2 * (index_keys_ + 1) > table->capacity()) {
    // Double, copying every key (tombstones included), and publish the new
    // table only once it is complete. Readers still probing the old table
    // may miss keys added from now on; For() re-probes under the lock.
    auto grown = std::make_unique<IndexTable>(2 * table->capacity());
    for (size_t i = 0; i < table->capacity(); ++i) {
      const IndexSlot& from = table->slots[i];
      const CostedUdf* key = from.udf.load(std::memory_order_relaxed);
      if (key == nullptr) continue;
      IndexSlot& to = grown->Probe(key);
      to.entry.store(from.entry.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      to.udf.store(key, std::memory_order_relaxed);
    }
    table = grown.get();
    index_tables_.push_back(std::move(grown));
    index_.store(table, std::memory_order_release);
    slot = &table->Probe(udf);
  }
  slot->entry.store(entry, std::memory_order_relaxed);
  slot->udf.store(udf, std::memory_order_release);
  ++index_keys_;
}

std::unique_ptr<CostModel> CostCatalog::MakeModel(const Box& space,
                                                  int64_t beta) {
  MlqConfig config = CatalogModelConfig(memory_limit_bytes_, beta);
  config.decay_half_life = model_decay_half_life_;
  std::shared_ptr<SharedNodeArena> arena = ArenaForDimsLocked(space.dims());
  switch (concurrency_) {
    case CatalogConcurrency::kSingleThread:
      return std::make_unique<MlqModel>(space, config, std::move(arena));
    case CatalogConcurrency::kGlobalMutex:
      return std::make_unique<ConcurrentCostModel>(
          std::make_unique<MlqModel>(space, config, std::move(arena)));
    case CatalogConcurrency::kSharded: {
      ShardedModelOptions options;
      options.num_shards = num_shards_;
      options.arena = std::move(arena);
      // Every completed feedback drain is a safe point for autonomous
      // arena maintenance. The hook fires with no shard lock held and
      // never from Flush(), so epochs (which flush) cannot recurse; it is
      // safe for the catalog's whole life because ~ShardedCostModel only
      // flushes. MaintenanceTick additionally backs off while an epoch or
      // FlushFeedback is already on the stack.
      options.post_drain_hook = [this] { MaintenanceTick(); };
      return std::make_unique<ShardedCostModel>(space, config, options);
    }
  }
  return nullptr;  // Unreachable.
}

std::unique_ptr<CostModel> CostCatalog::MakeModelFromImage(
    const std::vector<uint8_t>& image, int dims) {
  std::string error;
  std::unique_ptr<MemoryLimitedQuadtree> tree =
      DeserializeQuadtree(image, ArenaForDimsLocked(dims), &error);
  if (tree == nullptr) return nullptr;
  auto model = std::make_unique<MlqModel>(std::move(tree));
  switch (concurrency_) {
    case CatalogConcurrency::kSingleThread:
      return model;
    case CatalogConcurrency::kGlobalMutex:
      return std::make_unique<ConcurrentCostModel>(std::move(model));
    case CatalogConcurrency::kSharded:
      // Sharded entries are never evicted (EvictEntry refuses), so there
      // is nothing to reload.
      return nullptr;
  }
  return nullptr;  // Unreachable.
}

const MlqModel* CostCatalog::BareModel(const CostModel* model) const {
  switch (concurrency_) {
    case CatalogConcurrency::kSingleThread:
      return static_cast<const MlqModel*>(model);
    case CatalogConcurrency::kGlobalMutex:
      return static_cast<const MlqModel*>(
          &const_cast<ConcurrentCostModel*>(
               static_cast<const ConcurrentCostModel*>(model))
               ->inner());
    case CatalogConcurrency::kSharded:
      return nullptr;
  }
  return nullptr;  // Unreachable.
}

std::shared_ptr<SharedNodeArena>& CostCatalog::ArenaForDimsLocked(int dims) {
  const int fanout = 1 << dims;
  std::shared_ptr<SharedNodeArena>& arena = arenas_[fanout];
  if (arena == nullptr) arena = std::make_shared<SharedNodeArena>(fanout);
  return arena;
}

std::shared_ptr<SharedNodeArena> CostCatalog::ArenaForDims(int dims) {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  return ArenaForDimsLocked(dims);
}

CostCatalog::Entry& CostCatalog::For(CostedUdf* udf) {
  return For(udf, "default");
}

CostCatalog::Entry& CostCatalog::For(CostedUdf* udf, std::string_view tenant) {
  assert(udf != nullptr);
  if (Entry* entry = Lookup(udf)) return *entry;
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  return ForLocked(udf, tenant);
}

CostCatalog::Entry& CostCatalog::ForLocked(CostedUdf* udf,
                                           std::string_view tenant) {
  // Another thread may have registered or reloaded the UDF between the
  // caller's lock-free miss and taking the lock.
  if (Entry* entry = Lookup(udf)) return *entry;
  const Box space = udf->model_space();
  std::unique_ptr<Entry> entry;

  // Reload path: the governor evicted this UDF; rebuild its entry from the
  // serialized snapshot so predictions resume bit-identically.
  if (const auto it = evicted_.find(udf); it != evicted_.end()) {
    EvictedEntry& snap = it->second;
    auto cpu = MakeModelFromImage(snap.cpu_image, space.dims());
    auto io = MakeModelFromImage(snap.io_image, space.dims());
    auto sel = MakeModelFromImage(snap.selectivity_image, space.dims());
    // A malformed snapshot falls through to a fresh entry: serving
    // correctness beats preserving a corrupt image.
    if (cpu != nullptr && io != nullptr && sel != nullptr) {
      entry = std::make_unique<Entry>();
      entry->udf = udf;
      entry->tenant = std::move(snap.tenant);
      entry->cpu_model = std::move(cpu);
      entry->io_model = std::move(io);
      entry->selectivity_model = std::move(sel);
      entry->traffic.store(snap.traffic, std::memory_order_relaxed);
      entry->budget_bytes = snap.budget_bytes;
      entry->windowed = snap.windowed;
      entry->cost_detector = snap.cost_detector;
      entry->selectivity_detector = snap.selectivity_detector;
      if (obs::Enabled()) {
        obs::Core().governor_reloads.Inc();
        obs::GlobalEventLog().Append(obs::EventKind::kModelReload,
                                     udf->name(),
                                     static_cast<double>(snap.ImageBytes()));
      }
    }
    evicted_.erase(it);
  }

  if (entry == nullptr) {
    entry = std::make_unique<Entry>();
    entry->udf = udf;
    entry->tenant = std::string(tenant);
    entry->cpu_model = MakeModel(space, /*beta=*/1);
    entry->io_model = MakeModel(space, /*beta=*/10);
    entry->selectivity_model = MakeModel(space, /*beta=*/5);
    entry->budget_bytes = 3 * memory_limit_bytes_;
    obs::GlobalEventLog().Append(obs::EventKind::kModelLoad, udf->name(),
                                 static_cast<double>(memory_limit_bytes_));
  }
  Entry& resident = *entry;
  entries_.push_back(std::move(entry));
  PublishLocked(udf, &resident);
  return resident;
}

const CostCatalog::Entry* CostCatalog::Find(const CostedUdf* udf) const {
  return Lookup(udf);
}

void CostCatalog::RecordExecution(CostedUdf* udf, const Point& model_point,
                                  const UdfCost& cost, bool passed) {
  Entry& entry = For(udf);
  entry.cpu_model->Observe(model_point, cost.cpu_work);
  entry.io_model->Observe(model_point, cost.io_pages);
  entry.selectivity_model->Observe(model_point, passed ? 1.0 : 0.0);
  const DriftKind drift = UpdateWindowed(entry, cost, passed);
  if (obs::Enabled()) obs::Core().catalog_feedback.Inc();
  if (drift != DriftKind::kNone) NotifyDriftDetected(drift);
}

void CostCatalog::RecordExecutionBatch(
    CostedUdf* udf, std::span<const ExecutionRecord> records) {
  if (records.empty()) return;
  Entry& entry = For(udf);
  // Three parallel observation vectors, one per model; insert order within
  // each model matches a RecordExecution loop exactly.
  std::vector<Observation> cpu;
  std::vector<Observation> io;
  std::vector<Observation> selectivity;
  cpu.reserve(records.size());
  io.reserve(records.size());
  selectivity.reserve(records.size());
  for (const ExecutionRecord& r : records) {
    cpu.push_back({r.model_point, r.cost.cpu_work});
    io.push_back({r.model_point, r.cost.io_pages});
    selectivity.push_back({r.model_point, r.passed ? 1.0 : 0.0});
  }
  entry.cpu_model->ObserveBatch(cpu);
  entry.io_model->ObserveBatch(io);
  entry.selectivity_model->ObserveBatch(selectivity);
  // Fold the windowed EWMAs in record order; keep only the worst verdict
  // and notify once per batch, after every entry lock is released.
  DriftKind worst = DriftKind::kNone;
  for (const ExecutionRecord& r : records) {
    const DriftKind drift = UpdateWindowed(entry, r.cost, r.passed);
    if (static_cast<int>(drift) > static_cast<int>(worst)) worst = drift;
  }
  if (obs::Enabled()) {
    obs::Core().catalog_feedback.Inc(static_cast<int64_t>(records.size()));
  }
  if (worst != DriftKind::kNone) NotifyDriftDetected(worst);
}

CostCatalog::WindowedActuals CostCatalog::ReadWindowedActuals(
    const CostedUdf* udf) const {
  const Entry* entry = Find(udf);
  if (entry == nullptr) return {};
  std::lock_guard<std::mutex> lock(entry->windowed_mutex);
  return entry->windowed;
}

DriftKind CostCatalog::UpdateWindowed(Entry& entry, const UdfCost& cost,
                                      bool passed) {
  const double cost_micros = cost.cpu_work * kMicrosPerWorkUnit +
                             cost.io_pages * kMicrosPerPageMiss;
  const double selectivity = passed ? 1.0 : 0.0;
  std::lock_guard<std::mutex> lock(entry.windowed_mutex);
  WindowedActuals& w = entry.windowed;
  // The detectors judge each sample against the PRE-update slow baseline:
  // once the baseline has folded the sample in, a step change would be
  // partially absorbed before it is measured.
  DriftKind cost_drift = DriftKind::kNone;
  DriftKind selectivity_drift = DriftKind::kNone;
  if (w.observations == 0) {
    w.fast_cost_micros = w.slow_cost_micros = cost_micros;
    w.fast_selectivity = w.slow_selectivity = selectivity;
  } else {
    cost_drift = entry.cost_detector.Observe(w.slow_cost_micros, cost_micros);
    // Pass outcomes are 0/1 Bernoulli samples: a relative error against a 0
    // sample explodes, so the selectivity detector judges the absolute
    // deviation from the baseline pass rate (already in [0, 1]).
    selectivity_drift = entry.selectivity_detector.ObserveError(
        std::abs(w.slow_selectivity - selectivity));
    if (cost_drift != DriftKind::kNone) {
      obs::GlobalEventLog().Append(
          obs::EventKind::kDriftFired, entry.udf->name(),
          static_cast<double>(cost_drift),
          entry.cost_detector.last_fire_ratio(),
          static_cast<double>(entry.cost_detector.observations()));
    }
    if (selectivity_drift != DriftKind::kNone) {
      obs::GlobalEventLog().Append(
          obs::EventKind::kDriftFired, entry.udf->name(),
          static_cast<double>(selectivity_drift),
          entry.selectivity_detector.last_fire_ratio(),
          static_cast<double>(entry.selectivity_detector.observations()));
    }
    w.fast_cost_micros += kFastAlpha * (cost_micros - w.fast_cost_micros);
    w.slow_cost_micros += kSlowAlpha * (cost_micros - w.slow_cost_micros);
    w.fast_selectivity += kFastAlpha * (selectivity - w.fast_selectivity);
    w.slow_selectivity += kSlowAlpha * (selectivity - w.slow_selectivity);
  }
  ++w.observations;
  return static_cast<int>(cost_drift) > static_cast<int>(selectivity_drift)
             ? cost_drift
             : selectivity_drift;
}

void CostCatalog::NotifyDriftDetected(DriftKind kind) {
  MaintenanceScheduler* scheduler = scheduler_.load(std::memory_order_acquire);
  if (scheduler != nullptr) scheduler->NotifyDrift(kind);
}

void CostCatalog::SetModelDecayHalfLife(double half_life) {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  model_decay_half_life_ = half_life > 0.0 ? half_life : 0.0;
}

double CostCatalog::model_decay_half_life() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  return model_decay_half_life_;
}

void CostCatalog::AdvanceDecayEpochs(int64_t epochs) {
  if (epochs <= 0) return;
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  // Same lock order as the compaction epochs: entries_mutex_, then each
  // model's own synchronization (inside AdvanceDecayEpoch).
  for (auto& entry : entries_) {
    entry->cpu_model->AdvanceDecayEpoch(epochs);
    entry->io_model->AdvanceDecayEpoch(epochs);
    entry->selectivity_model->AdvanceDecayEpoch(epochs);
  }
  obs::GlobalEventLog().Append(obs::EventKind::kDecayEpochs, "catalog",
                               static_cast<double>(epochs));
}

double CostCatalog::MaxModelStaleness() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  double staleness = 1.0;
  for (const auto& entry : entries_) {
    std::lock_guard<std::mutex> windowed_lock(entry->windowed_mutex);
    staleness = std::max(staleness, entry->cost_detector.staleness());
    staleness = std::max(staleness, entry->selectivity_detector.staleness());
  }
  return staleness;
}

namespace {

// Combines independent CPU and IO predictions into one micros-denominated
// estimate: value matches PredictCostMicros bit for bit; the stddev of a
// sum of independently scaled estimates is the root-sum-square of the
// scaled stddevs; support is the weaker of the two.
CostEstimate CombineCostStats(const CostEstimate& cpu,
                              const CostEstimate& io) {
  CostEstimate e;
  e.value = cpu.value * kMicrosPerWorkUnit + io.value * kMicrosPerPageMiss;
  const double cs = cpu.stddev * kMicrosPerWorkUnit;
  const double is = io.stddev * kMicrosPerPageMiss;
  e.stddev = std::sqrt(cs * cs + is * is);
  e.count = std::min(cpu.count, io.count);
  e.reliable = cpu.reliable && io.reliable;
  return e;
}

// The selectivity fallback and clamp, shared by every selectivity
// predictor: an unknown UDF answers the max-uncertainty prior (0.5 +/-
// 0.5, unsupported); otherwise the value is clamped to [0.01, 1] so plan
// cost formulas stay finite.
CostEstimate SelectivityStats(CostEstimate p) {
  if (!p.reliable && p.count == 0) return CostEstimate{0.5, 0.5, 0, false};
  p.value = std::clamp(p.value, 0.01, 1.0);
  return p;
}

// mlq_predict_stddev sample, in milli-units so sub-micro uncertainty does
// not all collapse into the 0 bucket of the log2 histogram.
void RecordStddevObs(const CostEstimate& e) {
  obs::Core().predict_stddev.Record(
      static_cast<int64_t>(std::llround(e.stddev * 1000.0)));
}

}  // namespace

double CostCatalog::PredictCostMicros(CostedUdf* udf,
                                      const Point& model_point) {
  Entry& entry = For(udf);
  entry.traffic.fetch_add(1, std::memory_order_relaxed);
  return entry.cpu_model->Predict(model_point) * kMicrosPerWorkUnit +
         entry.io_model->Predict(model_point) * kMicrosPerPageMiss;
}

double CostCatalog::PredictSelectivity(CostedUdf* udf,
                                       const Point& model_point) {
  Entry& entry = For(udf);
  entry.traffic.fetch_add(1, std::memory_order_relaxed);
  return SelectivityStats(entry.selectivity_model->PredictStats(model_point))
      .value;
}

void CostCatalog::PredictCostMicrosBatch(CostedUdf* udf,
                                         std::span<const Point> model_points,
                                         std::span<double> out) {
  assert(model_points.size() == out.size());
  if (model_points.empty()) return;
  Entry& entry = For(udf);
  entry.traffic.fetch_add(static_cast<int64_t>(model_points.size()),
                          std::memory_order_relaxed);
  std::vector<CostEstimate> cpu(model_points.size());
  std::vector<CostEstimate> io(model_points.size());
  entry.cpu_model->PredictBatch(model_points, cpu);
  entry.io_model->PredictBatch(model_points, io);
  for (size_t i = 0; i < model_points.size(); ++i) {
    out[i] = cpu[i].value * kMicrosPerWorkUnit +
             io[i].value * kMicrosPerPageMiss;
  }
}

void CostCatalog::PredictSelectivityBatch(CostedUdf* udf,
                                          std::span<const Point> model_points,
                                          std::span<double> out) {
  assert(model_points.size() == out.size());
  std::vector<CostEstimate> stats(model_points.size());
  PredictSelectivityStatsBatch(udf, model_points, stats);
  for (size_t i = 0; i < stats.size(); ++i) out[i] = stats[i].value;
}

// Windowed-actuals cross-check: estimates come from the models, but the
// entry's fast/slow EWMAs track what executions actually did. When those
// two horizons disagree by more than kWindowDisagreement the workload is
// moving faster than the model converges, so the in-node variance
// understates true uncertainty: the stats predictors fold the returned
// disagreement into the stddev (root-sum-square, treating it as an
// independent error source) and drop the reliable bit. A handful of
// observations prove nothing, so the check arms only past
// kMinWindowObservations.
double CostCatalog::WindowedCostDisagreement(const Entry& entry) const {
  constexpr int64_t kMinWindowObservations = 8;
  constexpr double kWindowDisagreement = 1.5;
  double fast = 0.0;
  double slow = 0.0;
  {
    std::lock_guard<std::mutex> lock(entry.windowed_mutex);
    if (entry.windowed.observations < kMinWindowObservations) return 0.0;
    fast = entry.windowed.fast_cost_micros;
    slow = entry.windowed.slow_cost_micros;
  }
  const double lo = std::min(fast, slow);
  const double hi = std::max(fast, slow);
  if (lo <= 0.0 || hi / lo <= kWindowDisagreement) return 0.0;
  return hi - lo;
}

void CostCatalog::PredictCostStatsBatch(CostedUdf* udf,
                                        std::span<const Point> model_points,
                                        std::span<CostEstimate> out) {
  assert(model_points.size() == out.size());
  if (model_points.empty()) return;
  Entry& entry = For(udf);
  entry.traffic.fetch_add(static_cast<int64_t>(model_points.size()),
                          std::memory_order_relaxed);
  std::vector<CostEstimate> cpu(model_points.size());
  std::vector<CostEstimate> io(model_points.size());
  entry.cpu_model->PredictBatch(model_points, cpu);
  entry.io_model->PredictBatch(model_points, io);
  const bool obs_on = obs::Enabled();
  const double disagreement = WindowedCostDisagreement(entry);
  for (size_t i = 0; i < model_points.size(); ++i) {
    out[i] = CombineCostStats(cpu[i], io[i]);
    if (disagreement > 0.0) {
      out[i].stddev = std::sqrt(out[i].stddev * out[i].stddev +
                                disagreement * disagreement);
      out[i].reliable = false;
    }
    if (obs_on) RecordStddevObs(out[i]);
  }
}

void CostCatalog::PredictSelectivityStatsBatch(
    CostedUdf* udf, std::span<const Point> model_points,
    std::span<CostEstimate> out) {
  assert(model_points.size() == out.size());
  if (model_points.empty()) return;
  Entry& entry = For(udf);
  entry.traffic.fetch_add(static_cast<int64_t>(model_points.size()),
                          std::memory_order_relaxed);
  entry.selectivity_model->PredictBatch(model_points, out);
  for (CostEstimate& e : out) e = SelectivityStats(e);
}

void CostCatalog::FlushEntry(Entry& entry) {
  entry.cpu_model->Flush();
  entry.io_model->Flush();
  entry.selectivity_model->Flush();
}

void CostCatalog::FlushFeedback() {
  BusyScope busy(*this);
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  for (auto& entry : entries_) FlushEntry(*entry);
  obs::GlobalEventLog().Append(obs::EventKind::kModelFlush, "catalog",
                               static_cast<double>(entries_.size()));
}

CostCatalog::ArenaMaintenanceStats CostCatalog::CompactArenas() {
  BusyScope busy(*this);
  ArenaMaintenanceStats stats;
  // The whole epoch runs under entries_mutex_ so no new models (or arenas)
  // can appear mid-compaction. Per-entry feedback is flushed inline — NOT
  // via FlushFeedback(), which would re-take this mutex — so the trees are
  // quiescent before their node blocks move.
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  for (auto& entry : entries_) FlushEntry(*entry);
  // Take every model's maintenance lock(s) so no prediction or drain can
  // observe a node mid-move. Locks release together when `locks` dies.
  WallTimer pause;
  {
    std::vector<std::unique_lock<std::mutex>> locks;
    for (auto& entry : entries_) {
      for (auto* model :
           {entry->cpu_model.get(), entry->io_model.get(),
            entry->selectivity_model.get()}) {
        auto model_locks = model->LockForMaintenance();
        for (auto& l : model_locks) locks.push_back(std::move(l));
      }
    }
    for (auto& [fanout, arena] : arenas_) {
      const SharedNodeArena::CompactionStats c = arena->Compact();
      stats.physical_bytes_before += c.physical_bytes_before;
      stats.physical_bytes_after += c.physical_bytes_after;
      stats.bytes_reclaimed += c.bytes_reclaimed;
      stats.blocks_moved += c.blocks_moved;
      ++stats.arenas_compacted;
    }
  }
  const auto pause_us = static_cast<int64_t>(pause.ElapsedMicros());
  stats.steps = 1;
  stats.max_pause_us = pause_us;
  stats.total_pause_us = pause_us;
  if (obs::Enabled()) {
    obs::Core().maintenance_epochs.Inc();
    obs::Core().maintenance_steps.Inc();
    obs::Core().maintenance_pause_ns.Record(pause_us * 1000);
    double max_frag = 0.0;
    for (auto& [fanout, arena] : arenas_) {
      max_frag = std::max(max_frag, arena->FragmentationRatio());
    }
    obs::Core().arena_fragmentation.Set(max_frag);
    obs::GlobalEventLog().Append(obs::EventKind::kMaintenanceEpoch, "full",
                                 /*a=*/0.0, static_cast<double>(pause_us),
                                 static_cast<double>(stats.bytes_reclaimed));
  }
  return stats;
}

bool CostCatalog::CompactArenasStep(int64_t budget_slots,
                                    ArenaMaintenanceStats* stats) {
  BusyScope busy(*this);
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  // Flush before quiescing: queued feedback holds Points, not node
  // indices, but applying it now keeps the trees identical to what a
  // stop-the-world epoch would have produced at this instant.
  for (auto& entry : entries_) FlushEntry(*entry);
  WallTimer pause;
  bool all_done = true;
  double max_frag = 0.0;
  {
    std::vector<std::unique_lock<std::mutex>> locks;
    for (auto& entry : entries_) {
      for (auto* model :
           {entry->cpu_model.get(), entry->io_model.get(),
            entry->selectivity_model.get()}) {
        auto model_locks = model->LockForMaintenance();
        for (auto& l : model_locks) locks.push_back(std::move(l));
      }
    }
    for (auto& [fanout, arena] : arenas_) {
      const SharedNodeArena::CompactStepStats c =
          arena->CompactStep(budget_slots);
      stats->blocks_moved += c.blocks_moved;
      stats->bytes_reclaimed += c.bytes_reclaimed;
      all_done = all_done && c.done;
      max_frag = std::max(max_frag, arena->FragmentationRatio());
    }
    stats->arenas_compacted = static_cast<int>(arenas_.size());
  }
  const auto pause_us = static_cast<int64_t>(pause.ElapsedMicros());
  ++stats->steps;
  stats->max_pause_us = std::max(stats->max_pause_us, pause_us);
  stats->total_pause_us += pause_us;
  if (obs::Enabled()) {
    obs::Core().maintenance_steps.Inc();
    obs::Core().maintenance_pause_ns.Record(pause_us * 1000);
    obs::Core().arena_fragmentation.Set(max_frag);
  }
  return all_done;
}

CostCatalog::ArenaMaintenanceStats CostCatalog::CompactArenasIncremental(
    int64_t budget_slots) {
  ArenaMaintenanceStats stats;
  stats.physical_bytes_before = ArenaPhysicalBytes();
  // Every lock (entries_mutex_ and all model locks) is released between
  // steps, so predictions and feedback interleave with the epoch.
  while (!CompactArenasStep(budget_slots, &stats)) {
  }
  stats.physical_bytes_after = ArenaPhysicalBytes();
  if (obs::Enabled()) {
    obs::Core().maintenance_epochs.Inc();
    obs::GlobalEventLog().Append(
        obs::EventKind::kMaintenanceEpoch, "incremental", /*a=*/1.0,
        static_cast<double>(stats.total_pause_us),
        static_cast<double>(stats.bytes_reclaimed));
  }
  return stats;
}

CostCatalog::ArenaSignals CostCatalog::ReadArenaSignals() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  ArenaSignals signals;
  for (const auto& [fanout, arena] : arenas_) {
    signals.tree_compressions += arena->tree_compressions();
    signals.max_fragmentation =
        std::max(signals.max_fragmentation, arena->FragmentationRatio());
    signals.live_nodes +=
        static_cast<int64_t>(arena->slot_count()) - arena->free_count();
  }
  return signals;
}

std::vector<obs::ModelHealth> CostCatalog::ReadModelHealth() const {
  return ReadModelHealth(nullptr);
}

std::vector<obs::ModelHealth> CostCatalog::ReadModelHealth(
    std::vector<CostedUdf*>* udfs) const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  std::vector<obs::ModelHealth> out;
  out.reserve(entries_.size());
  if (udfs != nullptr) {
    udfs->clear();
    udfs->reserve(entries_.size());
  }
  for (const auto& entry : entries_) {
    obs::ModelHealth h;
    h.model = entry->udf->name();
    h.tenant = entry->tenant;
    h.traffic = entry->traffic.load(std::memory_order_relaxed);
    h.budget_bytes = entry->budget_bytes;
    // Same lock order as the compaction epochs: entries_mutex_, then the
    // models' own synchronization (inside MemoryBytes / NodeCount).
    for (const auto* model :
         {entry->cpu_model.get(), entry->io_model.get(),
          entry->selectivity_model.get()}) {
      h.bytes += model->MemoryBytes();
      h.nodes += model->NodeCount();
    }
    {
      std::lock_guard<std::mutex> windowed_lock(entry->windowed_mutex);
      h.observations = entry->windowed.observations;
      // Normalized deviation of the fast actual-cost window from the slow
      // baseline — bounded and zero-at-stability, unlike the detector's
      // raw relative-error EWMA, which explodes on near-zero actuals.
      const double slow = std::abs(entry->windowed.slow_cost_micros);
      h.windowed_nae =
          slow > 0.0 ? std::abs(entry->windowed.fast_cost_micros -
                                entry->windowed.slow_cost_micros) /
                           slow
                     : 0.0;
      h.staleness = std::max(entry->cost_detector.staleness(),
                             entry->selectivity_detector.staleness());
    }
    const auto arena_it = arenas_.find(1 << entry->udf->model_space().dims());
    if (arena_it != arenas_.end()) {
      h.fragmentation = arena_it->second->FragmentationRatio();
    }
    h.accuracy_per_byte =
        1.0 / ((1.0 + h.windowed_nae) *
               static_cast<double>(std::max<int64_t>(h.bytes, 1)));
    if (udfs != nullptr) udfs->push_back(entry->udf);
    out.push_back(std::move(h));
  }
  return out;
}

bool CostCatalog::SetEntryByteBudget(CostedUdf* udf, int64_t entry_bytes) {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  Entry* entry = Lookup(udf);
  if (entry == nullptr) return false;
  // Even three-way split; each model keeps at least the root's charge so
  // every budget is enforceable. Same lock order as the maintenance
  // epochs: entries_mutex_, then each model's own synchronization (inside
  // SetByteBudget).
  const int64_t per_model = std::max<int64_t>(entry_bytes / 3, kNodeBaseBytes);
  entry->cpu_model->SetByteBudget(per_model);
  entry->io_model->SetByteBudget(per_model);
  entry->selectivity_model->SetByteBudget(per_model);
  entry->budget_bytes = entry_bytes;
  return true;
}

bool CostCatalog::EvictEntry(CostedUdf* udf) {
  if (concurrency_ == CatalogConcurrency::kSharded) return false;
  BusyScope busy(*this);
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  Entry* const found = Lookup(udf);
  if (found == nullptr) return false;
  Entry& entry = *found;
  // Queued feedback (none in the evictable modes today, but Flush is the
  // documented quiesce step) must land in the trees before they are
  // imaged.
  FlushEntry(entry);
  EvictedEntry snap;
  snap.tenant = entry.tenant;
  snap.budget_bytes = entry.budget_bytes;
  snap.traffic = entry.traffic.load(std::memory_order_relaxed);
  snap.cpu_image = SerializeQuadtree(BareModel(entry.cpu_model.get())->tree());
  snap.io_image = SerializeQuadtree(BareModel(entry.io_model.get())->tree());
  snap.selectivity_image =
      SerializeQuadtree(BareModel(entry.selectivity_model.get())->tree());
  {
    std::lock_guard<std::mutex> windowed_lock(entry.windowed_mutex);
    snap.windowed = entry.windowed;
    snap.cost_detector = entry.cost_detector;
    snap.selectivity_detector = entry.selectivity_detector;
  }
  if (obs::Enabled()) {
    obs::Core().governor_evictions.Inc();
    obs::GlobalEventLog().Append(obs::EventKind::kModelEvict, udf->name(),
                                 static_cast<double>(snap.ImageBytes()),
                                 static_cast<double>(snap.traffic));
  }
  evicted_[udf] = std::move(snap);
  // Tombstone the index slot before the entry is destroyed.
  PublishLocked(udf, nullptr);
  entries_.erase(std::find_if(
      entries_.begin(), entries_.end(),
      [found](const std::unique_ptr<Entry>& e) { return e.get() == found; }));
  return true;
}

int CostCatalog::evicted_count() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  return static_cast<int>(evicted_.size());
}

int64_t CostCatalog::evicted_snapshot_bytes() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  int64_t total = 0;
  for (const auto& [udf, snap] : evicted_) total += snap.ImageBytes();
  return total;
}

void CostCatalog::MaintenanceTick() {
  if (maintenance_busy_.load(std::memory_order_relaxed) > 0) return;
  MaintenanceScheduler* scheduler = scheduler_.load(std::memory_order_acquire);
  if (scheduler != nullptr) scheduler->Tick();
}

void CostCatalog::SetMaintenanceScheduler(MaintenanceScheduler* scheduler) {
  scheduler_.store(scheduler, std::memory_order_release);
}

int64_t CostCatalog::ArenaPhysicalBytes() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  int64_t total = 0;
  for (const auto& [fanout, arena] : arenas_) {
    total += arena->PhysicalCapacityBytes();
  }
  return total;
}

int CostCatalog::size() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  return static_cast<int>(entries_.size());
}

}  // namespace mlq
