#ifndef MLQ_MODEL_CONCURRENT_MODEL_H_
#define MLQ_MODEL_CONCURRENT_MODEL_H_

#include <memory>
#include <mutex>

#include "model/cost_model.h"
#include "obs/obs.h"

namespace mlq {

// Thread-safety decorator.
//
// Real optimizers plan queries concurrently while executors deliver
// feedback; the underlying models are deliberately single-threaded (the
// paper's setting, and the fast path stays lock-free when a model is owned
// by one session). Wrapping a model in ConcurrentCostModel serializes all
// access behind one mutex — correct and simple; predictions are ~100 ns,
// so a contended mutex still supports millions of operations per second.
class ConcurrentCostModel : public CostModel {
 public:
  explicit ConcurrentCostModel(std::unique_ptr<CostModel> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }

  CostEstimate PredictStats(const Point& point) const override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    return inner_->PredictStats(point);
  }

  // One lock acquisition for the whole batch: under contention this is the
  // main benefit of batching through the decorator.
  void PredictBatch(std::span<const Point> points,
                    std::span<CostEstimate> out) const override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    inner_->PredictBatch(points, out);
  }

  void Observe(const Point& point, double actual_cost) override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    inner_->Observe(point, actual_cost);
  }

  // The feedback twin of PredictBatch: one lock acquisition per batch.
  void ObserveBatch(std::span<const Observation> batch) override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    inner_->ObserveBatch(batch);
  }

  void AdvanceDecayEpoch(int64_t epochs) override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    inner_->AdvanceDecayEpoch(epochs);
  }

  // Budget re-targeting quiesces the model for the (possibly compressing)
  // resize, exactly like any other mutation.
  bool SetByteBudget(int64_t limit_bytes) override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    return inner_->SetByteBudget(limit_bytes);
  }

  std::vector<std::unique_lock<std::mutex>> LockForMaintenance() override {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.emplace_back(mutex_);
    return locks;
  }

  int64_t MemoryBytes() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->MemoryBytes();
  }

  int64_t NodeCount() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->NodeCount();
  }

  bool IsSelfTuning() const override { return inner_->IsSelfTuning(); }

  ModelUpdateBreakdown update_breakdown() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->update_breakdown();
  }

  // Access to the wrapped model for single-threaded phases (no locking;
  // callers must guarantee exclusivity).
  CostModel& inner() { return *inner_; }

 private:
  // Acquires mutex_ and, when observability is on, records the time spent
  // blocked on it. Returning adopt_lock lets the public methods keep their
  // one-line lock_guard shape with zero cost when observability is off.
  std::adopt_lock_t LockTimed() const {
    if (obs::Enabled()) {
      const int64_t t0 = obs::NowNs();
      mutex_.lock();
      obs::Core().lock_wait_ns.Record(obs::NowNs() - t0);
    } else {
      mutex_.lock();
    }
    return std::adopt_lock;
  }

  mutable std::mutex mutex_;
  std::unique_ptr<CostModel> inner_;
};

}  // namespace mlq

#endif  // MLQ_MODEL_CONCURRENT_MODEL_H_
