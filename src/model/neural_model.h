#ifndef MLQ_MODEL_NEURAL_MODEL_H_
#define MLQ_MODEL_NEURAL_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "model/cost_model.h"

namespace mlq {

// Curve-fitting baseline: a small multi-layer perceptron trained online.
//
// The paper cites Boulos et al.'s neural-network approach to UDF cost
// estimation as the only other automated method, and declines to compare
// against it ("complex to implement and very slow to train"). We implement
// it anyway — adapted to the self-tuning setting by training incrementally
// with stochastic gradient descent on each feedback observation — so the
// repository can quantify that trade-off (bench/ablation_baselines).
//
// Architecture: inputs scaled to [0, 1] per dimension, one tanh hidden
// layer, linear output; targets are standardized online by the running
// mean/stddev of observed costs. The hidden width is chosen as the largest
// that fits the same byte budget as the other models (8 bytes per weight),
// so comparisons are at equal memory.
class NeuralCostModel : public CostModel {
 public:
  struct Options {
    double learning_rate = 0.05;
    // Multiplied into the step size as 1 / (1 + decay * t).
    double learning_rate_decay = 1e-4;
    uint64_t seed = 13;
    // SGD passes per Observe call.
    int steps_per_observation = 1;
  };

  NeuralCostModel(const Box& space, int64_t memory_limit_bytes);
  NeuralCostModel(const Box& space, int64_t memory_limit_bytes,
                  const Options& options);

  std::string_view name() const override { return "NN"; }
  // The MLP keeps no local second moment, so the global online target
  // stddev serves as a coarse, uniform uncertainty; count is the total
  // observations the net has trained on.
  CostEstimate PredictStats(const Point& point) const override;
  void Observe(const Point& point, double actual_cost) override;
  int64_t MemoryBytes() const override;
  bool IsSelfTuning() const override { return true; }
  ModelUpdateBreakdown update_breakdown() const override { return breakdown_; }

  int hidden_units() const { return hidden_; }
  int64_t observations() const { return observations_; }

 private:
  // Scales `point` into the unit cube.
  void Normalize(const Point& point, std::vector<double>* out) const;
  // Forward pass; fills the hidden activations and returns the raw
  // (standardized) output.
  double Forward(const std::vector<double>& input,
                 std::vector<double>* hidden_activations) const;

  Box space_;
  Options options_;
  int inputs_;
  int hidden_;

  // Parameters: w1_[h * inputs_ + i], b1_[h], w2_[h], b2_.
  std::vector<double> w1_;
  std::vector<double> b1_;
  std::vector<double> w2_;
  double b2_ = 0.0;

  // Online target standardization.
  double target_mean_ = 0.0;
  double target_m2_ = 0.0;
  int64_t observations_ = 0;

  ModelUpdateBreakdown breakdown_;
};

}  // namespace mlq

#endif  // MLQ_MODEL_NEURAL_MODEL_H_
