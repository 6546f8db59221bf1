#include "model/mlq_model.h"

#include <cassert>

namespace mlq {
namespace {

std::string NameFor(InsertionStrategy strategy) {
  return strategy == InsertionStrategy::kEager ? "MLQ-E" : "MLQ-L";
}

}  // namespace

MlqModel::MlqModel(const Box& space, const MlqConfig& config)
    : MlqModel(space, config, nullptr) {}

MlqModel::MlqModel(const Box& space, const MlqConfig& config,
                   std::shared_ptr<SharedNodeArena> arena)
    : tree_(std::make_unique<MemoryLimitedQuadtree>(space, config,
                                                    std::move(arena))),
      name_(NameFor(config.strategy)) {}

MlqModel::MlqModel(std::unique_ptr<MemoryLimitedQuadtree> tree)
    : tree_(std::move(tree)) {
  assert(tree_ != nullptr);
  name_ = NameFor(tree_->config().strategy);
}

void MlqModel::Observe(const Point& point, double actual_cost) {
  tree_->Insert(point, actual_cost);
}

ModelUpdateBreakdown MlqModel::update_breakdown() const {
  const QuadtreeCounters& counters = tree_->counters();
  ModelUpdateBreakdown breakdown;
  breakdown.insert_seconds = counters.insert_seconds;
  breakdown.compress_seconds = counters.compress_seconds;
  breakdown.insertions = counters.insertions;
  breakdown.compressions = counters.compressions;
  return breakdown;
}

}  // namespace mlq
