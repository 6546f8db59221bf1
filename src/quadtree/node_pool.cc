#include "quadtree/node_pool.h"

#include <cassert>

namespace mlq {

NodePool::NodePool(int fanout, std::shared_ptr<SharedNodeArena> arena)
    : arena_(std::move(arena)), fanout_(fanout), shared_(arena_ != nullptr) {
  // 2 <= fanout <= 2^kMaxTreeDims keeps every quadrant strictly below
  // kVacantSlot.
  assert(fanout_ >= 2 && fanout_ <= (1 << kMaxTreeDims));
  if (arena_ == nullptr) {
    arena_ = std::make_shared<SharedNodeArena>(fanout_);
  } else {
    assert(arena_->fanout() == fanout_ && "arena fanout must match the tree");
  }
}

NodeIndex NodePool::AllocateRoot() {
  const NodeIndex base = arena_->AllocateBlock();
  arena_->node(base).index_in_parent = 0;
  ++live_count_;
  arena_->NoteLiveDelta(1);
  return base;
}

NodeIndex NodePool::CreateChild(NodeIndex parent, int quadrant) {
  assert(Child(parent, quadrant) == kInvalidNodeIndex);
  NodeIndex base = arena_->node(parent).first_child;
  if (base == kInvalidNodeIndex) {
    base = arena_->AllocateBlock();
    arena_->node(parent).first_child = base;
  }
  const NodeIndex slot = base + static_cast<NodeIndex>(quadrant);
  PooledNode& child = arena_->node(slot);
  child.parent = parent;
  child.index_in_parent = static_cast<uint8_t>(quadrant);
  child.depth = static_cast<uint16_t>(arena_->node(parent).depth + 1);
  ++arena_->node(parent).num_children;
  ++live_count_;
  arena_->NoteLiveDelta(1);
  return slot;
}

void NodePool::RemoveLeafChild(NodeIndex parent, int quadrant) {
  const NodeIndex base = arena_->node(parent).first_child;
  assert(base != kInvalidNodeIndex);
  const NodeIndex slot = base + static_cast<NodeIndex>(quadrant);
  assert(arena_->node(slot).index_in_parent == quadrant);
  assert(arena_->node(slot).IsLeaf());
  MarkVacantSlot(arena_->node(slot));
  --arena_->node(parent).num_children;
  --live_count_;
  arena_->NoteLiveDelta(-1);
  if (arena_->node(parent).num_children == 0) {
    arena_->node(parent).first_child = kInvalidNodeIndex;
    arena_->ReleaseBlock(base);
  }
}

NodeIndex NodePool::AdoptChild(NodeIndex parent, int quadrant,
                               NodeIndex child) {
  assert(arena_->node(child).parent == kInvalidNodeIndex);
  assert(Child(parent, quadrant) == kInvalidNodeIndex);
  NodeIndex base = arena_->node(parent).first_child;
  if (base == kInvalidNodeIndex) {
    base = arena_->AllocateBlock();
    arena_->node(parent).first_child = base;
  }
  const NodeIndex slot = base + static_cast<NodeIndex>(quadrant);
  PooledNode& moved = arena_->node(slot);
  moved = arena_->node(child);
  moved.parent = parent;
  moved.index_in_parent = static_cast<uint8_t>(quadrant);
  ++arena_->node(parent).num_children;
  // Re-parent the moved node's children onto its new slot.
  if (moved.first_child != kInvalidNodeIndex) {
    const NodeIndex child_base = moved.first_child;
    for (int q = 0; q < fanout_; ++q) {
      PooledNode& grandchild = arena_->node(child_base + q);
      if (grandchild.index_in_parent == q) grandchild.parent = slot;
    }
  }
  // Vacate the old slot and recycle its block if that empties it. A
  // detached root sits at its block's slot 0; siblings may not exist, but
  // scan defensively.
  const NodeIndex old_base =
      child - static_cast<NodeIndex>(arena_->node(child).index_in_parent);
  MarkVacantSlot(arena_->node(child));
  bool block_empty = true;
  for (int q = 0; q < fanout_; ++q) {
    if (arena_->node(old_base + q).index_in_parent == q) {
      block_empty = false;
      break;
    }
  }
  if (block_empty) arena_->ReleaseBlock(old_base);
  return slot;
}

void NodePool::ReleaseTree(NodeIndex root) {
  const int64_t released = arena_->ReleaseTree(root);
  live_count_ -= released;
  assert(live_count_ == 0 && "ReleaseTree must cover the whole tree");
}

bool NodePool::CheckConsistency(std::string* error) const {
  if (!arena_->CheckConsistency(error)) return false;
  if (!shared_ && live_count_ != arena_->live_count()) {
    if (error != nullptr) {
      *error = "pool live count does not match its private arena";
    }
    return false;
  }
  if (shared_ && live_count_ > arena_->live_count()) {
    if (error != nullptr) {
      *error = "pool live count exceeds the shared arena total";
    }
    return false;
  }
  return true;
}

double NodeView::Sseg() const {
  assert(has_parent());
  const double diff = parent().summary().Avg() - summary().Avg();
  return static_cast<double>(summary().count) * diff * diff;
}

}  // namespace mlq
