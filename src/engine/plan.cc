#include "engine/plan.h"

#include <algorithm>

namespace trap::engine {

void PlanNode::AddChild(std::unique_ptr<PlanNode> child) {
  height = std::max(height, child->height + 1);
  children.push_back(std::move(child));
}

void CollectNodes(const PlanNode& root, std::vector<const PlanNode*>* out) {
  out->push_back(&root);
  for (const auto& c : root.children) CollectNodes(*c, out);
}

}  // namespace trap::engine
