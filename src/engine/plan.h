#ifndef TRAP_ENGINE_PLAN_H_
#define TRAP_ENGINE_PLAN_H_

#include <memory>
#include <vector>

#include "catalog/schema.h"
#include "engine/index.h"

namespace trap::engine {

// Physical operator types. This enumeration is the `L` axis of the learned
// utility model's 4xL feature matrix (Fig. 4 of the paper).
enum class PlanNodeType {
  kSeqScan = 0,
  kIndexScan,
  kIndexOnlyScan,
  kHashJoin,
  kIndexNestedLoopJoin,
  kSort,
  kHashAggregate,
  kResult,  // trivial projection root for completeness
};
constexpr int kNumPlanNodeTypes = 8;

// A node of a physical query plan. `cost` is the node's *total* (cumulative)
// cost including its subtree, matching the statistics the paper extracts
// ("Cost", "Cardinality", "Height" per node).
struct PlanNode {
  PlanNodeType type = PlanNodeType::kSeqScan;
  double cost = 0.0;         // cumulative estimated cost
  double cardinality = 0.0;  // estimated output rows
  int height = 1;            // leaves have height 1
  int table = -1;            // base table for scan nodes, else -1
  const Index* index = nullptr;  // index used by Index*Scan / INLJ inner
  std::vector<std::unique_ptr<PlanNode>> children;

  // Adds a child and updates this node's height.
  void AddChild(std::unique_ptr<PlanNode> child);
};

// Depth-first collection of all nodes (pre-order).
void CollectNodes(const PlanNode& root, std::vector<const PlanNode*>* out);

}  // namespace trap::engine

#endif  // TRAP_ENGINE_PLAN_H_
