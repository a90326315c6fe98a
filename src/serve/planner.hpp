#pragma once
// Driver planner for the mining service (DESIGN.md §14): when a request
// does not pin an algorithm, pick one from the dataset's shape statistics
// and the requested threshold. The decision space mirrors the degradation
// ladder's rungs:
//
//   * GPApriori, tiled       — the default: dense/moderate data where the
//                              equivalence-class tiled kernel amortizes the
//                              shared prefix AND;
//   * GPApriori, untiled     — "static" counting for degenerate shapes
//                              (tiny frequent-1 set) where sibling groups
//                              collapse to singletons and tiling only adds
//                              dispatch overhead;
//   * GPApriori (partitioned) — when the estimated level-1 bitset would
//                              crowd the device arena, stream transaction
//                              partitions instead of risking the OOM rung.
//
// Sparse, wide shapes also take tiled GPApriori. GPU Eclat's DFS keeps the
// candidate front narrow, but its class kernel has no native execution
// tier: on T40 at scale 0.1 and 1% support it took 26.5 s of wall time
// (267 ms modelled device) against GPApriori's 1.2 s (13.5 ms).
//
// The planner only chooses among drivers that produce byte-identical
// itemsets (cross-miner equivalence is a repo-wide test invariant), so a
// planning mistake costs wall-time, never correctness.

#include <string>

#include "core/config.hpp"
#include "fim/dataset_stats.hpp"

namespace serve {

struct PlanDecision {
  std::string algo;    ///< miner registry name (gpapriori_cli list-algos)
  bool tiled = true;   ///< Config::tiled to apply when running it
  std::string reason;  ///< one-line human-readable justification
};

/// Tier availability handed down by the service's circuit breakers
/// (DESIGN.md §15): an open breaker takes its tier out of the rotation so
/// unpinned requests plan straight to a healthy one instead of
/// rediscovering the fault per request. CPU_TEST never touches the device
/// and is always available — constraining both device tiers away routes
/// there.
struct PlanConstraints {
  bool allow_static_device = true;  ///< GPApriori / GPU Eclat tier
  bool allow_partitioned = true;    ///< GPApriori (partitioned) tier
};

/// Picks a driver for mining `stats`-shaped data at `min_count`, under the
/// arena budget of `base` (Config supplies arena_bytes and device model).
[[nodiscard]] PlanDecision plan_driver(const fim::DatasetStats& stats,
                                       fim::Support min_count,
                                       const gpapriori::Config& base);

/// Remaps `plan` onto the healthiest allowed tier. A no-op under the
/// default constraints; with a tier struck out the decision moves
/// static -> partitioned -> CPU_TEST (every rung produces byte-identical
/// itemsets, so rerouting costs wall-time, never correctness) and the
/// reason records the detour.
[[nodiscard]] PlanDecision constrain_plan(PlanDecision plan,
                                          const PlanConstraints& constraints);

}  // namespace serve
