#include "serve/planner.hpp"

#include <cstdio>

namespace serve {

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b);
  return buf;
}

}  // namespace

PlanDecision plan_driver(const fim::DatasetStats& stats,
                         fim::Support min_count,
                         const gpapriori::Config& base) {
  const double ntrans = static_cast<double>(stats.num_transactions);
  const double items = static_cast<double>(stats.distinct_items);
  const std::size_t words_per_row = (stats.num_transactions + 63) / 64;

  // Upper bound of the level-1 vertical bitset: every distinct item turns
  // frequent. The real footprint is smaller (preprocess drops infrequent
  // items), but the bound is what we know before parsing-time work, and
  // overshooting only costs the partitioned driver's streaming overhead.
  const double l1_bytes = items * static_cast<double>(words_per_row) * 8.0;
  const double budget = static_cast<double>(base.arena_bytes) / 2.0;
  if (l1_bytes > budget)
    return {"GPApriori (partitioned)", true,
            fmt("level-1 bitset bound %.0f MiB exceeds half the %.0f MiB "
                "arena; streaming transaction partitions",
                l1_bytes / (1 << 20),
                static_cast<double>(base.arena_bytes) / (1 << 20))};

  // Degenerate frequent-1 set: at very high thresholds almost nothing
  // survives level 1, sibling groups are singletons, and the tiled
  // kernel's grouped dispatch is pure overhead over static counting.
  const double top_support = stats.top_item_frequency * ntrans;
  if (min_count > 0 && top_support > 0 &&
      static_cast<double>(min_count) > 0.9 * top_support)
    return {"GPApriori", false,
            fmt("threshold %.0f is within 10%% of the top item's support "
                "%.0f; few frequent-1 items, static counting",
                static_cast<double>(min_count), top_support)};

  return {"GPApriori", true,
          fmt("dense/moderate shape (density %.4f, avg length %.1f); "
              "eq-class tiled counting",
              stats.density, stats.avg_transaction_length)};
}

PlanDecision constrain_plan(PlanDecision plan,
                            const PlanConstraints& constraints) {
  const bool on_static = plan.algo == "GPApriori" ||
                         plan.algo == "GPApriori (eq-class)" ||
                         plan.algo == "GPApriori (pipelined)" ||
                         plan.algo == "GPU Eclat" ||
                         plan.algo == "Hybrid CPU+GPU Apriori";
  const bool on_partitioned = plan.algo == "GPApriori (partitioned)";
  if (on_static && !constraints.allow_static_device) {
    if (constraints.allow_partitioned) {
      plan.reason += "; static-device breaker open, rerouted to "
                     "partitioned streaming";
      plan.algo = "GPApriori (partitioned)";
    } else {
      plan.reason += "; both device breakers open, rerouted to CPU_TEST";
      plan.algo = "CPU_TEST";
    }
  } else if (on_partitioned && !constraints.allow_partitioned) {
    // Partitioned was chosen because the static bitset does not fit the
    // arena, so the only healthy rung left is the CPU.
    plan.reason += "; partitioned breaker open, rerouted to CPU_TEST";
    plan.algo = "CPU_TEST";
  }
  return plan;
}

}  // namespace serve
