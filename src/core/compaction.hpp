#pragma once
// Vertical bitset compaction hooks shared by the mining drivers
// (DESIGN.md §12). The support-invariance argument lives with the plan
// type in fim/vertical.hpp; this header binds it to the drivers' level
// structure (CandidateTrie) and the metrics registry.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/candidate_trie.hpp"
#include "fim/bitset_ops.hpp"
#include "fim/vertical.hpp"
#include "obs/obs.hpp"

namespace gpapriori {

/// Applies the initial (post-level-1) column compaction to every slice:
/// transaction columns covered by fewer than two frequent items cannot
/// support any k >= 2 candidate (fim/vertical.hpp argument (1)), so
/// dropping them is support-invariant — per slice, since partitioned
/// supports are summed per slice. Returns the total columns dropped.
inline std::uint64_t compact_slices_initial(
    std::vector<fim::BitsetStore>& slices) {
  std::uint64_t dropped = 0;
  for (auto& s : slices) {
    const std::vector<std::uint32_t> counts = s.column_populations({});
    const fim::ColumnCompaction plan = fim::plan_column_compaction(counts, 2);
    if (plan.kept() < plan.original_columns) {
      dropped += plan.original_columns - plan.kept();
      s = fim::BitsetStore::compact_columns(s, plan);
    }
  }
  if (dropped != 0)
    obs::MetricsRegistry::global().add(obs::Counter::kCompactColumnsDropped,
                                       dropped);
  return dropped;
}

/// Plans the level-k re-compaction of a resident store: after marking the
/// frequent k-itemsets, every future candidate consists of >= k+1 rows
/// that each belong to some frequent k-itemset, so a supporting column
/// has >= k+1 bits among those live rows (fim/vertical.hpp argument (2)).
/// Returns an engaged plan only when it clears the density heuristic —
/// at least a 25% reduction of the payload word count.
inline std::optional<fim::ColumnCompaction> plan_level_recompaction(
    const fim::BitsetStore& store, const CandidateTrie& trie, std::size_t k,
    std::size_t n) {
  std::vector<bool> is_live(n, false);
  for (std::size_t i = 0; i < trie.level_size(k); ++i)
    for (fim::Item r : trie.candidate_row_span(k, i)) is_live[r] = true;
  std::vector<std::uint32_t> live;
  for (std::uint32_t r = 0; r < n; ++r)
    if (is_live[r]) live.push_back(r);
  const std::vector<std::uint32_t> counts = store.column_populations(live);
  fim::ColumnCompaction plan =
      fim::plan_column_compaction(counts, static_cast<std::uint32_t>(k + 1));
  const std::size_t old_words = store.words_per_row();
  const std::size_t new_words =
      (plan.kept() + fim::BitsetStore::kBitsPerWord - 1) /
      fim::BitsetStore::kBitsPerWord;
  if (old_words == 0 || new_words * 4 > old_words * 3) return std::nullopt;
  return plan;
}

/// The per-level re-compaction step of a resident store after marking
/// level k (Config::compact_level >= 2 re-compacts after levels 2..N).
/// Replaces `store` and returns true when a plan cleared the heuristic.
inline bool recompact_after_level(fim::BitsetStore& store,
                                  const CandidateTrie& trie, std::size_t k,
                                  std::uint32_t compact_level) {
  if (compact_level < 2 || k > compact_level || trie.level_size(k) == 0)
    return false;
  obs::ScopedSpan span(obs::SpanKind::kOther, "compact-columns");
  const auto plan = plan_level_recompaction(store, trie, k, store.rows());
  if (!plan) return false;
  store = fim::BitsetStore::compact_columns(store, *plan);
  const std::uint64_t dropped = plan->original_columns - plan->kept();
  obs::MetricsRegistry::global().add(obs::Counter::kCompactColumnsDropped,
                                     dropped);
  if (span.active()) {
    span.add_arg("level", static_cast<double>(k));
    span.add_arg("columns_dropped", static_cast<double>(dropped));
  }
  return true;
}

}  // namespace gpapriori
