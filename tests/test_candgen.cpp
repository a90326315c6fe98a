// Determinism contract of the sharded host candidate pipeline
// (DESIGN.md §13): extend(), mark_frequent(), and the grouped/flat level
// layouts must be byte-identical to the serial trie for every worker
// count, and a full mine must return bit-identical itemsets for every
// host_threads value.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "core/candidate_trie.hpp"
#include "core/gpapriori.hpp"
#include "test_util.hpp"

namespace {

using gpapriori::CandidateTrie;

/// Deterministic pseudo-support of a candidate path — a pure function of
/// the item content, so every trie replica prunes identically regardless
/// of how its levels were generated.
fim::Support synth_support(std::span<const std::uint32_t> path) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t x : path) {
    h ^= x + 0x9e3779b9u;
    h *= 1099511628211ull;
  }
  return static_cast<fim::Support>(h % 1000);
}

/// Worker counts the suite sweeps: serial, the smallest parallel shape,
/// an odd count that never divides level sizes evenly, and whatever this
/// machine actually has.
std::vector<std::uint32_t> worker_counts() {
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  return {1, 2, 7, hw};
}

/// Grows a trie level by level with set_workers(workers): extend, prune
/// with synth_support at `min_count`, until extension dries up or
/// `max_depth` is reached.
CandidateTrie grow(std::size_t roots, std::uint32_t workers,
                   fim::Support min_count, std::size_t max_depth) {
  CandidateTrie trie(roots);
  trie.set_workers(workers);
  for (std::size_t k = 2; k <= max_depth; ++k) {
    const std::size_t ncand = trie.extend();
    if (ncand == 0) break;
    std::vector<fim::Support> supports(ncand);
    for (std::size_t c = 0; c < ncand; ++c)
      supports[c] = synth_support(trie.candidate_row_span(k, c));
    trie.mark_frequent(k, supports, min_count);
    if (trie.level_size(k) == 0) break;
  }
  return trie;
}

void expect_identical(const CandidateTrie& a, const CandidateTrie& b,
                      std::uint32_t workers) {
  ASSERT_EQ(a.depth(), b.depth()) << "workers=" << workers;
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << "workers=" << workers;
  for (std::size_t k = 1; k <= a.depth(); ++k) {
    ASSERT_EQ(a.level_size(k), b.level_size(k))
        << "workers=" << workers << " level=" << k;
    const auto pa = a.level_paths(k);
    const auto pb = b.level_paths(k);
    ASSERT_EQ(pa.size(), pb.size()) << "workers=" << workers << " level=" << k;
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin()))
        << "path arena differs, workers=" << workers << " level=" << k;
    if (k >= 2) {
      for (std::size_t i = 0; i < a.level_size(k); ++i)
        ASSERT_EQ(a.parent_index(k, i), b.parent_index(k, i))
            << "workers=" << workers << " level=" << k << " cand=" << i;
      for (std::uint32_t cap : {std::uint32_t{64}, std::uint32_t{5}}) {
        const auto ga = a.flatten_level_grouped(k, cap);
        const auto gb = b.flatten_level_grouped(k, cap);
        EXPECT_EQ(ga.prefix_len, gb.prefix_len);
        EXPECT_EQ(ga.prefix_rows, gb.prefix_rows)
            << "workers=" << workers << " level=" << k << " cap=" << cap;
        EXPECT_EQ(ga.sibling_rows, gb.sibling_rows)
            << "workers=" << workers << " level=" << k << " cap=" << cap;
        EXPECT_EQ(ga.group_offsets, gb.group_offsets)
            << "workers=" << workers << " level=" << k << " cap=" << cap;
      }
    }
  }
}

// 96 roots put level 2 at C(96,2) = 4560 join pairs, past the parallel
// threshold, so workers >= 2 really shard the join; the pruned deeper
// levels exercise the uneven-group rebase/stitch path.
TEST(CandgenDeterminism, TrieByteIdenticalAcrossWorkerCounts) {
  const CandidateTrie serial = grow(96, 1, 700, 5);
  ASSERT_GE(serial.depth(), 3u) << "test shape too shallow to be meaningful";
  for (std::uint32_t w : worker_counts()) {
    const CandidateTrie sharded = grow(96, w, 700, 5);
    if (w >= 2) {
      EXPECT_GT(sharded.last_extend_shards(), 0u);
    }
    expect_identical(serial, sharded, w);
  }
}

// One big flat level (C(200,2) = 19900 candidates) crosses the parallel
// mark_frequent threshold: the compaction that rewrites node_ids, paths,
// and pos must agree with the serial order bit for bit.
TEST(CandgenDeterminism, ParallelMarkFrequentMatchesSerial) {
  auto build = [](std::uint32_t workers) {
    CandidateTrie trie(200);
    trie.set_workers(workers);
    const std::size_t ncand = trie.extend();
    std::vector<fim::Support> supports(ncand);
    for (std::size_t c = 0; c < ncand; ++c)
      supports[c] = synth_support(trie.candidate_row_span(2, c));
    trie.mark_frequent(2, supports, 500);
    return trie;
  };
  const CandidateTrie serial = build(1);
  ASSERT_GT(serial.level_size(2), 0u);
  for (std::uint32_t w : worker_counts())
    expect_identical(serial, build(w), w);
}

// Edge: a trie whose deepest level cannot join (zero or one frequent
// node) must report an empty extension for every worker count.
TEST(CandgenEdgeCases, EmptyAndSingletonLevels) {
  for (std::uint32_t w : worker_counts()) {
    CandidateTrie lone(1);
    lone.set_workers(w);
    EXPECT_EQ(lone.extend(), 0u) << "workers=" << w;

    CandidateTrie pruned(8);
    pruned.set_workers(w);
    const std::size_t ncand = pruned.extend();
    ASSERT_GT(ncand, 0u);
    // Kill every level-2 candidate; the next extension has nothing to join.
    const std::vector<fim::Support> zero(ncand, 0);
    EXPECT_EQ(pruned.mark_frequent(2, zero, 1), 0u);
    EXPECT_EQ(pruned.level_size(2), 0u);
    EXPECT_EQ(pruned.extend(), 0u) << "workers=" << w;
  }
}

// Edge: two roots form exactly one equivalence class with one candidate —
// the single-group layout must survive every worker count and group cap.
TEST(CandgenEdgeCases, SingleGroupLevel) {
  for (std::uint32_t w : worker_counts()) {
    CandidateTrie trie(2);
    trie.set_workers(w);
    ASSERT_EQ(trie.extend(), 1u) << "workers=" << w;
    const auto g = trie.flatten_level_grouped(2, 64);
    ASSERT_EQ(g.num_groups(), 1u);
    EXPECT_EQ(g.prefix_len, 1u);
    ASSERT_EQ(g.prefix_rows, (std::vector<std::uint32_t>{0}));
    ASSERT_EQ(g.sibling_rows, (std::vector<std::uint32_t>{1}));
    ASSERT_EQ(g.group_offsets, (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(g.max_group_size(), 1u);
    EXPECT_EQ(trie.parent_index(2, 0), 0u);
  }
}

// End to end: the same database mined with different host_threads must
// produce bit-identical collections — items and supports alike. The shape
// (4500 transactions, 70 items) pushes the vertical build, the level-2
// join, and result emission past their parallel thresholds.
TEST(CandgenEndToEnd, ItemsetsBitIdenticalAcrossHostThreads) {
  const auto db = testutil::random_db(4500, 70, 0.3, 907);
  miners::MiningParams p;
  p.min_support_abs = 350;

  gpapriori::Config ref_cfg;
  ref_cfg.host_threads = 1;
  gpapriori::CpuBitsetApriori ref(ref_cfg);
  const auto expected = ref.mine(db, p);
  ASSERT_GT(expected.itemsets.size(), 100u);

  for (std::uint32_t ht : worker_counts()) {
    gpapriori::Config cfg;
    cfg.host_threads = ht;
    gpapriori::CpuBitsetApriori miner(cfg);
    const auto out = miner.mine(db, p);
    ASSERT_EQ(out.itemsets.size(), expected.itemsets.size())
        << "host_threads=" << ht;
    EXPECT_TRUE(std::equal(out.itemsets.begin(), out.itemsets.end(),
                           expected.itemsets.begin()))
        << "host_threads=" << ht;
  }
}

}  // namespace
