#include "core/candidate_trie.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.hpp"

namespace {

using gpapriori::CandidateTrie;

TEST(CandidateTrie, Level1Roots) {
  CandidateTrie trie(4);
  EXPECT_EQ(trie.depth(), 1u);
  EXPECT_EQ(trie.level_size(1), 4u);
  for (fim::Item x = 0; x < 4; ++x)
    EXPECT_TRUE(trie.is_frequent(std::vector<fim::Item>{x}));
}

TEST(CandidateTrie, Level2IsAllSiblingPairs) {
  CandidateTrie trie(4);
  EXPECT_EQ(trie.extend(), 6u);  // C(4,2)
  EXPECT_EQ(trie.depth(), 2u);
  const auto paths = trie.level_paths(2);
  const std::vector<std::uint32_t> flat(paths.begin(), paths.end());
  ASSERT_EQ(flat.size(), 12u);
  // Equivalence-class order: 01,02,03,12,13,23.
  const std::vector<std::uint32_t> expect{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3};
  EXPECT_EQ(flat, expect);
}

TEST(CandidateTrie, MarkFrequentPrunesLevel) {
  CandidateTrie trie(3);
  trie.extend();  // 01, 02, 12
  const std::vector<fim::Support> supports{5, 1, 5};
  EXPECT_EQ(trie.mark_frequent(2, supports, 3), 2u);
  EXPECT_EQ(trie.level_size(2), 2u);
  EXPECT_TRUE(trie.is_frequent(std::vector<fim::Item>{0, 1}));
  EXPECT_FALSE(trie.is_frequent(std::vector<fim::Item>{0, 2}));
  EXPECT_TRUE(trie.is_frequent(std::vector<fim::Item>{1, 2}));
}

TEST(CandidateTrie, SubsetPruneUsesApriori) {
  // Frequent 2-sets: 01, 02, 12, 13 -> join gives 012 (kept: all subsets
  // frequent) and 123 (pruned: 23 infrequent... 12 & 13 join to 123, needs
  // 23 which is absent).
  CandidateTrie trie(4);
  trie.extend();
  // Candidates in order: 01,02,03,12,13,23. Keep 01,02,12,13.
  const std::vector<fim::Support> s2{9, 9, 0, 9, 9, 0};
  trie.mark_frequent(2, s2, 1);
  EXPECT_EQ(trie.extend(), 1u);
  const auto items = trie.candidate_items(3, 0);
  EXPECT_EQ(items, (std::vector<fim::Item>{0, 1, 2}));
}

TEST(CandidateTrie, PaperFig1StyleGrowth) {
  // Build three levels and check every candidate's path is strictly
  // increasing and every (k-1)-subset of every candidate is frequent.
  CandidateTrie trie(5);
  trie.extend();
  std::vector<fim::Support> all_frequent(trie.level_size(2), 100);
  trie.mark_frequent(2, all_frequent, 1);
  trie.extend();
  EXPECT_EQ(trie.level_size(3), 10u);  // C(5,3)
  for (std::size_t i = 0; i < trie.level_size(3); ++i) {
    const auto items = trie.candidate_items(3, i);
    EXPECT_TRUE(fim::is_strictly_increasing(items));
    for (std::size_t d = 0; d < items.size(); ++d) {
      auto sub = items;
      sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(d));
      EXPECT_TRUE(trie.is_frequent(sub));
    }
  }
}

TEST(CandidateTrie, ExtendOnEmptyLevelProducesNothing) {
  CandidateTrie trie(3);
  trie.extend();
  const std::vector<fim::Support> none{0, 0, 0};
  trie.mark_frequent(2, none, 1);
  EXPECT_EQ(trie.extend(), 0u);
}

TEST(CandidateTrie, SingleItemCannotExtend) {
  CandidateTrie trie(1);
  EXPECT_EQ(trie.extend(), 0u);
}

TEST(CandidateTrie, MarkFrequentSizeMismatchThrows) {
  CandidateTrie trie(3);
  trie.extend();
  const std::vector<fim::Support> wrong{1, 2};
  EXPECT_THROW(trie.mark_frequent(2, wrong, 1), std::invalid_argument);
}

TEST(CandidateTrie, IsFrequentOnUnknownPaths) {
  CandidateTrie trie(3);
  EXPECT_FALSE(trie.is_frequent(std::vector<fim::Item>{7}));
  EXPECT_FALSE(trie.is_frequent(std::vector<fim::Item>{0, 1}));  // not yet
  EXPECT_FALSE(trie.is_frequent(std::vector<fim::Item>{}));
}

TEST(CandidateTrie, FlattenOrderMatchesCandidateItems) {
  CandidateTrie trie(4);
  trie.extend();
  const auto flat = trie.level_paths(2);
  for (std::size_t i = 0; i < trie.level_size(2); ++i) {
    const auto items = trie.candidate_items(2, i);
    EXPECT_EQ(items[0], flat[i * 2]);
    EXPECT_EQ(items[1], flat[i * 2 + 1]);
  }
}

TEST(CandidateTrie, CandidatesMatchAprioriGenSemantics) {
  // Against random frequent sets: candidates produced by the trie must be
  // exactly the (sorted) apriori-gen candidates.
  const auto db = testutil::random_db(100, 7, 0.5, 17);
  const fim::Support min_count = 20;
  const auto frequent = testutil::brute_force(db, min_count);

  CandidateTrie trie(7);
  // Feed true level-1 supports.
  std::vector<fim::Support> s1(7);
  for (fim::Item x = 0; x < 7; ++x)
    s1[x] = testutil::naive_support(db, fim::Itemset{x});
  trie.mark_frequent(1, s1, min_count);

  for (std::size_t k = 2; k <= frequent.max_size() + 1; ++k) {
    const std::size_t n = trie.extend();
    // Every true frequent k-set must be among the candidates (completeness).
    std::vector<std::vector<fim::Item>> cand_items;
    for (std::size_t i = 0; i < n; ++i)
      cand_items.push_back(trie.candidate_items(k, i));
    std::size_t true_k = 0;
    for (const auto& fs : frequent) {
      if (fs.items.size() != k) continue;
      ++true_k;
      EXPECT_NE(std::find(cand_items.begin(), cand_items.end(),
                          fs.items.items()),
                cand_items.end())
          << "missing frequent " << fs.items.to_string();
    }
    EXPECT_GE(n, true_k);
    if (n == 0) break;
    // Mark with true supports.
    std::vector<fim::Support> sk(n);
    for (std::size_t i = 0; i < n; ++i)
      sk[i] = testutil::naive_support(db, fim::Itemset(cand_items[i]));
    trie.mark_frequent(k, sk, min_count);
  }
}

}  // namespace
