#pragma once
// Shared test utilities: a brute-force reference miner (the independent
// oracle every real miner is checked against) and small random-database
// generation for property-style sweeps.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

#include "fim/itemset.hpp"
#include "fim/result.hpp"
#include "fim/transaction_db.hpp"

namespace testutil {

/// Counts the transactions containing `items` by scanning the database.
inline fim::Support naive_support(const fim::TransactionDb& db,
                                  const fim::Itemset& items) {
  fim::Support n = 0;
  for (std::size_t t = 0; t < db.num_transactions(); ++t) {
    const auto tx = db.transaction(t);
    if (std::includes(tx.begin(), tx.end(), items.begin(), items.end())) ++n;
  }
  return n;
}

/// Brute-force frequent itemset miner: depth-first item extension with the
/// anti-monotone prune. Each DFS frame carries the transaction ids that
/// contain its itemset, so an extension's support is the size of that
/// list intersected with the new item's — exact, without rescanning the
/// database per candidate. Deliberately shares no code with the real
/// miners; naive_support() is the independent scan it is checked against.
inline fim::ItemsetCollection brute_force(const fim::TransactionDb& db,
                                          fim::Support min_count,
                                          std::size_t max_size = 0) {
  using Tids = std::vector<std::uint32_t>;
  std::vector<Tids> item_tids(db.item_universe());
  Tids all(db.num_transactions());
  for (std::uint32_t t = 0; t < db.num_transactions(); ++t) {
    all[t] = t;
    for (fim::Item x : db.transaction(t)) item_tids[x].push_back(t);
  }

  struct Frame {
    fim::Itemset set;
    Tids tids;
    std::size_t next_item;
  };
  fim::ItemsetCollection out;
  std::vector<Frame> stack;
  stack.push_back({fim::Itemset{}, std::move(all), 0});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    for (std::size_t i = f.next_item; i < item_tids.size(); ++i) {
      Tids tids;
      std::set_intersection(f.tids.begin(), f.tids.end(), item_tids[i].begin(),
                            item_tids[i].end(), std::back_inserter(tids));
      const auto sup = static_cast<fim::Support>(tids.size());
      if (sup < min_count) continue;
      fim::Itemset cand = f.set.with(static_cast<fim::Item>(i));
      out.add(cand, sup);
      if (max_size == 0 || cand.size() < max_size)
        stack.push_back({std::move(cand), std::move(tids), i + 1});
    }
  }
  out.canonicalize();
  return out;
}

/// Random transaction database: `num_trans` transactions over `universe`
/// items, each item included with probability `density`. Deterministic in
/// the seed.
inline fim::TransactionDb random_db(std::size_t num_trans,
                                    std::size_t universe, double density,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::vector<fim::Item>> txs(num_trans);
  for (auto& tx : txs)
    for (fim::Item x = 0; x < universe; ++x)
      if (u(rng) < density) tx.push_back(x);
  return fim::TransactionDb::from_transactions(txs);
}

}  // namespace testutil
