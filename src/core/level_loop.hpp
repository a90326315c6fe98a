#pragma once
// The level-wise loop every Apriori-family driver runs (DESIGN.md §6).
//
// The paper's design is one loop: the host trie generates level-k
// candidates by equivalence class, the device counts their support, the
// host prunes them. The drivers differ only in how they count, so
// LevelLoop owns everything else — the run prologue (threshold, run
// control, dataset digest, preprocessing, --resume validation), candidate
// generation, marking, emission, per-level stats/metrics/trace spans,
// checkpoints, resume replay and cancellation salvage — and each driver
// supplies one SupportCounter.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "baselines/apriori_util.hpp"
#include "baselines/miner.hpp"
#include "core/candidate_trie.hpp"
#include "core/config.hpp"
#include "core/run_control.hpp"
#include "fim/bitset_ops.hpp"
#include "fim/checkpoint.hpp"

namespace gpapriori {

/// CUDA 2.x grids are limited to 65535 blocks per dimension; larger
/// launches are issued in batches, as the real implementation would.
inline constexpr std::uint32_t kMaxGridX = 65'535;

/// Calls launch(first, batch) for consecutive grid batches covering
/// `total` blocks.
template <typename F>
void for_each_grid_batch(std::size_t total, F&& launch) {
  for (std::uint32_t done = 0; done < total;) {
    const auto batch = std::min<std::uint32_t>(
        kMaxGridX, static_cast<std::uint32_t>(total) - done);
    launch(done, batch);
    done += batch;
  }
}

/// The level-k candidates handed to a counter.
struct CandidateLevel {
  const CandidateTrie* trie = nullptr;
  std::size_t k = 0;
  std::size_t count = 0;
  /// Zero-copy candidate-major row paths (count * k row ids).
  std::span<const std::uint32_t> paths;
  /// Sibling-group layout; non-null iff the counter asked for one.
  const CandidateTrie::GroupedLevel* grouped = nullptr;
};

/// What counting one level cost.
struct LevelCost {
  double device_ms = 0;  ///< the level's LevelStats::device_ms
  double host_ms = 0;    ///< host-side counting time (host counters)
  std::uint64_t words_anded = 0;
  std::uint64_t popc_ops = 0;
};

/// Adds the arithmetic of counting `level` once over rows of `W` words:
/// the tiled layout ANDs each group's k-1 prefix rows once and then one
/// sibling row per candidate; the complete intersection ANDs k rows per
/// candidate. Also feeds the tiled-kernel metrics counters.
void add_bitset_arithmetic(LevelCost& cost, const CandidateLevel& level,
                           std::uint64_t W);

/// One driver's support-counting strategy.
class SupportCounter {
 public:
  virtual ~SupportCounter() = default;
  /// Name of the per-level trace span and cancellation point.
  [[nodiscard]] virtual const char* level_name() const = 0;
  /// Sibling-group cap when the counter reads the grouped layout; 0 = it
  /// reads the plain paths.
  [[nodiscard]] virtual std::uint32_t group_cap() const { return 0; }
  /// Writes the support of every candidate into `supports` (zeroed).
  virtual LevelCost count(const CandidateLevel& level,
                          std::span<fim::Support> supports) = 0;
  /// Runs right after level k is marked: the trie's level k holds the
  /// survivors, in candidate order.
  virtual void after_mark(const CandidateTrie& /*trie*/, std::size_t /*k*/,
                          std::span<const fim::Support> /*supports*/,
                          fim::Support /*min_count*/) {}
  /// Simulated device time spent so far (device-budget polls).
  [[nodiscard]] virtual double device_ms() const { return 0; }
  /// The run's MiningOutput::device_ms.
  [[nodiscard]] virtual double output_device_ms() const { return device_ms(); }
};

class LevelLoop {
 public:
  /// The run prologue: resolves the threshold, opens the run scope, loads
  /// and validates a --resume snapshot, and preprocesses (or borrows the
  /// Config's shared layout). Resume mismatches throw fim::IoError.
  LevelLoop(const fim::TransactionDb& db, const miners::MiningParams& params,
            const Config& cfg);
  LevelLoop(const LevelLoop&) = delete;
  LevelLoop& operator=(const LevelLoop&) = delete;

  [[nodiscard]] const miners::Preprocessed& pre() const { return *pre_; }
  [[nodiscard]] std::size_t num_items() const {
    return pre_->original_item.size();
  }
  [[nodiscard]] fim::Support min_count() const { return min_count_; }
  [[nodiscard]] RunScope& scope() { return scope_; }

  /// Device options from the Config, cancellable by this run. Carries no
  /// fault plan: drivers that absorb faults add it themselves.
  [[nodiscard]] gpusim::DeviceOptions device_options();

  /// A fresh output holding level 1, straight from preprocessing.
  [[nodiscard]] miners::MiningOutput level1() const;

  /// Generation-1 bitsets, one slice per `chunk_trans` transactions (0 =
  /// one slice), with the initial column compaction when `compact` and
  /// Config::compact_level >= 1. Recorded as `out`'s build phase.
  [[nodiscard]] std::vector<fim::BitsetStore> build_bitsets(
      miners::MiningOutput& out, std::size_t chunk_trans = 0,
      bool compact = true) const;

  /// Counts levels 2.. into `out` (which holds level 1) with `counter`,
  /// resuming past a snapshot's completed levels. A cancellation salvages
  /// the completed levels. Canonicalizes the itemsets.
  void run(SupportCounter& counter, miners::MiningOutput& out);

  /// Polls run control; true when the run was cancelled.
  [[nodiscard]] bool cancelled(double device_ms);
  /// Level 1 alone, marked as truncated at level 2 and checkpointed: what
  /// a run cancelled before any level-2 counting returns.
  [[nodiscard]] miners::MiningOutput salvage_level1();

 private:
  std::uint64_t dataset_digest();
  void write_checkpoint(const miners::MiningOutput& out, std::size_t level);
  std::size_t replay_levels(CandidateTrie& trie, miners::MiningOutput& out);

  const Config& cfg_;
  std::size_t max_size_;
  fim::Support min_count_;
  RunScope scope_;
  const fim::TransactionDb& db_;
  std::optional<std::uint64_t> digest_;  ///< scanned at most once per run
  std::uint64_t dataset_dig_ = 0;
  std::uint64_t layout_dig_ = 0;
  std::optional<fim::MiningCheckpoint> resume_;
  std::optional<miners::Preprocessed> pre_local_;
  const miners::Preprocessed* pre_ = nullptr;
  double pre_ms_ = 0;
  std::uint32_t workers_;
};

}  // namespace gpapriori
