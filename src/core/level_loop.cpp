#include "core/level_loop.hpp"

#include <string>

#include "core/compaction.hpp"
#include "core/materialize.hpp"
#include "core/tiled_support_kernel.hpp"
#include "fim/fimi_io.hpp"
#include "obs/obs.hpp"

namespace gpapriori {
namespace {

/// Fingerprint of a preprocessing result (dense item order + per-item
/// supports). Runs with equal layout digests build identical vertical
/// layouts, so a checkpoint taken by one resumes bit-exactly in the other.
std::uint64_t layout_digest(const miners::Preprocessed& pre) {
  std::uint64_t h = fim::kFnvOffset;
  const std::uint64_t n = pre.original_item.size();
  h = fim::fnv1a_bytes(&n, sizeof(n), h);
  h = fim::fnv1a_bytes(pre.original_item.data(),
                       pre.original_item.size() * sizeof(fim::Item), h);
  return fim::fnv1a_bytes(pre.support.data(),
                          pre.support.size() * sizeof(fim::Support), h);
}

}  // namespace

void add_bitset_arithmetic(LevelCost& cost, const CandidateLevel& level,
                           std::uint64_t W) {
  const std::uint64_t ncand = level.count;
  const std::uint64_t k = level.k;
  cost.popc_ops += ncand * W;
  if (level.grouped == nullptr) {
    cost.words_anded += ncand * k * W;
    return;
  }
  // The (k-1)·W·(ncand - ngroups) difference is the work the
  // equivalence-class sharing eliminated.
  const std::uint64_t ngroups = level.grouped->num_groups();
  cost.words_anded += (ngroups * (k - 1) + ncand) * W;
  auto& metrics = obs::MetricsRegistry::global();
  if (!metrics.enabled()) return;
  const std::uint64_t tiles = (W + TiledSupportKernel::kTileWords - 1) /
                              TiledSupportKernel::kTileWords;
  metrics.add(obs::Counter::kTiledGroups, ngroups);
  metrics.add(obs::Counter::kTiledTiles, ngroups * tiles);
  metrics.add(obs::Counter::kTiledWordsSaved, (k - 1) * (ncand - ngroups) * W);
}

LevelLoop::LevelLoop(const fim::TransactionDb& db,
                     const miners::MiningParams& params, const Config& cfg)
    : cfg_(cfg),
      max_size_(params.max_itemset_size),
      min_count_(params.resolve_min_count(db.num_transactions())),
      scope_(cfg.run_control),
      db_(db),
      workers_(cfg.resolve_workers()) {
  RunControl* rc = scope_.control();
  const bool snapshotting =
      rc != nullptr && (rc->want_resume() || rc->want_checkpoint());
  if (snapshotting) dataset_dig_ = dataset_digest();
  if (rc != nullptr && rc->want_resume()) {
    // The dataset digest proves the same transactions, min-count and
    // max-size the same thresholds; any mismatch is a wrong file, not a
    // device fault, so it is an I/O-class error.
    const std::string& path = rc->options().resume_path;
    resume_ = fim::MiningCheckpoint::read(path);
    if (resume_->dataset_digest != dataset_dig_)
      throw fim::IoError(
          "resume rejected: checkpoint was taken on a different dataset: " +
          path);
    if (resume_->min_count != min_count_)
      throw fim::IoError("resume rejected: checkpoint min-count " +
                         std::to_string(resume_->min_count) +
                         " != run min-count " + std::to_string(min_count_) +
                         ": " + path);
    if (resume_->max_itemset_size != max_size_)
      throw fim::IoError(
          "resume rejected: checkpoint max-itemset-size mismatch: " + path);
  }

  // A Config::shared_layout (serve DatasetCache) built at this threshold
  // from this dataset replaces the build with a borrow; pre_ms then
  // measures only the digest check. Mismatches fall back to a fresh build.
  const miners::StopWatch watch;
  const SharedLayout* shared = cfg.shared_layout;
  if (shared != nullptr && shared->min_count == min_count_ &&
      shared->num_transactions == db.num_transactions() &&
      shared->dataset_digest == dataset_digest())
    pre_ = &shared->pre;
  else
    pre_ = &pre_local_.emplace(miners::preprocess(
        db, min_count_, miners::ItemOrder::kAscendingFreq));
  pre_ms_ = watch.elapsed_ms();

  if (snapshotting) layout_dig_ = layout_digest(*pre_);
  if (resume_ && resume_->layout_digest != layout_dig_)
    throw fim::IoError(
        "resume rejected: vertical layout digest mismatch (different "
        "preprocessing?): " +
        rc->options().resume_path);
}

/// The shared-layout check and the checkpoint/resume digests of one run
/// share a single pass over the data.
std::uint64_t LevelLoop::dataset_digest() {
  if (!digest_) digest_ = fim::dataset_digest(db_);
  return *digest_;
}

gpusim::DeviceOptions LevelLoop::device_options() {
  gpusim::DeviceOptions o;
  o.arena_bytes = cfg_.arena_bytes;
  o.strict_memory = cfg_.strict_memory;
  o.executor.sample_stride = cfg_.sample_stride;
  o.executor.host_threads = cfg_.host_threads;
  o.executor.native = cfg_.native;
  o.executor.cancel = scope_.cancel_token();
  o.record_launches = false;
  return o;
}

miners::MiningOutput LevelLoop::level1() const {
  miners::MiningOutput out;
  const std::size_t n = num_items();
  for (fim::Item x = 0; x < n; ++x)
    out.itemsets.add(fim::Itemset{pre_->original_item[x]}, pre_->support[x]);
  out.levels.push_back({1, n, n, pre_ms_, 0});
  out.host_ms = pre_ms_;
  return out;
}

std::vector<fim::BitsetStore> LevelLoop::build_bitsets(
    miners::MiningOutput& out, std::size_t chunk_trans, bool compact) const {
  const miners::StopWatch watch;
  const fim::TransactionDb& db = pre_->db;
  const std::size_t num_trans = db.num_transactions();
  if (chunk_trans == 0) chunk_trans = std::max<std::size_t>(1, num_trans);
  std::vector<fim::Item> rows(num_items());
  for (fim::Item i = 0; i < rows.size(); ++i) rows[i] = i;
  // Support is additive over a transaction partition, so per-slice counts
  // summed on the host are exact.
  std::vector<fim::BitsetStore> slices;
  if (chunk_trans >= num_trans) {
    slices.push_back(fim::BitsetStore::from_db(db, rows, workers_));
  } else {
    for (std::size_t lo = 0; lo < num_trans; lo += chunk_trans) {
      fim::TransactionDb::Builder b;
      for (std::size_t t = lo; t < std::min(num_trans, lo + chunk_trans); ++t) {
        auto tx = db.transaction(t);
        b.add({tx.begin(), tx.end()});
      }
      slices.push_back(
          fim::BitsetStore::from_db(std::move(b).build(), rows, workers_));
    }
  }
  if (compact && cfg_.compact_level >= 1) {
    obs::ScopedSpan span(obs::SpanKind::kOther, "compact-columns");
    const std::uint64_t dropped = compact_slices_initial(slices);
    if (span.active()) {
      span.add_arg("columns_dropped", static_cast<double>(dropped));
      span.add_arg("level", 1.0);
    }
  }
  miners::HostPhases ph;
  ph.build_ms = watch.elapsed_ms();
  record_host_phases(out, ph);
  out.host_ms += ph.build_ms;
  return slices;
}

/// Snapshots `out`, which holds exactly levels 1..level, to the run's
/// checkpoint path (no-op without one). Filesystem failures propagate as
/// fim::IoError.
void LevelLoop::write_checkpoint(const miners::MiningOutput& out,
                                 std::size_t level) {
  RunControl* rc = scope_.control();
  if (rc == nullptr || !rc->want_checkpoint()) return;
  fim::MiningCheckpoint cp;
  cp.dataset_digest = dataset_dig_;
  cp.layout_digest = layout_dig_;
  cp.min_count = min_count_;
  cp.max_itemset_size = static_cast<std::uint32_t>(max_size_);
  cp.completed_level = static_cast<std::uint32_t>(level);
  for (const miners::LevelStats& lv : out.levels)
    cp.levels.push_back({static_cast<std::uint32_t>(lv.level), lv.candidates,
                         lv.frequent, lv.host_ms, lv.device_ms});
  cp.itemsets = out.itemsets;
  cp.write(rc->options().checkpoint_path);
  rc->note_checkpoint(level, cp.byte_size());
}

/// Replays candidate generation for levels 2..completed_level with the
/// snapshot's recorded supports injected instead of recounted. Candidate
/// generation is deterministic, so the trie and emitted itemsets end
/// bit-identical to the interrupted run's state with no counting. Returns
/// the highest level replayed (>= 1).
std::size_t LevelLoop::replay_levels(CandidateTrie& trie,
                                     miners::MiningOutput& out) {
  const fim::MiningCheckpoint& cp = *resume_;
  fim::ItemsetCollection saved = cp.itemsets;
  saved.build_index();
  // Replayed levels report the interrupted run's recorded stats, so a
  // resumed run's LevelStats table matches the run it continues.
  auto recorded = [&](std::size_t k) -> std::optional<miners::LevelStats> {
    for (const fim::CheckpointLevel& lv : cp.levels)
      if (lv.level == k)
        return miners::LevelStats{k, static_cast<std::size_t>(lv.candidates),
                                  static_cast<std::size_t>(lv.frequent),
                                  lv.host_ms, lv.device_ms};
    return std::nullopt;
  };
  if (auto lv = recorded(1)) out.levels[0] = *lv;
  std::size_t replayed = 1;
  std::vector<fim::Support> supports, kept;
  std::vector<fim::Item> items;
  for (std::size_t k = 2; k <= cp.completed_level; ++k) {
    const std::size_t ncand = trie.extend();
    if (ncand == 0) break;
    supports.assign(ncand, 0);
    for (std::size_t i = 0; i < ncand; ++i) {
      items.clear();
      for (fim::Item r : trie.candidate_row_span(k, i))
        items.push_back(pre_->original_item[r]);
      // Pruned candidates are absent from the snapshot: 0 keeps them
      // below min_count, exactly as the original counting did.
      supports[i] = saved.support_of(fim::Itemset(items)).value_or(0);
    }
    trie.mark_frequent(k, supports, min_count_);
    kept.clear();
    for (fim::Support s : supports)
      if (s >= min_count_) kept.push_back(s);
    emit_frequent_level(trie, k, kept, pre_->original_item, out.itemsets,
                        workers_);
    if (auto lv = recorded(k)) out.levels.push_back(*lv);
    replayed = k;
    if (trie.level_size(k) == 0) break;
  }
  return replayed;
}

void LevelLoop::run(SupportCounter& counter, miners::MiningOutput& out) {
  CandidateTrie trie(num_items());
  trie.set_workers(workers_);
  const std::uint32_t group_cap = counter.group_cap();
  const char* name = counter.level_name();
  std::vector<fim::Support> supports, kept;
  // `k` is the level being counted; anything thrown while it is in flight
  // leaves `out` holding exactly the completed levels < k, which is what
  // the CancelledError handler salvages.
  std::size_t k = 2;
  try {
    if (resume_)
      k = replay_levels(trie, out) + 1;
    else
      write_checkpoint(out, 1);

    miners::StopWatch host;
    for (;; ++k) {
      if (max_size_ != 0 && k > max_size_) break;
      scope_.check(name, counter.device_ms());
      obs::ScopedSpan level_span(obs::SpanKind::kMineLevel, name);

      miners::HostPhases ph;
      std::size_t ncand = 0;
      CandidateTrie::GroupedLevel grouped;
      {
        obs::ScopedSpan cand_span(obs::SpanKind::kCandidateGen,
                                  "candidate-gen");
        host.restart();
        ncand = trie.extend();
        ph.candgen_ms = host.elapsed_ms();
        ph.candgen_shards = trie.last_extend_shards();
        if (ncand != 0 && group_cap != 0) {
          host.restart();
          grouped = trie.flatten_level_grouped(k, group_cap);
          ph.flatten_ms = host.elapsed_ms();
        }
        if (cand_span.active()) {
          cand_span.add_arg("k", static_cast<double>(k));
          cand_span.add_arg("candidates", static_cast<double>(ncand));
          if (group_cap != 0 && ncand != 0)
            cand_span.add_arg("groups",
                              static_cast<double>(grouped.num_groups()));
        }
      }
      if (ncand == 0) break;

      const CandidateLevel level{&trie, k, ncand, trie.level_paths(k),
                                 group_cap != 0 ? &grouped : nullptr};
      supports.assign(ncand, 0);
      const LevelCost cost = counter.count(level, supports);

      host.restart();
      trie.mark_frequent(k, supports, min_count_);
      kept.clear();
      for (fim::Support s : supports)
        if (s >= min_count_) kept.push_back(s);
      ph.candgen_ms += host.elapsed_ms();
      host.restart();
      counter.after_mark(trie, k, supports, min_count_);
      ph.build_ms = host.elapsed_ms();
      host.restart();
      emit_frequent_level(trie, k, kept, pre_->original_item, out.itemsets,
                          workers_);
      ph.emit_ms = host.elapsed_ms();
      record_host_phases(out, ph);

      const std::size_t survivors = trie.level_size(k);
      const double level_host_ms = ph.candgen_ms + ph.flatten_ms +
                                   ph.build_ms + ph.emit_ms + cost.host_ms;
      out.levels.push_back({k, ncand, survivors, level_host_ms,
                            cost.device_ms});
      out.host_ms += level_host_ms;

      if (level_span.active()) {
        level_span.add_arg("k", static_cast<double>(k));
        level_span.add_arg("candidates", static_cast<double>(ncand));
        level_span.add_arg("survivors", static_cast<double>(survivors));
        level_span.add_arg("device_ms", cost.device_ms);
        if (level.grouped != nullptr) {
          const double ngroups = static_cast<double>(grouped.num_groups());
          level_span.add_arg("groups", ngroups);
          level_span.add_arg("prefix_reuse",
                             static_cast<double>(ncand) / ngroups);
        }
      }
      auto& metrics = obs::MetricsRegistry::global();
      if (metrics.enabled()) {
        obs::LevelMetrics lm;
        lm.candidates = ncand;
        lm.survivors = survivors;
        lm.words_anded = cost.words_anded;
        lm.popc_ops = cost.popc_ops;
        metrics.record_level(k, lm);
      }

      scope_.level_completed(k, counter.device_ms());
      write_checkpoint(out, k);
      if (survivors == 0) break;
    }
  } catch (const gpusim::CancelledError& e) {
    // Cooperative salvage: the executor drained its in-flight chunks and
    // the counter's per-level device buffers unwound.
    mark_truncated(out, k, e.cause());
  }
  out.device_ms = counter.output_device_ms();
  out.itemsets.canonicalize();
}

bool LevelLoop::cancelled(double device_ms) {
  RunControl* rc = scope_.control();
  if (rc == nullptr) return false;
  scope_.poll(device_ms);
  return rc->cancelled();
}

miners::MiningOutput LevelLoop::salvage_level1() {
  miners::MiningOutput out = level1();
  mark_truncated(out, 2, scope_.control()->cause());
  write_checkpoint(out, 1);
  out.itemsets.canonicalize();
  return out;
}

}  // namespace gpapriori
