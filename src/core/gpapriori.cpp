#include "core/gpapriori.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "baselines/apriori_util.hpp"
#include "core/candidate_trie.hpp"
#include "core/compaction.hpp"
#include "core/materialize.hpp"
#include "core/run_control.hpp"
#include "core/support_kernel.hpp"
#include "core/tiled_support_kernel.hpp"
#include "fim/bitset_ops.hpp"
#include "fim/fimi_io.hpp"
#include "obs/obs.hpp"

namespace gpapriori {
namespace {

// CUDA 2.x grids are limited to 65535 blocks per dimension; levels with
// more candidates are counted in batches, as the real implementation would.
constexpr std::uint32_t kMaxGridX = 65'535;

// Config::kGroupSizeCap is the validated ceiling of --max-group-size; it
// must match the kernel's static shared-memory sizing.
static_assert(TiledSupportKernel::kMaxGroupSize == Config::kGroupSizeCap,
              "Config::kGroupSizeCap must equal the tiled kernel's cap");

/// Level-1 output shared by every rung of the degradation ladder.
miners::MiningOutput make_level1_output(const miners::Preprocessed& pre,
                                        double host_ms) {
  miners::MiningOutput out;
  const std::size_t n = pre.original_item.size();
  for (fim::Item x = 0; x < n; ++x)
    out.itemsets.add(fim::Itemset{pre.original_item[x]}, pre.support[x]);
  out.levels.push_back({1, n, n, host_ms, 0});
  out.host_ms += host_ms;
  return out;
}

/// Loads and validates a --resume snapshot against this run's inputs: the
/// dataset digest proves the same transactions, min-count/max-size prove
/// the same thresholds. (The layout digest is checked separately, after
/// preprocessing.) Any mismatch is an I/O-class error — wrong file, not a
/// device fault — so it maps to the CLI's I/O exit code.
fim::MiningCheckpoint load_resume(const std::string& path,
                                  std::uint64_t dataset_dig,
                                  fim::Support min_count,
                                  std::size_t max_itemset_size) {
  fim::MiningCheckpoint cp = fim::MiningCheckpoint::read(path);
  if (cp.dataset_digest != dataset_dig)
    throw fim::IoError(
        "resume rejected: checkpoint was taken on a different dataset: " +
        path);
  if (cp.min_count != min_count)
    throw fim::IoError("resume rejected: checkpoint min-count " +
                       std::to_string(cp.min_count) + " != run min-count " +
                       std::to_string(min_count) + ": " + path);
  if (cp.max_itemset_size != max_itemset_size)
    throw fim::IoError(
        "resume rejected: checkpoint max-itemset-size mismatch: " + path);
  return cp;
}

/// Replays candidate generation for levels 2..cp.completed_level with the
/// snapshot's recorded supports injected instead of recounted. Candidate
/// generation is deterministic, so the trie and emitted itemsets end
/// bit-identical to the interrupted run's state — no device work needed
/// for replayed levels. Returns the highest level replayed (>= 1).
std::size_t replay_levels(const fim::MiningCheckpoint& cp,
                          const miners::Preprocessed& pre,
                          fim::Support min_count, CandidateTrie& trie,
                          miners::MiningOutput& out, std::uint32_t workers) {
  fim::ItemsetCollection saved = cp.itemsets;
  saved.build_index();
  // Replayed levels report the interrupted run's recorded stats, so a
  // resumed run's LevelStats table matches the run it continues.
  for (const fim::CheckpointLevel& lv : cp.levels)
    if (lv.level == 1 && !out.levels.empty())
      out.levels[0] = {1, static_cast<std::size_t>(lv.candidates),
                       static_cast<std::size_t>(lv.frequent), lv.host_ms,
                       lv.device_ms};
  std::size_t replayed = 1;
  for (std::size_t k = 2; k <= cp.completed_level; ++k) {
    const std::size_t ncand = trie.extend();
    if (ncand == 0) break;
    std::vector<fim::Support> supports(ncand, 0);
    for (std::size_t i = 0; i < ncand; ++i) {
      const auto rows = trie.candidate_row_span(k, i);
      std::vector<fim::Item> items;
      items.reserve(rows.size());
      for (fim::Item r : rows) items.push_back(pre.original_item[r]);
      // Pruned candidates are absent from the snapshot: 0 keeps them
      // below min_count, exactly as the original counting did.
      supports[i] =
          saved.support_of(fim::Itemset(std::move(items))).value_or(0);
    }
    trie.mark_frequent(k, supports, min_count);
    std::vector<fim::Support> kept;
    kept.reserve(trie.level_size(k));
    for (fim::Support s : supports)
      if (s >= min_count) kept.push_back(s);
    emit_frequent_level(trie, k, kept, pre.original_item, out.itemsets,
                        workers);
    for (const fim::CheckpointLevel& lv : cp.levels)
      if (lv.level == k)
        out.levels.push_back({k, static_cast<std::size_t>(lv.candidates),
                              static_cast<std::size_t>(lv.frequent),
                              lv.host_ms, lv.device_ms});
    replayed = k;
    if (trie.level_size(k) == 0) break;
  }
  return replayed;
}

/// Largest per-partition transaction count whose bitset slice (n rows at
/// the 64-byte-aligned stride) fits `budget_bytes`; 0 when even a
/// 512-transaction chunk does not fit.
std::size_t pick_chunk_trans(std::size_t num_trans, std::size_t n,
                             std::size_t budget_bytes) {
  auto slice_bytes = [&](std::size_t t) {
    const std::size_t words = (t + 31) / 32;
    const std::size_t stride = (words + 15) / 16 * 16;
    return n * stride * 4;
  };
  std::size_t chunk = num_trans;
  while (chunk > 512 && slice_bytes(chunk) > budget_bytes)
    chunk = (chunk + 1) / 2;
  return slice_bytes(chunk) > budget_bytes ? 0 : chunk;
}

/// Splits the preprocessed database into transaction chunks and builds one
/// bitset slice per chunk. Support is additive over the partition, so
/// per-chunk counts summed on the host are exact.
std::vector<fim::BitsetStore> build_slices(const fim::TransactionDb& db,
                                           std::size_t n,
                                           std::size_t chunk_trans,
                                           std::uint32_t workers) {
  const std::size_t num_trans = db.num_transactions();
  std::vector<fim::Item> rows(n);
  for (fim::Item i = 0; i < n; ++i) rows[i] = i;
  std::vector<fim::BitsetStore> slices;
  slices.reserve((num_trans + chunk_trans - 1) / chunk_trans);
  for (std::size_t lo = 0; lo < num_trans; lo += chunk_trans) {
    const std::size_t hi = std::min(num_trans, lo + chunk_trans);
    fim::TransactionDb::Builder b;
    for (std::size_t t = lo; t < hi; ++t) {
      auto tx = db.transaction(t);
      b.add({tx.begin(), tx.end()});
    }
    fim::TransactionDb part = std::move(b).build();
    slices.push_back(fim::BitsetStore::from_db(part, rows, workers));
  }
  return slices;
}

/// The level loop, unified over both device rungs of the ladder. A single
/// slice is the paper's static design (bitsets resident after one upload);
/// multiple slices stream each chunk through one resident buffer every
/// level, summing per-chunk supports on the host. Device allocations are
/// scoped so a fault mid-level unwinds with a clean arena, letting the
/// caller retry on the next rung.
void mine_levels_on_device(FaultAwareDevice& fdev,
                           const miners::Preprocessed& pre,
                           std::vector<fim::BitsetStore>& slices,
                           const Config& cfg,
                           const miners::MiningParams& params,
                           fim::Support min_count, miners::MiningOutput& out,
                           std::vector<gpusim::KernelStats>* history,
                           RunScope& scope, std::uint64_t dataset_dig,
                           std::uint64_t layout_dig,
                           const fim::MiningCheckpoint* resume) {
  gpusim::Device& device = fdev.device();
  const std::size_t n = pre.original_item.size();
  const bool resident = slices.size() == 1;
  const bool tiled = resolve_tiled(cfg.tiled);
  const std::uint32_t workers = cfg.resolve_workers();
  const std::uint32_t group_cap_cfg = cfg.resolve_max_group_size();
  auto device_ms = [&device] { return device.ledger().total_ns() / 1e6; };

  // ---- Host: initial vertical compaction (measured; DESIGN.md §12). ----
  if (cfg.compact_level >= 1) {
    miners::StopWatch compact_watch;
    obs::ScopedSpan span(obs::SpanKind::kOther, "compact-columns");
    const std::uint64_t dropped = compact_slices_initial(slices);
    if (span.active()) {
      span.add_arg("columns_dropped", static_cast<double>(dropped));
      span.add_arg("level", 1.0);
    }
    const double compact_ms = compact_watch.elapsed_ms();
    out.host_ms += compact_ms;
    miners::HostPhases ph;
    ph.build_ms = compact_ms;
    record_host_phases(out, ph);
  }

  CandidateTrie trie(n);
  trie.set_workers(workers);
  // `k` is the level currently being counted; anything thrown while it is
  // in flight leaves `out` holding exactly the completed levels < k, which
  // is what the CancelledError handler below salvages.
  std::size_t k = 2;
  try {
  std::size_t max_slice_words = 0;
  for (const auto& s : slices)
    max_slice_words = std::max(max_slice_words, s.arena().size());

  ScopedDeviceAlloc d_bits(fdev, max_slice_words,
                           fim::BitsetStore::kAlignBytes);
  if (resident) fdev.upload(d_bits.get(), slices[0].arena());

  if (resume != nullptr) {
    k = replay_levels(*resume, pre, min_count, trie, out, workers) + 1;
  } else {
    maybe_write_checkpoint(scope, out, 1, dataset_dig, layout_dig, min_count,
                           static_cast<std::uint32_t>(params.max_itemset_size));
  }

  miners::StopWatch host;
  for (;; ++k) {
    if (params.max_itemset_size && k > params.max_itemset_size) break;
    scope.check("mine-level", device_ms());

    obs::ScopedSpan level_span(obs::SpanKind::kMineLevel, "mine-level");

    host.restart();
    miners::HostPhases ph;
    std::size_t ncand = 0;
    std::vector<std::uint32_t> flat;
    CandidateTrie::GroupedLevel grouped;
    {
      obs::ScopedSpan cand_span(obs::SpanKind::kCandidateGen, "candidate-gen");
      ncand = trie.extend();
      ph.candgen_ms = host.elapsed_ms();
      ph.candgen_shards = trie.last_extend_shards();
      if (ncand != 0) {
        const miners::StopWatch flatten_watch;
        if (tiled)
          grouped = trie.flatten_level_grouped(k, group_cap_cfg);
        else
          flat = trie.flatten_level(k);
        ph.flatten_ms = flatten_watch.elapsed_ms();
      }
      if (cand_span.active()) {
        cand_span.add_arg("k", static_cast<double>(k));
        cand_span.add_arg("candidates", static_cast<double>(ncand));
        if (tiled && ncand != 0)
          cand_span.add_arg("groups",
                            static_cast<double>(grouped.num_groups()));
      }
    }
    if (ncand == 0) break;
    double level_host_ms = host.elapsed_ms();

    const std::size_t ngroups = grouped.num_groups();
    const std::uint32_t group_cap = tiled ? grouped.max_group_size() : 0;

    const double device_ns_before = device.ledger().total_ns();

    // Tiled layout ships three arrays (shared prefixes, per-candidate last
    // items, group offsets) PACKED into one allocation and one upload — a
    // per-level transfer pays pcie_latency_us regardless of size, and at
    // chess scale that fixed cost would eat the kernel-side win three
    // times over. The complete intersection ships the k-major flattening.
    // Either way supports land at global candidate indices.
    std::optional<ScopedDeviceAlloc> d_cand, d_tab;
    gpusim::DevicePtr<std::uint32_t> d_prefix, d_sib, d_off;
    ScopedDeviceAlloc d_sup(fdev, ncand);
    if (tiled) {
      std::vector<std::uint32_t> packed;
      packed.reserve(grouped.prefix_rows.size() +
                     grouped.sibling_rows.size() +
                     grouped.group_offsets.size());
      packed.insert(packed.end(), grouped.prefix_rows.begin(),
                    grouped.prefix_rows.end());
      packed.insert(packed.end(), grouped.sibling_rows.begin(),
                    grouped.sibling_rows.end());
      packed.insert(packed.end(), grouped.group_offsets.begin(),
                    grouped.group_offsets.end());
      d_tab.emplace(fdev, packed.size());
      fdev.upload(d_tab->get(), std::span<const std::uint32_t>(packed));
      d_prefix = d_tab->get();
      d_sib = d_prefix + grouped.prefix_rows.size();
      d_off = d_sib + grouped.sibling_rows.size();
    } else {
      d_cand.emplace(fdev, flat.size());
      fdev.upload(d_cand->get(), std::span<const std::uint32_t>(flat));
    }

    std::vector<fim::Support> supports(ncand, 0);
    std::vector<std::uint32_t> partial(ncand);
    for (const auto& slice : slices) {
      if (!resident) fdev.upload(d_bits.get(), slice.arena());
      const std::uint32_t block_size =
          cfg.resolve_block_size(slice.words_per_row());

      if (tiled) {
        TiledSupportKernel::Args args;
        args.bitsets = d_bits.get();
        args.stride_words =
            static_cast<std::uint32_t>(slice.row_stride_words());
        args.words_per_row = static_cast<std::uint32_t>(slice.words_per_row());
        args.prefix_rows = d_prefix;
        args.sibling_rows = d_sib;
        args.group_offsets = d_off;
        args.k = static_cast<std::uint32_t>(k);
        args.max_group_size = group_cap;
        args.supports = d_sup.get();

        for (std::uint32_t done = 0; done < ngroups;) {
          const auto batch = std::min<std::uint32_t>(
              kMaxGridX, static_cast<std::uint32_t>(ngroups) - done);
          args.first_group = done;
          TiledSupportKernel kernel(args, cfg.unroll);
          gpusim::LaunchConfig lcfg{gpusim::Dim3{batch},
                                    gpusim::Dim3{block_size}};
          gpusim::KernelStats stats = fdev.launch(kernel, lcfg);
          if (history != nullptr) history->push_back(std::move(stats));
          done += batch;
        }
      } else {
        SupportKernel::Args args;
        args.bitsets = d_bits.get();
        args.stride_words =
            static_cast<std::uint32_t>(slice.row_stride_words());
        args.words_per_row = static_cast<std::uint32_t>(slice.words_per_row());
        args.candidates = d_cand->get();
        args.k = static_cast<std::uint32_t>(k);
        args.supports = d_sup.get();

        for (std::uint32_t done = 0; done < ncand;) {
          const auto batch = std::min<std::uint32_t>(
              kMaxGridX, static_cast<std::uint32_t>(ncand) - done);
          args.first_candidate = done;
          SupportKernel kernel(args, cfg.candidate_preload, cfg.unroll);
          gpusim::LaunchConfig lcfg{gpusim::Dim3{batch},
                                    gpusim::Dim3{block_size}};
          gpusim::KernelStats stats = fdev.launch(kernel, lcfg);
          if (history != nullptr) history->push_back(std::move(stats));
          done += batch;
        }
      }

      fdev.download_verified(std::span<std::uint32_t>(partial), d_sup.get());
      for (std::size_t i = 0; i < ncand; ++i) supports[i] += partial[i];
    }
    d_cand.reset();
    d_tab.reset();
    d_sup.reset();
    const double level_device_ms =
        (device.ledger().total_ns() - device_ns_before) / 1e6;

    // ---- Host: prune + record (measured). ----
    host.restart();
    trie.mark_frequent(k, supports, min_count);
    std::vector<fim::Support> kept;
    kept.reserve(trie.level_size(k));
    for (std::uint32_t s : supports)
      if (s >= min_count) kept.push_back(s);
    const double mark_ms = host.elapsed_ms();
    host.restart();
    emit_frequent_level(trie, k, kept, pre.original_item, out.itemsets,
                        workers);
    ph.emit_ms = host.elapsed_ms();
    ph.candgen_ms += mark_ms;
    record_host_phases(out, ph);
    level_host_ms += mark_ms + ph.emit_ms;

    out.levels.push_back(
        {k, ncand, trie.level_size(k), level_host_ms, level_device_ms});
    out.host_ms += level_host_ms;

    if (level_span.active()) {
      level_span.add_arg("k", static_cast<double>(k));
      level_span.add_arg("candidates", static_cast<double>(ncand));
      level_span.add_arg("survivors",
                         static_cast<double>(trie.level_size(k)));
      level_span.add_arg("device_ms", level_device_ms);
      if (tiled) {
        level_span.add_arg("groups", static_cast<double>(ngroups));
        level_span.add_arg("prefix_reuse",
                           ngroups == 0 ? 0.0
                                        : static_cast<double>(ncand) /
                                              static_cast<double>(ngroups));
      }
    }
    auto& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
      obs::LevelMetrics lm;
      lm.candidates = ncand;
      lm.survivors = trie.level_size(k);
      for (const auto& slice : slices) {
        const std::uint64_t W = slice.words_per_row();
        if (tiled) {
          // Tiled arithmetic: each group ANDs its k-1 prefix rows once,
          // then each candidate ANDs + popcounts its last row against the
          // cached tile — the (k-1)·W·(ncand - ngroups) difference is the
          // work the equivalence-class sharing eliminated.
          lm.words_anded +=
              (static_cast<std::uint64_t>(ngroups) * (k - 1) + ncand) * W;
          lm.popc_ops += static_cast<std::uint64_t>(ncand) * W;
          const std::uint64_t ntiles =
              (W + TiledSupportKernel::kTileWords - 1) /
              TiledSupportKernel::kTileWords;
          metrics.add(obs::Counter::kTiledGroups, ngroups);
          metrics.add(obs::Counter::kTiledTiles,
                      static_cast<std::uint64_t>(ngroups) * ntiles);
          metrics.add(obs::Counter::kTiledWordsSaved,
                      static_cast<std::uint64_t>(k - 1) *
                          (ncand - ngroups) * W);
        } else {
          // Complete-intersection arithmetic: every candidate ANDs k rows
          // of words_per_row words and popcounts each intersection word,
          // once per partition slice.
          lm.words_anded += static_cast<std::uint64_t>(ncand) * k * W;
          lm.popc_ops += static_cast<std::uint64_t>(ncand) * W;
        }
      }
      metrics.record_level(k, lm);
    }

    scope.level_completed(k, device_ms());
    maybe_write_checkpoint(scope, out, k, dataset_dig, layout_dig, min_count,
                           static_cast<std::uint32_t>(params.max_itemset_size));

    if (trie.level_size(k) == 0) break;

    // ---- Host: per-level re-compaction (resident store only — streamed
    // slices are re-uploaded every level anyway, so the initial pass is
    // the profitable one there). ----
    if (resident && cfg.compact_level >= 2 && k <= cfg.compact_level) {
      host.restart();
      obs::ScopedSpan span(obs::SpanKind::kOther, "compact-columns");
      if (const auto plan =
              plan_level_recompaction(slices[0], trie, k, n)) {
        slices[0] = fim::BitsetStore::compact_columns(slices[0], *plan);
        fdev.upload(d_bits.get(), slices[0].arena());
        metrics.add(obs::Counter::kCompactColumnsDropped,
                    plan->original_columns - plan->kept());
        if (span.active()) {
          span.add_arg("level", static_cast<double>(k));
          span.add_arg("columns_dropped", static_cast<double>(
                                              plan->original_columns -
                                              plan->kept()));
        }
      }
      const double compact_ms = host.elapsed_ms();
      out.host_ms += compact_ms;
      miners::HostPhases cph;
      cph.build_ms = compact_ms;
      record_host_phases(out, cph);
    }
  }
  } catch (const gpusim::CancelledError& e) {
    // Cooperative salvage: the executor drained its in-flight chunks and
    // every device allocation unwound; keep the completed levels and mark
    // where the run stopped. Cancellation never walks the ladder.
    mark_truncated(out, k, e.cause());
  }
}

}  // namespace

GpApriori::GpApriori(Config cfg) : cfg_(cfg) {
  if (!cfg_.valid_block_size())
    throw std::invalid_argument(
        "GpApriori: block_size must be a power of two in [32, 512]");
  if (cfg_.unroll == 0)
    throw std::invalid_argument("GpApriori: unroll must be >= 1");
  if (!cfg_.valid_max_group_size())
    throw std::invalid_argument(
        "GpApriori: max_group_size must be 0 (auto) or in [1, " +
        std::to_string(Config::kGroupSizeCap) + "]");
}

miners::MiningOutput GpApriori::mine(const fim::TransactionDb& db,
                                     const miners::MiningParams& params) {
  const fim::Support min_count = params.resolve_min_count(db.num_transactions());
  history_.clear();
  ledger_.reset();
  report_.reset();

  RunScope scope(cfg_.run_control);
  RunControl* rc = scope.control();
  const bool snapshotting =
      rc != nullptr && (rc->want_resume() || rc->want_checkpoint());
  LazyDatasetDigest digest(db);
  const std::uint64_t dataset_dig = snapshotting ? digest.get() : 0;
  std::optional<fim::MiningCheckpoint> resume;
  if (rc != nullptr && rc->want_resume())
    resume = load_resume(rc->options().resume_path, dataset_dig, min_count,
                         params.max_itemset_size);

  // ---- Host: preprocessing (measured, shared by every ladder rung). A
  // matching Config::shared_layout (serve DatasetCache) replaces the build
  // with a borrow — pre_ms then measures only the digest verification. ----
  miners::StopWatch host;
  std::optional<miners::Preprocessed> pre_local;
  const miners::Preprocessed& pre =
      resolve_preprocess(cfg_.shared_layout, db, min_count, pre_local,
                         digest);
  const std::size_t n = pre.original_item.size();
  const double pre_ms = host.elapsed_ms();

  const std::uint64_t layout_dig = snapshotting ? layout_digest(pre) : 0;
  if (resume && resume->layout_digest != layout_dig)
    throw fim::IoError(
        "resume rejected: vertical layout digest mismatch (different "
        "preprocessing?): " +
        rc->options().resume_path);

  if (n == 0) {
    miners::MiningOutput out = make_level1_output(pre, pre_ms);
    out.itemsets.canonicalize();
    return out;
  }

  gpusim::DeviceOptions dopts;
  dopts.arena_bytes = cfg_.arena_bytes;
  dopts.strict_memory = cfg_.strict_memory;
  dopts.executor.sample_stride = cfg_.sample_stride;
  dopts.executor.host_threads = cfg_.host_threads;
  dopts.executor.native = cfg_.native;
  dopts.executor.cancel = scope.cancel_token();
  dopts.fault_plan = cfg_.fault_plan;
  gpusim::Device device(cfg_.device, dopts);
  FaultAwareDevice fdev(device, cfg_.retry, report_);
  fdev.set_cancel_token(scope.cancel_token());

  auto finalize = [&](miners::MiningOutput& out) {
    ledger_ = device.ledger();
    report_.device_faults = device.fault_stats();
    out.device_ms = ledger_.total_ns() / 1e6;
    out.itemsets.canonicalize();
  };

  const fim::MiningCheckpoint* resume_ptr = resume ? &*resume : nullptr;

  // A cancellation that lands between rungs salvages the guaranteed-valid
  // prefix (level 1 came straight out of preprocessing) instead of hopping
  // the ladder: the deadline is the reason to stop, not a fault to survive.
  auto salvage_level1 = [&](miners::MiningOutput&& out) {
    mark_truncated(out, 2, rc->cause());
    maybe_write_checkpoint(scope, out, 1, dataset_dig, layout_dig, min_count,
                           static_cast<std::uint32_t>(params.max_itemset_size));
    finalize(out);
    return std::move(out);
  };

  // ---- Rung 1: the paper's static-bitset design. ----
  const std::uint32_t workers = cfg_.resolve_workers();
  miners::StopWatch lost;
  bool oom = false;
  try {
    std::vector<fim::Item> rows(n);
    for (fim::Item i = 0; i < n; ++i) rows[i] = i;
    const miners::StopWatch build_watch;
    std::vector<fim::BitsetStore> single;
    single.push_back(fim::BitsetStore::from_db(pre.db, rows, workers));
    const double build_ms = build_watch.elapsed_ms();
    miners::MiningOutput out = make_level1_output(pre, pre_ms);
    out.host_ms += build_ms;
    miners::HostPhases bph;
    bph.build_ms = build_ms;
    record_host_phases(out, bph);
    mine_levels_on_device(fdev, pre, single, cfg_, params, min_count, out,
                          &history_, scope, dataset_dig, layout_dig,
                          resume_ptr);
    finalize(out);
    return out;
  } catch (const gpusim::SimError& e) {
    if (!cfg_.allow_degradation) throw;
    oom = dynamic_cast<const gpusim::DeviceOomError*>(&e) != nullptr;
    history_.clear();
    report_.time_lost_ms += lost.elapsed_ms();
    report_.push_event(std::string("static-bitset attempt failed: ") +
                       e.what());
  }

  if (rc != nullptr) {
    scope.poll(device.ledger().total_ns() / 1e6);
    if (rc->cancelled()) return salvage_level1(make_level1_output(pre, pre_ms));
  }

  // ---- Rung 2: partitioned streaming, on device OOM only (persistent
  // launch/transfer failure means the device itself is gone — skip to the
  // CPU). The same Device (and fault-plan op counters) carries over. ----
  if (oom) {
    lost.restart();
    try {
      const std::size_t budget = cfg_.partition_budget_bytes != 0
                                     ? cfg_.partition_budget_bytes
                                     : device.memory().capacity() / 4;
      const std::size_t chunk =
          pick_chunk_trans(pre.db.num_transactions(), n, budget);
      if (chunk == 0)
        throw gpusim::DeviceOomError(
            "partition budget (" + std::to_string(budget) +
            " B) too small for even a 512-transaction chunk");
      const miners::StopWatch build_watch;
      std::vector<fim::BitsetStore> slices =
          build_slices(pre.db, n, chunk, workers);
      const double build_ms = build_watch.elapsed_ms();
      report_.degraded_to = DegradationStep::kPartitioned;
      obs::MetricsRegistry::global().add(obs::Counter::kLadderHops, 1);
      obs::TraceRecorder::global().instant(obs::SpanKind::kLadderHop,
                                           "degrade:static->partitioned");
      report_.push_event("degraded static -> partitioned streaming (" +
                         std::to_string(slices.size()) + " partitions, " +
                         std::to_string(budget) + " B bitset budget)");
      miners::MiningOutput out = make_level1_output(pre, pre_ms);
      out.host_ms += build_ms;
      miners::HostPhases bph;
      bph.build_ms = build_ms;
      record_host_phases(out, bph);
      mine_levels_on_device(fdev, pre, slices, cfg_, params, min_count, out,
                            &history_, scope, dataset_dig, layout_dig,
                            resume_ptr);
      finalize(out);
      return out;
    } catch (const gpusim::SimError& e) {
      history_.clear();
      report_.time_lost_ms += lost.elapsed_ms();
      report_.push_event(std::string("partitioned attempt failed: ") +
                         e.what());
    }

    if (rc != nullptr) {
      scope.poll(device.ledger().total_ns() / 1e6);
      if (rc->cancelled())
        return salvage_level1(make_level1_output(pre, pre_ms));
    }
  }

  // ---- Rung 3: CPU_TEST — same algorithm, no device. Always succeeds,
  // and produces the identical (itemset, support) set. ----
  report_.degraded_to = DegradationStep::kCpu;
  obs::MetricsRegistry::global().add(obs::Counter::kLadderHops, 1);
  obs::TraceRecorder::global().instant(obs::SpanKind::kLadderHop,
                                       "degrade:->cpu-test");
  report_.push_event("degraded to CPU_TEST (device abandoned)");
  ledger_ = device.ledger();
  report_.device_faults = device.fault_stats();
  miners::MiningOutput out =
      CpuBitsetApriori(rc, resolve_tiled(cfg_.tiled), cfg_.compact_level,
                       cfg_.max_group_size, cfg_.host_threads)
          .mine(db, params);
  return out;
}

miners::MiningOutput CpuBitsetApriori::mine(const fim::TransactionDb& db,
                                            const miners::MiningParams& params) {
  const miners::StopWatch total;
  miners::MiningOutput out;
  const fim::Support min_count = params.resolve_min_count(db.num_transactions());

  RunScope scope(run_control_);
  RunControl* rc = scope.control();
  const bool snapshotting =
      rc != nullptr && (rc->want_resume() || rc->want_checkpoint());
  const std::uint64_t dataset_dig =
      snapshotting ? fim::dataset_digest(db) : 0;
  std::optional<fim::MiningCheckpoint> resume;
  if (rc != nullptr && rc->want_resume())
    resume = load_resume(rc->options().resume_path, dataset_dig, min_count,
                         params.max_itemset_size);

  miners::Preprocessed pre =
      miners::preprocess(db, min_count, miners::ItemOrder::kAscendingFreq);
  const std::size_t n = pre.original_item.size();

  const std::uint64_t layout_dig = snapshotting ? layout_digest(pre) : 0;
  if (resume && resume->layout_digest != layout_dig)
    throw fim::IoError(
        "resume rejected: vertical layout digest mismatch (different "
        "preprocessing?): " +
        rc->options().resume_path);

  // Same host-pipeline knobs as the device path: the worker count and
  // group cap resolve through a throwaway Config so env overrides
  // (GPAPRIORI_HOST_THREADS / GPAPRIORI_MAX_GROUP_SIZE) behave identically.
  Config knobs;
  knobs.host_threads = host_threads_;
  knobs.max_group_size = max_group_size_;
  const std::uint32_t workers = knobs.resolve_workers();
  const std::uint32_t group_cap_cfg = knobs.resolve_max_group_size();

  std::vector<fim::Item> rows(n);
  for (fim::Item i = 0; i < n; ++i) rows[i] = i;
  const miners::StopWatch build_watch;
  fim::BitsetStore store = fim::BitsetStore::from_db(pre.db, rows, workers);
  if (compact_level_ >= 1 && n > 0) {
    std::vector<fim::BitsetStore> single;
    single.push_back(std::move(store));
    compact_slices_initial(single);
    store = std::move(single[0]);
  }
  {
    miners::HostPhases bph;
    bph.build_ms = build_watch.elapsed_ms();
    record_host_phases(out, bph);
  }

  CandidateTrie trie(n);
  trie.set_workers(workers);
  for (fim::Item x = 0; x < n; ++x)
    out.itemsets.add(fim::Itemset{pre.original_item[x]}, pre.support[x]);
  out.levels.push_back({1, n, n, 0, 0});

  std::size_t k = 2;
  try {
    if (resume.has_value() && n > 0) {
      k = replay_levels(*resume, pre, min_count, trie, out, workers) + 1;
    } else {
      maybe_write_checkpoint(
          scope, out, 1, dataset_dig, layout_dig, min_count,
          static_cast<std::uint32_t>(params.max_itemset_size));
    }

    for (; n > 0; ++k) {
      if (params.max_itemset_size && k > params.max_itemset_size) break;
      scope.check("cpu-level");
      const miners::StopWatch level;
      miners::HostPhases ph;
      const std::size_t ncand = trie.extend();
      ph.candgen_ms = level.elapsed_ms();
      ph.candgen_shards = trie.last_extend_shards();
      if (ncand == 0) break;

      std::vector<fim::Support> supports(ncand);
      if (tiled_) {
        // The kernel's counting structure on the host: materialize each
        // sibling group's k-1 prefix AND once, then popcount every
        // sibling's last row against it. Identical supports to the
        // complete intersection (AND is associative/commutative).
        const miners::StopWatch flatten_watch;
        const CandidateTrie::GroupedLevel grouped =
            trie.flatten_level_grouped(k, group_cap_cfg);
        ph.flatten_ms = flatten_watch.elapsed_ms();
        const std::uint32_t p = grouped.prefix_len;
        std::vector<fim::BitsetStore::Word> mask(store.row_stride_words());
        for (std::size_t g = 0; g < grouped.num_groups(); ++g) {
          store.and_rows(std::span<const std::uint32_t>(grouped.prefix_rows)
                             .subspan(g * p, p),
                         mask);
          for (std::uint32_t c = grouped.group_offsets[g];
               c < grouped.group_offsets[g + 1]; ++c)
            supports[c] = store.masked_popcount(mask, grouped.sibling_rows[c]);
        }
      } else {
        // Complete intersection on the host: the same k-way AND + popcount
        // the kernel performs, over the same 64-byte-aligned store.
        const miners::StopWatch flatten_watch;
        const std::vector<std::uint32_t> flat = trie.flatten_level(k);
        ph.flatten_ms = flatten_watch.elapsed_ms();
        for (std::size_t c = 0; c < ncand; ++c)
          supports[c] = store.and_popcount(
              std::span<const std::uint32_t>(flat).subspan(c * k, k));
      }

      const miners::StopWatch mark_watch;
      trie.mark_frequent(k, supports, min_count);
      std::vector<fim::Support> kept;
      kept.reserve(trie.level_size(k));
      for (fim::Support s : supports)
        if (s >= min_count) kept.push_back(s);
      ph.candgen_ms += mark_watch.elapsed_ms();
      const miners::StopWatch emit_watch;
      emit_frequent_level(trie, k, kept, pre.original_item, out.itemsets,
                          workers);
      ph.emit_ms = emit_watch.elapsed_ms();
      record_host_phases(out, ph);

      out.levels.push_back(
          {k, ncand, trie.level_size(k), level.elapsed_ms(), 0});

      scope.level_completed(k);
      maybe_write_checkpoint(
          scope, out, k, dataset_dig, layout_dig, min_count,
          static_cast<std::uint32_t>(params.max_itemset_size));

      if (trie.level_size(k) == 0) break;

      // Per-level re-compaction, same rule and heuristic as the device
      // resident path.
      if (compact_level_ >= 2 && k <= compact_level_) {
        if (const auto plan = plan_level_recompaction(store, trie, k, n)) {
          store = fim::BitsetStore::compact_columns(store, *plan);
          obs::MetricsRegistry::global().add(
              obs::Counter::kCompactColumnsDropped,
              plan->original_columns - plan->kept());
        }
      }
    }
  } catch (const gpusim::CancelledError& e) {
    mark_truncated(out, k, e.cause());
  }

  out.itemsets.canonicalize();
  out.host_ms = total.elapsed_ms();
  return out;
}

std::vector<std::unique_ptr<miners::Miner>> make_all_miners(
    const Config& gpapriori_config) {
  std::vector<std::unique_ptr<miners::Miner>> v;
  v.push_back(std::make_unique<GpApriori>(gpapriori_config));
  v.push_back(std::make_unique<CpuBitsetApriori>(
      nullptr, resolve_tiled(gpapriori_config.tiled),
      gpapriori_config.compact_level, gpapriori_config.max_group_size,
      gpapriori_config.host_threads));
  for (auto& m : miners::make_cpu_miners()) v.push_back(std::move(m));
  return v;
}

}  // namespace gpapriori
