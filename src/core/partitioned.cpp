#include "core/partitioned.hpp"

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
#include "obs/obs.hpp"

namespace gpapriori {

PartitionedGpApriori::PartitionedGpApriori(Config cfg,
                                           std::size_t device_bitset_budget_bytes)
    : cfg_(cfg), budget_bytes_(device_bitset_budget_bytes) {
  if (!cfg_.valid_block_size())
    throw std::invalid_argument(
        "PartitionedGpApriori: block_size must be a power of two in [32, 512]");
}

miners::MiningOutput PartitionedGpApriori::mine(
    const fim::TransactionDb& db, const miners::MiningParams& params) {
  miners::MiningOutput out;
  const fim::Support min_count = params.resolve_min_count(db.num_transactions());
  ledger_.reset();

  RunScope scope(cfg_.run_control);
  const bool snapshotting =
      scope.control() != nullptr && scope.control()->want_checkpoint();
  LazyDatasetDigest digest(db);
  const std::uint64_t dataset_dig = snapshotting ? digest.get() : 0;

  miners::StopWatch host;
  std::optional<miners::Preprocessed> pre_local;
  const miners::Preprocessed& pre =
      resolve_preprocess(cfg_.shared_layout, db, min_count, pre_local,
                         digest);
  const std::size_t n = pre.original_item.size();
  const std::size_t num_trans = pre.db.num_transactions();
  const std::uint32_t workers = cfg_.resolve_workers();
  const std::uint32_t group_cap_cfg = cfg_.resolve_max_group_size();

  CandidateTrie trie(n);
  trie.set_workers(workers);
  for (fim::Item x = 0; x < n; ++x)
    out.itemsets.add(fim::Itemset{pre.original_item[x]}, pre.support[x]);
  out.levels.push_back({1, n, n, host.elapsed_ms(), 0});
  out.host_ms += host.elapsed_ms();
  if (n == 0 || num_trans == 0) {
    out.itemsets.canonicalize();
    num_partitions_ = 0;
    return out;
  }

  // Partition geometry: per-chunk bitset bytes = n rows x stride(chunk
  // transactions). Choose the largest chunk length whose slice fits the
  // budget (or everything if budget == 0 / large enough).
  host.restart();
  std::size_t chunk_trans = num_trans;
  if (budget_bytes_ > 0) {
    // stride(words) for t transactions is ceil(t/32) rounded to 16 words.
    auto slice_bytes = [&](std::size_t t) {
      const std::size_t words = (t + 31) / 32;
      const std::size_t stride = (words + 15) / 16 * 16;
      return n * stride * 4;
    };
    while (chunk_trans > 512 && slice_bytes(chunk_trans) > budget_bytes_)
      chunk_trans = (chunk_trans + 1) / 2;
    if (slice_bytes(chunk_trans) > budget_bytes_)
      throw std::invalid_argument(
          "PartitionedGpApriori: budget too small for even a 512-transaction "
          "chunk");
  }
  num_partitions_ = (num_trans + chunk_trans - 1) / chunk_trans;

  // Per-chunk bitset slices, built once on the host.
  std::vector<fim::Item> rows(n);
  for (fim::Item i = 0; i < n; ++i) rows[i] = i;
  std::vector<fim::BitsetStore> slices;
  slices.reserve(num_partitions_);
  for (std::size_t c = 0; c < num_partitions_; ++c) {
    const std::size_t lo = c * chunk_trans;
    const std::size_t hi = std::min(num_trans, lo + chunk_trans);
    fim::TransactionDb::Builder b;
    for (std::size_t t = lo; t < hi; ++t) {
      auto tx = pre.db.transaction(t);
      b.add({tx.begin(), tx.end()});
    }
    fim::TransactionDb part = std::move(b).build();
    slices.push_back(fim::BitsetStore::from_db(part, rows, workers));
  }
  // Initial per-slice compaction only: streamed slices are re-uploaded
  // every level, so the one-shot pass captures most of the benefit.
  if (cfg_.compact_level >= 1) compact_slices_initial(slices);
  {
    miners::HostPhases bph;
    bph.build_ms = host.elapsed_ms();
    record_host_phases(out, bph);
  }
  out.host_ms += host.elapsed_ms();

  const bool tiled = resolve_tiled(cfg_.tiled);

  gpusim::DeviceOptions dopts;
  dopts.arena_bytes = cfg_.arena_bytes;
  dopts.strict_memory = cfg_.strict_memory;
  dopts.executor.sample_stride = cfg_.sample_stride;
  dopts.executor.host_threads = cfg_.host_threads;
  dopts.executor.native = cfg_.native;
  dopts.executor.cancel = scope.cancel_token();
  dopts.record_launches = false;
  dopts.fault_plan = cfg_.fault_plan;
  gpusim::Device device(cfg_.device, dopts);

  // One resident slice buffer, sized for the largest chunk.
  std::size_t max_slice_words = 0;
  for (const auto& s : slices)
    max_slice_words = std::max(max_slice_words, s.arena().size());
  auto d_bits = device.alloc<std::uint32_t>(max_slice_words,
                                            fim::BitsetStore::kAlignBytes);

  const std::uint64_t layout_dig = snapshotting ? layout_digest(pre) : 0;
  maybe_write_checkpoint(scope, out, 1, dataset_dig, layout_dig, min_count,
                         static_cast<std::uint32_t>(params.max_itemset_size));

  std::size_t k = 2;
  try {
  for (;; ++k) {
    if (params.max_itemset_size && k > params.max_itemset_size) break;
    scope.check("partitioned-level", device.ledger().total_ns() / 1e6);
    obs::ScopedSpan level_span(obs::SpanKind::kMineLevel, "partitioned-level");
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
      }
    }
    if (ncand == 0) break;
    double level_host = host.elapsed_ms();
    const std::size_t ngroups = grouped.num_groups();
    const std::uint32_t group_cap = tiled ? grouped.max_group_size() : 0;

    const double dev_before = device.ledger().total_ns();
    gpusim::DevicePtr<std::uint32_t> d_cand, d_tab, d_prefix, d_sib, d_off;
    if (tiled) {
      // Pack the three candidate tables into one upload: each transfer
      // pays fixed PCIe latency, so three small per-level uploads would
      // cost more than the data itself.
      std::vector<std::uint32_t> packed;
      packed.reserve(grouped.prefix_rows.size() + grouped.sibling_rows.size() +
                     grouped.group_offsets.size());
      packed.insert(packed.end(), grouped.prefix_rows.begin(),
                    grouped.prefix_rows.end());
      packed.insert(packed.end(), grouped.sibling_rows.begin(),
                    grouped.sibling_rows.end());
      packed.insert(packed.end(), grouped.group_offsets.begin(),
                    grouped.group_offsets.end());
      d_tab = device.alloc<std::uint32_t>(packed.size());
      device.copy_to_device(d_tab, std::span<const std::uint32_t>(packed));
      d_prefix = d_tab;
      d_sib = d_prefix + grouped.prefix_rows.size();
      d_off = d_sib + grouped.sibling_rows.size();
    } else {
      d_cand = device.alloc<std::uint32_t>(flat.size());
      device.copy_to_device(d_cand, std::span<const std::uint32_t>(flat));
    }
    auto d_sup = device.alloc<std::uint32_t>(ncand);

    std::vector<fim::Support> supports(ncand, 0);
    std::vector<std::uint32_t> partial(ncand);
    for (const auto& slice : slices) {
      // Stream this chunk's bitsets through the resident buffer.
      device.copy_to_device(d_bits, slice.arena());
      const gpusim::Dim3 block{cfg_.resolve_block_size(slice.words_per_row())};
      if (tiled) {
        TiledSupportKernel::Args args;
        args.bitsets = d_bits;
        args.stride_words =
            static_cast<std::uint32_t>(slice.row_stride_words());
        args.words_per_row = static_cast<std::uint32_t>(slice.words_per_row());
        args.prefix_rows = d_prefix;
        args.sibling_rows = d_sib;
        args.group_offsets = d_off;
        args.k = static_cast<std::uint32_t>(k);
        args.max_group_size = group_cap;
        args.supports = d_sup;
        for (std::uint32_t done = 0; done < ngroups;) {
          const auto batch = std::min<std::uint32_t>(
              65'535, static_cast<std::uint32_t>(ngroups) - done);
          args.first_group = done;
          TiledSupportKernel kernel(args, cfg_.unroll);
          device.launch(kernel, {gpusim::Dim3{batch}, block});
          done += batch;
        }
      } else {
        SupportKernel::Args args;
        args.bitsets = d_bits;
        args.stride_words =
            static_cast<std::uint32_t>(slice.row_stride_words());
        args.words_per_row = static_cast<std::uint32_t>(slice.words_per_row());
        args.candidates = d_cand;
        args.k = static_cast<std::uint32_t>(k);
        args.supports = d_sup;
        for (std::uint32_t done = 0; done < ncand;) {
          const auto batch = std::min<std::uint32_t>(
              65'535, static_cast<std::uint32_t>(ncand) - done);
          args.first_candidate = done;
          SupportKernel kernel(args, cfg_.candidate_preload, cfg_.unroll);
          device.launch(kernel, {gpusim::Dim3{batch}, block});
          done += batch;
        }
      }
      device.copy_to_host(std::span<std::uint32_t>(partial), d_sup);
      for (std::size_t i = 0; i < ncand; ++i) supports[i] += partial[i];
    }
    if (tiled) {
      device.free(d_tab);
    } else {
      device.free(d_cand);
    }
    device.free(d_sup);
    const double level_device =
        (device.ledger().total_ns() - dev_before) / 1e6;

    host.restart();
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
    level_host += host.elapsed_ms();

    out.levels.push_back(
        {k, ncand, trie.level_size(k), level_host, level_device});
    out.host_ms += level_host;

    if (level_span.active()) {
      level_span.add_arg("k", static_cast<double>(k));
      level_span.add_arg("candidates", static_cast<double>(ncand));
      level_span.add_arg("survivors",
                         static_cast<double>(trie.level_size(k)));
      level_span.add_arg("partitions", static_cast<double>(slices.size()));
      level_span.add_arg("device_ms", level_device);
    }
    auto& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
      obs::LevelMetrics lm;
      lm.candidates = ncand;
      lm.survivors = trie.level_size(k);
      // Every candidate is counted against every partition slice.
      for (const auto& slice : slices) {
        const std::uint64_t W = slice.words_per_row();
        if (tiled) {
          lm.words_anded +=
              (static_cast<std::uint64_t>(ngroups) * (k - 1) + ncand) * W;
          metrics.add(obs::Counter::kTiledGroups, ngroups);
          metrics.add(obs::Counter::kTiledTiles,
                      static_cast<std::uint64_t>(ngroups) *
                          ((W + TiledSupportKernel::kTileWords - 1) /
                           TiledSupportKernel::kTileWords));
          metrics.add(obs::Counter::kTiledWordsSaved,
                      static_cast<std::uint64_t>(k - 1) *
                          (ncand - ngroups) * W);
        } else {
          lm.words_anded += static_cast<std::uint64_t>(ncand) * k * W;
        }
        lm.popc_ops += static_cast<std::uint64_t>(ncand) * W;
      }
      metrics.record_level(k, lm);
    }

    scope.level_completed(k, device.ledger().total_ns() / 1e6);
    maybe_write_checkpoint(scope, out, k, dataset_dig, layout_dig, min_count,
                           static_cast<std::uint32_t>(params.max_itemset_size));

    if (trie.level_size(k) == 0) break;
  }
  } catch (const gpusim::CancelledError& e) {
    // Salvage the completed levels; level k never finished counting. Any
    // device buffers still live die with `device` below.
    mark_truncated(out, k, e.cause());
  }

  ledger_ = device.ledger();
  out.device_ms = ledger_.total_ns() / 1e6;
  out.itemsets.canonicalize();
  return out;
}

}  // namespace gpapriori
