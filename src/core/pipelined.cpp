#include "core/pipelined.hpp"

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

PipelinedGpApriori::PipelinedGpApriori(Config cfg,
                                       std::uint32_t chunks_per_level)
    : cfg_(cfg), chunks_(chunks_per_level) {
  if (!cfg_.valid_block_size())
    throw std::invalid_argument(
        "PipelinedGpApriori: block_size must be a power of two in [32, 512]");
  if (chunks_ == 0 || chunks_ > 64)
    throw std::invalid_argument("PipelinedGpApriori: 1..64 chunks per level");
}

miners::MiningOutput PipelinedGpApriori::mine(
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
  const std::uint32_t workers = cfg_.resolve_workers();
  const std::uint32_t group_cap_cfg = cfg_.resolve_max_group_size();
  std::vector<fim::Item> rows(n);
  for (fim::Item i = 0; i < n; ++i) rows[i] = i;
  const miners::StopWatch build_watch;
  fim::BitsetStore store = fim::BitsetStore::from_db(pre.db, rows, workers);
  // Initial compaction only: per-level re-compaction would force a full
  // re-upload barrier mid-pipeline, defeating the overlap this driver
  // exists to demonstrate.
  if (cfg_.compact_level >= 1 && n > 0) {
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
  const bool tiled = resolve_tiled(cfg_.tiled);

  CandidateTrie trie(n);
  trie.set_workers(workers);
  for (fim::Item x = 0; x < n; ++x)
    out.itemsets.add(fim::Itemset{pre.original_item[x]}, pre.support[x]);
  out.levels.push_back({1, n, n, host.elapsed_ms(), 0});
  out.host_ms += host.elapsed_ms();
  if (n == 0) {
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
  dopts.record_launches = false;
  gpusim::Device device(cfg_.device, dopts);
  auto d_bitsets = device.alloc<std::uint32_t>(store.arena().size(),
                                               fim::BitsetStore::kAlignBytes);
  device.copy_to_device(d_bitsets, store.arena());

  const std::uint64_t layout_dig = snapshotting ? layout_digest(pre) : 0;
  maybe_write_checkpoint(scope, out, 1, dataset_dig, layout_dig, min_count,
                         static_cast<std::uint32_t>(params.max_itemset_size));

  std::size_t k = 2;
  try {
  for (;; ++k) {
    if (params.max_itemset_size && k > params.max_itemset_size) break;
    scope.check("pipelined-level", device.ledger().total_ns() / 1e6);
    obs::ScopedSpan level_span(obs::SpanKind::kMineLevel, "pipelined-level");
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

    const double dev_before = device.ledger().total_ns();
    // Double-buffered chunk pipeline: chunk c on stream c % 2. All the
    // device buffers live for the whole level; the pipeline only reorders
    // WHEN transfers/kernels run, not what they touch. The tiled path
    // chunks over sibling GROUPS (each group's supports are a contiguous
    // candidate range, so downloads stay contiguous).
    const std::size_t num_units = tiled ? ngroups : ncand;
    const std::size_t chunk_units = (num_units + chunks_ - 1) / chunks_;
    const std::size_t num_chunks = (num_units + chunk_units - 1) / chunk_units;
    auto d_sup = device.alloc<std::uint32_t>(ncand);
    std::vector<std::uint32_t> supports(ncand);

    gpusim::DevicePtr<std::uint32_t> d_cand, d_prefix, d_sib, d_off;
    const std::size_t p = k - 1;
    if (tiled) {
      d_prefix = device.alloc<std::uint32_t>(grouped.prefix_rows.size());
      d_sib = device.alloc<std::uint32_t>(grouped.sibling_rows.size());
      d_off = device.alloc<std::uint32_t>(grouped.group_offsets.size());
      // The offsets table is tiny and every chunk's kernels read it, so it
      // goes up front on the synchronous queue.
      device.copy_to_device(
          d_off, std::span<const std::uint32_t>(grouped.group_offsets));
    } else {
      d_cand = device.alloc<std::uint32_t>(flat.size());
    }

    auto chunk_bounds = [&](std::size_t c) {
      const std::size_t lo = c * chunk_units;
      return std::pair{lo, std::min(num_units, lo + chunk_units)};
    };
    auto stream_of = [](std::size_t c) {
      return static_cast<gpusim::StreamId>(c % 2);
    };
    // Candidate-range [clo, chi) of a group chunk (tiled): the contiguous
    // run the chunk's kernels write and its download pulls back.
    auto cand_bounds = [&](std::size_t glo, std::size_t ghi) {
      return std::pair<std::size_t, std::size_t>{
          grouped.group_offsets[glo], grouped.group_offsets[ghi]};
    };
    // Issue order matters on the single DMA engine: chunk c+1's UPLOAD
    // must be issued before chunk c's kernel/download or it queues behind
    // that download and the overlap is lost (the classic CUDA 2.x pipeline
    // pitfall — see Timeline tests).
    auto upload_chunk = [&](std::size_t c) {
      const auto [lo, hi] = chunk_bounds(c);
      if (tiled) {
        const auto [clo, chi] = cand_bounds(lo, hi);
        device.copy_to_device_async(
            d_prefix + lo * p,
            std::span<const std::uint32_t>(grouped.prefix_rows)
                .subspan(lo * p, (hi - lo) * p),
            stream_of(c));
        device.copy_to_device_async(
            d_sib + clo,
            std::span<const std::uint32_t>(grouped.sibling_rows)
                .subspan(clo, chi - clo),
            stream_of(c));
      } else {
        device.copy_to_device_async(
            d_cand + lo * k,
            std::span<const std::uint32_t>(flat).subspan(lo * k,
                                                         (hi - lo) * k),
            stream_of(c));
      }
    };

    const gpusim::Dim3 block{cfg_.resolve_block_size(store.words_per_row())};
    upload_chunk(0);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      if (c + 1 < num_chunks) upload_chunk(c + 1);
      const auto [lo, hi] = chunk_bounds(c);
      const std::size_t slice = hi - lo;
      for (std::uint32_t done = 0; done < slice;) {
        const auto batch = std::min<std::uint32_t>(
            65'535, static_cast<std::uint32_t>(slice) - done);
        if (tiled) {
          TiledSupportKernel::Args args;
          args.bitsets = d_bitsets;
          args.stride_words =
              static_cast<std::uint32_t>(store.row_stride_words());
          args.words_per_row =
              static_cast<std::uint32_t>(store.words_per_row());
          args.prefix_rows = d_prefix;
          args.sibling_rows = d_sib;
          args.group_offsets = d_off;
          args.k = static_cast<std::uint32_t>(k);
          args.first_group = static_cast<std::uint32_t>(lo) + done;
          args.max_group_size = grouped.max_group_size();
          args.supports = d_sup;
          TiledSupportKernel kernel(args, cfg_.unroll);
          device.launch_async(kernel, {gpusim::Dim3{batch}, block},
                              stream_of(c));
        } else {
          SupportKernel::Args args;
          args.bitsets = d_bitsets;
          args.stride_words =
              static_cast<std::uint32_t>(store.row_stride_words());
          args.words_per_row =
              static_cast<std::uint32_t>(store.words_per_row());
          args.candidates = d_cand;
          args.k = static_cast<std::uint32_t>(k);
          args.supports = d_sup;
          args.first_candidate = static_cast<std::uint32_t>(lo) + done;
          SupportKernel kernel(args, cfg_.candidate_preload, cfg_.unroll);
          device.launch_async(kernel, {gpusim::Dim3{batch}, block},
                              stream_of(c));
        }
        done += batch;
      }
      const auto [clo, chi] = tiled ? cand_bounds(lo, hi)
                                    : std::pair<std::size_t, std::size_t>{lo, hi};
      device.copy_to_host_async(
          std::span<std::uint32_t>(supports).subspan(clo, chi - clo),
          d_sup + clo, stream_of(c));
    }
    device.synchronize();
    if (tiled) {
      device.free(d_prefix);
      device.free(d_sib);
      device.free(d_off);
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
    for (std::uint32_t s : supports)
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
      level_span.add_arg("chunks", static_cast<double>(num_chunks));
      level_span.add_arg("device_ms", level_device);
    }
    auto& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
      obs::LevelMetrics lm;
      lm.candidates = ncand;
      lm.survivors = trie.level_size(k);
      // Streams reorder when work runs, not what it computes: the total
      // arithmetic matches the synchronous tiled / complete intersection.
      const std::uint64_t W = store.words_per_row();
      if (tiled) {
        lm.words_anded =
            (static_cast<std::uint64_t>(ngroups) * (k - 1) + ncand) * W;
        metrics.add(obs::Counter::kTiledGroups, ngroups);
        metrics.add(obs::Counter::kTiledTiles,
                    static_cast<std::uint64_t>(ngroups) *
                        ((W + TiledSupportKernel::kTileWords - 1) /
                         TiledSupportKernel::kTileWords));
        metrics.add(obs::Counter::kTiledWordsSaved,
                    static_cast<std::uint64_t>(k - 1) * (ncand - ngroups) * W);
      } else {
        lm.words_anded = static_cast<std::uint64_t>(ncand) * k * W;
      }
      lm.popc_ops = static_cast<std::uint64_t>(ncand) * W;
      metrics.record_level(k, lm);
    }

    scope.level_completed(k, device.ledger().total_ns() / 1e6);
    maybe_write_checkpoint(scope, out, k, dataset_dig, layout_dig, min_count,
                           static_cast<std::uint32_t>(params.max_itemset_size));

    if (trie.level_size(k) == 0) break;
  }
  } catch (const gpusim::CancelledError& e) {
    // The async pipeline issues work through the same executor, so a
    // cancelled launch drains deterministically; completed levels survive.
    mark_truncated(out, k, e.cause());
  }

  ledger_ = device.ledger();
  out.device_ms = ledger_.total_ns() / 1e6;
  out.itemsets.canonicalize();
  return out;
}

}  // namespace gpapriori
