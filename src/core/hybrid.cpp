#include "core/hybrid.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "baselines/apriori_util.hpp"
#include "core/candidate_trie.hpp"
#include "core/materialize.hpp"
#include "core/run_control.hpp"
#include "core/support_kernel.hpp"
#include "fim/bitset_ops.hpp"
#include "obs/obs.hpp"

namespace gpapriori {

HybridApriori::HybridApriori(Config cfg, double initial_gpu_fraction)
    : cfg_(cfg), initial_gpu_fraction_(initial_gpu_fraction) {
  if (!cfg_.valid_block_size())
    throw std::invalid_argument(
        "HybridApriori: block_size must be a power of two in [32, 512]");
  if (initial_gpu_fraction_ < 0.0 || initial_gpu_fraction_ > 1.0)
    throw std::invalid_argument(
        "HybridApriori: initial_gpu_fraction must be in [0, 1]");
}

miners::MiningOutput HybridApriori::mine(const fim::TransactionDb& db,
                                         const miners::MiningParams& params) {
  miners::MiningOutput out;
  const fim::Support min_count = params.resolve_min_count(db.num_transactions());
  reports_.clear();

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
  std::vector<fim::Item> rows(n);
  for (fim::Item i = 0; i < n; ++i) rows[i] = i;
  const miners::StopWatch build_watch;
  const fim::BitsetStore store = fim::BitsetStore::from_db(pre.db, rows, workers);
  {
    miners::HostPhases bph;
    bph.build_ms = build_watch.elapsed_ms();
    record_host_phases(out, bph);
  }

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

  // Observed per-candidate costs (ms), updated every level.
  double cpu_ms_per_cand = 0, gpu_ms_per_cand = 0;
  double gpu_fraction = std::clamp(initial_gpu_fraction_, 0.0, 1.0);

  const std::uint64_t layout_dig = snapshotting ? layout_digest(pre) : 0;
  maybe_write_checkpoint(scope, out, 1, dataset_dig, layout_dig, min_count,
                         static_cast<std::uint32_t>(params.max_itemset_size));

  std::size_t k = 2;
  try {
  for (;; ++k) {
    if (params.max_itemset_size && k > params.max_itemset_size) break;
    scope.check("hybrid-level", device.ledger().total_ns() / 1e6);
    obs::ScopedSpan level_span(obs::SpanKind::kMineLevel, "hybrid-level");
    host.restart();
    miners::HostPhases ph;
    std::size_t ncand = 0;
    std::span<const std::uint32_t> flat;
    {
      obs::ScopedSpan cand_span(obs::SpanKind::kCandidateGen, "candidate-gen");
      ncand = trie.extend();
      ph.candgen_ms = host.elapsed_ms();
      ph.candgen_shards = trie.last_extend_shards();
      // Zero-copy: the trie caches every candidate's full path, so the
      // k-major table the kernel and the host share both read is just a
      // view of the level arena.
      if (ncand != 0) flat = trie.level_paths(k);
      if (cand_span.active()) {
        cand_span.add_arg("k", static_cast<double>(k));
        cand_span.add_arg("candidates", static_cast<double>(ncand));
      }
    }
    if (ncand == 0) break;
    double level_host = host.elapsed_ms();

    // Balance: choose f so f*g == (1-f)*c given per-candidate costs g, c.
    if (cpu_ms_per_cand > 0 && gpu_ms_per_cand > 0)
      gpu_fraction =
          cpu_ms_per_cand / (cpu_ms_per_cand + gpu_ms_per_cand);
    const std::size_t gpu_cands =
        std::min(ncand, static_cast<std::size_t>(
                            static_cast<double>(ncand) * gpu_fraction + 0.5));
    const std::size_t cpu_cands = ncand - gpu_cands;

    std::vector<fim::Support> supports(ncand);

    // --- device share: candidates [0, gpu_cands) ---
    double gpu_ms = 0;
    if (gpu_cands > 0) {
      const double before = device.ledger().total_ns();
      auto d_cand = device.alloc<std::uint32_t>(gpu_cands * k);
      device.copy_to_device(
          d_cand, std::span<const std::uint32_t>(flat).subspan(0, gpu_cands * k));
      auto d_sup = device.alloc<std::uint32_t>(gpu_cands);
      SupportKernel::Args args;
      args.bitsets = d_bitsets;
      args.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
      args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
      args.candidates = d_cand;
      args.k = static_cast<std::uint32_t>(k);
      args.supports = d_sup;
      for (std::uint32_t done = 0; done < gpu_cands;) {
        const auto batch = std::min<std::uint32_t>(
            65'535, static_cast<std::uint32_t>(gpu_cands) - done);
        args.first_candidate = done;
        SupportKernel kernel(args, cfg_.candidate_preload, cfg_.unroll);
        device.launch(kernel,
                      {gpusim::Dim3{batch},
                       gpusim::Dim3{cfg_.resolve_block_size(store.words_per_row())}});
        done += batch;
      }
      std::vector<std::uint32_t> gpu_sup(gpu_cands);
      device.copy_to_host(std::span<std::uint32_t>(gpu_sup), d_sup);
      std::copy(gpu_sup.begin(), gpu_sup.end(), supports.begin());
      device.free(d_cand);
      device.free(d_sup);
      gpu_ms = (device.ledger().total_ns() - before) / 1e6;
    }

    // --- host share: candidates [gpu_cands, ncand), measured ---
    double cpu_ms = 0;
    if (cpu_cands > 0) {
      miners::StopWatch cpu_watch;
      for (std::size_t c = gpu_cands; c < ncand; ++c) {
        // The host share can be the level's long pole; honour cancellation
        // at the same granularity as the device's chunk dispatch.
        if ((c & 0x3ff) == 0)
          scope.check("hybrid-cpu-share", device.ledger().total_ns() / 1e6);
        supports[c] = store.and_popcount(
            std::span<const std::uint32_t>(flat).subspan(c * k, k));
      }
      cpu_ms = cpu_watch.elapsed_ms();
    }

    // Throughput feedback for the next level's split.
    if (gpu_cands > 0)
      gpu_ms_per_cand = gpu_ms / static_cast<double>(gpu_cands);
    if (cpu_cands > 0)
      cpu_ms_per_cand = cpu_ms / static_cast<double>(cpu_cands);

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

    // Overlap model: both shares run concurrently; the level costs the
    // slower side. Recorded in the level's device_ms column (host_ms keeps
    // the serial trie work).
    const double counted = std::max(cpu_ms, gpu_ms);
    reports_.push_back({k, ncand,
                        ncand ? static_cast<double>(gpu_cands) /
                                    static_cast<double>(ncand)
                              : 0.0,
                        cpu_ms, gpu_ms});
    out.levels.push_back(
        {k, ncand, trie.level_size(k), level_host, counted});
    out.host_ms += level_host;
    out.device_ms += counted;

    if (level_span.active()) {
      level_span.add_arg("k", static_cast<double>(k));
      level_span.add_arg("candidates", static_cast<double>(ncand));
      level_span.add_arg("survivors",
                         static_cast<double>(trie.level_size(k)));
      level_span.add_arg("gpu_fraction",
                         ncand ? static_cast<double>(gpu_cands) /
                                     static_cast<double>(ncand)
                               : 0.0);
    }
    auto& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
      obs::LevelMetrics lm;
      lm.candidates = ncand;
      lm.survivors = trie.level_size(k);
      // Both shares perform the same k-way AND+popcount per candidate.
      lm.words_anded =
          static_cast<std::uint64_t>(ncand) * k * store.words_per_row();
      lm.popc_ops =
          static_cast<std::uint64_t>(ncand) * store.words_per_row();
      metrics.record_level(k, lm);
    }

    scope.level_completed(k, device.ledger().total_ns() / 1e6);
    maybe_write_checkpoint(scope, out, k, dataset_dig, layout_dig, min_count,
                           static_cast<std::uint32_t>(params.max_itemset_size));

    if (trie.level_size(k) == 0) break;
  }
  } catch (const gpusim::CancelledError& e) {
    // Salvage completed levels; the static bitset arena dies with `device`.
    mark_truncated(out, k, e.cause());
  }

  out.itemsets.canonicalize();
  return out;
}

}  // namespace gpapriori
