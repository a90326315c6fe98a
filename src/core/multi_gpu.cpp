#include "core/multi_gpu.hpp"

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

MultiGpuApriori::MultiGpuApriori(Config cfg, int num_devices)
    : cfg_(cfg),
      num_devices_(num_devices),
      name_("GPApriori x" + std::to_string(num_devices)) {
  if (!cfg_.valid_block_size())
    throw std::invalid_argument(
        "MultiGpuApriori: block_size must be a power of two in [32, 512]");
  if (num_devices < 1 || num_devices > 16)
    throw std::invalid_argument("MultiGpuApriori: 1..16 devices");
}

miners::MiningOutput MultiGpuApriori::mine(const fim::TransactionDb& db,
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

  // One simulated T10 per slot; the static bitsets are replicated. The
  // replication copies happen once and concurrently (one PCIe link per
  // device on the S1070 host), so setup costs one transfer, not N.
  gpusim::DeviceOptions dopts;
  dopts.arena_bytes = cfg_.arena_bytes;
  dopts.strict_memory = cfg_.strict_memory;
  dopts.executor.sample_stride = cfg_.sample_stride;
  dopts.executor.host_threads = cfg_.host_threads;
  dopts.executor.native = cfg_.native;
  dopts.executor.cancel = scope.cancel_token();
  dopts.record_launches = false;
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::vector<gpusim::DevicePtr<std::uint32_t>> d_bitsets;
  double setup_ns = 0;
  for (int d = 0; d < num_devices_; ++d) {
    devices.push_back(
        std::make_unique<gpusim::Device>(cfg_.device, dopts));
    d_bitsets.push_back(devices.back()->alloc<std::uint32_t>(
        store.arena().size(), fim::BitsetStore::kAlignBytes));
    devices.back()->copy_to_device(d_bitsets.back(), store.arena());
    setup_ns = std::max(setup_ns, devices.back()->ledger().total_ns());
    devices.back()->reset_ledger();
  }
  out.device_ms += setup_ns / 1e6;

  const std::uint64_t layout_dig = snapshotting ? layout_digest(pre) : 0;
  maybe_write_checkpoint(scope, out, 1, dataset_dig, layout_dig, min_count,
                         static_cast<std::uint32_t>(params.max_itemset_size));

  auto device_ms_used = [&] {
    double total = 0;
    for (const auto& dev : devices) total += dev->ledger().total_ns() / 1e6;
    return total;
  };

  std::size_t k = 2;
  try {
  for (;; ++k) {
    if (params.max_itemset_size && k > params.max_itemset_size) break;
    scope.check("multi-gpu-level", device_ms_used());
    obs::ScopedSpan level_span(obs::SpanKind::kMineLevel, "multi-gpu-level");
    host.restart();
    miners::HostPhases ph;
    std::size_t ncand = 0;
    std::span<const std::uint32_t> flat;
    {
      obs::ScopedSpan cand_span(obs::SpanKind::kCandidateGen, "candidate-gen");
      ncand = trie.extend();
      ph.candgen_ms = host.elapsed_ms();
      ph.candgen_shards = trie.last_extend_shards();
      // Zero-copy view of the cached path arena; per-device uploads take
      // disjoint subspans of it.
      if (ncand != 0) flat = trie.level_paths(k);
      if (cand_span.active()) {
        cand_span.add_arg("k", static_cast<double>(k));
        cand_span.add_arg("candidates", static_cast<double>(ncand));
      }
    }
    if (ncand == 0) break;
    double level_host = host.elapsed_ms();

    std::vector<fim::Support> supports(ncand);
    MultiGpuLevelReport report;
    report.level = k;
    report.candidates = ncand;

    const std::size_t per_dev =
        (ncand + static_cast<std::size_t>(num_devices_) - 1) /
        static_cast<std::size_t>(num_devices_);
    for (int d = 0; d < num_devices_; ++d) {
      const std::size_t lo = static_cast<std::size_t>(d) * per_dev;
      if (lo >= ncand) {
        report.per_device_ms.push_back(0);
        continue;
      }
      const std::size_t hi = std::min(ncand, lo + per_dev);
      const std::size_t slice = hi - lo;
      auto& dev = *devices[static_cast<std::size_t>(d)];
      const double before = dev.ledger().total_ns();

      auto d_cand = dev.alloc<std::uint32_t>(slice * k);
      dev.copy_to_device(d_cand, std::span<const std::uint32_t>(flat).subspan(
                                     lo * k, slice * k));
      auto d_sup = dev.alloc<std::uint32_t>(slice);
      SupportKernel::Args args;
      args.bitsets = d_bitsets[static_cast<std::size_t>(d)];
      args.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
      args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
      args.candidates = d_cand;
      args.k = static_cast<std::uint32_t>(k);
      args.supports = d_sup;
      for (std::uint32_t done = 0; done < slice;) {
        const auto batch = std::min<std::uint32_t>(
            65'535, static_cast<std::uint32_t>(slice) - done);
        args.first_candidate = done;
        SupportKernel kernel(args, cfg_.candidate_preload, cfg_.unroll);
        dev.launch(kernel,
                   {gpusim::Dim3{batch},
                    gpusim::Dim3{cfg_.resolve_block_size(store.words_per_row())}});
        done += batch;
      }
      std::vector<std::uint32_t> slice_sup(slice);
      dev.copy_to_host(std::span<std::uint32_t>(slice_sup), d_sup);
      std::copy(slice_sup.begin(), slice_sup.end(),
                supports.begin() + static_cast<std::ptrdiff_t>(lo));
      dev.free(d_cand);
      dev.free(d_sup);
      report.per_device_ms.push_back(
          (dev.ledger().total_ns() - before) / 1e6);
    }
    report.level_ms = *std::max_element(report.per_device_ms.begin(),
                                        report.per_device_ms.end());
    reports_.push_back(report);

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
        {k, ncand, trie.level_size(k), level_host, report.level_ms});
    out.host_ms += level_host;
    out.device_ms += report.level_ms;

    if (level_span.active()) {
      level_span.add_arg("k", static_cast<double>(k));
      level_span.add_arg("candidates", static_cast<double>(ncand));
      level_span.add_arg("survivors",
                         static_cast<double>(trie.level_size(k)));
      level_span.add_arg("devices", static_cast<double>(num_devices_));
      level_span.add_arg("device_ms", report.level_ms);
    }
    auto& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
      obs::LevelMetrics lm;
      lm.candidates = ncand;
      lm.survivors = trie.level_size(k);
      // Candidates are disjointly sharded across devices, so the total
      // arithmetic equals the single-device complete intersection.
      lm.words_anded =
          static_cast<std::uint64_t>(ncand) * k * store.words_per_row();
      lm.popc_ops =
          static_cast<std::uint64_t>(ncand) * store.words_per_row();
      metrics.record_level(k, lm);
    }

    scope.level_completed(k, device_ms_used());
    maybe_write_checkpoint(scope, out, k, dataset_dig, layout_dig, min_count,
                           static_cast<std::uint32_t>(params.max_itemset_size));

    if (trie.level_size(k) == 0) break;
  }
  } catch (const gpusim::CancelledError& e) {
    // Salvage completed levels; the replicated arenas die with `devices`.
    mark_truncated(out, k, e.cause());
  }

  out.itemsets.canonicalize();
  return out;
}

}  // namespace gpapriori
