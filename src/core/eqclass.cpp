#include "core/eqclass.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>

#include "baselines/apriori_util.hpp"
#include "core/candidate_trie.hpp"
#include "core/materialize.hpp"
#include "core/run_control.hpp"
#include "fim/bitset_ops.hpp"

namespace gpapriori {

gpusim::KernelInfo EqClassKernel::info(const gpusim::LaunchConfig& cfg) const {
  gpusim::KernelInfo i;
  i.num_phases = 1 /*accumulate+write*/ +
                 static_cast<std::uint32_t>(std::countr_zero(cfg.block.x)) +
                 1 /*support writeback*/;
  i.static_shared_bytes = static_cast<std::size_t>(cfg.block.x) * 4;
  i.regs_per_thread = 14;
  return i;
}

void EqClassKernel::run_phase(std::uint32_t phase,
                              gpusim::ThreadCtx& t) const {
  const std::uint32_t tid = t.flat_tid();
  const std::uint32_t block = t.block_dim().x;
  const std::uint64_t cand = args_.first_candidate + t.flat_block_idx();
  const auto log2b = static_cast<std::uint32_t>(std::countr_zero(block));

  if (phase == 0) {
    const std::uint32_t parent_row =
        t.ld_global(args_.pair_table, cand * 2 + 0);
    const std::uint32_t gen1_row = t.ld_global(args_.pair_table, cand * 2 + 1);
    std::uint32_t count = 0;
    for (std::uint64_t w = tid; w < args_.words_per_row; w += block) {
      const std::uint32_t a = t.ld_global(
          args_.parents,
          static_cast<std::uint64_t>(parent_row) * args_.stride_words + w);
      const std::uint32_t b = t.ld_global(
          args_.gen1,
          static_cast<std::uint64_t>(gen1_row) * args_.stride_words + w);
      const std::uint32_t v = a & b;
      t.alu(2);
      count += t.popc(v);
      // The cached strategy's extra memory operation: the result row goes
      // back to DRAM so the next level can reuse it.
      t.st_global(args_.out_rows, cand * args_.stride_words + w, v);
    }
    t.st_shared<std::uint32_t>(static_cast<std::size_t>(tid) * 4, count);
    return;
  }

  const std::uint32_t last = 1 + log2b;
  if (phase < last) {
    const std::uint32_t stride = block >> phase;
    if (tid < stride) {
      const auto a =
          t.ld_shared<std::uint32_t>(static_cast<std::size_t>(tid) * 4);
      const auto b = t.ld_shared<std::uint32_t>(
          static_cast<std::size_t>(tid + stride) * 4);
      t.alu(1);
      t.st_shared<std::uint32_t>(static_cast<std::size_t>(tid) * 4, a + b);
    }
    return;
  }

  if (tid == 0)
    t.st_global(args_.supports, cand, t.ld_shared<std::uint32_t>(0));
}

EqClassApriori::EqClassApriori(Config cfg) : cfg_(cfg) {
  if (!cfg_.valid_block_size())
    throw std::invalid_argument(
        "EqClassApriori: block_size must be a power of two in [32, 512]");
}

miners::MiningOutput EqClassApriori::mine(const fim::TransactionDb& db,
                                          const miners::MiningParams& params) {
  miners::MiningOutput out;
  const fim::Support min_count = params.resolve_min_count(db.num_transactions());
  ledger_.reset();
  peak_device_bytes_ = 0;

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
  const auto stride = static_cast<std::uint32_t>(store.row_stride_words());

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

  auto d_gen1 =
      device.alloc<std::uint32_t>(store.arena().size(), fim::BitsetStore::kAlignBytes);
  device.copy_to_device(d_gen1, store.arena());

  // The previous level's cached rows. Level 1's cache IS the gen-1 arena.
  auto d_parents = d_gen1;
  bool parents_owned = false;

  const std::uint64_t layout_dig = snapshotting ? layout_digest(pre) : 0;
  maybe_write_checkpoint(scope, out, 1, dataset_dig, layout_dig, min_count,
                         static_cast<std::uint32_t>(params.max_itemset_size));

  std::size_t k = 2;
  try {
  for (;; ++k) {
    if (params.max_itemset_size && k > params.max_itemset_size) break;
    scope.check("eqclass-level", device.ledger().total_ns() / 1e6);
    host.restart();
    miners::HostPhases ph;
    const std::size_t ncand = trie.extend();
    ph.candgen_ms = host.elapsed_ms();
    ph.candgen_shards = trie.last_extend_shards();
    if (ncand == 0) break;
    const std::span<const std::uint32_t> paths = trie.level_paths(k);

    // Candidate c's parent is its (k-1)-prefix — by equivalence-class
    // construction that prefix is a frequent node of the previous level.
    // The trie's parent_index() IS that previous-level row (parents keep
    // their post-compaction position; root position == row id), so the
    // pair table is a straight per-candidate read — no prefix search.
    const miners::StopWatch pair_watch;
    std::vector<std::uint32_t> pair_table(ncand * 2);
    for (std::size_t c = 0; c < ncand; ++c) {
      pair_table[c * 2] = trie.parent_index(k, c);
      pair_table[c * 2 + 1] = paths[c * k + k - 1];
    }
    ph.flatten_ms = pair_watch.elapsed_ms();
    double level_host = host.elapsed_ms();

    auto d_pairs = device.alloc<std::uint32_t>(pair_table.size());
    device.copy_to_device(d_pairs,
                          std::span<const std::uint32_t>(pair_table));
    auto d_out_rows = device.alloc<std::uint32_t>(
        ncand * static_cast<std::size_t>(stride), fim::BitsetStore::kAlignBytes);
    auto d_sup = device.alloc<std::uint32_t>(ncand);

    EqClassKernel::Args args;
    args.parents = d_parents;
    args.gen1 = d_gen1;
    args.stride_words = stride;
    args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
    args.pair_table = d_pairs;
    args.out_rows = d_out_rows;
    args.supports = d_sup;

    const double dev_before = device.ledger().total_ns();
    for (std::uint32_t done = 0; done < ncand;) {
      const auto batch = std::min<std::uint32_t>(
          65'535, static_cast<std::uint32_t>(ncand) - done);
      args.first_candidate = done;
      EqClassKernel kernel(args);
      device.launch(kernel,
                    {gpusim::Dim3{batch},
                     gpusim::Dim3{cfg_.resolve_block_size(store.words_per_row())}});
      done += batch;
    }
    std::vector<std::uint32_t> supports(ncand);
    device.copy_to_host(std::span<std::uint32_t>(supports), d_sup);
    peak_device_bytes_ =
        std::max(peak_device_bytes_, device.memory().bytes_in_use());
    const double level_device =
        (device.ledger().total_ns() - dev_before) / 1e6;

    host.restart();
    const miners::StopWatch mark_watch;
    trie.mark_frequent(k, supports, min_count);
    ph.candgen_ms += mark_watch.elapsed_ms();
    const std::size_t survivors = trie.level_size(k);

    // Compact the surviving rows into the next parent arena. Real CUDA
    // would do this with a device-side gather; the equivalent DRAM traffic
    // is charged to the ledger below (device->device, no PCIe).
    auto d_next_parents = device.alloc<std::uint32_t>(
        std::max<std::size_t>(1, survivors * static_cast<std::size_t>(stride)),
        fim::BitsetStore::kAlignBytes);
    {
      std::vector<std::uint32_t> row(stride);
      std::size_t w = 0;
      for (std::size_t c = 0; c < ncand; ++c) {
        if (supports[c] < min_count) continue;
        device.memory().read_bytes((d_out_rows + c * stride).addr, row.data(),
                                   static_cast<std::size_t>(stride) * 4);
        device.memory().write_bytes((d_next_parents + w * stride).addr,
                                    row.data(),
                                    static_cast<std::size_t>(stride) * 4);
        ++w;
      }
      device.charge_device_traffic(w * static_cast<std::size_t>(stride) * 4);
    }
    if (parents_owned) device.free(d_parents);
    d_parents = d_next_parents;
    parents_owned = true;
    device.free(d_out_rows);
    device.free(d_pairs);
    device.free(d_sup);
    peak_device_bytes_ =
        std::max(peak_device_bytes_, device.memory().bytes_in_use());

    std::vector<fim::Support> kept;
    kept.reserve(survivors);
    for (std::uint32_t s : supports)
      if (s >= min_count) kept.push_back(s);
    const miners::StopWatch emit_watch;
    emit_frequent_level(trie, k, kept, pre.original_item, out.itemsets,
                        workers);
    ph.emit_ms = emit_watch.elapsed_ms();
    record_host_phases(out, ph);
    level_host += host.elapsed_ms();
    out.levels.push_back({k, ncand, survivors, level_host, level_device});
    out.host_ms += level_host;

    scope.level_completed(k, device.ledger().total_ns() / 1e6);
    maybe_write_checkpoint(scope, out, k, dataset_dig, layout_dig, min_count,
                           static_cast<std::uint32_t>(params.max_itemset_size));

    if (survivors == 0) break;
  }
  } catch (const gpusim::CancelledError& e) {
    // Salvage completed levels; the cached-row arenas die with `device`.
    mark_truncated(out, k, e.cause());
  }

  ledger_ = device.ledger();
  out.device_ms = ledger_.total_ns() / 1e6;
  out.itemsets.canonicalize();
  return out;
}

}  // namespace gpapriori
