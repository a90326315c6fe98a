#include "core/eqclass.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/level_loop.hpp"
#include "fim/fimi_io.hpp"

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

namespace {

/// Counts level k from the cached level-(k-1) rows: candidate c's support
/// is one 2-way AND of its parent's row with its last generation-1 row,
/// and the result row is written back for the next level. After marking,
/// the surviving rows are gathered into the next parent arena.
class EqClassCounter final : public SupportCounter {
 public:
  EqClassCounter(gpusim::Device& device, fim::BitsetStore store,
                 const Config& cfg, std::size_t& peak_bytes)
      : device_(device),
        store_(std::move(store)),
        cfg_(cfg),
        stride_(static_cast<std::uint32_t>(store_.row_stride_words())),
        peak_bytes_(peak_bytes),
        d_gen1_(device.alloc<std::uint32_t>(store_.arena().size(),
                                            fim::BitsetStore::kAlignBytes)),
        d_parents_(d_gen1_) {  // level 1's cache IS the gen-1 arena
    device_.copy_to_device(d_gen1_, store_.arena());
  }

  [[nodiscard]] const char* level_name() const override {
    return "eqclass-level";
  }
  [[nodiscard]] double device_ms() const override {
    return device_.ledger().total_ns() / 1e6;
  }

  LevelCost count(const CandidateLevel& lv,
                  std::span<fim::Support> supports) override {
    const std::size_t ncand = lv.count;
    // Candidate c's parent is its (k-1)-prefix, a frequent node of the
    // previous level whose parent_index() IS its cached row (parents keep
    // their post-compaction position; root position == row id), so the
    // pair table is a straight per-candidate read — no prefix search.
    std::vector<std::uint32_t> pair_table(ncand * 2);
    for (std::size_t c = 0; c < ncand; ++c) {
      pair_table[c * 2] = lv.trie->parent_index(lv.k, c);
      pair_table[c * 2 + 1] = lv.paths[c * lv.k + lv.k - 1];
    }
    d_pairs_ = device_.alloc<std::uint32_t>(pair_table.size());
    device_.copy_to_device(d_pairs_,
                           std::span<const std::uint32_t>(pair_table));
    d_out_rows_ = device_.alloc<std::uint32_t>(
        ncand * static_cast<std::size_t>(stride_),
        fim::BitsetStore::kAlignBytes);
    d_sup_ = device_.alloc<std::uint32_t>(ncand);

    EqClassKernel::Args args;
    args.parents = d_parents_;
    args.gen1 = d_gen1_;
    args.stride_words = stride_;
    args.words_per_row = static_cast<std::uint32_t>(store_.words_per_row());
    args.pair_table = d_pairs_;
    args.out_rows = d_out_rows_;
    args.supports = d_sup_;
    const gpusim::Dim3 block{cfg_.resolve_block_size(store_.words_per_row())};
    const double before = device_.ledger().total_ns();
    for_each_grid_batch(ncand, [&](std::uint32_t first, std::uint32_t batch) {
      args.first_candidate = first;
      device_.launch(EqClassKernel(args), {gpusim::Dim3{batch}, block});
    });
    device_.copy_to_host(supports, d_sup_);
    note_peak();
    LevelCost cost;
    cost.device_ms = (device_.ledger().total_ns() - before) / 1e6;
    cost.words_anded = 2 * ncand * store_.words_per_row();
    cost.popc_ops = ncand * store_.words_per_row();
    return cost;
  }

  // Compacts the surviving rows into the next parent arena. Real CUDA
  // would do this with a device-side gather; the equivalent DRAM traffic
  // is charged to the ledger (device->device, no PCIe).
  void after_mark(const CandidateTrie& trie, std::size_t k,
                  std::span<const fim::Support> supports,
                  fim::Support min_count) override {
    const std::size_t row_bytes = static_cast<std::size_t>(stride_) * 4;
    auto d_next = device_.alloc<std::uint32_t>(
        std::max<std::size_t>(1, trie.level_size(k) * stride_),
        fim::BitsetStore::kAlignBytes);
    std::vector<std::uint32_t> row(stride_);
    std::size_t w = 0;
    for (std::size_t c = 0; c < supports.size(); ++c) {
      if (supports[c] < min_count) continue;
      device_.memory().read_bytes((d_out_rows_ + c * stride_).addr,
                                  row.data(), row_bytes);
      device_.memory().write_bytes((d_next + w * stride_).addr, row.data(),
                                   row_bytes);
      ++w;
    }
    device_.charge_device_traffic(w * row_bytes);
    if (d_parents_ != d_gen1_) device_.free(d_parents_);
    d_parents_ = d_next;
    device_.free(d_out_rows_);
    device_.free(d_pairs_);
    device_.free(d_sup_);
    note_peak();
  }

 private:
  void note_peak() {
    peak_bytes_ = std::max(peak_bytes_, device_.memory().bytes_in_use());
  }

  gpusim::Device& device_;
  fim::BitsetStore store_;
  const Config& cfg_;
  std::uint32_t stride_;
  std::size_t& peak_bytes_;
  gpusim::DevicePtr<std::uint32_t> d_gen1_, d_parents_;
  gpusim::DevicePtr<std::uint32_t> d_pairs_, d_out_rows_, d_sup_;
};

}  // namespace

EqClassApriori::EqClassApriori(Config cfg) : cfg_(cfg) {
  cfg_.check_block_size("EqClassApriori");
}

miners::MiningOutput EqClassApriori::mine(const fim::TransactionDb& db,
                                          const miners::MiningParams& params) {
  ledger_.reset();
  peak_device_bytes_ = 0;
  // Level k counts from level k-1's cached device rows, which a snapshot
  // does not hold, so a resumed run could not continue; refuse it loudly.
  if (cfg_.run_control != nullptr && cfg_.run_control->want_resume())
    throw fim::IoError(
        "resume rejected: GPApriori (eq-class) cannot resume (it counts from "
        "the previous level's cached device rows): " +
        cfg_.run_control->options().resume_path);
  LevelLoop loop(db, params, cfg_);
  miners::MiningOutput out = loop.level1();
  if (loop.num_items() == 0) return out;
  fim::BitsetStore store =
      std::move(loop.build_bitsets(out, 0, /*compact=*/false)[0]);
  gpusim::Device device(cfg_.device, loop.device_options());
  EqClassCounter counter(device, std::move(store), cfg_, peak_device_bytes_);
  loop.run(counter, out);
  ledger_ = device.ledger();
  return out;
}

}  // namespace gpapriori
