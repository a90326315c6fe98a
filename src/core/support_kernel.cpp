#include "core/support_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/level_loop.hpp"
#include "gpusim/error.hpp"

namespace gpapriori {

namespace {

/// Unaligned 64-bit load over two consecutive 32-bit bitset words;
/// memcpy (not reinterpret_cast) so the read is strict-aliasing clean
/// under UBSan and still compiles to a single mov.
inline std::uint64_t load_u64(const std::uint32_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Tile of 64-bit lanes the native sweep processes per pass: sized so the
/// accumulator plus all k candidate row streams stay L1-resident
/// (~16 KiB / (k+1) streams), clamped to [64, 1024] lanes (0.5–8 KiB of
/// accumulator on the stack).
constexpr std::uint64_t kMaxTile64 = 1024;
constexpr std::uint64_t kL1TileBytes = 16 * 1024;

/// Largest candidate length handled natively (stack row-id buffer); longer
/// candidates fall back to the interpreter, which has no such limit.
constexpr std::uint32_t kMaxNativeK = 256;

}  // namespace

std::uint32_t SupportKernel::phase_count(std::uint32_t block_size) {
  const auto log2b =
      static_cast<std::uint32_t>(std::countr_zero(block_size));
  return 1 /*preload*/ + 1 /*accumulate*/ + log2b /*reduction*/ + 1 /*write*/;
}

gpusim::KernelInfo SupportKernel::info(const gpusim::LaunchConfig& cfg) const {
  // The tree reduction halves blockDim.x every phase, so a non-power-of-two
  // block would silently drop partial sums (threads in [2^floor(log2 B), B)
  // are never reduced in). Reject at launch instead of miscounting.
  if (!std::has_single_bit(cfg.block.x))
    throw gpusim::LaunchError(
        "gpapriori_support: block.x must be a power of two (got " +
        std::to_string(cfg.block.x) + ")");
  gpusim::KernelInfo i;
  i.num_phases = phase_count(cfg.block.x);
  // Shared layout: blockDim partial sums, then the preloaded candidate.
  i.static_shared_bytes =
      (static_cast<std::size_t>(cfg.block.x) + (preload_ ? args_.k : 0)) * 4;
  i.regs_per_thread = 14;
  return i;
}

void SupportKernel::run_phase(std::uint32_t phase,
                              gpusim::ThreadCtx& t) const {
  const std::uint32_t tid = t.flat_tid();
  const std::uint32_t block = t.block_dim().x;
  const std::uint64_t cand =
      args_.first_candidate + t.flat_block_idx();
  const auto log2b = static_cast<std::uint32_t>(std::countr_zero(block));

  if (phase == 0) {
    // Candidate preload (threads 0..k-1). Without the optimization this
    // phase idles and phase 1 re-reads the candidate from global memory.
    if (preload_ && tid < args_.k) {
      const std::uint32_t row =
          t.ld_global(args_.candidates, cand * args_.k + tid);
      t.st_shared<std::uint32_t>(shared_cand_off(block, tid), row);
    }
    return;
  }

  if (phase == 1) {
    // Complete intersection: stride-blockDim loop over 32-bit words. This
    // thread visits n_iters = ceil((words_per_row - tid) / blockDim) words.
    const std::uint64_t k = args_.k;
    const std::uint64_t n_iters =
        tid < args_.words_per_row
            ? (args_.words_per_row - 1 - tid) / block + 1
            : 0;
    // Loop-control charge groups: one per completed unroll group plus one
    // for the trailing partial group (= ceil(n_iters / unroll)).
    const std::uint64_t groups =
        unroll_ <= 1 ? n_iters : (n_iters + unroll_ - 1) / unroll_;

    if (!t.traced()) {
      // Untraced fast path: raw views + analytic bulk accounting, charged
      // counter-equal to the traced branch below (see the fast-vs-traced
      // equivalence tests).
      std::uint32_t count = 0;
      if (n_iters != 0) {
        const std::span<const std::uint32_t> rows =
            preload_ ? t.ld_shared_span<std::uint32_t>(
                           shared_cand_off(block, 0), k, k * n_iters)
                     : t.ld_global_span(args_.candidates, cand * k, k,
                                        k * n_iters);
        std::uint32_t max_row = 0;
        for (std::uint32_t r = 0; r < k; ++r)
          max_row = std::max(max_row, rows[r]);
        const std::span<const std::uint32_t> bits = t.ld_global_span(
            args_.bitsets, 0,
            static_cast<std::uint64_t>(max_row) * args_.stride_words +
                args_.words_per_row,
            k * n_iters);
        for (std::uint64_t w = tid; w < args_.words_per_row; w += block) {
          std::uint32_t acc = ~0u;
          for (std::uint32_t r = 0; r < k; ++r)
            acc &= bits[static_cast<std::uint64_t>(rows[r]) *
                            args_.stride_words + w];
          count += static_cast<std::uint32_t>(std::popcount(acc));
        }
        // Per iteration: k ANDs + popc + accumulate add; plus 2 loop-control
        // ops per charge group.
        t.alu_bulk((k + 2) * n_iters + 2 * groups);
      }
      t.st_shared<std::uint32_t>(shared_partial_off(tid), count);
      return;
    }

    std::uint32_t count = 0;
    std::uint32_t iter = 0;
    for (std::uint64_t w = tid; w < args_.words_per_row; w += block, ++iter) {
      std::uint32_t acc = ~0u;
      for (std::uint32_t r = 0; r < args_.k; ++r) {
        const std::uint32_t row =
            preload_
                ? t.ld_shared<std::uint32_t>(shared_cand_off(block, r))
                : t.ld_global(args_.candidates, cand * args_.k + r);
        acc &= t.ld_global(args_.bitsets,
                           static_cast<std::uint64_t>(row) *
                                   args_.stride_words + w);
        t.alu(1);  // the AND
      }
      count += t.popc(acc);
      t.alu(1);  // accumulate add
      // Loop control: with manual unrolling the index/branch overhead is
      // paid once per COMPLETED group of `unroll` iterations...
      if (unroll_ <= 1 || (iter + 1) % unroll_ == 0) t.alu(2);
    }
    // ...plus once for the trailing partial group.
    if (unroll_ > 1 && iter % unroll_ != 0) t.alu(2);
    t.st_shared<std::uint32_t>(shared_partial_off(tid), count);
    return;
  }

  const std::uint32_t last_phase = 2 + log2b;
  if (phase < last_phase) {
    // Reduction step: phase 2 halves blockDim, phase 3 halves again, ...
    const std::uint32_t stride = block >> (phase - 1);
    if (tid < stride) {
      const auto a = t.ld_shared<std::uint32_t>(shared_partial_off(tid));
      const auto b =
          t.ld_shared<std::uint32_t>(shared_partial_off(tid + stride));
      t.alu(1);
      t.st_shared<std::uint32_t>(shared_partial_off(tid), a + b);
    }
    return;
  }

  if (tid == 0) {
    const auto total = t.ld_shared<std::uint32_t>(shared_partial_off(0));
    t.st_global(args_.supports, cand, total);
  }
}

bool SupportKernel::run_block_native(gpusim::BlockCtx& b) const {
  if (b.block_dim().y != 1 || b.block_dim().z != 1) return false;
  const std::uint32_t block = b.block_dim().x;
  const std::uint32_t tpb = b.num_threads();
  const std::uint32_t k = args_.k;
  const std::uint32_t W = args_.words_per_row;
  if (k > kMaxNativeK) return false;
  const std::uint64_t cand = args_.first_candidate + b.flat_block_idx();
  const auto log2b = static_cast<std::uint32_t>(std::countr_zero(block));

  // ---- functional effect: supports[cand] = popcount(AND of k rows) ----
  // Candidate row ids are read once per block. With preloading, rows the
  // interpreter could not copy in phase 0 (r >= blockDim when k > blockDim)
  // read back as zero from shared memory — replicated here for bit-exact
  // parity with the interpreted path.
  std::uint32_t rows[kMaxNativeK];
  if (k != 0) {
    const auto cand_view =
        b.view(args_.candidates, static_cast<std::uint64_t>(cand) * k, k);
    for (std::uint32_t r = 0; r < k; ++r)
      rows[r] = (preload_ && r >= tpb) ? 0u : cand_view[r];
  }

  std::uint32_t support = 0;
  if (W != 0) {
    if (k == 0) {
      support = 32u * W;  // empty AND = all ones, as the interpreter yields
    } else {
      std::uint32_t max_row = 0;
      for (std::uint32_t r = 0; r < k; ++r)
        max_row = std::max(max_row, rows[r]);
      const std::uint64_t stride = args_.stride_words;
      const std::uint32_t* base =
          b.view(args_.bitsets, 0, max_row * stride + W).data();

      std::uint64_t count = 0;
      const std::uint64_t n64 = W / 2;
      const std::uint64_t tile = std::clamp<std::uint64_t>(
          kL1TileBytes / 8 / (std::uint64_t{k} + 1), 64, kMaxTile64);
      std::uint64_t acc[kMaxTile64];
      for (std::uint64_t t0 = 0; t0 < n64; t0 += tile) {
        const std::uint64_t m = std::min(tile, n64 - t0);
        const std::uint32_t* r0 = base + rows[0] * stride + 2 * t0;
        for (std::uint64_t j = 0; j < m; ++j) acc[j] = load_u64(r0 + 2 * j);
        for (std::uint32_t r = 1; r < k; ++r) {
          const std::uint32_t* rp = base + rows[r] * stride + 2 * t0;
          for (std::uint64_t j = 0; j < m; ++j) acc[j] &= load_u64(rp + 2 * j);
        }
        for (std::uint64_t j = 0; j < m; ++j)
          count += static_cast<std::uint64_t>(std::popcount(acc[j]));
      }
      if (W % 2 != 0) {
        std::uint32_t a = base[rows[0] * stride + W - 1];
        for (std::uint32_t r = 1; r < k; ++r)
          a &= base[rows[r] * stride + W - 1];
        count += static_cast<std::uint64_t>(std::popcount(a));
      }
      support = static_cast<std::uint32_t>(count);
    }
  }
  b.store(args_.supports, cand, support);

  // ---- accounting: field-exact against the interpreted phases ----
  // Phase 0 — preload: threads tid < min(k, tpb) each do one global load
  // plus one shared store (2 ops).
  if (preload_ && k != 0) {
    const std::uint32_t pm = std::min(k, tpb);
    b.charge_global_loads(pm, 4ull * pm);
    b.charge_shared_stores(pm);
    b.charge_split_phase(pm, 2, 0);
  } else {
    b.charge_split_phase(0, 0, 0);
  }

  // Phase 1 — accumulate: each of the W words is visited by exactly one
  // thread, costing k candidate loads (shared or global) + k bitset loads;
  // every thread stores its partial. Per-lane ops follow the interpreter's
  // closed form: (k ANDs + popc + add per word) * n_iters + 2 loop-control
  // ops per unroll group + the k loads per word + the store.
  const std::uint64_t cand_loads = std::uint64_t{k} * W;
  if (preload_)
    b.charge_shared_loads(cand_loads);
  else
    b.charge_global_loads(cand_loads, 4 * cand_loads);
  b.charge_global_loads(cand_loads, 4 * cand_loads);  // bitset words
  b.charge_shared_stores(tpb);
  b.charge_phase([&](std::uint32_t tid) -> std::uint64_t {
    if (tid >= W) return 1;  // just the st_shared
    const std::uint64_t n_iters = (W - 1 - tid) / block + 1;
    const std::uint64_t groups =
        unroll_ <= 1 ? n_iters : (n_iters + unroll_ - 1) / unroll_;
    return (3ull * k + 2) * n_iters + 2 * groups + 1;
  });

  // Reduction phases: threads tid < stride do 2 shared loads + add + store.
  for (std::uint32_t p = 2; p < 2 + log2b; ++p) {
    const std::uint32_t s = block >> (p - 1);
    b.charge_shared_loads(2ull * s);
    b.charge_shared_stores(s);
    b.charge_split_phase(s, 4, 0);
  }

  // Writeback: thread 0 loads the total and stores the support.
  b.charge_shared_loads(1);
  b.charge_global_stores(1, 4);
  b.charge_split_phase(1, 2, 0);
  return true;
}

double count_supports(gpusim::Device& device,
                      gpusim::DevicePtr<std::uint32_t> bitsets,
                      const fim::BitsetStore& store, const Config& cfg,
                      std::span<const std::uint32_t> paths, std::size_t k,
                      std::span<fim::Support> supports) {
  const double before = device.ledger().total_ns();
  auto d_cand = device.alloc<std::uint32_t>(paths.size());
  device.copy_to_device(d_cand, paths);
  auto d_sup = device.alloc<std::uint32_t>(supports.size());
  SupportKernel::Args a;
  a.bitsets = bitsets;
  a.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
  a.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  a.candidates = d_cand;
  a.k = static_cast<std::uint32_t>(k);
  a.supports = d_sup;
  const gpusim::Dim3 block{cfg.resolve_block_size(store.words_per_row())};
  for_each_grid_batch(supports.size(), [&](std::uint32_t first,
                                           std::uint32_t batch) {
    a.first_candidate = first;
    device.launch(SupportKernel(a, cfg.candidate_preload, cfg.unroll),
                  {gpusim::Dim3{batch}, block});
  });
  device.copy_to_host(supports, d_sup);
  device.free(d_cand);
  device.free(d_sup);
  return (device.ledger().total_ns() - before) / 1e6;
}

}  // namespace gpapriori
