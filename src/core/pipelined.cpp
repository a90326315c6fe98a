#include "core/pipelined.hpp"

#include <stdexcept>
#include <utility>

#include "core/level_loop.hpp"
#include "core/support_kernel.hpp"
#include "core/tiled_support_kernel.hpp"

namespace gpapriori {
namespace {

/// Counts each level as a double-buffered chunk pipeline: chunk c runs on
/// stream c % 2. All the level's device buffers live for the whole level;
/// the pipeline only reorders WHEN transfers and kernels run, not what
/// they touch, so the arithmetic is the synchronous kernels'. The tiled
/// path chunks over sibling GROUPS (each group's supports are a contiguous
/// candidate range, so downloads stay contiguous).
class PipelinedCounter final : public SupportCounter {
 public:
  PipelinedCounter(gpusim::Device& device, fim::BitsetStore store,
                   const Config& cfg, std::uint32_t chunks)
      : device_(device),
        store_(std::move(store)),
        cfg_(cfg),
        chunks_(chunks),
        d_bitsets_(device.alloc<std::uint32_t>(store_.arena().size(),
                                               fim::BitsetStore::kAlignBytes)) {
    device_.copy_to_device(d_bitsets_, store_.arena());
  }

  [[nodiscard]] const char* level_name() const override {
    return "pipelined-level";
  }
  [[nodiscard]] std::uint32_t group_cap() const override {
    return resolve_tiled(cfg_.tiled) ? cfg_.resolve_max_group_size() : 0;
  }
  [[nodiscard]] double device_ms() const override {
    return device_.ledger().total_ns() / 1e6;
  }

  LevelCost count(const CandidateLevel& lv,
                  std::span<fim::Support> supports) override {
    const double before = device_.ledger().total_ns();
    const CandidateTrie::GroupedLevel* g = lv.grouped;
    const std::size_t k = lv.k;
    const std::size_t num_units = g != nullptr ? g->num_groups() : lv.count;
    const std::size_t chunk_units = (num_units + chunks_ - 1) / chunks_;
    const std::size_t num_chunks = (num_units + chunk_units - 1) / chunk_units;
    auto d_sup = device_.alloc<std::uint32_t>(lv.count);

    gpusim::DevicePtr<std::uint32_t> d_cand, d_prefix, d_sib, d_off;
    if (g != nullptr) {
      d_prefix = device_.alloc<std::uint32_t>(g->prefix_rows.size());
      d_sib = device_.alloc<std::uint32_t>(g->sibling_rows.size());
      d_off = device_.alloc<std::uint32_t>(g->group_offsets.size());
      // The offsets table is tiny and every chunk's kernels read it, so it
      // goes up front on the synchronous queue.
      device_.copy_to_device(
          d_off, std::span<const std::uint32_t>(g->group_offsets));
    } else {
      d_cand = device_.alloc<std::uint32_t>(lv.paths.size());
    }

    // Unit range of chunk c, and the contiguous candidate range its
    // kernels write and its download pulls back.
    auto units = [&](std::size_t c) {
      const std::size_t lo = c * chunk_units;
      return std::pair{lo, std::min(num_units, lo + chunk_units)};
    };
    auto cands = [&](std::size_t c) {
      const auto [lo, hi] = units(c);
      if (g == nullptr) return std::pair{lo, hi};
      return std::pair<std::size_t, std::size_t>{g->group_offsets[lo],
                                                 g->group_offsets[hi]};
    };
    auto stream_of = [](std::size_t c) {
      return static_cast<gpusim::StreamId>(c % 2);
    };
    // Issue order matters on the single DMA engine: chunk c+1's UPLOAD
    // must be issued before chunk c's kernel/download or it queues behind
    // that download and the overlap is lost (the classic CUDA 2.x pipeline
    // pitfall — see Timeline tests).
    auto upload_chunk = [&](std::size_t c) {
      const auto [lo, hi] = units(c);
      if (g != nullptr) {
        const std::size_t p = k - 1;
        const auto [clo, chi] = cands(c);
        device_.copy_to_device_async(
            d_prefix + lo * p,
            std::span<const std::uint32_t>(g->prefix_rows)
                .subspan(lo * p, (hi - lo) * p),
            stream_of(c));
        device_.copy_to_device_async(
            d_sib + clo,
            std::span<const std::uint32_t>(g->sibling_rows)
                .subspan(clo, chi - clo),
            stream_of(c));
      } else {
        device_.copy_to_device_async(
            d_cand + lo * k, lv.paths.subspan(lo * k, (hi - lo) * k),
            stream_of(c));
      }
    };

    const gpusim::Dim3 block{cfg_.resolve_block_size(store_.words_per_row())};
    const auto stride = static_cast<std::uint32_t>(store_.row_stride_words());
    const auto words = static_cast<std::uint32_t>(store_.words_per_row());
    upload_chunk(0);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      if (c + 1 < num_chunks) upload_chunk(c + 1);
      const auto [lo, hi] = units(c);
      for_each_grid_batch(hi - lo, [&](std::uint32_t done,
                                       std::uint32_t batch) {
        const auto first = static_cast<std::uint32_t>(lo) + done;
        if (g != nullptr) {
          TiledSupportKernel::Args a;
          a.bitsets = d_bitsets_;
          a.stride_words = stride;
          a.words_per_row = words;
          a.prefix_rows = d_prefix;
          a.sibling_rows = d_sib;
          a.group_offsets = d_off;
          a.k = static_cast<std::uint32_t>(k);
          a.first_group = first;
          a.max_group_size = g->max_group_size();
          a.supports = d_sup;
          device_.launch_async(TiledSupportKernel(a, cfg_.unroll),
                               {gpusim::Dim3{batch}, block}, stream_of(c));
        } else {
          SupportKernel::Args a;
          a.bitsets = d_bitsets_;
          a.stride_words = stride;
          a.words_per_row = words;
          a.candidates = d_cand;
          a.k = static_cast<std::uint32_t>(k);
          a.supports = d_sup;
          a.first_candidate = first;
          device_.launch_async(
              SupportKernel(a, cfg_.candidate_preload, cfg_.unroll),
              {gpusim::Dim3{batch}, block}, stream_of(c));
        }
      });
      const auto [clo, chi] = cands(c);
      device_.copy_to_host_async(supports.subspan(clo, chi - clo),
                                 d_sup + clo, stream_of(c));
    }
    device_.synchronize();
    if (g != nullptr) {
      device_.free(d_prefix);
      device_.free(d_sib);
      device_.free(d_off);
    } else {
      device_.free(d_cand);
    }
    device_.free(d_sup);

    LevelCost cost;
    cost.device_ms = (device_.ledger().total_ns() - before) / 1e6;
    add_bitset_arithmetic(cost, lv, store_.words_per_row());
    return cost;
  }

 private:
  gpusim::Device& device_;
  fim::BitsetStore store_;
  const Config& cfg_;
  std::uint32_t chunks_;
  gpusim::DevicePtr<std::uint32_t> d_bitsets_;
};

}  // namespace

PipelinedGpApriori::PipelinedGpApriori(Config cfg,
                                       std::uint32_t chunks_per_level)
    : cfg_(cfg), chunks_(chunks_per_level) {
  cfg_.check_block_size("PipelinedGpApriori");
  if (chunks_ == 0 || chunks_ > 64)
    throw std::invalid_argument("PipelinedGpApriori: 1..64 chunks per level");
}

miners::MiningOutput PipelinedGpApriori::mine(
    const fim::TransactionDb& db, const miners::MiningParams& params) {
  ledger_.reset();
  LevelLoop loop(db, params, cfg_);
  miners::MiningOutput out = loop.level1();
  if (loop.num_items() == 0) return out;
  // Initial compaction only: per-level re-compaction would force a full
  // re-upload barrier mid-pipeline, defeating the overlap this driver
  // exists to demonstrate.
  fim::BitsetStore store = std::move(loop.build_bitsets(out)[0]);
  gpusim::Device device(cfg_.device, loop.device_options());
  PipelinedCounter counter(device, std::move(store), cfg_, chunks_);
  loop.run(counter, out);
  ledger_ = device.ledger();
  return out;
}

}  // namespace gpapriori
