#include "core/hybrid.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/level_loop.hpp"
#include "core/support_kernel.hpp"

namespace gpapriori {
namespace {

/// Splits each level's candidates: [0, gpu) to SupportKernel, the rest to
/// the host's complete intersection over the same store. Both shares run
/// concurrently, so the level costs the slower side — recorded as the
/// level's device_ms (host_ms keeps the serial trie work). Each level's
/// observed per-candidate costs set the next level's split.
class HybridCounter final : public SupportCounter {
 public:
  HybridCounter(gpusim::Device& device, fim::BitsetStore store,
                const Config& cfg, double gpu_fraction, RunScope& scope,
                std::vector<HybridLevelReport>& reports)
      : device_(device),
        store_(std::move(store)),
        cfg_(cfg),
        gpu_fraction_(std::clamp(gpu_fraction, 0.0, 1.0)),
        scope_(scope),
        reports_(reports),
        d_bitsets_(device.alloc<std::uint32_t>(store_.arena().size(),
                                               fim::BitsetStore::kAlignBytes)) {
    device_.copy_to_device(d_bitsets_, store_.arena());
  }

  [[nodiscard]] const char* level_name() const override {
    return "hybrid-level";
  }
  [[nodiscard]] double device_ms() const override {
    return device_.ledger().total_ns() / 1e6;
  }
  [[nodiscard]] double output_device_ms() const override { return counted_; }

  LevelCost count(const CandidateLevel& lv,
                  std::span<fim::Support> supports) override {
    const std::size_t ncand = lv.count;
    const std::size_t k = lv.k;
    // Balance: choose f so f*g == (1-f)*c given per-candidate costs g, c.
    if (cpu_ms_per_cand_ > 0 && gpu_ms_per_cand_ > 0)
      gpu_fraction_ = cpu_ms_per_cand_ / (cpu_ms_per_cand_ + gpu_ms_per_cand_);
    const std::size_t gpu_cands =
        std::min(ncand, static_cast<std::size_t>(
                            static_cast<double>(ncand) * gpu_fraction_ + 0.5));
    const std::size_t cpu_cands = ncand - gpu_cands;

    const double gpu_ms =
        gpu_cands == 0
            ? 0.0
            : count_supports(device_, d_bitsets_, store_, cfg_,
                             lv.paths.subspan(0, gpu_cands * k), k,
                             supports.subspan(0, gpu_cands));

    double cpu_ms = 0;
    if (cpu_cands > 0) {
      const miners::StopWatch cpu_watch;
      for (std::size_t c = gpu_cands; c < ncand; ++c) {
        // The host share can be the level's long pole; honour cancellation
        // at the same granularity as the device's chunk dispatch.
        if ((c & 0x3ff) == 0) scope_.check("hybrid-cpu-share", device_ms());
        supports[c] = store_.and_popcount(lv.paths.subspan(c * k, k));
      }
      cpu_ms = cpu_watch.elapsed_ms();
    }

    if (gpu_cands > 0)
      gpu_ms_per_cand_ = gpu_ms / static_cast<double>(gpu_cands);
    if (cpu_cands > 0)
      cpu_ms_per_cand_ = cpu_ms / static_cast<double>(cpu_cands);
    reports_.push_back({k, ncand,
                        static_cast<double>(gpu_cands) /
                            static_cast<double>(ncand),
                        cpu_ms, gpu_ms});
    LevelCost cost;
    cost.device_ms = std::max(cpu_ms, gpu_ms);
    counted_ += cost.device_ms;
    // Both shares perform the same k-way AND+popcount per candidate.
    add_bitset_arithmetic(cost, lv, store_.words_per_row());
    return cost;
  }

 private:
  gpusim::Device& device_;
  fim::BitsetStore store_;
  const Config& cfg_;
  double gpu_fraction_;
  RunScope& scope_;
  std::vector<HybridLevelReport>& reports_;
  gpusim::DevicePtr<std::uint32_t> d_bitsets_;
  double cpu_ms_per_cand_ = 0, gpu_ms_per_cand_ = 0;
  double counted_ = 0;
};

}  // namespace

HybridApriori::HybridApriori(Config cfg, double initial_gpu_fraction)
    : cfg_(cfg), initial_gpu_fraction_(initial_gpu_fraction) {
  cfg_.check_block_size("HybridApriori");
  if (initial_gpu_fraction_ < 0.0 || initial_gpu_fraction_ > 1.0)
    throw std::invalid_argument(
        "HybridApriori: initial_gpu_fraction must be in [0, 1]");
}

miners::MiningOutput HybridApriori::mine(const fim::TransactionDb& db,
                                         const miners::MiningParams& params) {
  reports_.clear();
  LevelLoop loop(db, params, cfg_);
  miners::MiningOutput out = loop.level1();
  if (loop.num_items() == 0) return out;
  fim::BitsetStore store =
      std::move(loop.build_bitsets(out, 0, /*compact=*/false)[0]);
  gpusim::Device device(cfg_.device, loop.device_options());
  HybridCounter counter(device, std::move(store), cfg_, initial_gpu_fraction_,
                        loop.scope(), reports_);
  loop.run(counter, out);
  return out;
}

}  // namespace gpapriori
