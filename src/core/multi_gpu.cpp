#include "core/multi_gpu.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/level_loop.hpp"
#include "core/support_kernel.hpp"

namespace gpapriori {
namespace {

/// Shards each level's candidates contiguously across the devices, each
/// counting its slice against its replica of the static bitsets; the
/// level costs the slowest slice. Candidates are disjoint across devices,
/// so the arithmetic equals the single-device complete intersection.
class MultiGpuCounter final : public SupportCounter {
 public:
  MultiGpuCounter(const fim::BitsetStore& store, const Config& cfg,
                  const gpusim::DeviceOptions& dopts, int num_devices,
                  std::vector<MultiGpuLevelReport>& reports)
      : store_(store), cfg_(cfg), reports_(reports) {
    // The replication copies happen once and concurrently (one PCIe link
    // per device on the S1070 host), so setup costs one transfer, not N.
    double setup_ns = 0;
    for (int d = 0; d < num_devices; ++d) {
      auto& dev = *devices_.emplace_back(
          std::make_unique<gpusim::Device>(cfg.device, dopts));
      d_bitsets_.push_back(dev.alloc<std::uint32_t>(
          store.arena().size(), fim::BitsetStore::kAlignBytes));
      dev.copy_to_device(d_bitsets_.back(), store.arena());
      setup_ns = std::max(setup_ns, dev.ledger().total_ns());
      dev.reset_ledger();
    }
    total_ms_ = setup_ns / 1e6;
  }

  [[nodiscard]] const char* level_name() const override {
    return "multi-gpu-level";
  }
  [[nodiscard]] double device_ms() const override {
    double total = 0;
    for (const auto& dev : devices_) total += dev->ledger().total_ns() / 1e6;
    return total;
  }
  [[nodiscard]] double output_device_ms() const override { return total_ms_; }

  LevelCost count(const CandidateLevel& lv,
                  std::span<fim::Support> supports) override {
    const std::size_t ncand = lv.count;
    const std::size_t k = lv.k;
    MultiGpuLevelReport report;
    report.level = k;
    report.candidates = ncand;
    const std::size_t per_dev = (ncand + devices_.size() - 1) / devices_.size();
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      const std::size_t lo = d * per_dev;
      if (lo >= ncand) {
        report.per_device_ms.push_back(0);
        continue;
      }
      const std::size_t slice = std::min(ncand, lo + per_dev) - lo;
      report.per_device_ms.push_back(count_supports(
          *devices_[d], d_bitsets_[d], store_, cfg_,
          lv.paths.subspan(lo * k, slice * k), k, supports.subspan(lo, slice)));
    }
    report.level_ms = *std::max_element(report.per_device_ms.begin(),
                                        report.per_device_ms.end());
    reports_.push_back(report);
    LevelCost cost;
    cost.device_ms = report.level_ms;
    total_ms_ += cost.device_ms;
    add_bitset_arithmetic(cost, lv, store_.words_per_row());
    return cost;
  }

 private:
  const fim::BitsetStore& store_;
  const Config& cfg_;
  std::vector<MultiGpuLevelReport>& reports_;
  std::vector<std::unique_ptr<gpusim::Device>> devices_;
  std::vector<gpusim::DevicePtr<std::uint32_t>> d_bitsets_;
  double total_ms_ = 0;
};

}  // namespace

MultiGpuApriori::MultiGpuApriori(Config cfg, int num_devices)
    : cfg_(cfg),
      num_devices_(num_devices),
      name_("GPApriori x" + std::to_string(num_devices)) {
  cfg_.check_block_size("MultiGpuApriori");
  if (num_devices < 1 || num_devices > 16)
    throw std::invalid_argument("MultiGpuApriori: 1..16 devices");
}

miners::MiningOutput MultiGpuApriori::mine(const fim::TransactionDb& db,
                                           const miners::MiningParams& params) {
  reports_.clear();
  LevelLoop loop(db, params, cfg_);
  miners::MiningOutput out = loop.level1();
  if (loop.num_items() == 0) return out;
  const fim::BitsetStore store =
      std::move(loop.build_bitsets(out, 0, /*compact=*/false)[0]);
  MultiGpuCounter counter(store, cfg_, loop.device_options(), num_devices_,
                          reports_);
  loop.run(counter, out);
  return out;
}

}  // namespace gpapriori
