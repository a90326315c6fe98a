#include "core/gpapriori.hpp"

#include <optional>
#include <stdexcept>

#include "core/compaction.hpp"
#include "core/eqclass.hpp"
#include "core/gpu_eclat.hpp"
#include "core/hybrid.hpp"
#include "core/level_loop.hpp"
#include "core/partitioned.hpp"
#include "core/pipelined.hpp"
#include "core/support_kernel.hpp"
#include "core/tiled_support_kernel.hpp"
#include "obs/obs.hpp"

namespace gpapriori {
namespace {

// Config::kGroupSizeCap is the validated ceiling of --max-group-size; it
// must match the kernel's static shared-memory sizing.
static_assert(TiledSupportKernel::kMaxGroupSize == Config::kGroupSizeCap,
              "Config::kGroupSizeCap must equal the tiled kernel's cap");

/// Largest per-partition transaction count whose bitset slice (n rows at
/// the 64-byte-aligned stride) fits `budget_bytes`; 0 when even a
/// 512-transaction chunk does not fit.
std::size_t pick_chunk_trans(std::size_t num_trans, std::size_t n,
                             std::size_t budget_bytes) {
  auto slice_bytes = [&](std::size_t t) {
    const std::size_t words = (t + 31) / 32;
    const std::size_t stride = (words + 15) / 16 * 16;
    return n * stride * 4;
  };
  std::size_t chunk = num_trans;
  while (chunk > 512 && slice_bytes(chunk) > budget_bytes)
    chunk = (chunk + 1) / 2;
  return slice_bytes(chunk) > budget_bytes ? 0 : chunk;
}

/// GPApriori's support counter, on both device rungs of the ladder:
/// SupportKernel (complete intersection over the k-major paths) or
/// TiledSupportKernel (one block per sibling group) over generation-1
/// bitset slices. A resident slice is the paper's static design, uploaded
/// once; streamed slices pass through one device buffer every level and
/// their per-slice supports are summed on the host. Every transfer and
/// launch goes through the FaultAwareDevice (retried, checksum-verified
/// downloads), and per-level buffers are scoped so a fault mid-level
/// unwinds with a clean arena for the next rung.
class BitsetCounter final : public SupportCounter {
 public:
  BitsetCounter(FaultAwareDevice& fdev, std::vector<fim::BitsetStore> slices,
                const Config& cfg, bool streamed,
                std::vector<gpusim::KernelStats>* history)
      : fdev_(fdev),
        slices_(std::move(slices)),
        cfg_(cfg),
        streamed_(streamed),
        history_(history),
        d_bits_(fdev, max_words(slices_), fim::BitsetStore::kAlignBytes) {
    if (!streamed_) fdev_.upload(d_bits_.get(), slices_[0].arena());
  }

  [[nodiscard]] const char* level_name() const override { return "mine-level"; }
  [[nodiscard]] std::uint32_t group_cap() const override {
    return resolve_tiled(cfg_.tiled) ? cfg_.resolve_max_group_size() : 0;
  }
  [[nodiscard]] double device_ms() const override {
    return fdev_.device().ledger().total_ns() / 1e6;
  }

  LevelCost count(const CandidateLevel& lv,
                  std::span<fim::Support> supports) override {
    const double before = fdev_.device().ledger().total_ns();
    const CandidateTrie::GroupedLevel* g = lv.grouped;
    // Allocation order fixes device addresses, and the coalescing model
    // charges by their alignment: the resident rung places supports before
    // the candidate table, the streamed rung after it. Both placements are
    // part of the modelled device times recorded for these drivers.
    std::optional<ScopedDeviceAlloc> d_sup, d_tab;
    if (!streamed_) d_sup.emplace(fdev_, lv.count);
    if (g != nullptr) {
      // Shared prefixes, sibling rows and group offsets travel PACKED in
      // one upload: every transfer pays pcie_latency_us regardless of size,
      // and at chess scale three of them would eat the tiled kernel's win.
      std::vector<std::uint32_t> packed;
      packed.reserve(g->prefix_rows.size() + g->sibling_rows.size() +
                     g->group_offsets.size());
      packed.insert(packed.end(), g->prefix_rows.begin(),
                    g->prefix_rows.end());
      packed.insert(packed.end(), g->sibling_rows.begin(),
                    g->sibling_rows.end());
      packed.insert(packed.end(), g->group_offsets.begin(),
                    g->group_offsets.end());
      d_tab.emplace(fdev_, packed.size());
      fdev_.upload(d_tab->get(), packed);
    } else {
      d_tab.emplace(fdev_, lv.paths.size());
      fdev_.upload(d_tab->get(), lv.paths);
    }
    if (streamed_) d_sup.emplace(fdev_, lv.count);

    LevelCost cost;
    std::vector<std::uint32_t> partial(slices_.size() > 1 ? lv.count : 0);
    const auto k = static_cast<std::uint32_t>(lv.k);
    for (const fim::BitsetStore& slice : slices_) {
      if (streamed_) fdev_.upload(d_bits_.get(), slice.arena());
      const gpusim::Dim3 block{cfg_.resolve_block_size(slice.words_per_row())};
      const auto stride = static_cast<std::uint32_t>(slice.row_stride_words());
      const auto words = static_cast<std::uint32_t>(slice.words_per_row());
      if (g != nullptr) {
        TiledSupportKernel::Args a;
        a.bitsets = d_bits_.get();
        a.stride_words = stride;
        a.words_per_row = words;
        a.prefix_rows = d_tab->get();
        a.sibling_rows = a.prefix_rows + g->prefix_rows.size();
        a.group_offsets = a.sibling_rows + g->sibling_rows.size();
        a.k = k;
        a.max_group_size = g->max_group_size();
        a.supports = d_sup->get();
        for_each_grid_batch(g->num_groups(), [&](std::uint32_t first,
                                                 std::uint32_t batch) {
          a.first_group = first;
          record(fdev_.launch(TiledSupportKernel(a, cfg_.unroll),
                              {gpusim::Dim3{batch}, block}));
        });
      } else {
        SupportKernel::Args a;
        a.bitsets = d_bits_.get();
        a.stride_words = stride;
        a.words_per_row = words;
        a.candidates = d_tab->get();
        a.k = k;
        a.supports = d_sup->get();
        for_each_grid_batch(lv.count, [&](std::uint32_t first,
                                          std::uint32_t batch) {
          a.first_candidate = first;
          record(fdev_.launch(
              SupportKernel(a, cfg_.candidate_preload, cfg_.unroll),
              {gpusim::Dim3{batch}, block}));
        });
      }
      if (partial.empty()) {
        fdev_.download_verified(supports, d_sup->get());
      } else {
        fdev_.download_verified(partial, d_sup->get());
        for (std::size_t i = 0; i < lv.count; ++i) supports[i] += partial[i];
      }
      add_bitset_arithmetic(cost, lv, slice.words_per_row());
    }
    cost.device_ms = (fdev_.device().ledger().total_ns() - before) / 1e6;
    return cost;
  }

  // Streamed slices are re-uploaded every level anyway, so the initial
  // compaction is the profitable one there.
  void after_mark(const CandidateTrie& trie, std::size_t k,
                  std::span<const fim::Support>, fim::Support) override {
    if (!streamed_ &&
        recompact_after_level(slices_[0], trie, k, cfg_.compact_level))
      fdev_.upload(d_bits_.get(), slices_[0].arena());
  }

 private:
  static std::size_t max_words(const std::vector<fim::BitsetStore>& slices) {
    std::size_t w = 0;
    for (const auto& s : slices) w = std::max(w, s.arena().size());
    return w;
  }
  void record(gpusim::KernelStats stats) {
    if (history_ != nullptr) history_->push_back(std::move(stats));
  }

  FaultAwareDevice& fdev_;
  std::vector<fim::BitsetStore> slices_;
  const Config& cfg_;
  bool streamed_;
  std::vector<gpusim::KernelStats>* history_;
  ScopedDeviceAlloc d_bits_;
};

/// CPU_TEST's counter: the kernels' AND + popcount executed by the host
/// over the same 64-byte-aligned store. Tiled, each sibling group's k-1
/// prefix AND is materialized once and every sibling's last row is
/// popcounted against it — identical supports (AND is associative).
class HostBitsetCounter final : public SupportCounter {
 public:
  HostBitsetCounter(fim::BitsetStore store, const Config& cfg)
      : store_(std::move(store)), cfg_(cfg) {}

  [[nodiscard]] const char* level_name() const override { return "cpu-level"; }
  [[nodiscard]] std::uint32_t group_cap() const override {
    return resolve_tiled(cfg_.tiled) ? cfg_.resolve_max_group_size() : 0;
  }

  LevelCost count(const CandidateLevel& lv,
                  std::span<fim::Support> supports) override {
    const miners::StopWatch watch;
    if (const CandidateTrie::GroupedLevel* g = lv.grouped) {
      const std::uint32_t p = g->prefix_len;
      std::vector<fim::BitsetStore::Word> mask(store_.row_stride_words());
      for (std::size_t i = 0; i < g->num_groups(); ++i) {
        store_.and_rows(
            std::span<const std::uint32_t>(g->prefix_rows).subspan(i * p, p),
            mask);
        for (std::uint32_t c = g->group_offsets[i];
             c < g->group_offsets[i + 1]; ++c)
          supports[c] = store_.masked_popcount(mask, g->sibling_rows[c]);
      }
    } else {
      for (std::size_t c = 0; c < lv.count; ++c)
        supports[c] = store_.and_popcount(lv.paths.subspan(c * lv.k, lv.k));
    }
    LevelCost cost;
    cost.host_ms = watch.elapsed_ms();
    add_bitset_arithmetic(cost, lv, store_.words_per_row());
    return cost;
  }

  void after_mark(const CandidateTrie& trie, std::size_t k,
                  std::span<const fim::Support>, fim::Support) override {
    recompact_after_level(store_, trie, k, cfg_.compact_level);
  }

 private:
  fim::BitsetStore store_;
  const Config& cfg_;
};

/// The Config-driven variants make_by_name resolves beyond Table 1.
std::vector<std::unique_ptr<miners::Miner>> registry(const Config& cfg) {
  auto v = make_all_miners(cfg);
  v.push_back(std::make_unique<EqClassApriori>(cfg));
  v.push_back(std::make_unique<PipelinedGpApriori>(cfg));
  v.push_back(std::make_unique<PartitionedGpApriori>(cfg));
  v.push_back(std::make_unique<GpuEclat>(cfg));
  v.push_back(std::make_unique<HybridApriori>(cfg));
  return v;
}

}  // namespace

GpApriori::GpApriori(Config cfg) : cfg_(cfg) {
  cfg_.check_block_size("GpApriori");
  if (cfg_.unroll == 0)
    throw std::invalid_argument("GpApriori: unroll must be >= 1");
  if (!cfg_.valid_max_group_size())
    throw std::invalid_argument(
        "GpApriori: max_group_size must be 0 (auto) or in [1, " +
        std::to_string(Config::kGroupSizeCap) + "]");
}

miners::MiningOutput GpApriori::mine(const fim::TransactionDb& db,
                                     const miners::MiningParams& params) {
  history_.clear();
  ledger_.reset();
  report_.reset();

  LevelLoop loop(db, params, cfg_);
  if (loop.num_items() == 0) return loop.level1();

  gpusim::DeviceOptions dopts = loop.device_options();
  dopts.fault_plan = cfg_.fault_plan;
  gpusim::Device device(cfg_.device, dopts);
  FaultAwareDevice fdev(device, cfg_.retry, report_);
  fdev.set_cancel_token(loop.scope().cancel_token());

  auto finish = [&](miners::MiningOutput out) {
    ledger_ = device.ledger();
    report_.device_faults = device.fault_stats();
    out.device_ms = ledger_.total_ns() / 1e6;
    return out;
  };
  auto device_rung = [&](std::size_t chunk_trans, bool streamed) {
    miners::MiningOutput out = loop.level1();
    BitsetCounter counter(fdev, loop.build_bitsets(out, chunk_trans), cfg_,
                          streamed, &history_);
    loop.run(counter, out);
    return finish(std::move(out));
  };
  // A cancellation that lands between rungs salvages level 1 (it came
  // straight out of preprocessing) instead of hopping the ladder: the
  // deadline is the reason to stop, not a fault to survive.
  auto cancelled = [&] {
    return loop.cancelled(device.ledger().total_ns() / 1e6);
  };

  // ---- Rung 1: the paper's static-bitset design. ----
  miners::StopWatch lost;
  bool oom = false;
  try {
    return device_rung(0, /*streamed=*/false);
  } catch (const gpusim::SimError& e) {
    if (!cfg_.allow_degradation) throw;
    oom = dynamic_cast<const gpusim::DeviceOomError*>(&e) != nullptr;
    history_.clear();
    report_.time_lost_ms += lost.elapsed_ms();
    report_.push_event(std::string("static-bitset attempt failed: ") +
                       e.what());
  }
  if (cancelled()) return finish(loop.salvage_level1());

  // ---- Rung 2: partitioned streaming, on device OOM only (persistent
  // launch/transfer failure means the device itself is gone — skip to the
  // CPU). The same Device (and fault-plan op counters) carries over. ----
  if (oom) {
    lost.restart();
    try {
      const std::size_t budget = cfg_.partition_budget_bytes != 0
                                     ? cfg_.partition_budget_bytes
                                     : device.memory().capacity() / 4;
      const std::size_t num_trans = loop.pre().db.num_transactions();
      const std::size_t chunk =
          pick_chunk_trans(num_trans, loop.num_items(), budget);
      if (chunk == 0)
        throw gpusim::DeviceOomError(
            "partition budget (" + std::to_string(budget) +
            " B) too small for even a 512-transaction chunk");
      report_.degraded_to = DegradationStep::kPartitioned;
      obs::MetricsRegistry::global().add(obs::Counter::kLadderHops, 1);
      obs::TraceRecorder::global().instant(obs::SpanKind::kLadderHop,
                                           "degrade:static->partitioned");
      report_.push_event("degraded static -> partitioned streaming (" +
                         std::to_string((num_trans + chunk - 1) / chunk) +
                         " partitions, " + std::to_string(budget) +
                         " B bitset budget)");
      return device_rung(chunk, /*streamed=*/chunk < num_trans);
    } catch (const gpusim::SimError& e) {
      history_.clear();
      report_.time_lost_ms += lost.elapsed_ms();
      report_.push_event(std::string("partitioned attempt failed: ") +
                         e.what());
    }
    if (cancelled()) return finish(loop.salvage_level1());
  }

  // ---- Rung 3: CPU_TEST — same algorithm, no device. Always succeeds,
  // and produces the identical (itemset, support) set. ----
  report_.degraded_to = DegradationStep::kCpu;
  obs::MetricsRegistry::global().add(obs::Counter::kLadderHops, 1);
  obs::TraceRecorder::global().instant(obs::SpanKind::kLadderHop,
                                       "degrade:->cpu-test");
  report_.push_event("degraded to CPU_TEST (device abandoned)");
  ledger_ = device.ledger();
  report_.device_faults = device.fault_stats();
  miners::MiningOutput out = loop.level1();
  HostBitsetCounter counter(std::move(loop.build_bitsets(out)[0]), cfg_);
  loop.run(counter, out);
  return out;
}

PartitionedGpApriori::PartitionedGpApriori(Config cfg,
                                           std::size_t device_bitset_budget_bytes)
    : cfg_(cfg), budget_bytes_(device_bitset_budget_bytes) {
  cfg_.check_block_size("PartitionedGpApriori");
}

miners::MiningOutput PartitionedGpApriori::mine(
    const fim::TransactionDb& db, const miners::MiningParams& params) {
  ledger_.reset();
  num_partitions_ = 0;
  LevelLoop loop(db, params, cfg_);
  miners::MiningOutput out = loop.level1();
  if (loop.num_items() == 0) return out;

  const std::size_t num_trans = loop.pre().db.num_transactions();
  const std::size_t chunk =
      budget_bytes_ == 0
          ? num_trans
          : pick_chunk_trans(num_trans, loop.num_items(), budget_bytes_);
  if (chunk == 0)
    throw std::invalid_argument(
        "PartitionedGpApriori: budget too small for even a 512-transaction "
        "chunk");
  num_partitions_ = (num_trans + chunk - 1) / chunk;

  gpusim::DeviceOptions dopts = loop.device_options();
  dopts.fault_plan = cfg_.fault_plan;
  gpusim::Device device(cfg_.device, dopts);
  ResilienceReport report;
  FaultAwareDevice fdev(device, cfg_.retry, report);
  fdev.set_cancel_token(loop.scope().cancel_token());
  BitsetCounter counter(fdev, loop.build_bitsets(out, chunk), cfg_,
                        /*streamed=*/true, nullptr);
  loop.run(counter, out);
  ledger_ = device.ledger();
  return out;
}

miners::MiningOutput CpuBitsetApriori::mine(const fim::TransactionDb& db,
                                            const miners::MiningParams& params) {
  LevelLoop loop(db, params, cfg_);
  miners::MiningOutput out = loop.level1();
  if (loop.num_items() == 0) return out;
  HostBitsetCounter counter(std::move(loop.build_bitsets(out)[0]), cfg_);
  loop.run(counter, out);
  return out;
}

std::vector<std::unique_ptr<miners::Miner>> make_all_miners(
    const Config& gpapriori_config) {
  std::vector<std::unique_ptr<miners::Miner>> v;
  v.push_back(std::make_unique<GpApriori>(gpapriori_config));
  v.push_back(std::make_unique<CpuBitsetApriori>(gpapriori_config));
  for (auto& m : miners::make_cpu_miners()) v.push_back(std::move(m));
  return v;
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const auto& m : registry({})) names.emplace_back(m->name());
  return names;
}

std::unique_ptr<miners::Miner> make_by_name(std::string_view name,
                                            const Config& cfg) {
  for (auto& m : registry(cfg))
    if (m->name() == name) return std::move(m);
  return nullptr;
}

}  // namespace gpapriori
