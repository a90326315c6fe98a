#include "gpusim/device_context.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "gpusim/error.hpp"

namespace {

using namespace gpusim;

class ScaleKernel final : public Kernel {
 public:
  DevicePtr<std::uint32_t> data;
  std::uint64_t n = 0;

  [[nodiscard]] std::string_view name() const override { return "scale2"; }
  [[nodiscard]] KernelInfo info(const LaunchConfig&) const override {
    return {.num_phases = 1, .static_shared_bytes = 0, .regs_per_thread = 8};
  }
  void run_phase(std::uint32_t, ThreadCtx& t) const override {
    const std::uint64_t i =
        t.flat_block_idx() * t.block_dim().x + t.flat_tid();
    if (i >= n) return;
    t.st_global(data, i, t.ld_global(data, i) * 2);
  }
};

DeviceOptions small_opts() {
  DeviceOptions o;
  o.arena_bytes = 1 << 20;
  return o;
}

TEST(Device, CopyRoundTripAndLedger) {
  Device dev(DeviceProperties::tesla_t10(), small_opts());
  const auto p = dev.alloc<std::uint32_t>(256);
  std::vector<std::uint32_t> h(256);
  std::iota(h.begin(), h.end(), 0u);
  dev.copy_to_device(p, std::span<const std::uint32_t>(h));
  std::vector<std::uint32_t> back(256);
  dev.copy_to_host(std::span<std::uint32_t>(back), p);
  EXPECT_EQ(h, back);
  EXPECT_EQ(dev.ledger().h2d_transfers, 1u);
  EXPECT_EQ(dev.ledger().d2h_transfers, 1u);
  EXPECT_GT(dev.ledger().h2d_ns, 0.0);
  EXPECT_EQ(dev.ledger().launches, 0u);
}

TEST(Device, LaunchExecutesAndCharges) {
  Device dev(DeviceProperties::tesla_t10(), small_opts());
  constexpr std::uint64_t n = 512;
  ScaleKernel k;
  k.data = dev.alloc<std::uint32_t>(n);
  k.n = n;
  std::vector<std::uint32_t> h(n, 21);
  dev.copy_to_device(k.data, std::span<const std::uint32_t>(h));
  const auto stats = dev.launch(k, {Dim3{4}, Dim3{128}});
  dev.copy_to_host(std::span<std::uint32_t>(h), k.data);
  for (auto v : h) ASSERT_EQ(v, 42u);
  EXPECT_GT(stats.timing.total_ns, 0.0);
  EXPECT_EQ(dev.ledger().launches, 1u);
  EXPECT_NEAR(dev.ledger().kernel_ns, stats.timing.total_ns, 1e-9);
}

TEST(Device, LaunchHistoryRecording) {
  Device dev(DeviceProperties::tesla_t10(), small_opts());
  ScaleKernel k;
  k.data = dev.alloc<std::uint32_t>(64);
  k.n = 64;
  dev.launch(k, {Dim3{1}, Dim3{64}});
  dev.launch(k, {Dim3{1}, Dim3{64}});
  EXPECT_EQ(dev.launch_history().size(), 2u);
  EXPECT_EQ(dev.launch_history()[0].kernel_name, "scale2");
  EXPECT_FALSE(dev.profile_report().empty());
  dev.clear_launch_history();
  EXPECT_TRUE(dev.launch_history().empty());
}

TEST(Device, HistoryRecordingCanBeDisabled) {
  auto opts = small_opts();
  opts.record_launches = false;
  Device dev(DeviceProperties::tesla_t10(), opts);
  ScaleKernel k;
  k.data = dev.alloc<std::uint32_t>(64);
  k.n = 64;
  dev.launch(k, {Dim3{1}, Dim3{64}});
  EXPECT_TRUE(dev.launch_history().empty());
  EXPECT_EQ(dev.ledger().launches, 1u);  // ledger still counts
}

TEST(Device, LedgerReset) {
  Device dev(DeviceProperties::tesla_t10(), small_opts());
  const auto p = dev.alloc<std::uint32_t>(16);
  std::vector<std::uint32_t> h(16, 0);
  dev.copy_to_device(p, std::span<const std::uint32_t>(h));
  dev.reset_ledger();
  EXPECT_EQ(dev.ledger().h2d_transfers, 0u);
  EXPECT_DOUBLE_EQ(dev.ledger().total_ns(), 0.0);
}

TEST(Device, ArenaExhaustionBehavesLikeCudaMalloc) {
  Device dev(DeviceProperties::tesla_t10(), small_opts());
  EXPECT_THROW(dev.alloc<std::uint8_t>(2 << 20), SimError);
}

TEST(Device, TransferTimeScalesWithSize) {
  Device dev(DeviceProperties::tesla_t10(), small_opts());
  const auto p = dev.alloc<std::uint32_t>(200'000);
  std::vector<std::uint32_t> small(16), large(200'000);
  dev.copy_to_device(p, std::span<const std::uint32_t>(small));
  const double after_small = dev.ledger().h2d_ns;
  dev.copy_to_device(p, std::span<const std::uint32_t>(large));
  const double large_cost = dev.ledger().h2d_ns - after_small;
  EXPECT_GT(large_cost, after_small);
}

TEST(Device, StrictMemoryOptionPropagates) {
  auto opts = small_opts();
  opts.strict_memory = true;
  Device dev(DeviceProperties::tesla_t10(), opts);
  EXPECT_TRUE(dev.memory().strict());
}

// Minor page faults taken by the calling thread so far.
long thread_minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_minflt;
}

TEST(Device, DefaultArenaIsLazilyZeroed) {
  // Zero-filling the default 256 MiB arena up front faults in all of its
  // 65,536 pages; a lazily zeroed arena faults in none until touched.
  constexpr long kMaxFaults = 1024;
  const long before = thread_minor_faults();
  Device dev;
  EXPECT_LT(thread_minor_faults() - before, kMaxFaults)
      << "constructing a Device faulted in its arena";
  const std::size_t cap = dev.memory().capacity();
  ASSERT_EQ(cap, DeviceOptions{}.arena_bytes);

  // Fresh allocations at the start, middle and very end of the arena all
  // read back as zeros; the padding between them is never touched.
  constexpr std::size_t kProbe = 4096;
  std::vector<std::uint64_t> probes;
  probes.push_back(dev.alloc<std::byte>(kProbe).addr);
  dev.alloc<std::byte>(cap / 2);
  probes.push_back(dev.alloc<std::byte>(kProbe).addr);
  dev.alloc<std::byte>(cap - 1 - dev.memory().bytes_in_use() - kProbe);
  probes.push_back(dev.alloc<std::byte>(kProbe).addr);
  ASSERT_EQ(probes.back() + kProbe, cap);
  std::vector<std::byte> back(kProbe, std::byte{0xAB});
  for (const std::uint64_t addr : probes) {
    dev.memory().read_bytes(addr, back.data(), kProbe);
    EXPECT_TRUE(std::all_of(back.begin(), back.end(),
                            [](std::byte b) { return b == std::byte{0}; }))
        << "fresh allocation at " << addr << " is not zeroed";
  }
  EXPECT_LT(thread_minor_faults() - before, kMaxFaults)
      << "allocating or probing the arena faulted in untouched pages";
}

}  // namespace
