// CircuitBreaker state machine drills (DESIGN.md §15) — trip thresholds,
// cooldown into half-open, single-probe accounting, concurrency safety —
// plus the CostEstimator/AdmissionController pair that gates service
// admission on predicted footprints.

#include "core/resilience.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "fim/dataset_stats.hpp"
#include "serve/cost_estimator.hpp"

namespace {

using gpapriori::CircuitBreaker;
using State = CircuitBreaker::State;

/// Injectable clock: a plain function pointer per Options::clock_ms, so
/// the fake time lives in a file-scope variable.
double g_now_ms = 0;
double fake_clock() { return g_now_ms; }

CircuitBreaker::Options fast_opts() {
  CircuitBreaker::Options o;
  o.window = 4;
  o.min_samples = 2;
  o.failure_threshold = 0.5;
  o.open_cooldown_ms = 100;
  o.clock_ms = &fake_clock;
  return o;
}

// -- State machine ----------------------------------------------------------

TEST(CircuitBreakerTest, StaysClosedBelowMinSamples) {
  g_now_ms = 0;
  CircuitBreaker br(fast_opts());
  br.record_failure();  // 1 failure, min_samples = 2: not enough evidence
  EXPECT_EQ(br.state(), State::kClosed);
  EXPECT_TRUE(br.allow());
  EXPECT_EQ(br.snapshot().trips, 0u);
}

TEST(CircuitBreakerTest, TripsAtFailureRateThreshold) {
  g_now_ms = 0;
  CircuitBreaker br(fast_opts());
  br.record_success();
  br.record_failure();  // 1/2 = threshold 0.5 reached with min samples
  EXPECT_EQ(br.state(), State::kOpen);
  EXPECT_FALSE(br.allow());
  const auto s = br.snapshot();
  EXPECT_EQ(s.trips, 1u);
  EXPECT_EQ(s.short_circuited, 1u);
}

TEST(CircuitBreakerTest, SuccessesKeepItClosed) {
  g_now_ms = 0;
  CircuitBreaker br(fast_opts());
  for (int i = 0; i < 100; ++i) {
    br.record_success();
    EXPECT_TRUE(br.allow());
  }
  // A lone failure in a healthy window (1/4 < 0.5) is not a trip.
  br.record_failure();
  EXPECT_EQ(br.state(), State::kClosed);
}

TEST(CircuitBreakerTest, SlidingWindowForgetsOldFailures) {
  auto o = fast_opts();
  o.window = 4;
  o.min_samples = 4;
  g_now_ms = 0;
  CircuitBreaker br(o);
  br.record_failure();
  br.record_failure();
  // Two failures then four successes: the window (last 4) is clean, so
  // the next failure is 1/4 < 0.5 and must not trip.
  for (int i = 0; i < 4; ++i) br.record_success();
  br.record_failure();
  EXPECT_EQ(br.state(), State::kClosed);
}

TEST(CircuitBreakerTest, CooldownGrantsSingleHalfOpenProbe) {
  g_now_ms = 0;
  CircuitBreaker br(fast_opts());
  br.record_failure();
  br.record_failure();
  ASSERT_EQ(br.state(), State::kOpen);
  EXPECT_FALSE(br.allow());  // cooldown not elapsed

  g_now_ms = 150;             // past the 100 ms cooldown
  EXPECT_TRUE(br.allow());    // the single probe
  EXPECT_EQ(br.state(), State::kHalfOpen);
  EXPECT_FALSE(br.allow());   // second request while the probe is out
  EXPECT_EQ(br.snapshot().probes, 1u);
}

TEST(CircuitBreakerTest, ProbeSuccessClosesProbeFailureReopens) {
  g_now_ms = 0;
  CircuitBreaker br(fast_opts());
  br.record_failure();
  br.record_failure();
  g_now_ms = 150;
  ASSERT_TRUE(br.allow());
  br.record_success();  // probe came back healthy
  EXPECT_EQ(br.state(), State::kClosed);
  EXPECT_TRUE(br.allow());
  // The window restarted clean at trip time: one failure right after the
  // recovery must not re-trip instantly.
  br.record_failure();
  EXPECT_EQ(br.state(), State::kClosed);

  // Now trip again and fail the probe: back to open, cooldown restarts.
  br.record_failure();  // 2/2 failures
  ASSERT_EQ(br.state(), State::kOpen);
  g_now_ms = 300;
  ASSERT_TRUE(br.allow());
  br.record_failure();
  EXPECT_EQ(br.state(), State::kOpen);
  EXPECT_FALSE(br.allow());  // cooldown restarted at 300
  g_now_ms = 450;
  EXPECT_TRUE(br.allow());
  EXPECT_EQ(br.snapshot().trips, 3u);
}

TEST(CircuitBreakerTest, LateSuccessWhileOpenCarriesNoInformation) {
  g_now_ms = 0;
  CircuitBreaker br(fast_opts());
  br.record_failure();
  br.record_failure();
  ASSERT_EQ(br.state(), State::kOpen);
  // A request admitted before the trip finishing late must not close it.
  br.record_success();
  EXPECT_EQ(br.state(), State::kOpen);
}

TEST(CircuitBreakerTest, ResetReturnsToClosedWithCleanWindow) {
  g_now_ms = 0;
  CircuitBreaker br(fast_opts());
  br.record_failure();
  br.record_failure();
  ASSERT_EQ(br.state(), State::kOpen);
  br.reset();
  EXPECT_EQ(br.state(), State::kClosed);
  EXPECT_TRUE(br.allow());
  br.record_failure();  // 1 sample < min_samples: no trip
  EXPECT_EQ(br.state(), State::kClosed);
}

TEST(CircuitBreakerTest, OptionsAreClampedToSaneRanges) {
  CircuitBreaker::Options o;
  o.window = 0;        // -> 1
  o.min_samples = 99;  // -> window
  o.failure_threshold = 7.0;  // -> 1.0
  o.clock_ms = &fake_clock;
  g_now_ms = 0;
  CircuitBreaker br(o);
  br.record_failure();  // window 1, min_samples 1, threshold 1.0: trips
  EXPECT_EQ(br.state(), State::kOpen);
}

// -- Concurrency hammer -----------------------------------------------------

TEST(CircuitBreakerTest, ConcurrentAllowAndRecordStayConsistent) {
  // No fake clock here: real time moves the cooldown along while threads
  // hammer every entry point. The assertion is invariants, not a specific
  // final state: at most one probe out at a time, counters add up.
  CircuitBreaker::Options o;
  o.window = 8;
  o.min_samples = 4;
  o.open_cooldown_ms = 0.01;
  CircuitBreaker br(o);
  std::atomic<std::uint64_t> allowed{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&br, &allowed, t] {
      for (int i = 0; i < 2000; ++i) {
        if (br.allow()) {
          allowed.fetch_add(1, std::memory_order_relaxed);
          if ((i + t) % 3 == 0)
            br.record_failure();
          else
            br.record_success();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = br.snapshot();
  // Every allow() == true is followed by exactly one recorded outcome.
  EXPECT_EQ(s.successes + s.failures, allowed.load());
  // Interleaved bursts cross the 0.5 window threshold regularly, and a
  // failed half-open probe re-trips, so trips accumulate under load.
  EXPECT_GT(s.trips, 0u);
  // Leaving the open state requires a probe, so between any two
  // consecutive trips at least one probe was granted.
  if (s.trips > 0) {
    EXPECT_GE(s.probes, s.trips - 1);
  }
}

// -- Cost estimator ---------------------------------------------------------

fim::DatasetStats shape(std::size_t ntrans, std::size_t items,
                        double density) {
  fim::DatasetStats s;
  s.num_transactions = ntrans;
  s.distinct_items = items;
  s.density = density;
  s.avg_transaction_length = density * static_cast<double>(items);
  return s;
}

TEST(CostEstimatorTest, HigherThresholdNeverCostsMore) {
  serve::CostEstimator est;
  const auto s = shape(100'000, 500, 0.2);
  const auto lo = est.estimate(s, 1'000);
  const auto hi = est.estimate(s, 80'000);
  EXPECT_GE(lo.device_bytes, hi.device_bytes);
  EXPECT_GE(lo.wall_ms, hi.wall_ms);
  EXPECT_GE(lo.frequent1_bound, hi.frequent1_bound);
  EXPECT_LE(hi.frequent1_bound, s.distinct_items);
  EXPECT_GE(hi.frequent1_bound, 1u);
}

TEST(CostEstimatorTest, MoreTransactionsCostMoreBytes) {
  serve::CostEstimator est;
  const auto small = est.estimate(shape(10'000, 200, 0.3), 100);
  const auto big = est.estimate(shape(1'000'000, 200, 0.3), 100);
  EXPECT_GT(big.device_bytes, small.device_bytes);
  EXPECT_GT(big.words_per_row, small.words_per_row);
  EXPECT_EQ(small.words_per_row, (10'000 + 63) / 64u);
}

TEST(CostEstimatorTest, WallIncludesFixedDeviceSetup) {
  serve::CostEstimator::Calibration cal;
  serve::CostEstimator est(cal);
  const auto tiny = est.estimate(shape(64, 4, 0.5), 60);
  ASSERT_GT(cal.device_fixed_ms, 0.0);
  EXPECT_GE(tiny.wall_ms, cal.device_fixed_ms);
}

// -- Admission controller ---------------------------------------------------

serve::CostEstimate cost(std::size_t bytes, double wall_ms) {
  serve::CostEstimate e;
  e.device_bytes = bytes;
  e.wall_ms = wall_ms;
  return e;
}

TEST(AdmissionControllerTest, PermanentShedWhenRequestCanNeverFit) {
  serve::AdmissionOptions o;
  o.device_bytes_budget = 1 << 20;
  serve::AdmissionController ac(o, 2);
  const auto d = ac.try_admit(cost(2 << 20, 10));
  EXPECT_FALSE(d.admitted);
  EXPECT_TRUE(d.permanent);
  EXPECT_EQ(d.retry_after_ms, 0);
  EXPECT_NE(d.reason.find("whole"), std::string::npos) << d.reason;
  EXPECT_EQ(ac.stats().shed, 1u);
}

TEST(AdmissionControllerTest, WallCeilingShedsPermanently) {
  serve::AdmissionOptions o;
  o.max_request_wall_ms = 50;
  serve::AdmissionController ac(o, 2);
  const auto d = ac.try_admit(cost(100, 200));
  EXPECT_FALSE(d.admitted);
  EXPECT_TRUE(d.permanent);
  EXPECT_NE(d.reason.find("ceiling"), std::string::npos) << d.reason;
}

TEST(AdmissionControllerTest, ByteBudgetShedsRetryablyAndReleaseRestores) {
  serve::AdmissionOptions o;
  o.device_bytes_budget = 1 << 20;
  serve::AdmissionController ac(o, 2);
  const auto big = cost(800 << 10, 400);  // 800 KiB of the 1 MiB budget
  ASSERT_TRUE(ac.try_admit(big).admitted);

  const auto d = ac.try_admit(cost(400 << 10, 100));
  EXPECT_FALSE(d.admitted);
  EXPECT_FALSE(d.permanent);  // fits an empty service: retry can help
  // Retry-after predicts the drain of 400 admitted wall-ms over 2 workers.
  EXPECT_GE(d.retry_after_ms, 1.0);
  EXPECT_LE(d.retry_after_ms, 400.0);

  ac.release(big);
  EXPECT_TRUE(ac.try_admit(cost(400 << 10, 100)).admitted);
  const auto st = ac.stats();
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.inflight, 1u);
}

TEST(AdmissionControllerTest, FirstRequestAlwaysFitsWithinBudget) {
  // The in-flight byte check only applies on top of existing work: a
  // single admissible request into an empty service is never shed on
  // bytes, however close to the budget it sits.
  serve::AdmissionOptions o;
  o.device_bytes_budget = 1 << 20;
  serve::AdmissionController ac(o, 1);
  EXPECT_TRUE(ac.try_admit(cost(1 << 20, 10)).admitted);
}

TEST(AdmissionControllerTest, InflightCapSheds) {
  serve::AdmissionOptions o;
  o.max_inflight = 1;
  serve::AdmissionController ac(o, 4);
  const auto one = cost(100, 10);
  ASSERT_TRUE(ac.try_admit(one).admitted);
  const auto d = ac.try_admit(one);
  EXPECT_FALSE(d.admitted);
  EXPECT_FALSE(d.permanent);
  ac.release(one);
  EXPECT_TRUE(ac.try_admit(one).admitted);
}

TEST(AdmissionControllerTest, DisabledAdmitsEverything) {
  serve::AdmissionOptions o;
  o.enabled = false;
  o.device_bytes_budget = 1;
  serve::AdmissionController ac(o, 1);
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(ac.try_admit(cost(1 << 30, 1e9)).admitted);
  EXPECT_EQ(ac.stats().admitted, 0u);  // disabled: nothing is accounted
}

}  // namespace
