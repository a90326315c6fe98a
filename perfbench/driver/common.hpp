#pragma once
// Shared helpers of the benchmark driver: clocks, sample statistics,
// process resource readings, the seeded stream generator and the JSON
// result line every run ends with.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Linear-interpolated quantile q in [0, 1] of `v` (0 for an empty sample).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident set size of this process, MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Minor page faults of this process so far.
inline long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// splitmix64: the benchmark's only source of randomness besides the
/// dataset generators, so a seed fixes every input on any platform.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

/// An output that differs from its reference ends the run (exit code 3).
struct MismatchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The last stdout line of a run: correctness, operation counts and the
/// metrics, every value printed with all its digits.
inline void print_result_line(bool correct, std::uint64_t attempted,
                              std::uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
