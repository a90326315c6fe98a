// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--repeat-share X]
//
// Untraced (--trace 0): sets the workload up several times (setup_s is the
// median), runs it for S seconds with every output checked against its
// FP-Growth reference, and prints the end-to-end metrics. Traced
// (--trace 1): runs S/2 seconds untraced, then S/2 seconds with the
// program's TraceRecorder and MetricsRegistry on, probes each module's
// public entry points on the workload's inputs, and prints the per-layer
// metrics. The last stdout line is the JSON result; exit 3 on any output
// mismatch, 64 on a usage error. --repeat-share replaces serve-mixed's
// duplicate share, to check that its per-layer conclusions hold at another
// mix; the benchmark itself never passes it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir;
  double repeat_share = -1;  ///< <0: the workload's own
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--repeat-share X]\n",
               why);
  std::exit(64);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(a.seconds > 0))
        usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] - '0';
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--repeat-share") {
      a.repeat_share = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(a.repeat_share >= 0) ||
          a.repeat_share > 1)
        usage("--repeat-share takes a number in [0, 1]");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (find_workload(a.workload) == nullptr) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    usage(("--workload must be one of:" + names).c_str());
  }
  if (a.seconds <= 0 || a.trace < 0 || a.work_dir.empty())
    usage("--seconds, --trace and --work-dir are required");
  return a;
}

double p50(const std::vector<double>& v) { return quantile(v, 0.5); }
double p90(const std::vector<double>& v) { return quantile(v, 0.9); }

void print_metrics_table(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

int run_untraced(Prepared& p, const std::vector<double>& setup_s,
                 double seconds) {
  const PhaseResult r = run_phase(p, seconds);
  std::printf("# %s seed=%llu: %zu mines timed, %zu requests timed, "
              "%llu attempted, %llu failed (fail_ratio %.6g), %.2f s\n",
              p.spec->name.c_str(), static_cast<unsigned long long>(p.seed),
              r.mine_ms.size(), r.request_ms.size(),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              ratio(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)),
              r.wall_s);
  const std::vector<Metric> ms = {
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"mine_ms_p50", p50(r.mine_ms), "ms"},
      {"mine_ms_p90", p90(r.mine_ms), "ms"},
      {"mines_per_s", static_cast<double>(r.mine_ms.size()) / r.wall_s, "1/s"},
      {"request_ms_p50", p50(r.request_ms), "ms"},
      {"request_ms_p90", p90(r.request_ms), "ms"},
      {"requests_per_s", static_cast<double>(r.ok) / r.wall_s, "1/s"},
      {"ok_ratio",
       ratio(static_cast<double>(r.ok), static_cast<double>(r.attempted)),
       "ratio"},
      {"model_device_ms", p.model_device_ms, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  print_metrics_table(ms);
  print_result_line(true, r.attempted, r.failed, ms);
  return 0;
}

/// One row of the per-layer table.
struct LayerRow {
  Metric metric;
  double calls_per_op = -1;  ///< invocations per timed op; <0: n/a
  double ms_per_op = -1;     ///< self ms per timed op; <0: n/a
  const char* moves = "";    ///< end-to-end metric it should move
  const char* where = "";    ///< workload where it should (not) move
};

int run_traced(Prepared& p, const std::vector<double>& generate_ms,
               double seconds) {
  const bool serve = p.spec->serve;
  const PhaseResult plain = run_phase(p, seconds / 2);

  auto& rec = obs::TraceRecorder::global();
  auto& reg = obs::MetricsRegistry::global();
  serve::ServiceStats before;
  if (serve) before = p.service->stats();
  rec.clear();
  reg.reset();
  rec.enable();
  reg.enable();
  const PhaseResult traced = run_phase(p, seconds / 2);
  rec.disable();
  reg.disable();
  const auto spans = span_times(rec.export_chrome_json());
  rec.clear();

  // Batch workloads bypass the service: their serve.* rows stay 0.
  serve::ServiceStats stats;
  if (serve) stats = p.service->stats();
  const Probes probes = probe_layers(p);

  const auto ops = static_cast<double>(traced.request_ms.size());
  const auto mines = static_cast<double>(traced.executed);
  const double op_ms = mean(traced.request_ms);
  auto per_mine = [&](obs::Counter c) {
    return ratio(static_cast<double>(reg.value(c)), mines);
  };
  auto span_ms = [&](const char* cat) {
    const auto it = spans.find(cat);
    return it == spans.end() ? CategoryTime{} : it->second;
  };
  auto delta = [](std::uint64_t after, std::uint64_t b) {
    return static_cast<double>(after - b);
  };
  const double db_hits = delta(stats.cache.db_hits, before.cache.db_hits);
  const double db_misses =
      delta(stats.cache.db_misses, before.cache.db_misses);
  const double lay_hits =
      delta(stats.cache.layout_hits, before.cache.layout_hits);
  const double lay_misses =
      delta(stats.cache.layout_misses, before.cache.layout_misses);
  const double submitted = delta(stats.submitted, before.submitted);

  // Invocations per timed op of each probed call. Batch workloads never
  // parse and build one layout and one Device per mine; on serve-mixed the
  // service's cache counters say how often each ran.
  const double parses = serve ? ratio(db_misses, ops) : 0;
  const double digests =
      serve ? ratio(db_misses + static_cast<double>(traced.layout_injected),
                    ops)
            : 0;
  const double preprocesses = serve ? ratio(lay_misses, ops) : ratio(mines, ops);
  const double devices =
      ratio(static_cast<double>(traced.device_mines), ops);

  const CategoryTime kernel = span_ms("kernel");
  const double kernel_ms = ratio(kernel.total_ms, mines);
  const double winstr = per_mine(obs::Counter::kWarpInstructions);
  const double candidates = per_mine(obs::Counter::kCandidates);
  const double survivors = per_mine(obs::Counter::kSurvivors);
  const double plain_p50 = serve ? p50(plain.request_ms) : p50(plain.mine_ms);
  const double traced_p50 =
      serve ? p50(traced.request_ms) : p50(traced.mine_ms);
  const double gen_ms = quantile(generate_ms, 0.5);

  const char* kSetup = "setup_s";
  const char* kReqParse = "request_ms_p50, requests_per_s";
  const char* kServeOnly = "serve-mixed only";
  std::vector<LayerRow> rows = {
      {{"datagen.generate_ms", gen_ms, "ms"}, -1, -1, kSetup, "all"},
      {{"fim.parse_ms", probes.parse_ms, "ms"}, parses,
       parses * probes.parse_ms, kReqParse,
       "serve-mixed (batch workloads bypass parsing)"},
      {{"fim.digest_ms", probes.digest_ms, "ms"}, digests,
       digests * probes.digest_ms, kReqParse, "serve-mixed"},
      {{"fim.stats_ms", probes.stats_ms, "ms"}, parses,
       parses * probes.stats_ms, kReqParse, "serve-mixed"},
      {{"baselines.preprocess_ms", probes.preprocess_ms, "ms"}, preprocesses,
       preprocesses * probes.preprocess_ms, "mine_ms_p50, request_ms_p50",
       "dense-sweep, serve misses (small on sparse-t40)"},
      {{"gpusim.device_setup_ms", probes.device_setup_ms, "ms"}, devices,
       devices * probes.device_setup_ms,
       "mine_ms_p50, request_ms_p50, peak_rss_mb",
       "dense-sweep, serve-mixed (small on sparse-t40)"},
      {{"gpusim.device_setup_minflt", probes.device_setup_minflt, "count"},
       devices, -1, "mine_ms_p50, request_ms_p50, peak_rss_mb",
       "dense-sweep, serve-mixed"},
      {{"gpusim.kernel_ms", kernel_ms, "ms"}, ratio(kernel.spans, ops),
       ratio(kernel.total_ms, ops), "mine_ms_p50", "sparse-t40 (not dense-sweep)"},
      {{"gpusim.native_blocks", per_mine(obs::Counter::kNativeBlocks), "count"},
       -1, -1, "mine_ms_p50", "sparse-t40 (not dense-sweep)"},
      {{"gpusim.sampled_blocks", per_mine(obs::Counter::kSampledBlocks),
        "count"},
       -1, -1, "mine_ms_p50", "sparse-t40 (not dense-sweep)"},
      {{"gpusim.sim_winstr_per_s", ratio(winstr, kernel_ms / 1000.0), "1/s"},
       -1, -1, "mine_ms_p50", "sparse-t40 (not dense-sweep)"},
      {{"gpusim.warp_instructions", winstr, "count"}, -1, -1,
       "model_device_ms", "sparse-t40, dense-sweep; simulator-only changes keep it"},
      {{"gpusim.global_load_bytes", per_mine(obs::Counter::kGlobalLoadBytes),
        "bytes"},
       -1, -1, "model_device_ms", "sparse-t40, dense-sweep"},
      {{"gpusim.h2d_bytes", per_mine(obs::Counter::kH2DBytes), "bytes"}, -1,
       -1, "model_device_ms", "sparse-t40, dense-sweep"},
      {{"gpusim.d2h_bytes", per_mine(obs::Counter::kD2HBytes), "bytes"}, -1,
       -1, "model_device_ms", "sparse-t40, dense-sweep"},
      {{"gpusim.kernel_launches", per_mine(obs::Counter::kKernelLaunches),
        "count"},
       -1, -1, "model_device_ms", "sparse-t40, dense-sweep"},
      {{"core.candgen_ms", per_mine(obs::Counter::kHostCandgenUs) / 1000.0,
        "ms"},
       -1, ratio(static_cast<double>(reg.value(obs::Counter::kHostCandgenUs)),
                 ops * 1000.0),
       "mine_ms_p50, mine_ms_p90", "dense-sweep at low support"},
      {{"core.flatten_ms", per_mine(obs::Counter::kHostFlattenUs) / 1000.0,
        "ms"},
       -1, ratio(static_cast<double>(reg.value(obs::Counter::kHostFlattenUs)),
                 ops * 1000.0),
       "mine_ms_p50, mine_ms_p90", "dense-sweep at low support"},
      {{"core.build_ms", per_mine(obs::Counter::kHostBuildUs) / 1000.0, "ms"},
       -1, ratio(static_cast<double>(reg.value(obs::Counter::kHostBuildUs)),
                 ops * 1000.0),
       "mine_ms_p50, mine_ms_p90", "dense-sweep at low support"},
      {{"core.emit_ms", per_mine(obs::Counter::kHostEmitUs) / 1000.0, "ms"},
       -1, ratio(static_cast<double>(reg.value(obs::Counter::kHostEmitUs)),
                 ops * 1000.0),
       "mine_ms_p50, mine_ms_p90", "dense-sweep at low support"},
      {{"core.candidates", candidates, "count"}, -1, -1,
       "model_device_ms, mine_ms_p50", "sparse-t40"},
      {{"core.survivors", survivors, "count"}, -1, -1,
       "model_device_ms, mine_ms_p50", "sparse-t40"},
      {{"core.survivor_ratio", ratio(survivors, candidates), "ratio"}, -1, -1,
       "model_device_ms, mine_ms_p50", "sparse-t40"},
      {{"core.words_anded", per_mine(obs::Counter::kWordsAnded), "count"}, -1,
       -1, "model_device_ms, mine_ms_p50", "sparse-t40"},
      {{"core.tiled_words_saved", per_mine(obs::Counter::kTiledWordsSaved),
        "count"},
       -1, -1, "model_device_ms, mine_ms_p50", "sparse-t40"},
      {{"serve.submit_us_p50", p50(traced.submit_us), "us"}, -1, -1,
       "request_ms_p50", kServeOnly},
      {{"serve.exec_ms_p50", serve ? p50(traced.mine_ms) : 0, "ms"}, -1, -1,
       "request_ms_p50", kServeOnly},
      {{"serve.queue_ms_p50", p50(traced.queue_ms), "ms"}, -1, -1,
       "request_ms_p90", kServeOnly},
      {{"serve.queue_ms_p90", p90(traced.queue_ms), "ms"}, -1, -1,
       "request_ms_p90", kServeOnly},
      {{"serve.db_hit_ratio", ratio(db_hits, db_hits + db_misses), "ratio"},
       -1, -1, "requests_per_s", kServeOnly},
      {{"serve.layout_hit_ratio", ratio(lay_hits, lay_hits + lay_misses),
        "ratio"},
       -1, -1, "requests_per_s", kServeOnly},
      {{"serve.evictions",
        delta(stats.cache.evictions, before.cache.evictions), "count"},
       -1, -1, "requests_per_s", kServeOnly},
      {{"serve.builds_coalesced",
        delta(stats.cache.builds_coalesced, before.cache.builds_coalesced),
        "count"},
       -1, -1, "requests_per_s", kServeOnly},
      {{"serve.dedup_ratio",
        ratio(delta(stats.deduped, before.deduped), submitted), "ratio"},
       -1, -1, "requests_per_s", kServeOnly},
      {{"serve.shed_ratio", ratio(delta(stats.shed, before.shed), submitted),
        "ratio"},
       -1, -1, "ok_ratio, request_ms_p50", kServeOnly},
      {{"serve.hedges", delta(stats.hedges, before.hedges), "count"}, -1, -1,
       "ok_ratio, request_ms_p50", kServeOnly},
  };
  for (const char* plan : {"gpapriori_tiled", "gpapriori_static",
                           "partitioned", "gpu_eclat", "cpu_test"}) {
    const auto it = traced.plans.find(plan);
    rows.push_back({{std::string("serve.plan.") + plan,
                     it == traced.plans.end()
                         ? 0.0
                         : static_cast<double>(it->second),
                     "count"},
                    -1, -1, "ok_ratio, request_ms_p50", kServeOnly});
  }
  rows.push_back({{"obs.trace_overhead_pct",
                   100.0 * ratio(traced_p50 - plain_p50, plain_p50), "%"},
                  -1, -1, "none (qualifies the per-layer numbers)", "all"});

  std::printf("# %s seed=%llu traced: %.0f ops (%.0f mines), mean op %.3f "
              "ms; p50 untraced %.3f ms, traced %.3f ms\n",
              p.spec->name.c_str(), static_cast<unsigned long long>(p.seed),
              ops, mines, op_ms, plain_p50, traced_p50);
  std::printf("  %-28s %14s %-6s %9s %10s %7s  %-44s %s\n", "metric", "value",
              "unit", "calls/op", "ms/op", "share", "moves", "where");
  for (const LayerRow& r : rows) {
    char calls[32] = "-", self[32] = "-", share[32] = "-";
    if (r.calls_per_op >= 0)
      std::snprintf(calls, sizeof(calls), "%.3g", r.calls_per_op);
    if (r.ms_per_op >= 0) {
      std::snprintf(self, sizeof(self), "%.4g", r.ms_per_op);
      std::snprintf(share, sizeof(share), "%.1f%%",
                    100.0 * ratio(r.ms_per_op, op_ms));
    }
    std::printf("  %-28s %14.6g %-6s %9s %10s %7s  %-44s %s\n",
                r.metric.name.c_str(), r.metric.value, r.metric.unit.c_str(),
                calls, self, share, r.moves, r.where);
  }
  std::printf("# spans (traced phase, per op): category, spans, total ms, "
              "self ms\n");
  for (const auto& [cat, t] : spans)
    std::printf("  %-10s %10.1f %12.4f %12.4f\n", cat.c_str(),
                ratio(static_cast<double>(t.spans), ops), ratio(t.total_ms, ops),
                ratio(t.self_ms, ops));

  std::vector<Metric> ms;
  for (const LayerRow& r : rows) ms.push_back(r.metric);
  const std::uint64_t attempted = plain.attempted + traced.attempted;
  const std::uint64_t failed = plain.failed + traced.failed;
  print_result_line(true, attempted, failed, ms);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);
  WorkloadSpec spec = *find_workload(a.workload);
  if (a.repeat_share >= 0) spec.repeat_share = a.repeat_share;
  try {
    std::vector<double> setup_s;
    std::vector<double> generate_ms;
    std::unique_ptr<Prepared> p;
    for (int i = 0; i < kSetupReps; ++i) {
      p.reset();
      const auto t0 = Clock::now();
      p = set_up(spec, a.seed, a.work_dir);
      setup_s.push_back(ms_since(t0) / 1000.0);
      generate_ms.push_back(p->generate_ms);
    }
    std::printf("# config: %s\n", describe(*p).c_str());
    return a.trace == 1 ? run_traced(*p, generate_ms, a.seconds)
                        : run_untraced(*p, setup_s, a.seconds);
  } catch (const MismatchError& e) {
    std::fprintf(stderr, "perfbench: INCORRECT: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
