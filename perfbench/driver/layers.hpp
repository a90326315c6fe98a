#pragma once
// Per-layer attribution for the traced run: span times read back from the
// program's own obs::TraceRecorder, and probes that time each module's
// public entry points on the workload's inputs from the outside.

#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

/// Wall time of one span category ("kernel", "dispatch", "candgen", ...).
struct CategoryTime {
  std::uint64_t spans = 0;
  double total_ms = 0;  ///< summed span durations
  double self_ms = 0;   ///< minus nested spans on the same thread
};

/// Parses TraceRecorder::export_chrome_json() output into per-category
/// times.
[[nodiscard]] std::map<std::string, CategoryTime> span_times(
    const std::string& chrome_json);

/// Median cost of one call into each module, on the workload's inputs.
struct Probes {
  double parse_ms = 0;       ///< fim::read_fimi_file, mean over datasets
  double digest_ms = 0;      ///< fim::dataset_digest
  double stats_ms = 0;       ///< fim::compute_stats
  double preprocess_ms = 0;  ///< miners::preprocess, mean over keys
  double device_setup_ms = 0;     ///< gpusim::Device construction
  double device_setup_minflt = 0; ///< minor faults of that construction
};

/// Writes FIMI copies of the datasets first when the workload has none.
[[nodiscard]] Probes probe_layers(Prepared& p);

}  // namespace perfbench
