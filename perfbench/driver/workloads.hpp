#pragma once
// The benchmark's workloads: what each one generates from the seed, how it
// is set up (references, files, service, warm-up) and how one timed phase
// runs it. Why each workload exists is recorded beside its definition in
// workloads.cpp and in BENCHMARK.json.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datagen/profiles.hpp"
#include "fim/result.hpp"
#include "fim/transaction_db.hpp"
#include "serve/mining_service.hpp"

namespace perfbench {

struct DatasetSpec {
  datagen::DatasetId id;
  double scale = 1.0;            ///< share of the paper's transaction count
  std::vector<double> supports;  ///< thresholds mined on this dataset
  /// Independent slice of the same profile: generated with seed offset
  /// seed + instance * kInstanceStride.
  std::uint64_t instance = 0;
  /// serve-mixed: share of fresh requests that address this dataset.
  double weight = 0;
};

inline constexpr std::uint64_t kInstanceStride = 1000003;

struct WorkloadSpec {
  std::string name;
  std::vector<DatasetSpec> datasets;
  /// Batch workloads: Config::host_threads of every mine. serve-mixed:
  /// ServiceOptions::threads_per_request.
  std::uint32_t host_threads = 1;
  bool serve = false;
  /// serve-mixed: closed-loop clients and request workers.
  std::uint32_t clients = 0;
  std::uint32_t workers = 0;
  /// serve-mixed: share of requests that duplicate an earlier request.
  double repeat_share = 0;
  /// serve-mixed: DatasetCache budget as a share of the working set.
  double cache_share = 0;
};

/// One-line JSON description of the prepared inputs and settings.
struct Prepared;
[[nodiscard]] std::string describe(const Prepared& p);

/// Null for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

/// One (dataset, threshold) pair the workload mines.
struct Key {
  std::size_t dataset = 0;
  double support = 0;
};

struct Prepared {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  std::string work_dir;
  std::vector<fim::TransactionDb> dbs;
  std::vector<std::string> files;  ///< FIMI copies of dbs, when written
  std::vector<Key> keys;
  std::vector<fim::ItemsetCollection> refs;  ///< FP-Growth, one per key
  double generate_ms = 0;      ///< DatasetProfile::generate, all datasets
  double model_device_ms = 0;  ///< simulated device ms of one pass of keys
  std::unique_ptr<serve::MiningService> service;  ///< serve-mixed
  std::size_t cache_bytes = 0;  ///< serve-mixed DatasetCache budget
  std::vector<std::size_t> stream;  ///< serve-mixed request keys, in order
  std::atomic<std::uint64_t> stream_next{0};  ///< next stream position
};

/// Generates the inputs from `seed`, computes the FP-Growth references,
/// writes the files and builds the service a workload needs, then runs
/// one untimed, checked pass (the warm-up).
[[nodiscard]] std::unique_ptr<Prepared> set_up(const WorkloadSpec& spec,
                                               std::uint64_t seed,
                                               const std::string& work_dir);

/// Outcome of one timed phase.
struct PhaseResult {
  std::vector<double> mine_ms;     ///< one per completed mine
  std::vector<double> request_ms;  ///< one per completed request
  std::vector<double> submit_us;   ///< serve: time inside submit()
  std::vector<double> queue_ms;    ///< serve: executed requests
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;        ///< full, verified results
  std::uint64_t failed = 0;    ///< anything else
  std::uint64_t executed = 0;  ///< mines actually run (serve: not deduped)
  std::uint64_t layout_injected = 0;  ///< serve: mines handed a layout
  std::uint64_t device_mines = 0;     ///< mines that built a Device
  std::map<std::string, std::uint64_t> plans;  ///< serve: planner choices
                                               ///< of unpinned requests
  double wall_s = 0;
};

/// Runs the workload for about `seconds` and checks every output against
/// its reference (throws MismatchError on a difference). Batch workloads
/// run whole passes of their keys.
[[nodiscard]] PhaseResult run_phase(Prepared& p, double seconds);

}  // namespace perfbench
