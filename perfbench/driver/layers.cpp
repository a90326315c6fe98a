#include "layers.hpp"

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <vector>

#include "baselines/apriori_util.hpp"
#include "baselines/miner.hpp"
#include "common.hpp"
#include "core/config.hpp"
#include "fim/checkpoint.hpp"
#include "fim/dataset_stats.hpp"
#include "fim/fimi_io.hpp"
#include "gpusim/device_context.hpp"

namespace perfbench {

namespace {

constexpr int kProbeReps = 5;

/// Value of `"key": ` in a trace_event line, or empty.
std::string field(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\": ";
  const auto at = line.find(k);
  if (at == std::string::npos) return {};
  auto begin = at + k.size();
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    return line.substr(begin, line.find('"', begin) - begin);
  }
  const auto end = line.find_first_of(",}", begin);
  return line.substr(begin, end - begin);
}

/// Median wall ms of `fn` over kProbeReps calls.
template <typename Fn>
double median_ms(Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < kProbeReps; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(ms_since(t0));
  }
  return quantile(v, 0.5);
}

}  // namespace

std::map<std::string, CategoryTime> span_times(const std::string& chrome_json) {
  struct Open {
    std::string cat;
    double begin_us = 0;
    double child_us = 0;
  };
  std::map<std::string, std::vector<Open>> stacks;  // per tid
  std::map<std::string, CategoryTime> out;
  std::istringstream in(chrome_json);
  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = field(line, "ph");
    if (ph != "B" && ph != "E") continue;
    auto& stack = stacks[field(line, "tid")];
    const double ts = std::strtod(field(line, "ts").c_str(), nullptr);
    if (ph == "B") {
      stack.push_back({field(line, "cat"), ts, 0});
      continue;
    }
    if (stack.empty()) continue;
    const Open o = stack.back();
    stack.pop_back();
    const double dur = ts - o.begin_us;
    CategoryTime& c = out[o.cat];
    ++c.spans;
    c.total_ms += dur / 1000.0;
    c.self_ms += (dur - o.child_us) / 1000.0;
    if (!stack.empty()) stack.back().child_us += dur;
  }
  return out;
}

Probes probe_layers(Prepared& p) {
  Probes r;
  if (p.files.empty()) {
    std::filesystem::create_directories(p.work_dir);
    for (std::size_t i = 0; i < p.dbs.size(); ++i) {
      p.files.push_back(p.work_dir + "/probe-" + std::to_string(i) + ".dat");
      fim::write_fimi_file(p.dbs[i], p.files.back());
    }
  }
  const double n_db = static_cast<double>(p.dbs.size());
  for (std::size_t i = 0; i < p.dbs.size(); ++i) {
    r.parse_ms += median_ms([&] {
      const auto db = fim::read_fimi_file(p.files[i]);
      if (db.num_transactions() != p.dbs[i].num_transactions())
        throw MismatchError("FIMI round trip changed " + p.files[i]);
    }) / n_db;
    r.digest_ms += median_ms([&] {
      volatile std::uint64_t d = fim::dataset_digest(p.dbs[i]);
      (void)d;
    }) / n_db;
    r.stats_ms +=
        median_ms([&] { (void)fim::compute_stats(p.dbs[i]); }) / n_db;
  }
  for (const Key& k : p.keys) {
    const auto& db = p.dbs[k.dataset];
    miners::MiningParams mp;
    mp.min_support_ratio = k.support;
    const fim::Support min_count = mp.resolve_min_count(db.num_transactions());
    r.preprocess_ms += median_ms([&] {
      (void)miners::preprocess(db, min_count,
                               miners::ItemOrder::kAscendingFreq);
    }) / static_cast<double>(p.keys.size());
  }

  // A Device as every GPU driver builds it per mine() call.
  const gpapriori::Config cfg;
  gpusim::DeviceOptions dopts;
  dopts.arena_bytes = cfg.arena_bytes;
  std::vector<double> ms;
  std::vector<double> faults;
  for (int i = 0; i < kProbeReps; ++i) {
    const long f0 = minor_faults();
    const auto t0 = Clock::now();
    auto dev = std::make_unique<gpusim::Device>(cfg.device, dopts);
    ms.push_back(ms_since(t0));
    faults.push_back(static_cast<double>(minor_faults() - f0));
  }
  r.device_setup_ms = quantile(ms, 0.5);
  r.device_setup_minflt = quantile(faults, 0.5);
  return r;
}

}  // namespace perfbench
