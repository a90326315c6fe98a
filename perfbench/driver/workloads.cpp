#include "workloads.hpp"

#include <atomic>
#include <cctype>
#include <exception>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>
#include <utility>

#include "baselines/apriori_util.hpp"
#include "baselines/fpgrowth.hpp"
#include "common.hpp"
#include "core/gpapriori.hpp"
#include "fim/fimi_io.hpp"

namespace perfbench {

namespace {

using datagen::DatasetId;

// Why these three: the layer that dominates wall time depends on the
// dataset's shape (density, item count), so each workload is picked to
// make a different layer dominate and to bypass the others.
const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // ~420k level-2 candidates at 2% support: simulated kernel execution
      // (native plus sampled-interpreted blocks) is the largest layer;
      // parsing and the service are bypassed. 2% rather than 1%: at 1% the
      // output size depends on which patterns the seed draws (15k-75k
      // itemsets, 13.6-17.4 ms modelled), at 2% the work is level 2 and
      // varies by a few percent between seeds.
      {"sparse-t40",
       {{DatasetId::kT40I10D100K, 0.25, {0.02}}},
       /*host_threads=*/4},
      // The Fig. 6 chess and pumsb sweeps: short mines whose modelled
      // device time is tiny, so wall time is the per-mine fixed cost
      // (Device construction) plus host candidate generation and emission
      // at the lowest supports. pumsb@0.80 (~44k itemsets) sits on a
      // threshold cliff: one slice's output varies by +-15% between seeds,
      // so two more independent slices are mined at the low end of the
      // sweep to damp that variance.
      {"dense-sweep",
       {{DatasetId::kChess, 1.0, {0.95, 0.90, 0.85, 0.80, 0.75}},
        {DatasetId::kPumsb, 0.2, {0.92, 0.90, 0.875, 0.85, 0.80}},
        {DatasetId::kPumsb, 0.2, {0.85, 0.80}, 1},
        {DatasetId::kPumsb, 0.2, {0.85, 0.80}, 2}},
       /*host_threads=*/1},
      // Closed loop against one MiningService: the only workload through
      // queueing, admission, dedup, DatasetCache, the planner and FIMI
      // parsing. The request mix follows the repository's serve soak
      // harness (bench/soak_serve.cpp): 10% duplicates of an earlier
      // request, and fresh requests spread 45/35/20 over a dense-and-deep
      // (chess), a moderate (pumsb) and a sparser, wider (accidents)
      // dataset, with the threshold drawn uniformly from that dataset's
      // list. Duplicates and fresh draws of a resident key hit the cache
      // (or attach to an in-flight twin); the others parse, build layouts
      // and evict. Stated assumptions, not taken from a request log (the
      // repository has none): 2 clients and 2 workers x 1 thread, the most
      // that fit in nproc = 4; a cache budget of half the working set, so
      // the cache is below it as required and holds about half the keys;
      // and pumsb/accidents slices (scale 0.05/0.02) and sweep ends
      // (0.85/0.70) that keep one fresh request near a chess request's
      // cost, so no key alone dominates the run.
      {"serve-mixed",
       {{DatasetId::kChess, 1.0, {0.95, 0.90, 0.85, 0.80}, 0, 0.45},
        {DatasetId::kPumsb, 0.05, {0.92, 0.90, 0.875, 0.85}, 0, 0.35},
        {DatasetId::kAccidents, 0.02, {0.90, 0.80, 0.70}, 0, 0.20}},
       /*host_threads=*/1, /*serve=*/true, /*clients=*/2, /*workers=*/2,
       /*repeat_share=*/0.10, /*cache_share=*/0.5},
  };
  return specs;
}

gpapriori::Config batch_config(const WorkloadSpec& spec) {
  gpapriori::Config cfg;
  cfg.host_threads = spec.host_threads;
  return cfg;
}

miners::MiningParams params_for(const Key& k) {
  miners::MiningParams mp;
  mp.min_support_ratio = k.support;
  return mp;
}

/// "pumsb", or "pumsb#1" for a further independent slice.
std::string dataset_name(const DatasetSpec& d) {
  std::string name = datagen::profile(d.id).name;
  if (d.instance != 0) name += "#" + std::to_string(d.instance);
  return name;
}

std::string key_label(const Prepared& p, const Key& k) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s@%g",
                dataset_name(p.spec->datasets[k.dataset]).c_str(), k.support);
  return buf;
}

void check(const Prepared& p, std::size_t key, const fim::ItemsetCollection& got,
           const char* who) {
  const auto& ref = p.refs[key].sets();
  if (got.sets() == ref) return;
  throw MismatchError(std::string(who) + " output for " +
                      key_label(p, p.keys[key]) + " differs from FP-Growth: " +
                      std::to_string(got.size()) + " vs " +
                      std::to_string(ref.size()) + " itemsets");
}

/// Mirrors DatasetCache's own byte accounting (dataset_cache.cpp).
std::size_t db_bytes(const fim::TransactionDb& db) {
  return db.total_items() * sizeof(fim::Item) +
         (db.num_transactions() + 1) * sizeof(std::uint64_t) +
         sizeof(fim::TransactionDb);
}

/// Bytes the cache would hold with every dataset and layout of the
/// workload resident.
std::size_t working_set_bytes(const Prepared& p) {
  std::size_t total = 0;
  for (const auto& db : p.dbs) total += db_bytes(db);
  for (const Key& k : p.keys) {
    const auto& db = p.dbs[k.dataset];
    const auto pre = miners::preprocess(
        db, params_for(k).resolve_min_count(db.num_transactions()),
        miners::ItemOrder::kAscendingFreq);
    total += db_bytes(pre.db) + pre.original_item.size() * sizeof(fim::Item) +
             pre.support.size() * sizeof(fim::Support) +
             sizeof(gpapriori::SharedLayout);
  }
  return total;
}

serve::ServiceOptions service_options(const Prepared& p) {
  serve::ServiceOptions o;
  o.workers = p.spec->workers;
  o.threads_per_request = p.spec->host_threads;
  o.hedge_checkpoint_dir = p.work_dir + "/ckpt";
  std::filesystem::create_directories(o.hedge_checkpoint_dir);
  return o;
}

/// Planner choice of an unpinned request as a metric-name suffix.
std::string plan_name(const serve::MiningResult& r) {
  if (r.algo == "GPApriori")
    return r.planner_reason.find("static counting") != std::string::npos
               ? "gpapriori_static"
               : "gpapriori_tiled";
  if (r.algo == "GPApriori (partitioned)") return "partitioned";
  if (r.algo == "GPU Eclat") return "gpu_eclat";
  if (r.algo == "CPU_TEST") return "cpu_test";
  std::string s;
  for (char c : r.algo)
    if (std::isalnum(static_cast<unsigned char>(c)))
      s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// An unpinned request: the planner chooses the driver.
serve::MiningRequest make_request(const Prepared& p, std::size_t key,
                                  const std::string& dataset,
                                  std::uint64_t seq) {
  serve::MiningRequest req;
  req.id = "q" + std::to_string(seq);
  req.dataset = dataset;
  req.min_support_ratio = p.keys[key].support;
  return req;
}

/// Folds one serve reply into `r`, checking a kOk result's itemsets.
void record_reply(const Prepared& p, std::size_t key,
                  const serve::MiningResult& res, double submit_us,
                  double request_ms, PhaseResult& r) {
  ++r.attempted;
  if (res.status != serve::RequestStatus::kOk) {
    ++r.failed;
    std::fprintf(stderr, "perfbench: request %s (%s) ended %s: %s\n",
                 res.id.c_str(), key_label(p, p.keys[key]).c_str(),
                 serve::to_string(res.status), res.error.c_str());
    return;
  }
  check(p, key, res.itemsets, "MiningService");
  ++r.ok;
  r.request_ms.push_back(request_ms);
  r.submit_us.push_back(submit_us);
  if (res.deduped) return;
  ++r.executed;
  r.mine_ms.push_back(res.exec_ms);
  r.queue_ms.push_back(res.queue_ms);
  if (!res.planner_reason.empty()) ++r.plans[plan_name(res)];
  if (res.algo != "CPU_TEST") {
    ++r.layout_injected;
    ++r.device_mines;
  }
}

/// Submits one request and waits for it, timing both.
void serve_one(serve::MiningService& svc, const Prepared& p, std::size_t key,
               const std::string& dataset, std::uint64_t seq,
               PhaseResult& r) {
  const auto t0 = Clock::now();
  auto fut = svc.submit(make_request(p, key, dataset, seq));
  const auto t1 = Clock::now();
  const serve::MiningResult res = fut.get();
  const auto t2 = Clock::now();
  record_reply(p, key, res, ms_between(t0, t1) * 1000.0, ms_between(t0, t2),
               r);
}

void merge_into(PhaseResult& dst, PhaseResult&& src) {
  auto append = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(dst.mine_ms, src.mine_ms);
  append(dst.request_ms, src.request_ms);
  append(dst.submit_us, src.submit_us);
  append(dst.queue_ms, src.queue_ms);
  dst.attempted += src.attempted;
  dst.ok += src.ok;
  dst.failed += src.failed;
  dst.executed += src.executed;
  dst.layout_injected += src.layout_injected;
  dst.device_mines += src.device_mines;
  for (const auto& [k, v] : src.plans) dst.plans[k] += v;
}

/// One GpApriori::mine() per key, timed and checked.
void batch_pass(Prepared& p, gpapriori::GpApriori& miner, PhaseResult& r,
                double* device_ms) {
  for (std::size_t i = 0; i < p.keys.size(); ++i) {
    ++r.attempted;
    const auto& db = p.dbs[p.keys[i].dataset];
    miners::MiningOutput out;
    const auto t0 = Clock::now();
    try {
      out = miner.mine(db, params_for(p.keys[i]));
    } catch (const std::exception& e) {
      ++r.failed;
      std::fprintf(stderr, "perfbench: mine %s threw: %s\n",
                   key_label(p, p.keys[i]).c_str(), e.what());
      continue;
    }
    const double ms = ms_since(t0);
    if (out.truncated()) {
      ++r.failed;
      std::fprintf(stderr, "perfbench: mine %s truncated (%s)\n",
                   key_label(p, p.keys[i]).c_str(), out.stop_reason.c_str());
      continue;
    }
    check(p, i, out.itemsets, "GPApriori");
    ++r.ok;
    ++r.executed;
    ++r.device_mines;
    r.mine_ms.push_back(ms);
    r.request_ms.push_back(ms);
    if (device_ms != nullptr) *device_ms += out.device_ms;
  }
}

void build_stream(Prepared& p) {
  // Far more requests than a run completes; a run that exhausts the
  // stream wraps around.
  constexpr std::size_t kStreamLength = 1u << 16;
  SeedStream rng(p.seed ^ 0x5e12e5eedull);
  const auto& datasets = p.spec->datasets;
  // First key of each dataset: keys are laid out dataset by dataset.
  std::vector<std::size_t> first_key;
  for (std::size_t k = 0; k < p.keys.size(); ++k)
    if (k == 0 || p.keys[k].dataset != p.keys[k - 1].dataset)
      first_key.push_back(k);
  p.stream.reserve(kStreamLength);
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    if (i > 0 && rng.uniform() < p.spec->repeat_share) {
      p.stream.push_back(p.stream[rng.below(i)]);  // duplicate of any earlier
      continue;
    }
    double roll = rng.uniform();
    std::size_t d = 0;
    while (d + 1 < datasets.size() && roll >= datasets[d].weight)
      roll -= datasets[d++].weight;
    p.stream.push_back(first_key[d] + rng.below(datasets[d].supports.size()));
  }
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : all_workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> v;
  for (const auto& w : all_workloads()) v.push_back(w.name);
  return v;
}

std::string describe(const Prepared& p) {
  const WorkloadSpec& w = *p.spec;
  std::string s = "{\"workload\": \"" + w.name +
                  "\", \"seed\": " + std::to_string(p.seed) +
                  ", \"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"host_threads\": " + std::to_string(w.host_threads) +
                  ", \"datasets\": [";
  for (std::size_t i = 0; i < w.datasets.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"profile\": \"%s\", \"scale\": %g, "
                  "\"transactions\": %zu, \"supports\": [",
                  i == 0 ? "" : ", ",
                  dataset_name(w.datasets[i]).c_str(),
                  w.datasets[i].scale, p.dbs[i].num_transactions());
    s += buf;
    for (std::size_t j = 0; j < w.datasets[i].supports.size(); ++j) {
      std::snprintf(buf, sizeof(buf), "%s%g", j == 0 ? "" : ", ",
                    w.datasets[i].supports[j]);
      s += buf;
    }
    s += "]";
    if (w.serve) {
      std::snprintf(buf, sizeof(buf), ", \"weight\": %g",
                    w.datasets[i].weight);
      s += buf;
    }
    s += "}";
  }
  s += "]";
  if (w.serve) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  ", \"clients\": %u, \"workers\": %u, "
                  "\"repeat_share\": %g, \"cache_bytes\": %zu",
                  w.clients, w.workers, w.repeat_share, p.cache_bytes);
    s += buf;
  }
  return s + "}";
}

std::unique_ptr<Prepared> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                                 const std::string& work_dir) {
  auto p = std::make_unique<Prepared>();
  p->spec = &spec;
  p->seed = seed;
  p->work_dir = work_dir;

  const auto g0 = Clock::now();
  for (const auto& d : spec.datasets)
    p->dbs.push_back(datagen::profile(d.id).generate(
        d.scale, seed + d.instance * kInstanceStride));
  p->generate_ms = ms_since(g0);

  for (std::size_t i = 0; i < spec.datasets.size(); ++i)
    for (double s : spec.datasets[i].supports) p->keys.push_back({i, s});

  miners::FpGrowth reference;
  for (const Key& k : p->keys)
    p->refs.push_back(reference.mine(p->dbs[k.dataset], params_for(k)).itemsets);

  if (!spec.serve) {
    gpapriori::GpApriori miner(batch_config(spec));
    PhaseResult warm;
    batch_pass(*p, miner, warm, &p->model_device_ms);
    if (warm.failed != 0)
      throw std::runtime_error("warm-up pass had failed mines");
    return p;
  }

  std::filesystem::create_directories(work_dir);
  for (std::size_t i = 0; i < p->dbs.size(); ++i) {
    p->files.push_back(work_dir + "/" + dataset_name(spec.datasets[i]) +
                       ".dat");
    fim::write_fimi_file(p->dbs[i], p->files.back());
  }
  build_stream(*p);

  serve::ServiceOptions opts = service_options(*p);
  p->cache_bytes = static_cast<std::size_t>(
      spec.cache_share * static_cast<double>(working_set_bytes(*p)));
  opts.cache_bytes = p->cache_bytes;
  p->service = std::make_unique<serve::MiningService>(std::move(opts));

  PhaseResult warm;
  for (std::size_t k = 0; k < p->keys.size(); ++k) {
    auto res = p->service->submit(
        make_request(*p, k, p->files[p->keys[k].dataset], k)).get();
    record_reply(*p, k, res, 0, 0, warm);
    p->model_device_ms += res.device_ms;
  }
  if (warm.failed != 0)
    throw std::runtime_error("warm-up pass had failed requests");
  return p;
}

PhaseResult run_phase(Prepared& p, double seconds) {
  PhaseResult r;
  const auto start = Clock::now();
  if (!p.spec->serve) {
    gpapriori::GpApriori miner(batch_config(*p.spec));
    do {
      batch_pass(p, miner, r, nullptr);
    } while (ms_since(start) < seconds * 1000.0);
    r.wall_s = ms_since(start) / 1000.0;
    return r;
  }

  // Closed loop: each client sends its next request only after the
  // previous reply arrived. Clients share one seeded request stream.
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<PhaseResult> per_client(p.spec->clients);
  std::mutex err_m;
  std::exception_ptr error;  // first client failure, rethrown after join
  std::atomic<bool> stop{false};
  {
    std::vector<std::jthread> clients;
    for (std::uint32_t c = 0; c < p.spec->clients; ++c)
      clients.emplace_back([&, c] {
        try {
          while (!stop.load() && Clock::now() < deadline) {
            const std::uint64_t seq = p.stream_next.fetch_add(1);
            const std::size_t key = p.stream[seq % p.stream.size()];
            serve_one(*p.service, p, key, p.files[p.keys[key].dataset], seq,
                      per_client[c]);
          }
        } catch (...) {
          std::lock_guard lk(err_m);
          if (!error) error = std::current_exception();
          stop.store(true);
        }
      });
  }
  if (error) std::rethrow_exception(error);
  r.wall_s = ms_since(start) / 1000.0;
  for (auto& c : per_client) merge_into(r, std::move(c));
  return r;
}

}  // namespace perfbench
