// qgtc_perfbench — the QGTC end-to-end benchmark binary (driven by run.py).
//
//   qgtc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--prepare-inputs]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end table below; with --trace 1 the per-layer table. Both
// tables mirror BENCHMARK.json for the workloads it lists. Exits 1 when an
// output check fails.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "graph/io.hpp"
#include "perfbench.hpp"

namespace qgtc::perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric tables. BENCHMARK.json lists the epoch tables, for the two
// workloads it drives; run.py checks that each run prints exactly those.
const std::vector<MetricDef> kEpochEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"epoch_ms_p50", "ms"},
    {"fp32_epoch_ms_p50", "ms"},
};

const std::vector<MetricDef> kServeEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"lat_p50_ms.r500", "ms"},
    {"lat_p99_ms.r500", "ms"},
    {"lat_p50_ms.r1500", "ms"},
    {"lat_p99_ms.r1500", "ms"},
    {"max_qps_slo", "1/s"},
};

// Layer metrics both kinds of workload report; the serving workload reports
// its per-batch figures per request and its per-epoch counts per 1000
// requests served alone.
const std::vector<MetricDef> kSharedPerLayer = {
    {"graph.partition_ms", "ms"},
    {"graph.batching_ms", "ms"},
    {"graph.prepare_ms_per_batch", "ms"},
    {"gnn.calibrate_ms", "ms"},
    {"gnn.prepare_input_ms_per_batch", "ms"},
    {"gnn.forward_ms_per_batch", "ms"},
    {"kernels.bmma_ops_per_epoch", "count"},
    {"kernels.tiles_jumped_per_epoch", "count"},
    {"kernels.jump_ratio", "ratio"},
    {"kernels.int32_mb_avoided_per_epoch", "MB"},
    {"kernels.tile_mma_per_s", "1/s"},
    {"tcsim.frag_loads_per_epoch", "count"},
    {"tcsim.frag_stores_per_epoch", "count"},
    {"tcsim.frag_mb_computed_per_epoch", "MB"},
    {"transfer.pack_ms_per_batch", "ms"},
    {"transfer.packed_mb_per_epoch", "MB"},
    {"transfer.wire_ms_modelled_per_epoch", "ms"},
    {"core.worker_efficiency", "ratio"},
    {"core.layer_coverage", "ratio"},
    {"obs.trace_overhead_pct", "%"},
};

const std::vector<MetricDef> kEpochPerLayer = {
    {"baselines.fp32_forward_ms_per_batch", "ms"},
    {"baselines.speedup_vs_fp32", "ratio"},
    {"core.prepare_busy_ms_per_epoch", "ms"},
    {"core.prepare_stall_ms_per_epoch", "ms"},
    {"core.ship_busy_ms_per_epoch", "ms"},
    {"core.ship_stall_ms_per_epoch", "ms"},
    {"core.compute_busy_ms_per_epoch", "ms"},
    {"core.compute_stall_ms_per_epoch", "ms"},
    {"core.peak_prepared_mb", "MB"},
    {"store.open_ms", "ms"},
    {"store.mapped_mb", "MB"},
    {"store.read_mb_per_epoch", "MB"},
};

const std::vector<MetricDef> kServePerLayer = {
    {"graph.expand_ego_us_per_request", "us"},
    {"core.serve_queue_ms_p50", "ms"},
    {"core.serve_queue_ms_p99", "ms"},
    {"core.serve_batch_requests_mean.r500", "count"},
    {"core.serve_batch_requests_mean.r1500", "count"},
    {"core.serve_timeout_dispatch_share", "ratio"},
    {"core.serve_batcher_busy_ms", "ms"},
    {"core.serve_batcher_stall_ms", "ms"},
    {"core.serve_prepare_busy_ms", "ms"},
    {"core.serve_prepare_stall_ms", "ms"},
    {"core.serve_ship_busy_ms", "ms"},
    {"core.serve_ship_stall_ms", "ms"},
    {"core.serve_compute_busy_ms", "ms"},
    {"core.serve_compute_stall_ms", "ms"},
    {"core.serve_prepare_ms_per_request", "ms"},
    {"core.serve_forward_ms_per_request", "ms"},
    {"gen.lateness_ms_p99", "ms"},
};

std::vector<MetricDef> metric_table(const Options& opt) {
  const bool serve = opt.workload == kServe;
  if (!opt.trace) return serve ? kServeEndToEnd : kEpochEndToEnd;
  std::vector<MetricDef> t = kSharedPerLayer;
  const auto& own = serve ? kServePerLayer : kEpochPerLayer;
  t.insert(t.end(), own.begin(), own.end());
  return t;
}

u64 splitmix(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "qgtc_perfbench: " << why
            << "\nusage: qgtc_perfbench --workload NAME --seed N --seconds S"
               " --trace 0|1 --work-dir DIR [--prepare-inputs]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (a == "--work-dir") {
        o.work_dir = value();
      } else if (a == "--prepare-inputs") {
        o.prepare_inputs = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload != kOffline && o.workload != kStream && o.workload != kServe) {
    usage("unknown workload " + o.workload);
  }
  if (!(o.seconds > 0 && o.seconds <= 120)) usage("--seconds must be in (0, 120]");
  return o;
}

/// Prints the result line: exactly the metrics of `defs`, in order.
void print_result(const Outcome& out, const std::vector<MetricDef>& defs) {
  for (const std::string& name : out.metrics.names()) {
    if (std::none_of(defs.begin(), defs.end(),
                     [&](const MetricDef& d) { return name == d.name; })) {
      throw std::logic_error("metric " + name + " is not in this mode's table");
    }
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (out.valid ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const double v = out.metrics.get(defs[i].name);
    if (!std::isfinite(v)) {
      throw std::runtime_error(std::string("metric ") + defs[i].name +
                               " is not a finite number");
    }
    os << (i ? ", " : "") << '"' << defs[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Writes the out-of-core store of the streaming workload. Runs in its own
/// process so the measuring process never holds the in-core dataset.
void prepare_inputs(const Options& opt, const Seeds& seeds) {
  if (opt.workload != kStream) return;
  const Dataset ds = generate_dataset(workload_spec(opt.workload, seeds));
  io::save_dataset_store(opt.work_dir + "/store", ds);
  note("wrote out-of-core store for %s to %s/store", ds.spec.name.c_str(),
       opt.work_dir.c_str());
}

}  // namespace

Seeds derive_seeds(u64 seed) {
  return Seeds{splitmix(seed * 3 + 1), splitmix(seed * 3 + 2),
               splitmix(seed * 3 + 3)};
}

void note(const char* fmt, ...) {
  char buf[2048];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  std::cout << "# " << buf << '\n';
}

void Report::set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

double Report::get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  throw std::logic_error("metric not measured: " + name);
}

std::vector<std::string> Report::names() const {
  std::vector<std::string> out;
  for (const auto& [n, v] : values_) out.push_back(n);
  return out;
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

DatasetSpec workload_spec(const std::string& workload, const Seeds& seeds) {
  const char* name = workload == kOffline  ? "artist"
                     : workload == kStream ? "BlogCatalog"
                                           : "ogbn-arxiv";
  DatasetSpec spec = table1_spec(name);
  spec.seed = seeds.dataset;
  return spec;
}

core::EngineConfig workload_config(const std::string& workload,
                                   const DatasetSpec& spec, const Seeds& seeds) {
  core::EngineConfig cfg;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = spec.feature_dim;
  cfg.model.out_dim = spec.num_classes;
  cfg.num_partitions = 1500;
  cfg.batch_size = 16;
  cfg.seed = seeds.model;
  cfg.cache_budget_bytes = 0;
  cfg.mode.adjacency = core::RunMode::Adjacency::kTileSparse;
  if (workload == kOffline) {
    cfg.model.kind = gnn::ModelKind::kClusterGCN;
    cfg.model.hidden_dim = 16;
    cfg.model.feat_bits = cfg.model.weight_bits = 2;
    cfg.inter_batch_threads = 4;
  } else if (workload == kStream) {
    cfg.model.kind = gnn::ModelKind::kBatchedGIN;
    cfg.model.hidden_dim = 64;
    cfg.model.feat_bits = cfg.model.weight_bits = 4;
    cfg.mode.epoch = core::RunMode::Epoch::kStreaming;
    cfg.mode.pipeline_depth = 2;
    cfg.mode.prepare_threads = 2;
    cfg.inter_batch_threads = 1;
  } else {
    cfg.model.kind = gnn::ModelKind::kClusterGCN;
    cfg.model.hidden_dim = 16;
    cfg.model.feat_bits = cfg.model.weight_bits = 4;
    // ServingEngine runs its engine in streaming mode whatever it is given.
    cfg.mode.epoch = core::RunMode::Epoch::kStreaming;
  }
  return cfg;
}

core::EngineConfig oracle_config(core::EngineConfig cfg) {
  cfg.backend = tcsim::BackendKind::kScalar;
  cfg.inter_batch_threads = 1;
  cfg.mode.epoch = core::RunMode::Epoch::kPrecomputed;
  return cfg;
}

u64 hash_logits(const MatrixI32& m) {
  u64 h = 0xcbf29ce484222325ull ^ static_cast<u64>(m.rows() * 131 + m.cols());
  for (i64 r = 0; r < m.rows(); ++r) {
    for (const i32 v : m.row(r)) {
      h ^= static_cast<u32>(v);
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::vector<u64> hash_logits(const std::vector<MatrixI32>& ms) {
  std::vector<u64> out;
  out.reserve(ms.size());
  for (const MatrixI32& m : ms) out.push_back(hash_logits(m));
  return out;
}

}  // namespace qgtc::perfbench

int main(int argc, char** argv) {
  using namespace qgtc::perfbench;
  const Options opt = parse(argc, argv);
  const Seeds seeds = derive_seeds(opt.seed);
  if (opt.prepare_inputs) {
    try {
      prepare_inputs(opt, seeds);
    } catch (const std::exception& e) {
      std::cerr << "qgtc_perfbench: " << e.what() << '\n';
      return 1;
    }
    return 0;
  }
  note("workload %s, --seed %llu -> dataset seed %llu, model seed %llu, "
       "request seed %llu; --seconds %g, --trace %d",
       opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
       static_cast<unsigned long long>(seeds.dataset),
       static_cast<unsigned long long>(seeds.model),
       static_cast<unsigned long long>(seeds.requests), opt.seconds,
       opt.trace ? 1 : 0);
  try {
    const Outcome out = opt.workload == kServe ? run_serve_workload(opt, seeds)
                                               : run_epoch_workload(opt, seeds);
    print_result(out, metric_table(opt));
    if (!out.valid || out.failed > 0) {
      std::cerr << "qgtc_perfbench: output check failed (" << out.failed
                << " of " << out.attempted << " failed)\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "qgtc_perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
