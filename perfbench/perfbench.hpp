// Shared pieces of the QGTC end-to-end benchmark: command-line options, the
// workload configurations, seed derivation, sample statistics and the report
// that becomes the final JSON line.
//
// Every workload is driven through the library's public API only; the
// benchmark changes none of the modules it measures.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/serving.hpp"

namespace qgtc::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (out-of-core store, trace file).
  std::string work_dir = ".";
  /// Write the workload's input files (the out-of-core store) and exit.
  bool prepare_inputs = false;
};

/// The three seeds one benchmark `--seed` drives. The program under test
/// only ever sees what they generate.
struct Seeds {
  u64 dataset = 0;   // DatasetSpec::seed of the generated Table-1 stand-in
  u64 model = 0;     // EngineConfig::seed (weights)
  u64 requests = 0;  // serving request contents and arrival schedule
};
Seeds derive_seeds(u64 seed);

/// Human-readable line on stdout (the JSON result is always the last line).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Metric values by name. Units and the set of names a mode must print live
/// in main.cpp's tables, which mirror BENCHMARK.json.
class Report {
 public:
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Resets this process's peak-RSS mark (VmHWM) to its current RSS, so a
/// later read excludes the benchmark's own transient allocations. False
/// where the kernel does not offer it.
bool reset_peak_rss();

/// What a workload run hands back to main().
struct Outcome {
  Report metrics;
  i64 attempted = 0;
  i64 failed = 0;
  /// False when an output check or the load generator's validity failed.
  bool valid = true;
};

// ---------------------------------------------------------------- stats ----

/// p-th percentile (0..100) by linear interpolation between closest ranks.
double percentile(std::vector<double> xs, double p);
inline double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

// ------------------------------------------------------------ workloads ----

inline constexpr const char* kOffline = "offline-gcn2-artist";
inline constexpr const char* kStream = "stream-gin4-blog-ooc";
inline constexpr const char* kServe = "serve-gcn4-arxiv";

/// Table-1 spec for the workload's dataset with the derived seed.
DatasetSpec workload_spec(const std::string& workload, const Seeds& seeds);
/// The engine configuration of the workload (model, bits, layout, staffing).
core::EngineConfig workload_config(const std::string& workload,
                                   const DatasetSpec& spec, const Seeds& seeds);
/// The correctness oracle's configuration: the same model on the scalar
/// backend, one worker, precomputed, in-core.
core::EngineConfig oracle_config(core::EngineConfig cfg);

Outcome run_epoch_workload(const Options& opt, const Seeds& seeds);
Outcome run_serve_workload(const Options& opt, const Seeds& seeds);

/// FNV-1a over a logits matrix (shape and every value). The output checks
/// compare hashes so the measuring process never holds a second copy of an
/// epoch's logits.
u64 hash_logits(const MatrixI32& m);
std::vector<u64> hash_logits(const std::vector<MatrixI32>& ms);

// --------------------------------------------------------------- replay ----

/// Layer-level figures from the traced replay (see replay.cpp). "Per unit"
/// is per batch on the epoch workloads and per request on serving.
struct ReplayResult {
  double partition_ms = 0;
  double batching_ms = 0;
  double calibrate_ms = 0;
  double expand_us_per_unit = 0;
  double prepare_ms_per_unit = 0;
  double prepare_input_ms_per_unit = 0;
  double pack_ms_per_unit = 0;
  double forward_ms_per_unit = 0;
  double fp32_forward_ms_per_unit = 0;
  /// Summed forward span time and the wall time of the forward phase.
  double forward_total_seconds = 0;
  double forward_phase_seconds = 0;
  int forward_workers = 1;
  i64 packed_bytes = 0;
  double wire_seconds = 0;
  tcsim::Counters counters;
  i64 spans = 0;
  /// Median replay wall time with spans on and off, and their difference
  /// as a share of the untraced time.
  double traced_seconds = 0;
  double untraced_seconds = 0;
  double overhead_pct = 0;
};

/// Runs the replay twice with spans off and twice with spans on, over the
/// workload's batches or, for serving, `requests` each served alone. Returns
/// the last traced run's figures; its spans are written to `trace_path`.
ReplayResult traced_replay(const std::string& workload, const CsrView& graph,
                           const store::FeatureSource& features,
                           const core::EngineConfig& cfg,
                           const std::vector<core::ServingRequest>& requests,
                           const std::string& trace_path);

/// Adds the replay's per-layer metrics shared by every workload.
void add_replay_metrics(Report& r, const ReplayResult& replay);

}  // namespace qgtc::perfbench
