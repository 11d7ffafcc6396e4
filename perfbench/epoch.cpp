// The two epoch workloads:
//
// * offline-gcn2-artist — the paper's §6 protocol (precomputed epoch, four
//   inter-batch workers): the kernels and the fused epilogue do nearly all
//   the timed work; prepare and transfer are off the timed path.
// * stream-gin4-blog-ooc — out-of-core streaming epochs with two prepare
//   workers and one compute worker: store reads, graph prepare, packing,
//   the pipeline queues and the GIN kernel path are all on the timed path,
//   and compute is the bottleneck.
//
// Timed runs call QgtcEngine::run_quantized(R) / run_fp32(R) and time each
// call from the outside, the engine's own warm-up epoch included (users pay
// it), as ms per epoch = wall / R. The output checks and the traced replay
// run outside the timed region.
#include <cstdio>
#include <memory>

#include "common/mem.hpp"
#include "perfbench.hpp"

namespace qgtc::perfbench {

namespace {

constexpr int kSetups = 9;
/// Fewest samples per median. An undisturbed 40 s run takes about 300 offline
/// and 30 streaming samples; the floor only binds when the host is
/// so contended (on a shared 4-vCPU virtual machine, streaming epochs slowed
/// up to 2.5x under 25 % CPU steal) that a higher one would push the run far
/// past its length.
constexpr std::size_t kMinSamples = 10;

struct EpochShape {
  int rounds;              // R of each timed run_quantized(R) / run_fp32(R)
  double check_reserve_s;  // time kept back for the output checks
};

EpochShape shape_of(const std::string& workload) {
  return workload == kOffline ? EpochShape{4, 1.0} : EpochShape{1, 4.0};
}

/// The highest of p99 / p90 / p75 / p50 with at least ten samples beyond it.
double tail_percentile(std::size_t n) {
  for (const double p : {99.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

/// Cumulative CPU time and host steal (time the hypervisor ran something
/// else while this VM's CPUs wanted to run), from /proc/stat. The steal share
/// is printed with the timings because it explains slow runs on shared
/// hosts.
struct CpuTimes {
  double total = -1;
  double steal = 0;
};
CpuTimes cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.total = 0;
    for (const unsigned long long x : v) t.total += static_cast<double>(x);
    t.steal = static_cast<double>(v[7]);
  }
  std::fclose(f);
  return t;
}
/// Steal as a share of all CPU time between `a` and `b`; -1 if unknown.
double steal_share(const CpuTimes& a, const CpuTimes& b) {
  return a.total < 0 || b.total <= a.total ? -1 : (b.steal - a.steal) / (b.total - a.total);
}

Clock::time_point after_seconds(Clock::time_point t, double s) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Times `fn` (one engine call covering `rounds` epochs) until `deadline`
/// and at least `min_samples` times; returns ms per epoch of each call.
template <typename Fn>
std::vector<double> sample_epochs(Clock::time_point deadline,
                                  std::size_t min_samples, int rounds, Fn&& fn) {
  std::vector<double> ms;
  while (Clock::now() < deadline || ms.size() < min_samples) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3 / rounds);
  }
  return ms;
}

i64 count_mismatches(const std::vector<u64>& got, const std::vector<u64>& want) {
  if (got.size() != want.size()) return static_cast<i64>(std::max(got.size(), want.size()));
  i64 bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) bad += got[i] == want[i] ? 0 : 1;
  return bad;
}

/// Logits hashes of one untimed run_quantized(1) call, plus its counters.
std::vector<u64> capture(core::QgtcEngine& engine, core::EngineStats* stats) {
  std::vector<MatrixI32> logits;
  *stats = engine.run_quantized(1, &logits);
  return hash_logits(logits);
}

}  // namespace

Outcome run_epoch_workload(const Options& opt, const Seeds& seeds) {
  Outcome out;
  Report& m = out.metrics;
  const bool ooc = opt.workload == kStream;
  const EpochShape shape = shape_of(opt.workload);
  const DatasetSpec spec = workload_spec(opt.workload, seeds);
  const core::EngineConfig cfg = workload_config(opt.workload, spec, seeds);

  // Input preparation (not set-up): the generated in-core dataset, or the
  // store a separate --prepare-inputs process wrote.
  std::unique_ptr<Dataset> ds;
  if (!ooc) ds = std::make_unique<Dataset>(generate_dataset(spec));
  const bool rss_reset = reset_peak_rss();

  const Clock::time_point end = after_seconds(Clock::now(), opt.seconds);
  const Clock::time_point checks_from = after_seconds(end, -shape.check_reserve_s);

  // Set-up: input ready -> engine ready, several times.
  std::unique_ptr<store::DatasetStore> dstore;
  std::unique_ptr<core::QgtcEngine> engine;
  std::vector<double> setup_s, open_ms;
  for (int k = 0; k < (opt.trace ? 1 : kSetups); ++k) {
    engine.reset();
    dstore.reset();
    const Clock::time_point t0 = Clock::now();
    if (ooc) {
      dstore = std::make_unique<store::DatasetStore>(
          store::DatasetStore::open(opt.work_dir + "/store"));
      open_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      engine = std::make_unique<core::QgtcEngine>(*dstore, cfg);
    } else {
      engine = std::make_unique<core::QgtcEngine>(*ds, cfg);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  i64 peak_rss = vm_hwm_bytes();
  note("set-up: %zu constructions, median %.4f s (min %.4f, max %.4f); %lld "
       "batches per epoch", setup_s.size(), median(setup_s), percentile(setup_s, 0),
       percentile(setup_s, 100), static_cast<long long>(engine->num_batches()));

  // Logits of one untimed call before and one after the timed calls.
  core::EngineStats first, last, after_stats;
  const std::vector<u64> before = capture(*engine, &first);

  // Timed calls. A trace run samples less: it needs the engine's stats and
  // both medians for the speed-up, and gives the rest of its time to the
  // replay.
  if (rss_reset) reset_peak_rss();
  const double budget = std::max(0.0, seconds_between(Clock::now(), checks_from));
  const CpuTimes cpu0 = cpu_times();
  const std::vector<double> epoch_ms = sample_epochs(
      after_seconds(Clock::now(), budget * (opt.trace ? 0.25 : 0.75)),
      opt.trace ? 3 : kMinSamples, shape.rounds,
      [&] { last = engine->run_quantized(shape.rounds); });
  const std::vector<double> fp32_ms = sample_epochs(
      opt.trace ? after_seconds(Clock::now(), budget * 0.15) : checks_from,
      opt.trace ? 3 : kMinSamples, shape.rounds,
      [&] { (void)engine->run_fp32(shape.rounds); });
  const double steal = steal_share(cpu0, cpu_times());
  peak_rss = std::max(peak_rss, vm_hwm_bytes());
  const std::vector<u64> after = capture(*engine, &after_stats);
  if (!rss_reset) peak_rss = vm_hwm_bytes();

  // Output checks: bit-identical logits against the scalar, one-worker,
  // precomputed, in-core oracle (for the store-backed run this also proves
  // store parity), and identical substrate counters.
  if (ooc) ds = std::make_unique<Dataset>(generate_dataset(spec));
  core::EngineStats oracle;
  core::QgtcEngine oracle_engine(*ds, oracle_config(cfg));
  const std::vector<u64> want = capture(oracle_engine, &oracle);
  out.attempted = static_cast<i64>(before.size() + after.size());
  out.failed = count_mismatches(before, want) + count_mismatches(after, want);
  bool counters_ok = true;
  for (const core::EngineStats* s : {&first, &last, &after_stats}) {
    counters_ok = counters_ok && s->bmma_ops == oracle.bmma_ops &&
                  s->tiles_jumped == oracle.tiles_jumped;
  }
  out.valid = out.failed == 0 && counters_ok;
  note("check: %lld of %lld batch logits differ from the oracle; engine "
       "counters %s the oracle's (%lld tile MMAs, %lld tiles jumped per epoch)",
       static_cast<long long>(out.failed), static_cast<long long>(out.attempted),
       counters_ok ? "equal" : "DIFFER FROM", static_cast<long long>(oracle.bmma_ops),
       static_cast<long long>(oracle.tiles_jumped));

  const double p50 = median(epoch_ms);
  const double fp32_p50 = median(fp32_ms);
  note("quantized epoch, run_quantized(%d) wall / %d: p50 %.3f ms over %zu calls "
       "(min %.3f, p25 %.3f, p75 %.3f)",
       shape.rounds, shape.rounds, p50, epoch_ms.size(), percentile(epoch_ms, 0),
       percentile(epoch_ms, 25), percentile(epoch_ms, 75));
  note("fp32 epoch, run_fp32(%d) wall / %d: p50 %.3f ms over %zu calls",
       shape.rounds, shape.rounds, fp32_p50, fp32_ms.size());
  const double tail_pct = tail_percentile(epoch_ms.size());
  char steal_pct[32] = "unavailable";
  if (steal >= 0) std::snprintf(steal_pct, sizeof steal_pct, "%.1f %%", steal * 100.0);
  note("quantized epoch tail: p%g %.3f ms over %zu samples; host CPU steal "
       "during the timed calls: %s", tail_pct, percentile(epoch_ms, tail_pct),
       epoch_ms.size(), steal_pct);
  if (!opt.trace) {
    note("peak RSS %s", rss_reset ? "over set-up and timed calls"
                                  : "of the whole process (VmHWM reset unavailable)");
    m.set("setup_s", median(setup_s));
    m.set("peak_rss_mb", static_cast<double>(peak_rss) / 1e6);
    m.set("epoch_ms_p50", p50);
    m.set("fp32_epoch_ms_p50", fp32_p50);
    return out;
  }

  // ---- trace run: per-layer metrics ----
  m.set("baselines.speedup_vs_fp32", fp32_p50 / p50);
  m.set("core.peak_prepared_mb", static_cast<double>(last.peak_prepared_bytes) / 1e6);
  const auto& sb = last.stage_breakdown;  // zero in precomputed mode
  m.set("core.prepare_busy_ms_per_epoch", sb.prepare.busy_seconds * 1e3);
  m.set("core.prepare_stall_ms_per_epoch", sb.prepare.stall_seconds * 1e3);
  m.set("core.ship_busy_ms_per_epoch", sb.ship.busy_seconds * 1e3);
  m.set("core.ship_stall_ms_per_epoch", sb.ship.stall_seconds * 1e3);
  m.set("core.compute_busy_ms_per_epoch", sb.compute.busy_seconds * 1e3);
  m.set("core.compute_stall_ms_per_epoch", sb.compute.stall_seconds * 1e3);
  // In-core engines have no store: open time, mapping and reads are 0.
  m.set("store.open_ms", ooc ? median(open_ms) : 0.0);
  m.set("store.mapped_mb", static_cast<double>(engine->mapped_bytes()) / 1e6);
  m.set("store.read_mb_per_epoch", static_cast<double>(last.prepare_bytes_read) / 1e6);

  // Traced replay over the same input the engine read (the store, for the
  // out-of-core workload).
  const store::FeatureSource features =
      ooc ? store::FeatureSource(dstore->features()) : store::FeatureSource(ds->features);
  const std::string trace_path = opt.work_dir + "/replay_trace.json";
  const ReplayResult traced =
      traced_replay(opt.workload, engine->graph(), features, cfg, {}, trace_path);
  add_replay_metrics(m, traced);
  m.set("baselines.fp32_forward_ms_per_batch", traced.fp32_forward_ms_per_unit);
  m.set("core.layer_coverage",
        traced.forward_total_seconds /
            (last.forward_seconds * static_cast<double>(last.inter_batch_threads)));
  note("replay: %lld spans written to %s; wall %.3f s traced vs %.3f s untraced",
       static_cast<long long>(traced.spans), trace_path.c_str(),
       traced.traced_seconds, traced.untraced_seconds);

  // The replay executes every batch once: its counters are one epoch's.
  const bool replay_ok =
      static_cast<i64>(traced.counters.bmma_ops) == last.bmma_ops &&
      static_cast<i64>(traced.counters.tiles_jumped) == last.tiles_jumped;
  note("cross-check: replay %llu tile MMAs / %llu tiles jumped vs engine "
       "%lld / %lld: %s",
       static_cast<unsigned long long>(traced.counters.bmma_ops),
       static_cast<unsigned long long>(traced.counters.tiles_jumped),
       static_cast<long long>(last.bmma_ops), static_cast<long long>(last.tiles_jumped),
       replay_ok ? "equal" : "DIFFER");
  out.valid = out.valid && replay_ok;
  return out;
}

}  // namespace qgtc::perfbench
