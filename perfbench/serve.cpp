// serve-gcn4-arxiv: ServingEngine with the default ServingPolicy, driven by
// the benchmark's own open-loop Poisson client.
//
// The client is one thread. Arrival times come from the request seed and
// are kept whatever the server does, so a stall delays every later request
// instead of throttling the client. Each request's latency runs from its
// due time, so time blocked inside submit() counts. While waiting for the
// next due time the same thread collects finished futures, keeping only the
// ego-graph node list and a hash of its logits; the output check later runs
// every collected request alone through prepare_subgraph + forward_prepared
// and compares the hashes.
#include <algorithm>
#include <cmath>
#include <deque>
#include <thread>

#include "api/session.hpp"
#include "common/mem.hpp"
#include "common/rng.hpp"
#include "parallel/parallel_for.hpp"
#include "perfbench.hpp"

namespace qgtc::perfbench {

namespace {

constexpr int kSetups = 9;
constexpr double kLowQps = 500;
constexpr double kHighQps = 1500;
constexpr double kWarmupSeconds = 1.0;
constexpr double kSloMs = 10.0;  // p99 limit of the rate ladder
/// A fixed-rate phase whose generator ran later than this at p99 measured
/// the client, not the server, and is reported invalid.
constexpr double kMaxLatenessMs = 2.0;
constexpr int kCheckWorkers = 4;

/// Request shape: 4 seeds, 1-hop ego graph, at most 512 nodes.
std::vector<core::ServingRequest> make_requests(u64 seed, i64 num_nodes,
                                                std::size_t count) {
  Rng rng(seed);
  std::vector<core::ServingRequest> reqs(count);
  for (core::ServingRequest& r : reqs) {
    r.fanout = 1;
    r.max_nodes = 512;
    while (r.seeds.size() < 4) {
      const i32 s = static_cast<i32>(rng.next_below(static_cast<u64>(num_nodes)));
      if (std::find(r.seeds.begin(), r.seeds.end(), s) == r.seeds.end()) {
        r.seeds.push_back(s);
      }
    }
  }
  return reqs;
}

/// Poisson arrival offsets (seconds from phase start) at `qps`.
std::vector<double> arrivals(u64 seed, double qps, std::size_t count) {
  Rng rng(seed);
  std::vector<double> t(count);
  double at = 0;
  for (double& x : t) {
    at += -std::log(1.0 - static_cast<double>(rng.next_float())) / qps;
    x = at;
  }
  return t;
}

struct Served {
  std::vector<i32> nodes;
  u64 logits_hash = 0;
  i64 batch_requests = 0;  // requests in the micro-batch it rode in
};

struct Phase {
  double qps = 0;
  std::vector<double> latency_ms;   // from due time, per completed request
  std::vector<double> queue_ms;     // submit -> micro-batch dispatch
  std::vector<double> lateness_ms;  // generator: submit start - due time
  i64 sent = 0;
  i64 failed = 0;
  double wall_s = 0;
  core::ServingStats before, after;
  [[nodiscard]] double batch_requests_mean() const {
    const i64 b = after.batches_dispatched - before.batches_dispatched;
    return b > 0 ? static_cast<double>(after.requests_completed -
                                       before.requests_completed) / static_cast<double>(b)
                 : 0;
  }
  /// Latency-limit test of the ladder: p99 within the limit, no failures,
  /// and the last tenth of the schedule no slower than the limit on average
  /// (a growing backlog shows there first).
  [[nodiscard]] bool meets_slo() const {
    if (failed > 0 || latency_ms.empty()) return false;
    const std::size_t tail_from = latency_ms.size() * 9 / 10;
    double tail_sum = 0;
    for (std::size_t i = tail_from; i < latency_ms.size(); ++i) tail_sum += latency_ms[i];
    const double tail_mean = tail_sum / static_cast<double>(latency_ms.size() - tail_from);
    return percentile(latency_ms, 99) <= kSloMs && tail_mean <= kSloMs;
  }
};

/// Runs one open-loop phase: `reqs[i]` is due `due[i]` seconds after the
/// start. Completed requests are appended to `served` when it is non-null.
Phase run_phase(core::ServingEngine& srv, double qps,
                const std::vector<core::ServingRequest>& reqs,
                const std::vector<double>& due, std::vector<Served>* served) {
  Phase ph;
  ph.qps = qps;
  ph.before = srv.stats();
  struct Outstanding {
    std::future<core::ServingResult> fut;
    double late_s;  // submit start - due
  };
  std::deque<Outstanding> pending;
  const auto collect = [&](Outstanding& o) {
    try {
      core::ServingResult res = o.fut.get();
      ph.latency_ms.push_back((o.late_s + res.timing.total_seconds) * 1e3);
      ph.queue_ms.push_back(res.timing.queue_seconds * 1e3);
      if (served != nullptr) {
        served->push_back(
            Served{std::move(res.nodes), hash_logits(res.logits), res.batch_requests});
      }
    } catch (const std::exception&) {
      ++ph.failed;
    }
  };
  const auto drain_ready = [&] {
    while (!pending.empty() && pending.front().fut.wait_for(std::chrono::seconds(0)) ==
                                   std::future_status::ready) {
      collect(pending.front());
      pending.pop_front();
    }
  };

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Clock::time_point at =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due[i]));
    // Idle until due: collect finished requests, sleep while far off, and
    // spin the last stretch so the send lands on time.
    for (;;) {
      drain_ready();
      const Clock::time_point now = Clock::now();
      if (now >= at) break;
      if (at - now > std::chrono::microseconds(150)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    const Clock::time_point send = Clock::now();
    const double late = seconds_between(at, send);
    ph.lateness_ms.push_back(late * 1e3);
    pending.push_back(Outstanding{srv.submit(reqs[i]), late});
    ++ph.sent;
  }
  while (!pending.empty()) {
    collect(pending.front());
    pending.pop_front();
  }
  ph.wall_s = seconds_between(t0, Clock::now());
  ph.after = srv.stats();
  return ph;
}

Phase run_rate(core::ServingEngine& srv, const Seeds& seeds, u64 phase_id,
               double qps, double seconds, std::vector<Served>* served) {
  const auto count = static_cast<std::size_t>(std::max(1.0, qps * seconds));
  const i64 n = srv.engine().graph().num_nodes();
  return run_phase(srv, qps, make_requests(seeds.requests + 2 * phase_id, n, count),
                   arrivals(seeds.requests + 2 * phase_id + 1, qps, count), served);
}

/// Runs every served request alone and compares logits. Returns the
/// mismatches, and in `alone` those among requests that rode alone.
i64 check_served(const core::QgtcEngine& engine, const std::vector<Served>& served,
                 i64* alone) {
  std::deque<api::Session> sessions;
  for (int w = 0; w < kCheckWorkers; ++w) sessions.emplace_back(engine.config().backend);
  std::vector<u8> bad(served.size(), 0);
  parallel_for_workers(0, static_cast<i64>(served.size()), kCheckWorkers, [&](i64 i, int w) {
    const Served& s = served[static_cast<std::size_t>(i)];
    SubgraphBatch one;
    one.nodes = s.nodes;
    one.part_bounds = {0, one.size()};
    const core::QgtcEngine::BatchRef bd = engine.prepare_subgraph(one);
    const MatrixI32 logits = engine.model().forward_prepared(
        bd->adj_tiles, bd->x_planes, nullptr, &sessions[static_cast<std::size_t>(w)].context());
    bad[static_cast<std::size_t>(i)] = hash_logits(logits) != s.logits_hash;
  });
  *alone = 0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    *alone += bad[i] != 0 && served[i].batch_requests == 1 ? 1 : 0;
  }
  return std::count(bad.begin(), bad.end(), u8{1});
}

}  // namespace

Outcome run_serve_workload(const Options& opt, const Seeds& seeds) {
  Outcome out;
  Report& m = out.metrics;
  const DatasetSpec spec = workload_spec(opt.workload, seeds);
  const core::EngineConfig cfg = workload_config(opt.workload, spec, seeds);
  const core::ServingPolicy policy;
  const Dataset ds = generate_dataset(spec);
  // Dataset generation is input preparation: keep its peak out of peak RSS.
  (void)reset_peak_rss();

  std::unique_ptr<core::ServingEngine> srv;
  std::vector<double> setup_s;
  for (int k = 0; k < (opt.trace ? 1 : kSetups); ++k) {
    srv.reset();
    const Clock::time_point t0 = Clock::now();
    srv = std::make_unique<core::ServingEngine>(ds, cfg, policy);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  note("set-up: %zu ServingEngine constructions, median %.4f s",
       setup_s.size(), median(setup_s));

  // Warm-up at the low rate: checked, not timed.
  std::vector<Served> served;
  const Phase warm = run_rate(*srv, seeds, 0, kLowQps, kWarmupSeconds, &served);
  out.attempted += warm.sent;
  out.failed += warm.failed;

  // The two fixed rates, then (untraced runs) the rate ladder.
  const double phase_s = opt.trace ? 2.0 : std::max(2.0, 0.25 * opt.seconds);
  const Phase lo = run_rate(*srv, seeds, 1, kLowQps, phase_s, &served);
  const Phase hi = run_rate(*srv, seeds, 2, kHighQps, phase_s, &served);
  const double peak_rss_mb = static_cast<double>(vm_hwm_bytes()) / 1e6;
  bool generator_ok = true;
  for (const Phase* ph : {&lo, &hi}) {
    out.attempted += ph->sent;
    out.failed += ph->failed;
    const double late99 = percentile(ph->lateness_ms, 99);
    generator_ok = generator_ok && late99 <= kMaxLatenessMs;
    note("%.0f QPS: %lld sent, %lld failed, latency from due time p50 %.3f ms "
         "p99 %.3f ms (%zu samples), queue p50 %.3f ms, %.2f requests/batch, "
         "generator lateness p99 %.3f ms",
         ph->qps, static_cast<long long>(ph->sent), static_cast<long long>(ph->failed),
         percentile(ph->latency_ms, 50), percentile(ph->latency_ms, 99),
         ph->latency_ms.size(), percentile(ph->queue_ms, 50),
         ph->batch_requests_mean(), late99);
  }
  if (!generator_ok) {
    note("INVALID: the load generator fell behind its schedule (p99 lateness "
         "above %.1f ms)", kMaxLatenessMs);
  }
  double max_qps = 0;
  int missed = 0;
  if (!opt.trace) {
    // Each step sends enough requests for a p99 with ten beyond it.
    for (const double qps : {1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0,
                             4000.0, 5000.0, 6000.0}) {
      const Phase ph = run_rate(*srv, seeds, 10 + static_cast<u64>(qps), qps,
                                std::max(0.5, 1200.0 / qps), &served);
      out.attempted += ph.sent;
      out.failed += ph.failed;
      const bool ok = ph.meets_slo();
      note("ladder %.0f QPS: p99 %.3f ms, %.2f requests/batch, %s", qps,
           percentile(ph.latency_ms, 99), ph.batch_requests_mean(),
           ok ? "meets the limit" : "misses the limit");
      if (ok) {
        max_qps = static_cast<double>(ph.latency_ms.size()) / ph.wall_s;
        missed = 0;
      } else if (++missed == 2) {
        break;  // two misses in a row: one host hiccup does not end the ladder
      }
    }
  }

  // Output check: every collected request against its ego graph run alone.
  i64 alone_mismatches = 0;
  const i64 mismatches = check_served(srv->engine(), served, &alone_mismatches);
  out.failed += mismatches;
  out.valid = mismatches == 0 && generator_ok;
  note("check: %lld of %zu served requests differ from the same ego graph "
       "run alone (%lld of them rode in a micro-batch of their own)",
       static_cast<long long>(mismatches), served.size(),
       static_cast<long long>(alone_mismatches));

  if (!opt.trace) {
    m.set("setup_s", median(setup_s));
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("lat_p50_ms.r500", percentile(lo.latency_ms, 50));
    m.set("lat_p99_ms.r500", percentile(lo.latency_ms, 99));
    m.set("lat_p50_ms.r1500", percentile(hi.latency_ms, 50));
    m.set("lat_p99_ms.r1500", percentile(hi.latency_ms, 99));
    m.set("max_qps_slo", max_qps);
    return out;
  }

  // ---- trace run: per-layer metrics (serving stats over the 1500 QPS phase,
  // per 1000 completed requests) ----
  const core::ServingStats& a = hi.before;
  const core::ServingStats& b = hi.after;
  const i64 done = b.requests_completed - a.requests_completed;
  const i64 batches = b.batches_dispatched - a.batches_dispatched;
  m.set("gen.lateness_ms_p99", percentile(hi.lateness_ms, 99));
  m.set("core.serve_queue_ms_p50", percentile(hi.queue_ms, 50));
  m.set("core.serve_queue_ms_p99", percentile(hi.queue_ms, 99));
  m.set("core.serve_batch_requests_mean.r500", lo.batch_requests_mean());
  m.set("core.serve_batch_requests_mean.r1500", hi.batch_requests_mean());
  m.set("core.serve_timeout_dispatch_share",
        batches > 0 ? static_cast<double>(b.dispatches_timeout - a.dispatches_timeout) /
                          static_cast<double>(batches)
                    : 0);
  const auto per_k = [&](const obs::StageBreakdown core::ServingStats::*stage, bool busy) {
    const obs::StageBreakdown& x = a.*stage;
    const obs::StageBreakdown& y = b.*stage;
    const double s = busy ? y.busy_seconds - x.busy_seconds : y.stall_seconds - x.stall_seconds;
    return done > 0 ? s * 1e6 / static_cast<double>(done) : 0.0;
  };
  m.set("core.serve_batcher_busy_ms", per_k(&core::ServingStats::batcher_stage, true));
  m.set("core.serve_batcher_stall_ms", per_k(&core::ServingStats::batcher_stage, false));
  m.set("core.serve_prepare_busy_ms", per_k(&core::ServingStats::prepare_stage, true));
  m.set("core.serve_prepare_stall_ms", per_k(&core::ServingStats::prepare_stage, false));
  m.set("core.serve_ship_busy_ms", per_k(&core::ServingStats::ship_stage, true));
  m.set("core.serve_ship_stall_ms", per_k(&core::ServingStats::ship_stage, false));
  m.set("core.serve_compute_busy_ms", per_k(&core::ServingStats::compute_stage, true));
  m.set("core.serve_compute_stall_ms", per_k(&core::ServingStats::compute_stage, false));
  m.set("core.serve_prepare_ms_per_request",
        per_k(&core::ServingStats::prepare_stage, true) / 1000.0);
  m.set("core.serve_forward_ms_per_request",
        per_k(&core::ServingStats::compute_stage, true) / 1000.0);

  // Traced replay: 1000 requests, each served alone.
  const std::vector<core::ServingRequest> replay_reqs =
      make_requests(seeds.requests + 4, ds.graph.num_nodes(), 1000);
  const std::string trace_path = opt.work_dir + "/replay_trace.json";
  const ReplayResult traced =
      traced_replay(opt.workload, ds.graph, ds.features, cfg, replay_reqs, trace_path);
  add_replay_metrics(m, traced);
  m.set("graph.expand_ego_us_per_request", traced.expand_us_per_unit);
  const double replay_ms_per_request =
      traced.expand_us_per_unit / 1e3 + traced.prepare_ms_per_unit +
      traced.prepare_input_ms_per_unit + traced.pack_ms_per_unit +
      traced.forward_ms_per_unit;
  m.set("core.layer_coverage", replay_ms_per_request / percentile(lo.latency_ms, 50));
  note("replay: %lld spans written to %s; %.3f ms of layer calls per request "
       "alone", static_cast<long long>(traced.spans), trace_path.c_str(),
       replay_ms_per_request);
  return out;
}

}  // namespace qgtc::perfbench
