// Traced replay: walks a workload's batches, or its requests each served
// alone, through the public per-layer calls, outside every timed run.
//
//   graph     partition_graph, make_batches, expand_ego, prepare_batch_data,
//             build_batch_csr (fp32 baseline input)
//   gnn       QgtcModel::calibrate, prepare_input, forward_prepared
//   transfer  pack_prepared_batch
//   baselines QgtcModel::forward_fp32
//
// It keeps the engine's per-batch threading shape: offline prepares serially
// (as the precomputed constructor does) and runs forward on `workers`
// sessions; streaming prepares on the pipeline's prepare workers and runs
// forward on its compute workers; serving runs each request alone on one
// session. One span per call, tagged with the batch or request id, goes to
// the library's span sink (category "replay"); the spans stay in memory and
// are written as one Chrome trace file when the replay ends.
#include <algorithm>
#include <deque>
#include <map>

#include "api/session.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "perfbench.hpp"

namespace qgtc::perfbench {

namespace {

using BatchData = core::QgtcEngine::BatchData;

BatchData prepare(const CsrView& graph, const store::FeatureSource& features,
                  const gnn::QgtcModel& model, const SubgraphBatch& batch,
                  bool sparse, bool fp32_csr, i64 id, int worker) {
  BatchData bd;
  {
    obs::SpanScope s("replay", "graph.prepare_batch_data",
                     {{"id", id}, {"worker", worker}});
    static_cast<PreparedBatch&>(bd) = prepare_batch_data(
        graph, features, batch, sparse, /*add_self_loops=*/true, fp32_csr);
  }
  {
    obs::SpanScope s("replay", "gnn.prepare_input",
                     {{"id", id}, {"worker", worker}});
    bd.x_planes = model.prepare_input(bd.features);
  }
  return bd;
}

MatrixI32 forward(const gnn::QgtcModel& model, const BatchData& bd,
                  bool sparse, const api::Session& session, i64 id,
                  int worker) {
  obs::SpanScope s("replay", "gnn.forward_prepared",
                   {{"id", id}, {"worker", worker}});
  return sparse ? model.forward_prepared(bd.adj_tiles, bd.x_planes, nullptr,
                                         &session.context())
                : model.forward_prepared(bd.adj, &bd.tile_map, bd.x_planes,
                                         nullptr, &session.context());
}

/// Per-name span totals of the replay's own spans.
struct SpanTotals {
  std::map<std::string, std::pair<double, i64>> by_name;  // seconds, count
  double seconds(const std::string& n) const {
    const auto it = by_name.find(n);
    return it == by_name.end() ? 0.0 : it->second.first;
  }
  double mean_ms(const std::string& n) const {
    const auto it = by_name.find(n);
    return it == by_name.end() || it->second.second == 0
               ? 0.0
               : it->second.first * 1e3 / static_cast<double>(it->second.second);
  }
};

/// One replay pass; `wall_seconds` receives its wall time.
ReplayResult run_replay(const std::string& workload, const CsrView& graph,
                        const store::FeatureSource& features,
                        const core::EngineConfig& cfg,
                        const std::vector<core::ServingRequest>& requests,
                        bool traced, const std::string& trace_path,
                        double* wall_seconds) {
  obs::SpanSink& sink = obs::SpanSink::instance();
  sink.clear();
  if (traced) sink.enable();

  ReplayResult r;
  const bool sparse = cfg.mode.sparse_adj();
  const bool serve = workload == kServe;
  const bool streaming = cfg.mode.streaming() && !serve;
  const int compute_workers = serve ? 1 : cfg.inter_batch_threads;
  const int prepare_workers = streaming ? cfg.mode.prepare_threads : 1;
  const transfer::PcieModel pcie;
  transfer::StagingBuffer slot;
  std::deque<api::Session> sessions;
  for (int w = 0; w < compute_workers; ++w) sessions.emplace_back(cfg.backend);

  const Clock::time_point t0 = Clock::now();
  PartitionResult parts;
  {
    obs::SpanScope s("replay", "graph.partition_graph");
    parts = partition_graph(graph, cfg.num_partitions, {});
  }
  std::vector<SubgraphBatch> batches;
  {
    obs::SpanScope s("replay", "graph.make_batches");
    batches = make_batches(parts, cfg.batch_size);
  }
  gnn::QgtcModel model = gnn::QgtcModel::create(cfg.model, cfg.seed);
  {
    // The engine calibrates on global batch 0 with the fp32 CSR built
    // exactly when the epoch is precomputed.
    const BatchData front = prepare(graph, features, model, batches.front(),
                                    sparse, !cfg.mode.streaming(), -1, 0);
    obs::SpanScope s("replay", "gnn.calibrate");
    if (sparse) {
      model.calibrate(front.adj_tiles, front.features);
    } else {
      model.calibrate(front.adj, front.features);
    }
  }

  if (serve) {
    // Each request alone: the ego-graph becomes a one-partition batch.
    for (std::size_t q = 0; q < requests.size(); ++q) {
      const i64 id = static_cast<i64>(q);
      SubgraphBatch one;
      {
        obs::SpanScope s("replay", "graph.expand_ego", {{"id", id}});
        one.nodes = expand_ego(graph, requests[q].seeds, requests[q].fanout,
                               requests[q].max_nodes);
      }
      one.part_bounds = {0, one.size()};
      const BatchData bd =
          prepare(graph, features, model, one, sparse, false, id, 0);
      {
        obs::SpanScope s("replay", "transfer.pack_prepared_batch", {{"id", id}});
        const auto packed = core::pack_prepared_batch(bd, sparse, slot, pcie);
        r.packed_bytes += packed.total_bytes;
        r.wire_seconds += packed.modeled_seconds;
      }
      const Clock::time_point f0 = Clock::now();
      (void)forward(model, bd, sparse, sessions.front(), id, 0);
      r.forward_phase_seconds += seconds_between(f0, Clock::now());
    }
  } else {
    const i64 n = static_cast<i64>(batches.size());
    std::vector<BatchData> data(static_cast<std::size_t>(n));
    parallel_for_workers(0, n, prepare_workers, [&](i64 i, int w) {
      data[static_cast<std::size_t>(i)] =
          prepare(graph, features, model, batches[static_cast<std::size_t>(i)],
                  sparse, !cfg.mode.streaming(), i, w);
    });
    for (i64 i = 0; i < n; ++i) {
      obs::SpanScope s("replay", "transfer.pack_prepared_batch", {{"id", i}});
      const auto packed = core::pack_prepared_batch(
          data[static_cast<std::size_t>(i)], sparse, slot, pcie);
      r.packed_bytes += packed.total_bytes;
      r.wire_seconds += packed.modeled_seconds;
    }
    const Clock::time_point f0 = Clock::now();
    parallel_for_workers(0, n, compute_workers, [&](i64 i, int w) {
      (void)forward(model, data[static_cast<std::size_t>(i)], sparse,
                    sessions[static_cast<std::size_t>(w)], i, w);
    });
    r.forward_phase_seconds = seconds_between(f0, Clock::now());
    // The fp32 DGL-substitute baseline over the same batches; streaming
    // epochs build its local CSR in their prepare stage.
    parallel_for_workers(0, n, compute_workers, [&](i64 i, int w) {
      BatchData& bd = data[static_cast<std::size_t>(i)];
      if (cfg.mode.streaming()) {
        obs::SpanScope s("replay", "graph.build_batch_csr",
                         {{"id", i}, {"worker", w}});
        bd.local = build_batch_csr(graph, bd.batch, /*add_self_loops=*/true);
      }
      obs::SpanScope s("replay", "baselines.forward_fp32",
                       {{"id", i}, {"worker", w}});
      (void)model.forward_fp32(bd.local, bd.features);
    });
  }
  *wall_seconds = seconds_between(t0, Clock::now());
  r.forward_workers = compute_workers;
  for (const api::Session& s : sessions) r.counters += s.counters();

  sink.disable();
  if (traced) {
    SpanTotals tot;
    for (const obs::Span& s : sink.snapshot()) {
      if (std::string(s.category) != "replay") continue;
      auto& [sec, count] = tot.by_name[s.name];
      sec += static_cast<double>(s.dur_ns) * 1e-9;
      ++count;
      ++r.spans;
    }
    r.partition_ms = tot.seconds("graph.partition_graph") * 1e3;
    r.batching_ms = tot.seconds("graph.make_batches") * 1e3;
    r.calibrate_ms = tot.seconds("gnn.calibrate") * 1e3;
    r.expand_us_per_unit = tot.mean_ms("graph.expand_ego") * 1e3;
    r.prepare_ms_per_unit = tot.mean_ms("graph.prepare_batch_data");
    r.prepare_input_ms_per_unit = tot.mean_ms("gnn.prepare_input");
    r.pack_ms_per_unit = tot.mean_ms("transfer.pack_prepared_batch");
    r.forward_ms_per_unit = tot.mean_ms("gnn.forward_prepared");
    r.fp32_forward_ms_per_unit = tot.mean_ms("baselines.forward_fp32");
    r.forward_total_seconds = tot.seconds("gnn.forward_prepared");
    if (!sink.write_chrome_trace(trace_path)) {
      throw std::runtime_error("cannot write replay trace " + trace_path);
    }
    sink.clear();
  }
  return r;
}

}  // namespace

ReplayResult traced_replay(const std::string& workload, const CsrView& graph,
                           const store::FeatureSource& features,
                           const core::EngineConfig& cfg,
                           const std::vector<core::ServingRequest>& requests,
                           const std::string& trace_path) {
  std::vector<double> off_s, on_s;
  ReplayResult traced;
  for (int k = 0; k < 2; ++k) {
    double s = 0;
    (void)run_replay(workload, graph, features, cfg, requests, false, trace_path, &s);
    off_s.push_back(s);
    traced = run_replay(workload, graph, features, cfg, requests, true, trace_path, &s);
    on_s.push_back(s);
  }
  traced.traced_seconds = median(on_s);
  traced.untraced_seconds = median(off_s);
  traced.overhead_pct = (traced.traced_seconds / traced.untraced_seconds - 1.0) * 100.0;
  return traced;
}

void add_replay_metrics(Report& r, const ReplayResult& on) {
  r.set("graph.partition_ms", on.partition_ms);
  r.set("graph.batching_ms", on.batching_ms);
  r.set("graph.prepare_ms_per_batch", on.prepare_ms_per_unit);
  r.set("gnn.calibrate_ms", on.calibrate_ms);
  r.set("gnn.prepare_input_ms_per_batch", on.prepare_input_ms_per_unit);
  r.set("gnn.forward_ms_per_batch", on.forward_ms_per_unit);

  const tcsim::Counters& c = on.counters;
  const double bmma = static_cast<double>(c.bmma_ops);
  const double jumped = static_cast<double>(c.tiles_jumped);
  r.set("kernels.bmma_ops_per_epoch", bmma);
  r.set("kernels.tiles_jumped_per_epoch", jumped);
  r.set("kernels.jump_ratio", bmma + jumped > 0 ? jumped / (bmma + jumped) : 0);
  r.set("kernels.int32_mb_avoided_per_epoch",
        static_cast<double>(c.int32_bytes_avoided) / 1e6);
  r.set("kernels.tile_mma_per_s",
        on.forward_total_seconds > 0 ? bmma / on.forward_total_seconds : 0);
  // Computed, not measured: one 8x128-bit fragment is 128 bytes per load,
  // one 8x8 int32 accumulator tile is 256 bytes per store.
  const double loads = static_cast<double>(c.frag_loads_a + c.frag_loads_b);
  const double stores = static_cast<double>(c.frag_stores);
  r.set("tcsim.frag_loads_per_epoch", loads);
  r.set("tcsim.frag_stores_per_epoch", stores);
  r.set("tcsim.frag_mb_computed_per_epoch",
        (loads * 128.0 + stores * 256.0) / 1e6);

  r.set("transfer.pack_ms_per_batch", on.pack_ms_per_unit);
  r.set("transfer.packed_mb_per_epoch", static_cast<double>(on.packed_bytes) / 1e6);
  r.set("transfer.wire_ms_modelled_per_epoch", on.wire_seconds * 1e3);
  r.set("core.worker_efficiency",
        on.forward_phase_seconds > 0
            ? on.forward_total_seconds /
                  (on.forward_phase_seconds * on.forward_workers)
            : 0);
  r.set("obs.trace_overhead_pct", on.overhead_pct);
}

}  // namespace qgtc::perfbench
