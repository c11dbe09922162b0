#include "fire/pipeline.hpp"

#include <algorithm>

namespace gtw::fire {

flow::GraphConfig FmriPipeline::graph_config(const PipelineConfig& cfg) {
  flow::GraphConfig g;
  if (cfg.mode == PipelineMode::kSequential) {
    // "A new image is requested from the RT-server only after the
    // processing and displaying of the previous one is completed"; the
    // RT-server answers with the newest image it holds, so a slow loop
    // skips stale scans rather than building a backlog.
    g.max_in_flight = 1;
    g.admission = flow::QueuePolicy::kDropStale;
  }
  return g;
}

FmriPipeline::FmriPipeline(des::Scheduler& sched, Hosts hosts,
                           PipelineConfig cfg, ImageSource source,
                           AnalysisEngine* engine)
    : sched_(sched), hosts_(hosts), cfg_(cfg), source_(std::move(source)),
      engine_(engine), graph_(sched, graph_config(cfg)) {
  records_.resize(static_cast<std::size_t>(cfg_.n_scans));
  net::TcpConfig tcp;
  tcp.recv_buffer = units::Bytes{4u << 20};
  if (cfg_.site == ProcessingSite::kRemoteT3e) {
    to_compute_ = std::make_unique<net::TcpConnection>(
        *hosts_.scanner_frontend, *hosts_.compute_frontend, 6000, 6001, tcp);
    to_client_ = std::make_unique<net::TcpConnection>(
        *hosts_.compute_frontend, *hosts_.client, 6002, 6003, tcp);
  } else {
    to_compute_ = std::make_unique<net::TcpConnection>(
        *hosts_.scanner_frontend, *hosts_.client, 6000, 6001, tcp);
  }
  build_graph();
}

void FmriPipeline::build_graph() {
  // Half the RPC handshake budget wraps the forward leg, half the return.
  const des::SimTime half_rpc =
      des::SimTime::picoseconds(cfg_.rpc_overhead.ps() / 2);

  flow::StageConfig transfer;
  transfer.name = "transfer";
  transfer.concurrency = 1;  // one forward transfer at a time
  transfer.body = [this, half_rpc](flow::StageContext ctx, flow::Item& it,
                                   flow::Done done) {
    const int index = it.index;
    records_[static_cast<std::size_t>(index)].sent = sched_.now();
    const des::TraceContext sent = ctx.trace_send(ctx.stage + 1,
                                                  cfg_.image_bytes);
    sched_.schedule_after(half_rpc, [this, ctx, sent, index, done]() {
      to_compute_->send(
          0, cfg_.image_bytes, {},
          [this, ctx, sent, index, done](const std::any&, des::SimTime) {
            records_[static_cast<std::size_t>(index)].at_compute =
                sched_.now();
            ctx.trace_recv(ctx.stage + 1, sent);
            // Run the real numerics, if wired up (timing still from the
            // execution model — this host's wall clock is irrelevant).
            if (source_ && engine_ != nullptr)
              engine_->process_scan(source_(index));
            done();
          });
    });
  };
  graph_.add_stage(std::move(transfer));

  flow::StageConfig compute;
  compute.name = "compute";
  compute.concurrency = 1;  // the single T3E partition
  compute.body = [this](flow::StageContext, flow::Item&, flow::Done done) {
    sched_.schedule_after(compute_time(cfg_.t3e_pes), std::move(done));
  };
  graph_.add_stage(std::move(compute));

  flow::StageConfig back;
  back.name = "return";
  back.concurrency = 0;
  back.body = [this, half_rpc](flow::StageContext ctx, flow::Item& it,
                               flow::Done done) {
    const int index = it.index;
    records_[static_cast<std::size_t>(index)].processed = sched_.now();
    const des::TraceContext sent = ctx.trace_send(ctx.stage + 1,
                                                  cfg_.result_bytes);
    auto deliver = [this, ctx, sent, index, done](const std::any&,
                                                  des::SimTime) {
      records_[static_cast<std::size_t>(index)].at_client = sched_.now();
      ctx.trace_recv(ctx.stage + 1, sent);
      done();
    };
    if (to_client_) {
      sched_.schedule_after(half_rpc, [this, deliver]() {
        to_client_->send(0, cfg_.result_bytes, {}, deliver);
      });
    } else {
      // Local mode: results are already on the client.
      sched_.schedule_after(half_rpc,
                            [this, deliver]() { deliver({}, sched_.now()); });
    }
  };
  graph_.add_stage(std::move(back));

  flow::StageConfig display;
  display.name = "display";
  display.concurrency = 0;
  display.body = [this](flow::StageContext, flow::Item& it, flow::Done done) {
    const int index = it.index;
    sched_.schedule_after(cfg_.client_display, [this, index, done]() {
      records_[static_cast<std::size_t>(index)].displayed = sched_.now();
      done();
    });
  };
  graph_.add_stage(std::move(display));
}

des::SimTime FmriPipeline::compute_time(int pes) const {
  const FireWork w = make_fire_work(cfg_.work);
  exec::WorkEstimate total;
  if (cfg_.enable_filter) total += w.filter;
  if (cfg_.enable_motion) total += w.motion;
  if (cfg_.enable_rvo) total += w.rvo;
  if (cfg_.enable_detrend) total += w.detrend;
  total += w.correlation;

  if (cfg_.site == ProcessingSite::kLocalWorkstation)
    return exec::time_on(cfg_.workstation, total, 1);

  // Sum per-module so each module's own parallelism cap applies, exactly as
  // the Table 1 columns do.
  des::SimTime t = des::SimTime::zero();
  if (cfg_.enable_filter) t += exec::time_on(cfg_.t3e, w.filter, pes);
  if (cfg_.enable_motion) t += exec::time_on(cfg_.t3e, w.motion, pes);
  if (cfg_.enable_rvo) t += exec::time_on(cfg_.t3e, w.rvo, pes);
  if (cfg_.enable_detrend) t += exec::time_on(cfg_.t3e, w.detrend, pes);
  t += exec::time_on(cfg_.t3e, w.correlation, pes);
  return t;
}

void FmriPipeline::start() {
  for (int i = 0; i < cfg_.n_scans; ++i) {
    ScanRecord& rec = records_[static_cast<std::size_t>(i)];
    rec.index = i;
    rec.acquired = des::SimTime::seconds(cfg_.tr_s * (i + 1));
    sched_.schedule_at(rec.acquired + cfg_.scan_to_server,
                       [this, i]() { on_image_at_server(i); });
  }
}

void FmriPipeline::on_image_at_server(int index) {
  records_[static_cast<std::size_t>(index)].at_server = sched_.now();
  graph_.push(index);
}

PipelineResult FmriPipeline::result() const {
  PipelineResult out;
  out.records = records_;
  out.scans_skipped =
      static_cast<int>(graph_.metrics().admission_dropped);
  double total = 0.0, transfer = 0.0, compute = 0.0;
  int n = 0;
  std::vector<double> display_times;
  for (const ScanRecord& r : records_) {
    if (r.displayed == des::SimTime::zero()) continue;  // never finished
    display_times.push_back(r.displayed.sec());
    if (r.index == 0) continue;  // warm-up
    total += (r.displayed - r.acquired).sec();
    transfer += (r.at_compute - r.sent).sec() +
                (r.at_client - r.processed).sec();
    compute += (r.processed - r.at_compute).sec();
    ++n;
  }
  if (n > 0) {
    out.mean_total_delay_s = total / n;
    out.mean_transfer_control_s = transfer / n;
    out.mean_compute_s = compute / n;
  }
  if (display_times.size() >= 2) {
    // Steady-state period: mean gap over the second half of the run.
    const std::size_t half = display_times.size() / 2;
    out.sustained_period_s =
        (display_times.back() - display_times[half]) /
        static_cast<double>(display_times.size() - 1 - half);
    // The scanner is safe as long as TR covers the pipeline period net of
    // the scanner's own cadence contribution.
    const double busy = out.mean_transfer_control_s + out.mean_compute_s +
                        0.6;  // display
    out.min_safe_tr_s = cfg_.mode == PipelineMode::kSequential
        ? busy
        : std::max({(records_[0].at_compute - records_[0].sent).sec(),
                    out.mean_compute_s, 0.6});
  }
  return out;
}

}  // namespace gtw::fire
