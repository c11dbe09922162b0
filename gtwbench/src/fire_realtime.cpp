// fire_realtime: seeded Figure-2 sessions at the paper's 64x64x16 matrix —
// sequential mode, TR 3 s, results displayed across the WAN on onyx2_gmd,
// real numerics from FmriSeriesGenerator + AnalysisEngine with head motion
// injected and motion correction on.  One unit = one session; one op = one
// scanner TR of the live pipeline.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "common.hpp"
#include "fire/analysis.hpp"
#include "fire/pipeline.hpp"
#include "obs/span.hpp"
#include "scanner/phantom.hpp"
#include "testbed/testbed.hpp"

namespace gtwbench {

using namespace gtw;

namespace {

constexpr std::uint64_t kSalt = 0x666d72695f7274ULL;  // "fmri_rt"
constexpr int kScans = 24;
constexpr double kTr = 3.0;
constexpr double kPaperDelayS = 5.0;  // "less than 5 seconds" at 256 PEs
constexpr float kHeadIntensity = 100.0f;  // phantom: air 0, scalp 350

scanner::FmriConfig draw(std::uint64_t seed, std::uint64_t unit) {
  des::Rng rng = unit_rng(seed, unit, kSalt);
  scanner::FmriConfig cfg;
  cfg.dims = {64, 64, 16};
  cfg.tr_s = kTr;
  cfg.stimulus.off_scans = 6;
  cfg.stimulus.on_scans = 6;
  cfg.expected_scans = kScans;
  // One activation blob in the brain tissue of either hemisphere, clear of
  // the dark central ventricles (where a 5% BOLD change is a few noise
  // sigmas at most).
  const double side = rng.bernoulli(0.5) ? 1.0 : -1.0;
  const double cx = 32.0 + side * rng.uniform(9.0, 15.0);
  const double cy = rng.uniform(22.0, 42.0);
  const double cz = rng.uniform(6.0, 10.0);
  cfg.regions = {{cx, cy, cz, rng.uniform(2.5, 3.5), rng.uniform(0.04, 0.06)}};
  cfg.noise_sigma = rng.uniform(3.0, 5.0);
  // Head motion is the same for every session: the Gauss-Newton iteration
  // count of motion correction grows with it, and a drawn amount would
  // make the per-scan cost depend more on the seed than on the code.
  cfg.motion.drift_per_scan = 0.01;
  cfg.motion.jitter = 0.06;
  cfg.motion.rot_jitter = 0.002;
  cfg.seed = rng.next_u64();
  return cfg;
}

// Median filter, motion correction and correlation.  Detrending stays off
// in the engine: over a 24-scan session the incremental fit absorbs so
// much of the block response that the activation no longer stands out
// (peak r ~0.5 inside the blob against ~0.6 in quiet tissue); its kernel is
// still timed below.
fire::AnalysisConfig analysis_config(const scanner::FmriConfig& scfg) {
  fire::AnalysisConfig acfg;
  acfg.stimulus = scfg.stimulus;
  acfg.hrf = scfg.hrf;
  acfg.tr_s = scfg.tr_s;
  acfg.motion_correction = true;
  acfg.detrend = false;
  acfg.detrend_cfg.expected_scans = scfg.expected_scans;
  return acfg;
}

// The analysis chain of AnalysisEngine::process_scan, called module by
// module on the same seeded scans and timed per call; detrending is timed
// on the motion-corrected scans without feeding the correlation, as in the
// engine.  The replica's correlation map must equal the engine's.
void time_kernels(const scanner::FmriConfig& scfg,
                  const fire::AnalysisEngine& engine, UnitResult& r) {
  const fire::AnalysisConfig acfg = analysis_config(scfg);
  scanner::FmriSeriesGenerator gen(scfg);
  const std::vector<double> ref = fire::make_reference(
      acfg.stimulus, acfg.detrend_cfg.expected_scans, acfg.tr_s, acfg.hrf);
  std::optional<fire::MotionCorrector> motion;
  fire::IncrementalDetrend detrend(scfg.dims, acfg.detrend_cfg);
  fire::IncrementalCorrelation corr(scfg.dims);
  auto ms_since = [](std::int64_t t0) {
    return static_cast<double>(now_ns() - t0) / 1e6;
  };
  for (int t = 0; t < kScans; ++t) {
    const fire::VolumeF raw = gen.acquire(t);
    std::int64_t t0 = now_ns();
    fire::VolumeF img = fire::median_filter_3x3(raw);
    r.kernel_ms["median"].push_back(ms_since(t0));
    if (!motion) {
      motion.emplace(img, acfg.motion_cfg);
    } else {
      t0 = now_ns();
      fire::MotionResult m = motion->correct(img);
      r.kernel_ms["motion"].push_back(ms_since(t0));
      img = std::move(m.corrected);
    }
    t0 = now_ns();
    detrend.add_scan(img);
    r.kernel_ms["detrend"].push_back(ms_since(t0));
    t0 = now_ns();
    corr.add_scan(img, static_cast<std::size_t>(t) < ref.size()
                           ? ref[static_cast<std::size_t>(t)]
                           : 0.0);
    r.kernel_ms["correlation"].push_back(ms_since(t0));
  }
  const fire::VolumeF a = corr.correlation_map();
  const fire::VolumeF b = engine.correlation_map();
  if (a.data() != b.data()) {
    r.ok = false;
    r.failure = "kernel replica's correlation map differs from the engine's";
  }
}

}  // namespace

UnitResult run_fire_realtime(std::uint64_t seed, std::uint64_t unit,
                             Tracing tracing) {
  Ledger* const ledger = tracing.ledger;
  const scanner::FmriConfig scfg = draw(seed, unit);
  UnitResult r;
  {
    char buf[128];
    const scanner::ActivationRegion& reg = scfg.regions.front();
    std::snprintf(buf, sizeof buf, "blob(%.0f,%.0f,%.0f)r%.1f/a%.3f/n%.1f",
                  reg.cx, reg.cy, reg.cz, reg.radius, reg.amplitude,
                  scfg.noise_sigma);
    r.scenario = buf;
  }

  const std::int64_t t_setup = now_ns();
  testbed::Testbed tb{testbed::TestbedOptions{}};
  r.testbed_build_ms = static_cast<double>(now_ns() - t_setup) / 1e6;
  des::Scheduler& sched = tb.scheduler();
  scanner::FmriSeriesGenerator gen(scfg);
  fire::AnalysisEngine engine(scfg.dims, analysis_config(scfg));
  fire::PipelineConfig pcfg;
  pcfg.tr_s = kTr;
  pcfg.n_scans = kScans;
  pcfg.t3e_pes = 256;
  pcfg.mode = fire::PipelineMode::kSequential;
  // The scanner's acquire is timed as the scanner layer; the engine's
  // process_scan runs from the moment the source returns until the
  // pipeline's next hook call, and is timed as the fire layer.
  auto source = [&gen, ledger](int t) {
    if (ledger != nullptr) ledger->begin_segment(Layer::kScanner);
    fire::VolumeF v = gen.acquire(t);
    if (ledger != nullptr) ledger->segment_until_next_hook(Layer::kFire);
    return v;
  };
  obs::SpanTracer tracer;
  fire::FmriPipeline pipe(
      sched, {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_gmd()}, pcfg,
      source, &engine);
  // Declared after the pipeline (whose TCP connections call the hook when
  // destroyed): detaches first.
  std::optional<Ledger::Attachment> attached;
  if (ledger != nullptr)
    attached.emplace(*ledger, sched, tracing.spans ? &tracer : nullptr);
  pipe.start();
  r.setup_s = seconds_since(t_setup);

  // Op k covers simulated (TR(k+1), TR(k+2)]: scan k reaches the RT-server
  // at TR(k+1) + 1.5 s and is analysed about 0.5 s later.  The last op
  // drains the display of the final scan.
  for (int k = 0; k < kScans; ++k) {
    const double ms =
        k + 1 < kScans
            ? timed_run(sched, ledger, des::SimTime::seconds(kTr * (k + 2)))
            : timed_run(sched, ledger);
    r.op_ms.push_back(ms);
    r.run_ms += ms;
  }

  const fire::PipelineResult res = pipe.result();
  int displayed = 0;
  double last_display_s = 0.0;
  for (const fire::ScanRecord& rec : res.records) {
    if (rec.displayed == des::SimTime::zero()) continue;
    ++displayed;
    last_display_s = std::max(last_display_s, rec.displayed.sec());
  }
  // Peak over the head only: air voxels carry pure noise, and over 24
  // scans some of the ~40k of them correlate by chance.
  const fire::VolumeF map = engine.correlation_map();
  std::size_t peak = 0;
  for (std::size_t i = 0; i < map.size(); ++i)
    if (gen.baseline()[i] > kHeadIntensity && map[i] > map[peak]) peak = i;
  const auto mask = gen.activation_mask();

  // Oracle: every scan analysed and displayed, none skipped at TR 3 s,
  // the paper's delay bound met, and the activation found where it is.
  if (res.scans_skipped != 0 || displayed != kScans ||
      engine.scans() != kScans) {
    r.failure = std::to_string(displayed) + " of " + std::to_string(kScans) +
                " scans displayed, " + std::to_string(res.scans_skipped) +
                " skipped";
  } else if (!(res.mean_total_delay_s < kPaperDelayS)) {
    r.failure = "mean delay " + std::to_string(res.mean_total_delay_s) + " s";
  } else if (mask[peak] == 0) {
    r.failure = "peak correlation outside the activation mask";
  } else if (!sched.empty()) {
    r.failure = "events left after the session drained";
  }
  r.ok = r.failure.empty();

  r.delivered_mb =
      static_cast<double>(displayed) *
      static_cast<double>(pcfg.image_bytes.count() + pcfg.result_bytes.count()) /
      1e6;
  r.sim_s = last_display_s;
  r.mean_total_delay_s = res.mean_total_delay_s;
  r.events = sched.events_executed();
  r.stream_hash = sched.stream_hash();

  Counters& c = r.counters;
  count_testbed(tb, c);
  c.flow_admitted = pipe.metrics().admitted;
  c.flow_superseded =
      pipe.metrics().admission_dropped + pipe.metrics().degraded_dropped;
  c.pending_peak = sched.pool_high_water();

  if (tracing.spans)
    add_budget(tracer, r);
  else if (ledger != nullptr)
    time_kernels(scfg, engine, r);
  return r;
}

}  // namespace gtwbench
