// Exporters: every metric and trace leaves the simulator through one of
// these, never through ad-hoc printf (enforced by the gtw-lint rule
// raw-metric-print).  Two output families:
//
//  - Chrome trace-event JSON (the format Perfetto and chrome://tracing
//    load), written from a spans artifact: one process per trace with a
//    track per span and flow arrows along parent->child edges; process 0
//    with one track per VAMPIR lane, its states as complete events and a
//    send->recv arrow per message; registry marks as instant events and
//    sampled time series as counter tracks (ph C).
//  - stable-ordered JSON snapshots of a Registry and the long-format time
//    series a TimeSeriesSampler collected.
//
// All timestamps are simulated time.  Chrome `ts` is microseconds; we print
// it as <us>.<6 digits> with the fraction computed in integer picoseconds,
// so exports are byte-identical run to run (no double rounding anywhere on
// the time axis).
#pragma once

#include <iosfwd>
#include <string>

#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/span_analysis.hpp"

namespace gtw::obs {

struct ChromeTraceOptions {
  std::string process_name = "gtw";  // names process 0, the lane tracks
  // Optional extra tracks.
  const TimeSeriesSampler* series = nullptr;  // counter tracks (ph "C")
  const Registry* marks_from = nullptr;       // instant events (ph "i")
};

void write_chrome_trace(std::ostream& os, const SpanFile& f,
                        const ChromeTraceOptions& opts = {});

// {"label": ..., "metrics": {name: value, ...}, "histograms": {...},
//  "marks": [...]} — instruments in lexicographic name order.
void write_metrics_json(std::ostream& os, const Registry& reg,
                        const std::string& label = "");

// {"series": [{"name": ..., "points": [[t_ps, value], ...]}, ...]} in watch
// order.
void write_series_json(std::ostream& os, const TimeSeriesSampler& sampler);

}  // namespace gtw::obs
