// Read-only probes the workloads share: testbed counters and the span
// budget of a traced unit.
#include <sstream>

#include "common.hpp"
#include "net/atm.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"
#include "testbed/testbed.hpp"

namespace gtwbench {

using namespace gtw;

void count_link(const net::Link& l, Counters& c) {
  c.link_frames += l.frames_sent();
  c.link_drops += l.drops() + l.outage_drops() + l.corrupted_frames();
}

void count_host(const net::Host& h, Counters& c) {
  c.host_packets +=
      h.packets_sent() + h.packets_received() + h.packets_forwarded();
}

void count_testbed(testbed::Testbed& tb, Counters& c) {
  for (const net::Link* l : tb.atm_uplinks()) count_link(*l, c);
  for (net::AtmSwitch* sw : {&tb.atm_juelich(), &tb.atm_gmd()})
    for (int p = 0; p < sw->port_count(); ++p) count_link(sw->egress_link(p), c);
  for (const auto& [name, h] : tb.hosts()) count_host(*h, c);
}

void add_budget(const obs::SpanTracer& tracer, UnitResult& r) {
  std::ostringstream out;
  tracer.write_json(out, "gtwbench");
  std::istringstream in(out.str());
  obs::SpanFile file;
  std::string error;
  if (!obs::load_spans(in, "gtwbench spans", file, error)) {
    r.ok = false;
    r.failure = "spans artifact does not load: " + error;
    return;
  }
  const obs::PhaseBudget b = obs::budget(file);
  for (const auto& [phase, ps] : b.phase_ps) r.budget_ps[phase] += ps;
  r.budget_total_ps += b.total_ps;
}

}  // namespace gtwbench
