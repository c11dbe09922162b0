// national_star: the 32-site / 2081-host / 4160-link national star of
// des_speed, rebuilt here from the public net::Host / net::Link / net::Nic
// API, carrying seeded 100k x 3-datagram UDP flows over 0.3 s with every
// link exact.  One unit = one star run; one op = one fixed slice of
// simulated time driven by Scheduler::run(horizon).
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/units.hpp"

namespace gtwbench {

using namespace gtw;

namespace {

constexpr std::uint64_t kSalt = 0x6e6174696f6e616cULL;  // "national"
constexpr int kSites = 32;
constexpr int kLeavesPerSite = 64;
constexpr std::uint64_t kFlows = 100'000;
constexpr int kDatagramsPerFlow = 3;
constexpr std::uint32_t kPayloadBytes = 4096;
constexpr double kWindowS = 0.3;  // flow starts spread over this span
const des::SimTime kSlice = des::SimTime::milliseconds(2);

// Point-to-point NIC: every packet goes onto one fixed egress link whose
// far end delivers to the peer host.
class P2pNic final : public net::Nic {
 public:
  P2pNic(net::Host& owner, std::string name, units::Bytes mtu,
         net::Link& link)
      : net::Nic(owner, std::move(name), mtu), link_(link) {}
  void transmit(net::IpPacket pkt, net::HostId) override {
    net::Frame f;
    f.wire_bytes = pkt.total_bytes + 8;  // LLC/SNAP-style encapsulation
    f.pkt = std::move(pkt);
    link_.submit(std::move(f));
  }

 private:
  net::Link& link_;
};

struct Star {
  des::Scheduler sched;
  std::vector<std::unique_ptr<net::Host>> hosts;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<P2pNic>> nics;
  std::vector<net::Host*> leaves;
  std::uint64_t delivered = 0;
  des::SimTime last_delivery = des::SimTime::zero();
};

void build(Star& st) {
  const units::Bytes mtu{9180};
  auto add_host = [&](const std::string& name,
                      net::HostCosts costs) -> net::Host* {
    const auto id = static_cast<net::HostId>(st.hosts.size());
    st.hosts.push_back(
        std::make_unique<net::Host>(st.sched, name, id, costs));
    return st.hosts.back().get();
  };
  // One direction of a fibre: the link from `a` to `b` and the NIC on `a`
  // that feeds it.
  auto add_simplex = [&](net::Host* a, net::Host* b, units::BitRate rate,
                         des::SimTime prop, units::Bytes qlimit) -> P2pNic* {
    net::Link::Config cfg;
    cfg.rate = rate;
    cfg.propagation = prop;
    cfg.queue_limit = qlimit;
    cfg.fidelity = net::LinkFidelity::kExact;
    st.links.push_back(std::make_unique<net::Link>(
        st.sched, a->name() + ">" + b->name(), cfg));
    net::Link* l = st.links.back().get();
    l->set_sink([b](net::Frame f) { b->receive_from_nic(std::move(f.pkt)); });
    st.nics.push_back(
        std::make_unique<P2pNic>(*a, a->name() + ".nic", mtu, *l));
    return st.nics.back().get();
  };

  // Switch-class routers: sub-microsecond per packet.
  const net::HostCosts router{des::SimTime::nanoseconds(100),
                              des::SimTime::nanoseconds(100), 0.02, 0.02};
  const units::BitRate leaf_rate = net::kOc12Line * net::kSdhPayloadFraction;
  const units::BitRate trunk_rate = net::kOc48Line * net::kSdhPayloadFraction;
  const auto leaf_prop = des::SimTime::microseconds(5);   // metro fibre
  const auto trunk_prop = des::SimTime::milliseconds(1);  // ~200 km

  net::Host* core = add_host("core", router);
  core->set_forwarding(true);
  for (int s = 0; s < kSites; ++s) {
    const std::string sname = "s" + std::to_string(s);
    net::Host* r = add_host(sname, router);
    r->set_forwarding(true);
    P2pNic* up = add_simplex(r, core, trunk_rate, trunk_prop,
                             units::Bytes{8u << 20});
    P2pNic* down = add_simplex(core, r, trunk_rate, trunk_prop,
                               units::Bytes{8u << 20});
    r->set_default_route(up, core->id());
    for (int h = 0; h < kLeavesPerSite; ++h) {
      net::Host* leaf =
          add_host(sname + ".h" + std::to_string(h), net::HostCosts{});
      P2pNic* leaf_up = add_simplex(leaf, r, leaf_rate, leaf_prop,
                                    units::Bytes{2u << 20});
      P2pNic* r_down = add_simplex(r, leaf, leaf_rate, leaf_prop,
                                   units::Bytes{2u << 20});
      leaf->set_default_route(leaf_up, r->id());
      r->add_route(leaf->id(), r_down, leaf->id());
      core->add_route(leaf->id(), down, r->id());
      leaf->bind(net::IpProto::kUdp, 9, [&st](const net::IpPacket&) {
        ++st.delivered;
        st.last_delivery = st.sched.now();
      });
      st.leaves.push_back(leaf);
    }
  }
}

// The flows: seeded leaf pairs, starts uniform over the window.  Each
// start mints a trace when a hook is attached, so the packets it sends
// (Host stamps current() onto context-less packets) and every event they
// cause are attributed instead of falling into `unattributed`.  Returns a
// digest of the drawn flows.
std::uint64_t schedule_flows(Star& st, des::Rng& rng) {
  const auto window_ps = static_cast<std::uint64_t>(kWindowS * 1e12);
  const std::size_t n = st.leaves.size();
  std::uint64_t digest = 14695981039346656037ULL;
  for (std::uint64_t f = 0; f < kFlows; ++f) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(n));
    auto dst = static_cast<std::size_t>(rng.uniform_int(n));
    if (dst == src) dst = (dst + 1) % n;
    const auto start =
        static_cast<std::int64_t>(1 + rng.uniform_int(window_ps));
    digest = (digest ^ (src * n + dst) ^ static_cast<std::uint64_t>(start)) *
             1099511628211ULL;
    st.sched.schedule_at(
        des::SimTime::picoseconds(start),
        [&sched = st.sched, h = st.leaves[src], to = st.leaves[dst]->id()] {
          if (des::SpanHook* hook = sched.span_hook())
            hook->mint("net.national", sched.now());
          for (int i = 0; i < kDatagramsPerFlow; ++i) {
            net::IpPacket p;
            p.dst = to;
            p.proto = net::IpProto::kUdp;
            p.total_bytes = kPayloadBytes + net::kIpHeaderBytes;
            p.dst_port = 9;
            h->send_datagram(p);
          }
        });
  }
  return digest;
}

}  // namespace

UnitResult run_national_star(std::uint64_t seed, std::uint64_t unit,
                             Tracing tracing) {
  Ledger* const ledger = tracing.ledger;
  des::Rng rng = unit_rng(seed, unit, kSalt);
  UnitResult r;

  const std::int64_t t_setup = now_ns();
  Star st;
  build(st);
  r.national_build_ms = static_cast<double>(now_ns() - t_setup) / 1e6;
  // Declared after the star it observes: detaches before the star dies.
  std::optional<Ledger::Attachment> attached;
  if (ledger != nullptr) attached.emplace(*ledger, st.sched, nullptr);
  const std::uint64_t flows = schedule_flows(st, rng);
  r.setup_s = seconds_since(t_setup);
  {
    char buf[48];
    std::snprintf(buf, sizeof buf, "flows#%012llx",
                  static_cast<unsigned long long>(flows & 0xffffffffffffULL));
    r.scenario = buf;
  }

  for (des::SimTime h = kSlice; !st.sched.empty(); h = h + kSlice) {
    const double ms = timed_run(st.sched, ledger, h);
    r.op_ms.push_back(ms);
    r.run_ms += ms;
  }

  Counters& c = r.counters;
  for (const auto& l : st.links) count_link(*l, c);
  for (const auto& h : st.hosts) count_host(*h, c);
  c.pending_peak = st.sched.pool_high_water();

  // Oracle: every datagram of every flow delivered, nothing dropped.  A
  // failed end-of-run check fails every slice of the run.
  const std::uint64_t expect = kFlows * kDatagramsPerFlow;
  if (st.delivered != expect || c.link_drops != 0) {
    r.failure = "delivered " + std::to_string(st.delivered) + " of " +
                std::to_string(expect) + " datagrams, " +
                std::to_string(c.link_drops) + " dropped";
  }
  r.ok = r.failure.empty();

  r.delivered_mb = static_cast<double>(st.delivered) * kPayloadBytes / 1e6;
  r.sim_s = st.last_delivery.sec();
  r.goodput_mbps = r.sim_s > 0.0 ? r.delivered_mb * 8.0 / r.sim_s : 0.0;
  r.events = st.sched.events_executed();
  r.stream_hash = st.sched.stream_hash();
  return r;
}

}  // namespace gtwbench
