#include "net/host.hpp"

#include <cassert>
#include <cmath>

#include "net/units.hpp"

namespace gtw::net {

Host::Host(des::Scheduler& sched, std::string name, HostId id, HostCosts costs)
    : sched_(sched), name_(std::move(name)), id_(id), costs_(costs),
      cpu_(sched, name_ + ".cpu") {}

void Host::add_route(HostId dst, Nic* nic, HostId next_hop) {
  routes_[dst] = Route{nic, next_hop};
}

void Host::set_default_route(Nic* nic, HostId next_hop) {
  default_route_ = Route{nic, next_hop};
}

const Host::Route* Host::lookup(HostId dst) const {
  if (auto it = routes_.find(dst); it != routes_.end()) return &it->second;
  if (default_route_.nic != nullptr) return &default_route_;
  return nullptr;
}

units::Bytes Host::route_mtu(HostId dst) const {
  const Route* r = lookup(dst);
  return r != nullptr ? r->nic->mtu() : units::Bytes::zero();
}

des::SimTime Host::send_cost(const IpPacket& pkt) const {
  return costs_.per_packet_send +
         des::SimTime::picoseconds(static_cast<std::int64_t>(
             costs_.per_byte_send_ns * 1e3 * pkt.total_bytes));
}

des::SimTime Host::recv_cost(const IpPacket& pkt) const {
  return costs_.per_packet_recv +
         des::SimTime::picoseconds(static_cast<std::int64_t>(
             costs_.per_byte_recv_ns * 1e3 * pkt.total_bytes));
}

void Host::send_datagram(IpPacket pkt) {
  if (!up_) {
    ++outage_drops_;
    return;
  }
  const Route* route = lookup(pkt.dst);
  if (route == nullptr) {
    ++unroutable_;
    return;
  }
  pkt.src = id_;
  if (pkt.datagram_id == 0)
    pkt.datagram_id = static_cast<std::uint32_t>(next_datagram_id());
  // Workload origins upstream (tcp, meta, flow) stamp the context before
  // reaching here; an unstamped packet inherits the running event's trace.
  if (!pkt.ctx.valid()) pkt.ctx = sched_.current_trace();

  const std::uint32_t mtu =
      static_cast<std::uint32_t>(route->nic->mtu().count());
  if (pkt.total_bytes <= mtu) {
    emit(std::move(pkt), *route);
    return;
  }

  // IP fragmentation: split the transport payload into MTU-sized pieces,
  // each re-carrying the 20-byte IP header; offsets are 8-byte aligned as
  // in RFC 791.
  const std::uint32_t payload = pkt.total_bytes - kIpHeaderBytes;
  const std::uint32_t per_frag = ((mtu - kIpHeaderBytes) / 8) * 8;
  std::uint32_t offset = 0;
  while (offset < payload) {
    const std::uint32_t chunk = std::min(per_frag, payload - offset);
    IpPacket frag = pkt;
    frag.total_bytes = chunk + kIpHeaderBytes;
    frag.frag_offset = offset;
    frag.more_fragments = (offset + chunk) < payload;
    // Only the first fragment carries the transport header and payload.
    if (offset != 0) {
      frag.tcp = TcpSegHeader{};
      frag.payload.reset();
    }
    offset += chunk;
    emit(std::move(frag), *route);
  }
}

void Host::emit(IpPacket pkt, const Route& route) {
  // Covers both the wait behind earlier packets on the serialized CPU
  // and this packet's own protocol cost.
  const std::uint64_t span =
      pkt.ctx.valid() ? sched_.begin_span(pkt.ctx, des::SpanPhase::kHostCpu,
                                          "host", name_.c_str())
                      : 0;
  des::TraceScope scope(sched_, pkt.ctx);
  cpu_.execute(send_cost(pkt),
               [this, pkt = std::move(pkt), &route, span]() mutable {
                 sched_.end_span(span);
                 ++packets_sent_;
                 route.nic->transmit(std::move(pkt), route.next_hop);
               });
}

void Host::receive_from_nic(IpPacket pkt) {
  ++nic_arrivals_;
  if (!up_) {
    ++outage_drops_;
    ++recv_outage_drops_;
    return;
  }
  const std::uint64_t span =
      pkt.ctx.valid() ? sched_.begin_span(pkt.ctx, des::SpanPhase::kHostCpu,
                                          "host", name_.c_str())
                      : 0;
  des::TraceScope scope(sched_, pkt.ctx);
  cpu_.execute(recv_cost(pkt), [this, pkt = std::move(pkt), span]() mutable {
    sched_.end_span(span);
    if (pkt.dst != id_) {
      if (!forwarding_ || pkt.ttl == 0) {
        ++unroutable_;
        ++recv_unroutable_;
        return;
      }
      const Route* route = lookup(pkt.dst);
      if (route == nullptr) {
        ++unroutable_;
        ++recv_unroutable_;
        return;
      }
      --pkt.ttl;
      ++packets_forwarded_;
      // Forwarding charges send-side cost too (store-and-forward stack).
      emit(std::move(pkt), *route);
      return;
    }
    ++packets_received_;
    deliver_local(std::move(pkt));
  });
}

void Host::deliver_local(IpPacket pkt) {
  if (pkt.frag_offset == 0 && !pkt.more_fragments) {
    dispatch(pkt);
    return;
  }
  // Reassembly keyed by (src, datagram id).
  const std::uint64_t key =
      (static_cast<std::uint64_t>(pkt.src) << 32) ^ pkt.datagram_id;
  Reassembly& re = reassembly_[key];
  if (re.received_bytes == 0 && !re.timeout.pending()) {
    re.timeout = sched_.schedule_after(
        des::SimTime::milliseconds(500),
        [this, key]() {
          auto it = reassembly_.find(key);
          if (it == reassembly_.end()) return;
          sched_.abort_span(it->second.span);
          reassembly_.erase(it);
        });
    if (pkt.ctx.valid())
      re.span = sched_.begin_span(pkt.ctx, des::SpanPhase::kReassemblyWait,
                                  "host", name_.c_str());
  }
  re.received_bytes += pkt.total_bytes - kIpHeaderBytes;
  if (pkt.frag_offset == 0) re.first = pkt;
  if (!pkt.more_fragments)
    re.total_bytes = pkt.frag_offset + pkt.total_bytes - kIpHeaderBytes;

  if (re.total_bytes != 0 && re.received_bytes >= re.total_bytes) {
    IpPacket whole = re.first;
    whole.total_bytes = re.total_bytes + kIpHeaderBytes;
    whole.frag_offset = 0;
    whole.more_fragments = false;
    re.timeout.cancel();
    sched_.end_span(re.span);
    reassembly_.erase(key);
    dispatch(whole);
  }
}

void Host::dispatch(const IpPacket& pkt) {
  auto it = handlers_.find({static_cast<std::uint8_t>(pkt.proto), pkt.dst_port});
  if (it != handlers_.end()) it->second(pkt);
}

void Host::bind(IpProto proto, std::uint16_t port, PortHandler handler) {
  handlers_[{static_cast<std::uint8_t>(proto), port}] = std::move(handler);
}

void Host::unbind(IpProto proto, std::uint16_t port) {
  handlers_.erase({static_cast<std::uint8_t>(proto), port});
}

}  // namespace gtw::net
