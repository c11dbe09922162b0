// IP packet descriptor.  Payload bytes are not materialised (a 2.4 Gbit/s
// bulk transfer would churn gigabytes); instead packets carry sizes plus an
// optional shared, opaque payload handle that upper layers (the meta
// library, the FIRE pipeline) use to hand real data across the simulated
// network without copying.
#pragma once

#include <any>
#include <cstdint>
#include <memory>

#include "des/span_hook.hpp"

namespace gtw::net {

using HostId = std::uint32_t;
constexpr HostId kNoHost = 0xffffffff;

enum class IpProto : std::uint8_t { kTcp = 6, kUdp = 17 };

// TCP segment header, carried inline in the packet descriptor.  A 2.4 Gbit/s
// transfer moves millions of segments; boxing this into the shared payload
// handle (as early versions did) cost two heap allocations per segment —
// inline, a segment is allocation-free end to end.
struct TcpSegHeader {
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint32_t len = 0;
  bool valid = false;  // true iff this packet carries a TCP header
};

struct IpPacket {
  HostId src = kNoHost;
  HostId dst = kNoHost;
  IpProto proto = IpProto::kUdp;
  std::uint32_t total_bytes = 0;   // IP header + transport header + payload
  std::uint8_t ttl = 64;

  // Transport demultiplexing.
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  // Inline transport header (see TcpSegHeader).
  TcpSegHeader tcp;

  // Opaque application payload handle (meta-library messages, FIRE images);
  // transport *headers* live inline above — this is for upper-layer data
  // only, so the per-segment hot path never touches the heap.
  std::shared_ptr<const std::any> payload;

  // IP fragmentation state (RFC 791 semantics at packet granularity).
  std::uint32_t datagram_id = 0;
  std::uint32_t frag_offset = 0;   // bytes of transport data preceding this
  bool more_fragments = false;

  // Causal trace identity (DESIGN.md §13).  Rides the packet through
  // fragmentation, forwarding and retransmission; trace_id 0 = untraced.
  des::TraceContext ctx;
};

}  // namespace gtw::net
