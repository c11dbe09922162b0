#include "net/datagram.hpp"

namespace gtw::net {

DatagramSocket::DatagramSocket(Host& host, std::uint16_t port)
    : host_(host), port_(port) {
  host_.bind(IpProto::kUdp, port_, [this](const IpPacket& pkt) {
    if (handler_) handler_(pkt);
  });
}

DatagramSocket::~DatagramSocket() { host_.unbind(IpProto::kUdp, port_); }

void DatagramSocket::send_to(HostId dst, std::uint16_t dst_port,
                             units::Bytes payload, std::any body) {
  IpPacket pkt;
  pkt.dst = dst;
  pkt.proto = IpProto::kUdp;
  pkt.src_port = port_;
  pkt.dst_port = dst_port;
  pkt.total_bytes = static_cast<std::uint32_t>(payload.count()) +
                    kIpHeaderBytes + kUdpHeaderBytes;
  if (body.has_value())
    pkt.payload = std::make_shared<const std::any>(std::move(body));
  host_.send_datagram(std::move(pkt));
}

CbrSink::CbrSink(Host& host, std::uint16_t port) : socket_(host, port) {
  socket_.on_receive([this](const IpPacket& pkt) {
    const des::SimTime now = socket_.host().scheduler().now();
    if (any_) interarrival_.add((now - last_arrival_).ms());
    if (!any_) first_arrival_ = now;
    any_ = true;
    last_arrival_ = now;
    ++received_;
    bytes_ += pkt.total_bytes - kIpHeaderBytes - kUdpHeaderBytes;
  });
}

units::BitRate CbrSink::goodput(des::SimTime window) const {
  if (window <= des::SimTime::zero()) return units::BitRate::bps(0.0);
  return units::per(units::Bytes{bytes_}.to_bits(), window);
}

}  // namespace gtw::net
