// Unreliable datagram service (UDP semantics) plus the receiving end of a
// constant-bit-rate stream.  CBR models the testbed's multimedia project:
// an uncompressed D1 studio video stream is 270 Mbit/s of fixed-cadence
// frames over ATM (paper, section 3).  The sending end is a
// flow::PeriodicSource feeding a flow::datagram_transfer_stage.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <string>

#include "des/scheduler.hpp"
#include "des/stats.hpp"
#include "net/host.hpp"
#include "net/units.hpp"

namespace gtw::net {

// Thin convenience wrapper over Host::bind/send_datagram.
class DatagramSocket {
 public:
  using Handler = std::function<void(const IpPacket&)>;

  DatagramSocket(Host& host, std::uint16_t port);
  ~DatagramSocket();
  DatagramSocket(const DatagramSocket&) = delete;
  DatagramSocket& operator=(const DatagramSocket&) = delete;

  void on_receive(Handler h) { handler_ = std::move(h); }
  // Send `payload` of application data (plus UDP/IP headers) to the peer,
  // optionally carrying an opaque body.
  void send_to(HostId dst, std::uint16_t dst_port, units::Bytes payload,
               std::any body = {});

  Host& host() { return host_; }
  std::uint16_t port() const { return port_; }

 private:
  Host& host_;
  std::uint16_t port_;
  Handler handler_;
};

// Receiving side: counts frames and bytes and measures inter-arrival
// jitter.  Loss is counted by the session, which knows what was sent.
class CbrSink {
 public:
  CbrSink(Host& host, std::uint16_t port);

  std::uint64_t frames_received() const { return received_; }
  units::Bytes bytes_received() const { return units::Bytes{bytes_}; }
  units::BitRate goodput(des::SimTime window) const;
  const des::RunningStats& interarrival_ms() const { return interarrival_; }

 private:
  DatagramSocket socket_;
  std::uint64_t received_ = 0;
  std::uint64_t bytes_ = 0;
  des::SimTime first_arrival_;
  des::SimTime last_arrival_;
  bool any_ = false;
  des::RunningStats interarrival_;
};

}  // namespace gtw::net
