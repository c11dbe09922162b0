// Rate and size constants for the network substrate, expressed in the
// strong unit types from units/units.hpp.  The named constants match the
// technologies deployed in the Gigabit Testbed West (HPDC'99 paper,
// section 2): line rates are units::BitRate, sizes are units::Bytes, and
// AAL5 cell packing is available both raw (for in-packet uint32 math) and
// typed (units::Bytes -> units::Cells).
#pragma once

#include <cstdint>

#include "units/units.hpp"

namespace gtw::net {

// SDH/SONET line rates and their usable payload after section/path overhead.
// STM-1 carries 149.76 Mbit/s of payload in a 155.52 Mbit/s line; the ratio
// (~0.963) is the same for the concatenated higher rates used in the testbed.
constexpr double kSdhPayloadFraction = 149.76 / 155.52;

constexpr units::BitRate kOc3Line =
    units::BitRate::mbps(155.52);  // STM-1  (B-WiN access, SP2 nodes)
constexpr units::BitRate kOc12Line =
    units::BitRate::mbps(622.08);  // STM-4  (testbed 1997, host NICs)
constexpr units::BitRate kOc48Line =
    units::BitRate::mbps(2488.32);  // STM-16 (testbed since Aug 1998)

constexpr units::BitRate kHippiRate =
    units::BitRate::mbps(800.0);  // HiPPI channel peak

// ATM constants.
constexpr std::uint32_t kAtmCellBytes = 53;
constexpr std::uint32_t kAtmCellPayload = 48;
constexpr std::uint32_t kAal5TrailerBytes = 8;

// IPv4 and TCP header sizes (no options).
constexpr std::uint32_t kIpHeaderBytes = 20;
constexpr std::uint32_t kTcpHeaderBytes = 20;
constexpr std::uint32_t kUdpHeaderBytes = 8;
// LLC/SNAP encapsulation for Classical IP over ATM (RFC 1483/1577).
constexpr std::uint32_t kLlcSnapBytes = 8;

// Default MTUs.
constexpr units::Bytes kMtuEthernet{1500};
constexpr units::Bytes kMtuAtmDefault{9180};  // RFC 1577 default
constexpr units::Bytes kMtuAtmFore{65535};    // Fore adapters: 64 KByte MTU
constexpr units::Bytes kMtuHippi{65280};      // HiPPI-LE style large MTU

// Speed of light in fibre: ~5 us per km.
constexpr double kFiberDelaySecPerKm = 5e-6;

// Number of ATM cells needed for an AAL5 PDU of `pdu_bytes` (payload +
// LLC/SNAP already included by the caller); the 8-byte AAL5 trailer must fit
// in the last cell, with zero padding up to a cell boundary.
// gtw-lint: allow(unitless-size-param)
constexpr std::uint32_t aal5_cells(std::uint32_t pdu_bytes) {
  return (pdu_bytes + kAal5TrailerBytes + kAtmCellPayload - 1) / kAtmCellPayload;
}

// Bytes actually on the wire for an AAL5 PDU (cell tax included).
// gtw-lint: allow(unitless-size-param)
constexpr std::uint32_t aal5_wire_bytes(std::uint32_t pdu_bytes) {
  return aal5_cells(pdu_bytes) * kAtmCellBytes;
}

// Typed cell packing: the preferred entry points for new code.  These are
// the unit-system boundary itself — the typed wrappers over the raw AAL5
// framing arithmetic above — so extracting the raw count here is the point.
constexpr units::Cells aal5_cells(units::Bytes pdu) {
  // gtw-lint: allow(unit-escape) — conversion-layer wrapper over raw aal5_cells()
  return units::Cells{aal5_cells(static_cast<std::uint32_t>(pdu.count()))};
}
constexpr units::Bytes aal5_wire_bytes(units::Bytes pdu) {
  // gtw-lint: allow(unit-escape) — conversion-layer wrapper over raw aal5_wire_bytes()
  return units::Bytes{aal5_wire_bytes(static_cast<std::uint32_t>(pdu.count()))};
}

}  // namespace gtw::net
