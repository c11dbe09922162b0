// Compile-time dimensional analysis for the simulator.
//
// Every headline number this reproduction must match — SDH payload
// fractions, ATM cell tax, HiPPI vs OC-12 throughput, FIRE delay budgets —
// is a unit computation.  Outside SimTime (units/time.hpp) the tree used to pass raw
// doubles and integers: net spoke bit/s while exec spoke byte/s, and sizes
// were bare uint64_t that were sometimes bytes and sometimes bits.  This
// header makes such a mix-up a compile error:
//
//   amounts   Bytes, Bits, Cells (integer counts), Ops (floating work)
//   rates     BitRate, ByteRate, OpRate (per-second doubles)
//
// Rules (enforced by explicit constructors and the closed operator set;
// tests/units_compile_fail/ proves each forbidden mixing does not compile):
//
//   Bytes   -> Bits      only via the named Bytes::to_bits()
//   ByteRate<-> BitRate  only via to_bit_rate() / to_byte_rate()
//   Bytes / ByteRate     -> SimTime        (serialization time, exact —
//   Bits  / BitRate      -> SimTime         both delegate to
//   transmission_time(Bytes, BitRate)       the raw transmission_time)
//   BitRate  * SimTime   -> Bits
//   ByteRate * SimTime   -> Bytes
//   Ops / OpRate         -> double seconds (summed before SimTime rounding,
//                           as the execution model requires)
//
// The wrappers are zero-overhead: same size as the underlying scalar,
// trivially copyable, all amount arithmetic constexpr.  Cell packing for
// AAL5 (aal5_cells(Bytes) -> Cells) lives with the other ATM knowledge in
// net/units.hpp.
#pragma once

#include <cmath>
#include <cstdint>
#include <compare>
#include <string>
#include <type_traits>

#include "units/time.hpp"

namespace gtw::units {

class Bits;

// ---------------------------------------------------------------------------
// Amounts
// ---------------------------------------------------------------------------

// A count of octets.
class Bytes {
 public:
  constexpr Bytes() = default;
  constexpr explicit Bytes(std::uint64_t n) : n_(n) {}
  static constexpr Bytes zero() { return Bytes{0}; }

  constexpr std::uint64_t count() const { return n_; }
  constexpr double kib() const { return static_cast<double>(n_) / 1024.0; }
  constexpr double mib() const {
    return static_cast<double>(n_) / (1024.0 * 1024.0);
  }
  // The only Bytes -> Bits conversion; there is deliberately no implicit
  // path and no operator that accepts both.
  constexpr Bits to_bits() const;

  friend constexpr Bytes operator+(Bytes a, Bytes b) {
    return Bytes{a.n_ + b.n_};
  }
  friend constexpr Bytes operator-(Bytes a, Bytes b) {
    return Bytes{a.n_ - b.n_};
  }
  constexpr Bytes& operator+=(Bytes o) {
    n_ += o.n_;
    return *this;
  }
  constexpr Bytes& operator-=(Bytes o) {
    n_ -= o.n_;
    return *this;
  }
  friend constexpr Bytes operator*(Bytes a, std::uint64_t k) {
    return Bytes{a.n_ * k};
  }
  friend constexpr Bytes operator*(std::uint64_t k, Bytes a) { return a * k; }
  // Integer scalar division (window halving, chunking) — exactly
  // Bytes{count() / k}, so AIMD-style window math stays inside the type.
  friend constexpr Bytes operator/(Bytes a, std::uint64_t k) {
    return Bytes{a.n_ / k};
  }
  friend constexpr auto operator<=>(Bytes, Bytes) = default;

  std::string to_string() const;  // e.g. "9180 B", "64.0 KiB"

 private:
  std::uint64_t n_ = 0;
};

// A count of bits (wire-level: BER math, serialization).
class Bits {
 public:
  constexpr Bits() = default;
  constexpr explicit Bits(std::uint64_t n) : n_(n) {}
  static constexpr Bits zero() { return Bits{0}; }

  constexpr std::uint64_t count() const { return n_; }

  friend constexpr Bits operator+(Bits a, Bits b) { return Bits{a.n_ + b.n_}; }
  friend constexpr Bits operator-(Bits a, Bits b) { return Bits{a.n_ - b.n_}; }
  constexpr Bits& operator+=(Bits o) {
    n_ += o.n_;
    return *this;
  }
  friend constexpr Bits operator*(Bits a, std::uint64_t k) {
    return Bits{a.n_ * k};
  }
  friend constexpr Bits operator*(std::uint64_t k, Bits a) { return a * k; }
  friend constexpr auto operator<=>(Bits, Bits) = default;

  std::string to_string() const;

 private:
  std::uint64_t n_ = 0;
};

constexpr Bits Bytes::to_bits() const { return Bits{n_ * 8u}; }

// A count of ATM cells (53-byte wire quanta; produced by net::aal5_cells).
class Cells {
 public:
  constexpr Cells() = default;
  constexpr explicit Cells(std::uint64_t n) : n_(n) {}
  static constexpr Cells zero() { return Cells{0}; }

  constexpr std::uint64_t count() const { return n_; }

  friend constexpr Cells operator+(Cells a, Cells b) {
    return Cells{a.n_ + b.n_};
  }
  friend constexpr Cells operator-(Cells a, Cells b) {
    return Cells{a.n_ - b.n_};
  }
  constexpr Cells& operator+=(Cells o) {
    n_ += o.n_;
    return *this;
  }
  friend constexpr Cells operator*(Cells a, std::uint64_t k) {
    return Cells{a.n_ * k};
  }
  friend constexpr Cells operator*(std::uint64_t k, Cells a) { return a * k; }
  friend constexpr auto operator<=>(Cells, Cells) = default;

  std::string to_string() const;

 private:
  std::uint64_t n_ = 0;
};

// An amount of abstract machine operations (the execution model's work
// currency; floating because estimates are products of model constants).
class Ops {
 public:
  constexpr Ops() = default;
  constexpr explicit Ops(double n) : n_(n) {}
  static constexpr Ops zero() { return Ops{0.0}; }

  constexpr double count() const { return n_; }

  friend constexpr Ops operator+(Ops a, Ops b) { return Ops{a.n_ + b.n_}; }
  friend constexpr Ops operator-(Ops a, Ops b) { return Ops{a.n_ - b.n_}; }
  constexpr Ops& operator+=(Ops o) {
    n_ += o.n_;
    return *this;
  }
  friend constexpr Ops operator*(Ops a, double k) { return Ops{a.n_ * k}; }
  friend constexpr Ops operator*(double k, Ops a) { return a * k; }
  constexpr Ops& operator*=(double k) {
    n_ *= k;
    return *this;
  }
  friend constexpr auto operator<=>(Ops, Ops) = default;

  std::string to_string() const;  // e.g. "1.35 Mop"

 private:
  double n_ = 0.0;
};

// ---------------------------------------------------------------------------
// Rates
// ---------------------------------------------------------------------------

class ByteRate;

// Bits per second: line and goodput rates (the paper's native unit).
class BitRate {
 public:
  constexpr BitRate() = default;
  constexpr explicit BitRate(double bits_per_s) : v_(bits_per_s) {}

  static constexpr BitRate bps(double v) { return BitRate{v}; }
  static constexpr BitRate kbps(double v) { return BitRate{v * 1e3}; }
  static constexpr BitRate mbps(double v) { return BitRate{v * 1e6}; }
  static constexpr BitRate gbps(double v) { return BitRate{v * 1e9}; }

  constexpr double bps() const { return v_; }
  constexpr double kbps() const { return v_ / 1e3; }
  constexpr double mbps() const { return v_ / 1e6; }
  constexpr double gbps() const { return v_ / 1e9; }

  // The only BitRate -> ByteRate conversion.
  constexpr ByteRate to_byte_rate() const;

  friend constexpr BitRate operator*(BitRate r, double k) {
    return BitRate{r.v_ * k};
  }
  friend constexpr BitRate operator*(double k, BitRate r) { return r * k; }
  friend constexpr BitRate operator/(BitRate r, double k) {
    return BitRate{r.v_ / k};
  }
  friend constexpr double operator/(BitRate a, BitRate b) {
    return a.v_ / b.v_;
  }
  friend constexpr BitRate operator+(BitRate a, BitRate b) {
    return BitRate{a.v_ + b.v_};
  }
  friend constexpr BitRate operator-(BitRate a, BitRate b) {
    return BitRate{a.v_ - b.v_};
  }
  friend constexpr auto operator<=>(BitRate, BitRate) = default;

  std::string to_string() const;  // e.g. "622.08 Mbit/s"

 private:
  double v_ = 0.0;  // bit per second
};

// Bytes per second: memory-system and interconnect bandwidths (exec).
class ByteRate {
 public:
  constexpr ByteRate() = default;
  constexpr explicit ByteRate(double bytes_per_s) : v_(bytes_per_s) {}

  static constexpr ByteRate per_sec(double v) { return ByteRate{v}; }

  constexpr double per_sec() const { return v_; }

  // The only ByteRate -> BitRate conversion.
  constexpr BitRate to_bit_rate() const { return BitRate{v_ * 8.0}; }

  friend constexpr ByteRate operator*(ByteRate r, double k) {
    return ByteRate{r.v_ * k};
  }
  friend constexpr ByteRate operator*(double k, ByteRate r) { return r * k; }
  friend constexpr ByteRate operator/(ByteRate r, double k) {
    return ByteRate{r.v_ / k};
  }
  friend constexpr double operator/(ByteRate a, ByteRate b) {
    return a.v_ / b.v_;
  }
  friend constexpr auto operator<=>(ByteRate, ByteRate) = default;

  std::string to_string() const;  // e.g. "300.0 MB/s"

 private:
  double v_ = 0.0;  // byte per second
};

constexpr ByteRate BitRate::to_byte_rate() const { return ByteRate{v_ / 8.0}; }

// Operations per second: effective sustained machine speed (exec).
class OpRate {
 public:
  constexpr OpRate() = default;
  constexpr explicit OpRate(double ops_per_s) : v_(ops_per_s) {}

  static constexpr OpRate per_sec(double v) { return OpRate{v}; }

  constexpr double per_sec() const { return v_; }

  friend constexpr OpRate operator*(OpRate r, double k) {
    return OpRate{r.v_ * k};
  }
  friend constexpr OpRate operator*(double k, OpRate r) { return r * k; }
  friend constexpr auto operator<=>(OpRate, OpRate) = default;

  std::string to_string() const;  // e.g. "46.0 Mop/s"

 private:
  double v_ = 0.0;  // operations per second
};

// ---------------------------------------------------------------------------
// Cross-dimension arithmetic
// ---------------------------------------------------------------------------

// Exact serialization time of an amount at a rate, rounded up to the next
// picosecond so repeated sends never run ahead of the wire.  Delegates to
// the raw transmission_time so the arithmetic is bit-identical with the
// pre-typed code paths.
inline SimTime transmission_time(Bytes amount, BitRate rate) {
  return transmission_time(amount.count(), rate.bps());
}

inline SimTime operator/(Bytes amount, ByteRate rate) {
  return transmission_time(amount, rate.to_bit_rate());
}

inline SimTime operator/(Bits amount, BitRate rate) {
  // bits == bytes * 8 exactly in IEEE double (scaling by a power of two),
  // so this matches transmission_time(Bytes, BitRate) for whole bytes.
  const double ps = static_cast<double>(amount.count()) * 1e12 / rate.bps();
  return SimTime::picoseconds(static_cast<std::int64_t>(std::ceil(ps)));
}

// Amount accumulated over a time span (rounded to the nearest whole unit).
inline Bits operator*(BitRate rate, SimTime t) {
  return Bits{static_cast<std::uint64_t>(rate.bps() * t.sec() + 0.5)};
}
inline Bits operator*(SimTime t, BitRate rate) { return rate * t; }

inline Bytes operator*(ByteRate rate, SimTime t) {
  return Bytes{static_cast<std::uint64_t>(rate.per_sec() * t.sec() + 0.5)};
}
inline Bytes operator*(SimTime t, ByteRate rate) { return rate * t; }

// Work over speed: seconds as a double, NOT a SimTime — the execution model
// sums several of these before rounding once (exec::time_on), and rounding
// each term separately would change Table-1 outputs.
constexpr double operator/(Ops work, OpRate rate) {
  return work.count() / rate.per_sec();
}

// An amount per period (e.g. a CBR frame each cadence tick).
inline BitRate per(Bits amount, SimTime period) {
  return BitRate::bps(static_cast<double>(amount.count()) / period.sec());
}

// ---------------------------------------------------------------------------
// Zero-overhead guarantees
// ---------------------------------------------------------------------------

static_assert(sizeof(Bytes) == sizeof(std::uint64_t));
static_assert(sizeof(Bits) == sizeof(std::uint64_t));
static_assert(sizeof(Cells) == sizeof(std::uint64_t));
static_assert(sizeof(Ops) == sizeof(double));
static_assert(sizeof(BitRate) == sizeof(double));
static_assert(sizeof(ByteRate) == sizeof(double));
static_assert(sizeof(OpRate) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Bytes> &&
              std::is_trivially_copyable_v<Bits> &&
              std::is_trivially_copyable_v<Cells> &&
              std::is_trivially_copyable_v<Ops> &&
              std::is_trivially_copyable_v<BitRate> &&
              std::is_trivially_copyable_v<ByteRate> &&
              std::is_trivially_copyable_v<OpRate>);

}  // namespace gtw::units
