// Simulation-wide observability registry (the profile half of the VAMPIR
// tooling the paper leans on in section 3 — "performance evaluation and
// tuning of metacomputing applications").
//
// A Registry is a hierarchy-by-naming-convention of instruments with dotted
// names ("net.link.fzj-gmd.tx_bytes", "des.sched.live_events",
// "fire.stage.motion.busy_ps").  Two kinds of instrument:
//
//   Counter    monotone uint64 (events, bytes, drops); add()
//   probes     named read-only functions evaluated at snapshot/sample time,
//              a counter (uint64) or a gauge (double), so components expose
//              state (queue depth, cwnd, utilization) without the registry
//              scheduling anything or the component storing one more
//              counter.
//
// Determinism contract: the registry never touches the scheduler, never
// reads wall-clock time, and iterates instruments in lexicographic name
// order (std::map), so a snapshot of the same simulation is byte-identical
// run to run and instrumentation cannot perturb the DES schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "des/time.hpp"

namespace gtw::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// A begin/end event marker on the DES clock (fault begin/end, phase
// boundaries); exported as instant events in the Chrome trace.
struct Mark {
  des::SimTime t;
  std::string name;
  bool begin = true;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Define-or-fetch a counter by dotted name.  Re-requesting it returns the
  // same counter; requesting a name a probe holds throws std::logic_error —
  // a name collision is a wiring bug, not something to paper over.
  Counter& counter(const std::string& name);

  // Read-only probes: evaluated on every snapshot()/read(); must only read
  // simulation state (they run inside const snapshots and must not
  // schedule, mutate, or allocate observable state).
  void probe_counter(const std::string& name, std::function<std::uint64_t()> fn);
  void probe_gauge(const std::string& name, std::function<double()> fn);

  void mark(const std::string& name, des::SimTime t, bool begin);
  const std::vector<Mark>& marks() const { return marks_; }

  bool contains(const std::string& name) const;
  std::size_t size() const { return instruments_.size(); }

  // Scalar read of one instrument (counters widen to double).  Throws
  // std::out_of_range on unknown names.
  double read(const std::string& name) const;

  enum class Kind { kCounter, kGauge };

  struct Sample {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t u = 0;  // counters
    double d = 0.0;       // gauges
  };

  // Stable-ordered (lexicographic by name) flattened view; probes are
  // evaluated in place.
  std::vector<Sample> snapshot() const;

 private:
  struct Instrument {
    Kind kind = Kind::kCounter;
    // A gauge is always a probe (gauge_fn); a counter holds its value
    // unless it is a probe (counter_fn).
    Counter counter;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
  };

  std::map<std::string, Instrument> instruments_;
  std::vector<Mark> marks_;
};

}  // namespace gtw::obs
