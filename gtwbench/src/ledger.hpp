// Per-layer host-time ledger: a benchmark-local implementation of the
// public des::SpanHook interface.
//
// The ledger stamps host time and the allocation count at every
// on_event_fire / on_event_done and charges each event to one layer:
//   1. the layer named in the first begin_span / end_span / abort_span the
//      event makes; else
//   2. the layer of the span its trace context was scheduled under; else
//   3. `unattributed`.
// Time spent inside the ledger itself (and inside an optional
// obs::SpanTracer it forwards every call to) is measured and kept out of
// the layers, so a layer's time is the host time of its events' actions.
// The scheduler's own time per event (pop, calendar upkeep, hashing) is
// what remains of the run wall time once all action brackets are removed.
//
// Two benchmark-owned calls into layers that make no span of their own are
// charged by segment: scanner acquire (the ImageSource lambda) and fire
// analysis (AnalysisEngine::process_scan, which runs from the moment the
// lambda returns until the pipeline's next hook call).
//
// Observation only: the ledger never schedules or cancels, and the trace
// contexts it hands out have the semantics of obs::SpanTracer's, so the
// event stream (and Scheduler::stream_hash) is identical with and without it.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "des/scheduler.hpp"
#include "des/span_hook.hpp"
#include "obs/span.hpp"

namespace gtwbench {

enum class Layer : std::uint8_t {
  kUnattributed,
  kLink,
  kAtm,
  kHost,
  kTcp,
  kMeta,
  kFlow,
  kScanner,
  kFire,
  kCount,
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer l);

// Host clock of the benchmark, in nanoseconds.  On x86-64 it reads the
// time-stamp counter (invariant on every machine this targets), calibrated
// against steady_clock at start-up: a read costs a few nanoseconds instead
// of steady_clock's ~20, which matters when every event is stamped.
std::int64_t now_ns();

class Ledger final : public gtw::des::SpanHook {
 public:
  struct LayerCost {
    std::uint64_t events = 0;
    std::int64_t ns = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
  };
  struct Totals {
    std::array<LayerCost, kLayers> layer{};
    std::uint64_t events = 0;     // fired
    std::uint64_t scheduled = 0;  // on_event_scheduled calls
    std::uint64_t hook_calls = 0; // every SpanHook call the simulation made
    std::uint64_t forward_calls = 0;
    std::int64_t forward_ns = 0;  // inside the forwarded obs::SpanTracer
    std::int64_t bracket_ns = 0;  // fire entry -> done exit, summed
    std::int64_t run_ns = 0;      // Scheduler::run wall, from add_run()
    // Host cost of one clock read.  Every interval between two stamps
    // contains one read, so it is deducted once per interval from the
    // layer and scheduler times above.
    double clock_read_ns = 0.0;
    std::vector<double> segment_ms[kLayers];  // per segment, by layer
  };

  Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  // Installs the ledger on one op's scheduler and detaches it again before
  // the op's objects die.  Declare it after the Testbed / Scheduler /
  // transports it observes so it is destroyed first; `forward` (optional)
  // must outlive it too.
  class Attachment {
   public:
    Attachment(Ledger& ledger, gtw::des::Scheduler& sched,
               gtw::obs::SpanTracer* forward);
    ~Attachment();
    Attachment(const Attachment&) = delete;
    Attachment& operator=(const Attachment&) = delete;

   private:
    Ledger& ledger_;
    gtw::des::Scheduler& sched_;
  };

  // The workload reports the wall time of each Scheduler::run call it makes
  // while attached.
  void add_run(std::int64_t ns) { totals_.run_ns += ns; }

  // Benchmark-owned segments inside the running event (see file comment).
  void begin_segment(Layer l);
  void end_segment();
  // Opens a segment that ends at the next SpanHook call or event end.
  void segment_until_next_hook(Layer l);

  const Totals& totals() const { return totals_; }

  // --- des::SpanHook ---------------------------------------------------------
  void on_event_scheduled(std::uint64_t seq) override;
  void on_event_fire(std::uint64_t seq) override;
  void on_event_done() override;
  void on_event_cancel(std::uint64_t seq) override;
  gtw::des::TraceContext mint(const char* origin,
                              gtw::des::SimTime now) override;
  gtw::des::TraceContext current() const override;
  gtw::des::TraceContext adopt(gtw::des::TraceContext ctx) override;
  std::uint64_t begin_span(gtw::des::TraceContext parent,
                           gtw::des::SpanPhase phase, const char* layer,
                           const char* name, gtw::des::SimTime now) override;
  void end_span(std::uint64_t span_id, gtw::des::SimTime now) override;
  void abort_span(std::uint64_t span_id, gtw::des::SimTime now) override;
  void close_trace(gtw::des::TraceContext ctx, gtw::des::SimTime now) override;
  void abort_trace(gtw::des::TraceContext ctx, const char* reason,
                   gtw::des::SimTime now) override;

 private:
  // Brackets one nested hook call: closes an open until-next-hook segment,
  // pauses allocation counting and books the call's time as overhead.
  class CallScope;
  // Brackets the forwarded obs::SpanTracer call inside a hook call.
  class ForwardScope;

  void reset_op(gtw::obs::SpanTracer* forward);
  void close_segment(std::int64_t at);
  void note_span_layer(std::uint64_t span_id, Layer l);
  Layer span_layer(std::uint64_t span_id) const;
  void claim(Layer l) {
    if (in_event_ && event_layer_ == Layer::kCount) event_layer_ = l;
  }

  Totals totals_;
  gtw::obs::SpanTracer* forward_ = nullptr;

  // Context propagation when nothing is forwarded (mirrors SpanTracer).
  std::unordered_map<std::uint64_t, gtw::des::TraceContext> pending_;
  gtw::des::TraceContext current_;
  std::uint64_t next_trace_ = 0;
  std::uint64_t next_span_ = 0;
  std::vector<Layer> span_layers_;  // by span id

  // The event in flight.
  bool in_event_ = false;
  Layer event_layer_ = Layer::kCount;  // kCount: not claimed yet
  Layer context_layer_ = Layer::kUnattributed;
  std::int64_t fire_entry_ns_ = 0;
  std::int64_t fire_exit_ns_ = 0;
  std::int64_t hooks_ns_ = 0;     // nested hook calls within the event
  std::uint64_t intervals_ = 0;   // stamped intervals the action spans
  std::int64_t segments_ns_ = 0;  // segments within the event
  std::uint64_t allocs_at_fire_ = 0;
  std::uint64_t bytes_at_fire_ = 0;
  std::uint64_t segment_allocs_ = 0;
  std::uint64_t segment_bytes_ = 0;

  // The open segment.
  Layer segment_layer_ = Layer::kCount;  // kCount: none open
  bool segment_ends_at_hook_ = false;
  std::int64_t segment_start_ns_ = 0;
  std::uint64_t segment_allocs_at_ = 0;
  std::uint64_t segment_bytes_at_ = 0;
};

}  // namespace gtwbench
