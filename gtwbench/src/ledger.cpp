#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "alloc_counter.hpp"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace gtwbench {

namespace des = gtw::des;

namespace {
std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#if defined(__x86_64__)
struct TscClock {
  std::uint64_t base = __rdtsc();
  double ns_per_tick = 1.0;
  // Spins 20 ms against steady_clock.
  TscClock() {
    const std::int64_t s0 = steady_ns();
    const std::uint64_t c0 = __rdtsc();
    std::int64_t s1 = s0;
    while (s1 - s0 < 20'000'000) s1 = steady_ns();
    ns_per_tick = static_cast<double>(s1 - s0) /
                  static_cast<double>(__rdtsc() - c0);
  }
};
const TscClock g_tsc;
#endif
}  // namespace

std::int64_t now_ns() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(static_cast<double>(__rdtsc() - g_tsc.base) *
                                   g_tsc.ns_per_tick);
#else
  return steady_ns();
#endif
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kUnattributed: return "unattributed";
    case Layer::kLink: return "link";
    case Layer::kAtm: return "atm";
    case Layer::kHost: return "host";
    case Layer::kTcp: return "tcp";
    case Layer::kMeta: return "meta";
    case Layer::kFlow: return "flow";
    case Layer::kScanner: return "scanner";
    case Layer::kFire: return "fire";
    case Layer::kCount: break;
  }
  return "?";
}

namespace {

// Span layer names as the components pass them, or a trace origin's prefix
// ("meta.path", "comm.wan", "flow.push", "net.national").
Layer layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  const std::size_t n = dot != nullptr ? static_cast<std::size_t>(dot - name)
                                       : std::strlen(name);
  auto is = [&](const char* s) {
    return std::strlen(s) == n && std::strncmp(name, s, n) == 0;
  };
  if (is("link")) return Layer::kLink;
  if (is("atm")) return Layer::kAtm;
  if (is("host") || is("net")) return Layer::kHost;
  if (is("tcp")) return Layer::kTcp;
  if (is("meta") || is("comm")) return Layer::kMeta;
  if (is("flow")) return Layer::kFlow;
  return Layer::kUnattributed;
}

// Cheapest of a few back-to-back batches, so a preemption cannot inflate it.
double clock_read_cost_ns() {
  constexpr int kReads = 20000;
  double best = 1e9;
  for (int batch = 0; batch < 5; ++batch) {
    const std::int64_t t0 = now_ns();
    std::int64_t last = t0;
    for (int i = 0; i < kReads; ++i) last = now_ns();
    best = std::min(best, static_cast<double>(last - t0) / kReads);
  }
  return best;
}

std::int64_t minus_reads(std::int64_t ns, std::uint64_t reads, double read_ns) {
  const auto r = static_cast<std::int64_t>(static_cast<double>(reads) * read_ns);
  return ns > r ? ns - r : 0;
}

}  // namespace

Ledger::Ledger() { totals_.clock_read_ns = clock_read_cost_ns(); }

class Ledger::CallScope {
 public:
  explicit CallScope(Ledger& l) : l_(l), start_(l.in_event_ ? now_ns() : 0) {
    ++l_.totals_.hook_calls;
    if (l_.in_event_) ++l_.intervals_;
    if (l_.segment_ends_at_hook_) l_.close_segment(start_);
  }
  ~CallScope() {
    if (l_.in_event_) l_.hooks_ns_ += now_ns() - start_;
  }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  Ledger& l_;
  std::int64_t start_;
  alloc::Pause pause_;
};

class Ledger::ForwardScope {
 public:
  explicit ForwardScope(Ledger& l) : l_(l), start_(now_ns()) {}
  ~ForwardScope() {
    l_.totals_.forward_ns += now_ns() - start_;
    ++l_.totals_.forward_calls;
  }
  ForwardScope(const ForwardScope&) = delete;
  ForwardScope& operator=(const ForwardScope&) = delete;

 private:
  Ledger& l_;
  std::int64_t start_;
};

Ledger::Attachment::Attachment(Ledger& ledger, des::Scheduler& sched,
                               gtw::obs::SpanTracer* forward)
    : ledger_(ledger), sched_(sched) {
  ledger_.reset_op(forward);
  sched_.set_span_hook(&ledger_);
}

Ledger::Attachment::~Attachment() {
  sched_.set_span_hook(nullptr);
  ledger_.reset_op(nullptr);
}

void Ledger::reset_op(gtw::obs::SpanTracer* forward) {
  alloc::Pause pause;
  forward_ = forward;
  pending_.clear();
  current_ = {};
  next_trace_ = 0;
  next_span_ = 0;
  span_layers_.clear();
  in_event_ = false;
  segment_layer_ = Layer::kCount;
  segment_ends_at_hook_ = false;
}

void Ledger::note_span_layer(std::uint64_t span_id, Layer l) {
  if (span_id == 0) return;
  if (span_id >= span_layers_.size())
    span_layers_.resize(span_id + 1, Layer::kUnattributed);
  span_layers_[span_id] = l;
}

Layer Ledger::span_layer(std::uint64_t span_id) const {
  return span_id < span_layers_.size() ? span_layers_[span_id]
                                       : Layer::kUnattributed;
}

// --- segments ----------------------------------------------------------------

void Ledger::begin_segment(Layer l) {
  if (!in_event_) return;
  const std::int64_t t = now_ns();
  close_segment(t);
  ++intervals_;
  const alloc::Counts c = alloc::counts();
  segment_layer_ = l;
  segment_ends_at_hook_ = false;
  segment_start_ns_ = t;
  segment_allocs_at_ = c.calls;
  segment_bytes_at_ = c.bytes;
}

void Ledger::end_segment() { close_segment(now_ns()); }

void Ledger::segment_until_next_hook(Layer l) {
  begin_segment(l);
  if (segment_layer_ != Layer::kCount) segment_ends_at_hook_ = true;
}

void Ledger::close_segment(std::int64_t at) {
  if (segment_layer_ == Layer::kCount) return;
  const alloc::Counts c = alloc::counts();
  alloc::Pause pause;
  const std::int64_t dt =
      minus_reads(at - segment_start_ns_, 1, totals_.clock_read_ns);
  LayerCost& cost = totals_.layer[static_cast<std::size_t>(segment_layer_)];
  cost.ns += dt;
  cost.allocs += c.calls - segment_allocs_at_;
  cost.alloc_bytes += c.bytes - segment_bytes_at_;
  segments_ns_ += dt;
  segment_allocs_ += c.calls - segment_allocs_at_;
  segment_bytes_ += c.bytes - segment_bytes_at_;
  totals_.segment_ms[static_cast<std::size_t>(segment_layer_)].push_back(
      static_cast<double>(dt) / 1e6);
  segment_layer_ = Layer::kCount;
  segment_ends_at_hook_ = false;
}

// --- scheduler integration ---------------------------------------------------

void Ledger::on_event_scheduled(std::uint64_t seq) {
  CallScope scope(*this);
  ++totals_.scheduled;
  if (forward_ != nullptr) {
    ForwardScope fwd(*this);
    forward_->on_event_scheduled(seq);
  } else if (current_.valid()) {
    pending_[seq] = current_;
  }
}

void Ledger::on_event_fire(std::uint64_t seq) {
  const std::int64_t entry = now_ns();
  ++totals_.hook_calls;
  alloc::Pause pause;
  des::TraceContext ctx;
  if (forward_ != nullptr) {
    {
      ForwardScope fwd(*this);
      forward_->on_event_fire(seq);
    }
    ctx = forward_->current();
  } else {
    auto it = pending_.find(seq);
    if (it != pending_.end()) {
      ctx = it->second;
      pending_.erase(it);
    }
    current_ = ctx;
  }
  context_layer_ = span_layer(ctx.span_id);
  in_event_ = true;
  event_layer_ = Layer::kCount;
  hooks_ns_ = 0;
  intervals_ = 1;
  segments_ns_ = 0;
  segment_allocs_ = 0;
  segment_bytes_ = 0;
  const alloc::Counts c = alloc::counts();
  allocs_at_fire_ = c.calls;
  bytes_at_fire_ = c.bytes;
  fire_entry_ns_ = entry;
  fire_exit_ns_ = now_ns();
}

void Ledger::on_event_done() {
  const std::int64_t done = now_ns();
  ++totals_.hook_calls;
  close_segment(done);
  const alloc::Counts c = alloc::counts();
  alloc::Pause pause;
  const Layer l =
      event_layer_ == Layer::kCount ? context_layer_ : event_layer_;
  LayerCost& cost = totals_.layer[static_cast<std::size_t>(l)];
  ++cost.events;
  cost.ns += minus_reads((done - fire_exit_ns_) - hooks_ns_ - segments_ns_,
                         intervals_, totals_.clock_read_ns);
  cost.allocs += c.calls - allocs_at_fire_ - segment_allocs_;
  cost.alloc_bytes += c.bytes - bytes_at_fire_ - segment_bytes_;
  ++totals_.events;
  in_event_ = false;
  if (forward_ != nullptr) {
    ForwardScope fwd(*this);
    forward_->on_event_done();
  } else {
    current_ = {};
  }
  totals_.bracket_ns += now_ns() - fire_entry_ns_;
}

void Ledger::on_event_cancel(std::uint64_t seq) {
  CallScope scope(*this);
  if (forward_ != nullptr) {
    ForwardScope fwd(*this);
    forward_->on_event_cancel(seq);
  } else {
    pending_.erase(seq);
  }
}

// --- component integration ---------------------------------------------------

des::TraceContext Ledger::mint(const char* origin, des::SimTime now) {
  CallScope scope(*this);
  des::TraceContext ctx;
  if (forward_ != nullptr) {
    ForwardScope fwd(*this);
    ctx = forward_->mint(origin, now);
  } else {
    ctx = des::TraceContext{++next_trace_, ++next_span_};
    current_ = ctx;
  }
  note_span_layer(ctx.span_id, layer_of(origin));
  return ctx;
}

des::TraceContext Ledger::current() const {
  // The interface makes current() const, but the call is still booked like
  // every other hook call.
  Ledger& self = const_cast<Ledger&>(*this);
  CallScope scope(self);
  if (forward_ == nullptr) return current_;
  ForwardScope fwd(self);
  return forward_->current();
}

des::TraceContext Ledger::adopt(des::TraceContext ctx) {
  CallScope scope(*this);
  if (forward_ != nullptr) {
    ForwardScope fwd(*this);
    return forward_->adopt(ctx);
  }
  const des::TraceContext prev = current_;
  current_ = ctx;
  return prev;
}

std::uint64_t Ledger::begin_span(des::TraceContext parent,
                                 des::SpanPhase phase, const char* layer,
                                 const char* name, des::SimTime now) {
  CallScope scope(*this);
  const Layer l = layer_of(layer);
  claim(l);
  std::uint64_t id = 0;
  if (forward_ != nullptr) {
    ForwardScope fwd(*this);
    id = forward_->begin_span(parent, phase, layer, name, now);
  } else if (parent.valid()) {
    id = ++next_span_;
  }
  note_span_layer(id, l);
  return id;
}

void Ledger::end_span(std::uint64_t span_id, des::SimTime now) {
  CallScope scope(*this);
  if (span_id != 0) claim(span_layer(span_id));
  if (forward_ != nullptr) {
    ForwardScope fwd(*this);
    forward_->end_span(span_id, now);
  }
}

void Ledger::abort_span(std::uint64_t span_id, des::SimTime now) {
  CallScope scope(*this);
  if (span_id != 0) claim(span_layer(span_id));
  if (forward_ != nullptr) {
    ForwardScope fwd(*this);
    forward_->abort_span(span_id, now);
  }
}

void Ledger::close_trace(des::TraceContext ctx, des::SimTime now) {
  CallScope scope(*this);
  if (forward_ != nullptr) {
    ForwardScope fwd(*this);
    forward_->close_trace(ctx, now);
  }
}

void Ledger::abort_trace(des::TraceContext ctx, const char* reason,
                         des::SimTime now) {
  CallScope scope(*this);
  if (forward_ != nullptr) {
    ForwardScope fwd(*this);
    forward_->abort_trace(ctx, reason, now);
  }
}

}  // namespace gtwbench
