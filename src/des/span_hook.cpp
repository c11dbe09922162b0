#include "des/span_hook.hpp"

#include "des/scheduler.hpp"

namespace gtw::des {

SpanHook::~SpanHook() {
  if (installed_on_ != nullptr) installed_on_->set_span_hook(nullptr);
}

TraceContext SpanHook::send_message(TraceContext ctx, const char* layer,
                                    std::int64_t from, std::int64_t to,
                                    std::uint64_t bytes, SimTime now) {
  if (!ctx.valid()) return {};
  const std::uint64_t id =
      begin_span(ctx, SpanPhase::kTransfer, layer, "send", now);
  if (id == 0) return {};
  set_lane(id, Lane{from, to, bytes});
  end_span(id, now);
  return TraceContext{ctx.trace_id, id};
}

void SpanHook::recv_message(TraceContext send, const char* layer,
                            std::int64_t at, SimTime now) {
  if (!send.valid()) return;
  const std::uint64_t id =
      begin_span(send, SpanPhase::kTransfer, layer, "recv", now);
  set_lane(id, Lane{at});
  end_span(id, now);
}

const char* span_phase_name(SpanPhase p) {
  switch (p) {
    case SpanPhase::kRoot: return "root";
    case SpanPhase::kQueueWait: return "queue-wait";
    case SpanPhase::kSerialize: return "serialize";
    case SpanPhase::kPropagate: return "propagate";
    case SpanPhase::kHostCpu: return "host-cpu";
    case SpanPhase::kRetransmitStall: return "retransmit-stall";
    case SpanPhase::kReassemblyWait: return "reassembly-wait";
    case SpanPhase::kRetryBackoff: return "retry-backoff";
    case SpanPhase::kCompute: return "compute";
    case SpanPhase::kTransfer: return "transfer";
    case SpanPhase::kAborted: return "aborted";
  }
  return "unknown";
}

}  // namespace gtw::des
