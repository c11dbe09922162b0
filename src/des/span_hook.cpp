#include "des/span_hook.hpp"

#include "des/scheduler.hpp"

namespace gtw::des {

SpanHook::~SpanHook() {
  if (installed_on_ != nullptr) installed_on_->set_span_hook(nullptr);
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
