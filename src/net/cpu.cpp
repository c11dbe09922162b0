#include "net/cpu.hpp"

namespace gtw::net {

void CpuResource::execute(des::SimTime cost, des::Action done) {
  queue_.push_back(Job{cost, std::move(done), sched_.current_trace()});
  maybe_start();
}

void CpuResource::maybe_start() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  busy_accum_ += queue_.front().cost;
  des::TraceScope scope(sched_, queue_.front().ctx);
  sched_.schedule_after(queue_.front().cost, [this]() {
    Job job = std::move(queue_.front());
    queue_.pop_front();
    busy_ = false;
    job.done();
    maybe_start();
  });
}

double CpuResource::utilization() const {
  const des::SimTime span = sched_.now() - created_at_;
  if (span <= des::SimTime::zero()) return 0.0;
  return busy_accum_.sec() / span.sec();
}

}  // namespace gtw::net
