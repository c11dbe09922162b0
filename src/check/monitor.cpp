#include "check/monitor.hpp"

#include <cstdio>
#include <cstdlib>

namespace gtw::check {

Monitor::Breadcrumb& Monitor::note(Breadcrumb::Kind kind) {
  Breadcrumb& b =
      ring_[static_cast<std::size_t>(ring_count_++ % kHistoryCapacity)];
  b.kind = kind;
  b.at = sched_.now();
  return b;
}

void Monitor::note_event(const char* what, std::uint64_t seq) {
  Breadcrumb& b = note(Breadcrumb::Kind::kEvent);
  b.name = what;
  b.seq = seq;
}

void Monitor::note_delivered(const char* path, int side, std::uint64_t msg,
                             std::uint64_t bytes) {
  Breadcrumb& b = note(Breadcrumb::Kind::kDelivered);
  b.name = path;
  b.side = side;
  b.seq = msg;
  b.bytes = bytes;
}

void Monitor::note_fault(const char* kind, const char* target, bool begin) {
  Breadcrumb& b = note(Breadcrumb::Kind::kFault);
  b.name = kind;
  b.target = target;
  b.begin = begin;
}

std::vector<std::string> Monitor::history_snapshot() const {
  std::vector<std::string> out;
  const std::uint64_t n = ring_count_;
  const std::uint64_t cap = kHistoryCapacity;
  const std::uint64_t start = n > cap ? n - cap : 0;
  out.reserve(static_cast<std::size_t>(n - start));
  for (std::uint64_t i = start; i < n; ++i) {
    const Breadcrumb& b = ring_[static_cast<std::size_t>(i % cap)];
    const auto seq = static_cast<unsigned long long>(b.seq);
    char tag[192];
    switch (b.kind) {
      case Breadcrumb::Kind::kEvent:
        std::snprintf(tag, sizeof(tag), "%s seq=%llu", b.name, seq);
        break;
      case Breadcrumb::Kind::kDelivered:
        std::snprintf(tag, sizeof(tag),
                      "path %s side %d msg %llu (%llu B) delivered", b.name,
                      b.side, seq, static_cast<unsigned long long>(b.bytes));
        break;
      case Breadcrumb::Kind::kFault:
        std::snprintf(tag, sizeof(tag), "fault %s %s %s", b.name, b.target,
                      b.begin ? "begin" : "end");
        break;
    }
    char stamp[64];
    std::snprintf(stamp, sizeof(stamp), "[t=%.9fs] ", b.at.sec());
    out.push_back(stamp + std::string(tag));
  }
  return out;
}

void Monitor::violation(const std::string& checker,
                        const std::string& message) {
  ++total_violations_;
  if (violations_.size() >= kMaxViolations) return;
  violations_.push_back(
      Violation{checker, message, sched_.now(), history_snapshot()});
}

void Monitor::run_set(
    const std::vector<std::pair<std::string, InvariantFn>>& set,
    std::size_t& found) {
  for (const auto& [name, fn] : set) {
    if (auto broke = fn()) {
      violation(name, *broke);
      ++found;
    }
  }
}

std::size_t Monitor::check_now() {
  std::size_t found = 0;
  run_set(invariants_, found);
  return found;
}

std::size_t Monitor::finish() {
  std::size_t found = 0;
  run_set(invariants_, found);
  run_set(drain_checks_, found);
  return found;
}

void Monitor::arm_periodic(des::SimTime interval) {
  sched_.schedule_after(interval, [this, interval] {
    check_now();
    // Re-arm only while other events remain: the tick chain must not keep
    // an otherwise-drained simulation alive.
    if (!sched_.empty()) arm_periodic(interval);
  });
}

std::string Monitor::report() const {
  if (clean()) return "gtw-check: clean (0 violations)\n";
  std::string out;
  char head[128];
  std::snprintf(head, sizeof(head),
                "gtw-check: %llu violation(s), first %zu shown\n",
                static_cast<unsigned long long>(total_violations_),
                violations_.size());
  out += head;
  for (const auto& v : violations_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  [%s] at t=%.9fs: ",
                  v.checker.c_str(), v.when.sec());
    out += line;
    out += v.message;
    out += '\n';
    if (!v.history.empty()) {
      out += "    last events:\n";
      for (const auto& h : v.history) {
        out += "      ";
        out += h;
        out += '\n';
      }
    }
  }
  return out;
}

void Monitor::require_clean(const std::string& context) const {
  if (clean()) return;
  std::fprintf(stderr, "gtw-check FAILED (%s)\n%s", context.c_str(),
               report().c_str());
  std::exit(1);
}

}  // namespace gtw::check
