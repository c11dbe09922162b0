// Fixture: span producers that throw away the only handle to what they
// opened.  The path contains "src/", which is how the real tree is gated.
#include <cstdint>

struct Ctx {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

struct Hook {
  Ctx mint(const char* origin, std::int64_t now);
  std::uint64_t begin_span(Ctx parent, int phase, const char* layer,
                           const char* name, std::int64_t now);
  void end_span(std::uint64_t span, std::int64_t now);
};

// Components trace through the scheduler, which stamps the time itself,
// or the explicit earlier time `at` it is given.
struct Scheduler {
  Ctx mint(const char* origin);
  std::uint64_t begin_span(Ctx parent, int phase, const char* layer,
                           const char* name);
  std::uint64_t begin_span(Ctx parent, int phase, const char* layer,
                           const char* name, std::int64_t at);
};

void send_message(Hook* h, Ctx ctx, std::int64_t now) {
  h->begin_span(ctx, 1, "meta", "msg", now);            // BAD: id discarded
  h->begin_span(ctx, 2, "tcp",                          // BAD: id discarded,
                "segment",                              // call split across
                now);                                   // physical lines
}

void start_workload(Hook& h, std::int64_t now) {
  h.mint("bench.origin", now);  // BAD: context discarded, trace unclosable
}

void through_the_scheduler(Scheduler& sched, Ctx ctx, std::int64_t at) {
  sched.begin_span(ctx, 1, "link", "wire");  // BAD: id discarded
  sched.mint("net.origin");                  // BAD: context discarded
  sched.begin_span(ctx, 3, "link", "wire", at);  // BAD: id discarded
}
