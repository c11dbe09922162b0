// Fixture: the sanctioned span-producer shapes — result stored, returned,
// consumed as an argument, or explicitly annotated.
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
  Ctx adopt(Ctx ctx);
};

// Components trace through the scheduler, which stamps the time itself,
// or the explicit earlier time `at` it is given.
struct Scheduler {
  Ctx mint(const char* origin);
  std::uint64_t begin_span(Ctx parent, int phase, const char* layer,
                           const char* name);
  std::uint64_t begin_span(Ctx parent, int phase, const char* layer,
                           const char* name, std::int64_t at);
  void end_span(std::uint64_t span);
  void end_span(std::uint64_t span, std::int64_t at);
};

struct Message {
  Ctx ctx;
  std::uint64_t span = 0;
};

std::uint64_t traced_send(Hook* h, Message& m, std::int64_t now) {
  m.ctx = h->mint("meta.path", now);                       // fine: stored
  m.span = h->begin_span(m.ctx, 1, "meta", "msg", now);    // fine: stored
  h->adopt(Ctx{m.ctx.trace_id, m.span});                   // fine: adopt is
                                                           // not a producer
  return h->begin_span(m.ctx, 2, "tcp", "segment", now);   // fine: returned
}

void consumed_as_argument(Hook* h, Message& m, std::int64_t now) {
  h->end_span(h->begin_span(m.ctx, 1, "tcp", "probe", now),  // fine: consumed
              now);
}

void through_the_scheduler(Scheduler& sched, Message& m, std::int64_t at) {
  m.ctx = sched.mint("net.origin");                        // fine: stored
  m.span = sched.begin_span(m.ctx, 1, "link", "wire");     // fine: stored
  sched.end_span(m.span);
  m.span = sched.begin_span(m.ctx, 3, "link", "wire", at); // fine: stored
  sched.end_span(m.span, at);
}

void sanctioned_exception(Hook* h, Ctx ctx, std::int64_t now) {
  // The root span of a fire-and-forget probe: retired by the trace abort
  // cascade at teardown, never individually.
  // gtw-lint: allow(span-unclosed)
  h->begin_span(ctx, 3, "obs", "probe", now);
}
