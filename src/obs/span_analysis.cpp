#include "obs/span_analysis.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstdio>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "des/time.hpp"

namespace gtw::obs {

namespace {

// Field extraction for our own line-oriented writer (span.cpp): every
// field appears as `"key": value` with a single space, values are either
// integers or quoted strings with no embedded escapes (identifiers and
// labels).  A full JSON parser would be overkill and a second source of
// truth for the format.  Reads the fields of one line and keeps the first
// reason one of them failed.
class LineFields {
 public:
  explicit LineFields(const std::string& line) : line_(line) {}

  // Where the value of `key` starts, or npos (an error unless `optional`).
  std::size_t find(const char* key, bool optional = false) {
    const std::string pat = std::string("\"") + key + "\": ";
    const auto p = line_.find(pat);
    if (p != std::string::npos) return p + pat.size();
    if (!optional) fail(std::string("missing \"") + key + "\"");
    return std::string::npos;
  }
  bool has(const char* key) { return find(key, true) != std::string::npos; }

  // A decimal literal (a leading '-' only for signed T) ending at ',' or
  // '}'.
  template <typename T>
  void integer(const char* key, T& out) {
    const std::size_t pos = find(key);
    if (pos == std::string::npos) return;
    const char* last = line_.data() + line_.size();
    const auto [ptr, ec] = std::from_chars(line_.data() + pos, last, out);
    if (ec != std::errc{} || ptr == last || (*ptr != ',' && *ptr != '}'))
      fail(std::string("\"") + key + "\" is not an integer");
  }

  void string(const char* key, std::string& out, bool optional = false) {
    const std::size_t pos = find(key, optional);
    if (pos == std::string::npos) return;
    const auto close = line_.find('"', pos + 1);
    if (line_[pos] != '"' || close == std::string::npos)
      fail(std::string("\"") + key + "\" is not a string");
    else
      out = line_.substr(pos + 1, close - pos - 1);
  }

  void fail(const std::string& why) {
    if (error_.empty()) error_ = why;
  }
  const std::string& error() const { return error_; }

 private:
  const std::string& line_;
  std::string error_;
};

bool starts_with(const std::string& line, const char* prefix) {
  return line.rfind(prefix, 0) == 0;
}

// Sanity ceiling for lane numbers: far above any stage or rank count, low
// enough that a corrupt one cannot drive the views' per-lane allocation.
constexpr std::int64_t kMaxLane = 1 << 20;

// Lane keys: "lane", and for a message send "to" (a lane) and "bytes".
void read_lane(LineFields& in, SpanRec& s) {
  if (!in.has("lane")) {
    if (in.has("to") || in.has("bytes"))
      in.fail("\"to\"/\"bytes\" without \"lane\"");
    return;
  }
  const auto check = [&in](const char* key, std::int64_t& lane) {
    in.integer(key, lane);
    if (lane < 0 || lane >= kMaxLane)
      in.fail(std::string("\"") + key + "\" " + std::to_string(lane) +
              " is not a lane");
  };
  check("lane", s.lane);
  if (in.has("to") || in.has("bytes")) {
    check("to", s.to);
    in.integer("bytes", s.bytes);
  }
}

// Trace by id; the loader enforces id == index + 1.
const TraceRec* find_trace(const SpanFile& f, std::uint64_t trace_id) {
  if (trace_id == 0 || trace_id > f.traces.size()) return nullptr;
  return &f.traces[trace_id - 1];
}

}  // namespace

bool load_spans(std::istream& in, const std::string& what, SpanFile& out,
                std::string& error) {
  std::string line;
  if (!std::getline(in, line) || !starts_with(line, "{\"gtw_spans\": 1")) {
    error = what + ": not a spans artifact (missing {\"gtw_spans\": 1} header)";
    return false;
  }
  LineFields(line).string("label", out.label, /*optional=*/true);

  bool have_footer = false;
  std::size_t lineno = 1;
  const auto reject = [&](const std::string& why) {
    error = what + ": line " + std::to_string(lineno) + ": " + why;
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (have_footer)
      return reject("trailing data after the spans_total footer");
    LineFields fields(line);
    if (starts_with(line, "{\"spans_total\"")) {
      fields.integer("spans_total", out.spans_total);
      fields.integer("traces_total", out.traces_total);
      fields.integer("open_spans", out.open_spans);
      if (!fields.error().empty())
        return reject("malformed footer: " + fields.error());
      have_footer = true;
    } else if (starts_with(line, "{\"trace\"")) {
      TraceRec t;
      fields.integer("trace", t.id);
      fields.integer("root", t.root);
      fields.string("origin", t.origin);
      fields.string("status", t.status);
      fields.string("reason", t.reason, /*optional=*/true);
      if (!fields.error().empty())
        return reject("malformed trace line: " + fields.error());
      if (t.id != out.traces.size() + 1)
        return reject("non-sequential trace id " + std::to_string(t.id));
      out.traces.push_back(std::move(t));
    } else if (starts_with(line, "{\"span\"")) {
      SpanRec s;
      fields.integer("span", s.id);
      fields.integer("trace", s.trace);
      fields.integer("parent", s.parent);
      fields.string("phase", s.phase);
      fields.string("layer", s.layer);
      fields.string("name", s.name);
      fields.integer("begin_ps", s.begin_ps);
      fields.integer("end_ps", s.end_ps);
      fields.string("status", s.status);
      read_lane(fields, s);
      if (!fields.error().empty())
        return reject("malformed span line: " + fields.error());
      if (s.id != out.spans.size() + 1)
        return reject("non-sequential span id " + std::to_string(s.id));
      if (s.begin_ps < 0 || s.end_ps < 0)
        return reject("span " + std::to_string(s.id) +
                      " has a negative timestamp");
      if (s.status != "open" && s.end_ps < s.begin_ps)
        return reject("span " + std::to_string(s.id) + " ends before it begins");
      out.spans.push_back(std::move(s));
    } else {
      return reject("unrecognised line");
    }
  }
  if (!have_footer) {
    error = what +
            ": truncated — no {\"spans_total\"} footer; the writing run was"
            " likely interrupted";
    return false;
  }
  if (out.spans.size() != out.spans_total ||
      out.traces.size() != out.traces_total) {
    error = what + ": truncated — footer promises " +
            std::to_string(out.spans_total) + " span(s) / " +
            std::to_string(out.traces_total) + " trace(s), file has " +
            std::to_string(out.spans.size()) + " / " +
            std::to_string(out.traces.size());
    return false;
  }
  // Roots and parents must name a span of their own trace.
  const auto in_trace = [&out](std::uint64_t span, std::uint64_t trace) {
    const SpanRec* s = span_by_id(out, span);
    return s != nullptr && s->trace == trace;
  };
  for (const TraceRec& t : out.traces) {
    if (in_trace(t.root, t.id)) continue;
    error = what + ": trace " + std::to_string(t.id) + " names root span " +
            std::to_string(t.root) + ", which is not a span of that trace";
    return false;
  }
  for (const SpanRec& s : out.spans) {
    if (s.parent != 0 && !in_trace(s.parent, s.trace)) {
      error = what + ": span " + std::to_string(s.id) + " names parent " +
              std::to_string(s.parent) + ", which is not a span of trace " +
              std::to_string(s.trace);
      return false;
    }
    if (find_trace(out, s.trace) != nullptr) continue;
    error = what + ": span " + std::to_string(s.id) + " names trace " +
            std::to_string(s.trace) + ", which has no trace line";
    return false;
  }
  return true;
}

const SpanRec* span_by_id(const SpanFile& f, std::uint64_t span_id) {
  if (span_id == 0 || span_id > f.spans.size()) return nullptr;
  return &f.spans[span_id - 1];  // loader enforced id == index + 1
}

std::string layer_chain(const SpanFile& f, const SpanRec& s) {
  std::vector<const SpanRec*> path;
  for (const SpanRec* p = &s; p != nullptr; p = span_by_id(f, p->parent)) {
    path.push_back(p);
    if (path.size() > f.spans.size()) break;  // defensive: corrupt cycle
  }
  std::string chain;
  const std::string* last = nullptr;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const std::string& layer = (*it)->layer;
    if (layer == "trace") continue;  // the root's synthetic layer
    if (last != nullptr && *last == layer) continue;  // collapse runs
    if (!chain.empty()) chain += '>';
    chain += layer;
    last = &layer;
  }
  return chain;
}

namespace {

std::int64_t root_duration(const SpanFile& f, const TraceRec& t) {
  const SpanRec* root = span_by_id(f, t.root);
  return root == nullptr ? 0 : root->end_ps - root->begin_ps;
}

// The innermost-span sweep behind the budget and the lane views, over
// `spans` clamped to [lo, hi]; a span that owns no time there (zero width:
// open at write time, or instant) is left out.  Every instant belongs to
// the innermost active span: the one begun last (its own begin_ps, even
// where clamped), higher id on ties.  Returns, in time order, the stretches
// between adjacent edges that some span covers, each with its owner;
// adjacent stretches of one owner are merged.
std::vector<BudgetSegment> sweep_innermost(
    const SpanFile& f, const std::vector<const SpanRec*>& spans,
    std::int64_t lo, std::int64_t hi) {
  using Edge = std::tuple<std::int64_t, bool, const SpanRec*>;  // opens?
  std::vector<Edge> edges;
  for (const SpanRec* s : spans) {
    const std::int64_t b = std::max(s->begin_ps, lo);
    const std::int64_t e = std::min(s->end_ps, hi);
    if (e <= b) continue;
    edges.emplace_back(b, true, s);
    edges.emplace_back(e, false, s);
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    return std::get<0>(x) != std::get<0>(y) ? std::get<0>(x) < std::get<0>(y)
                                            : std::get<1>(x) < std::get<1>(y);
  });
  std::set<std::pair<std::int64_t, std::uint64_t>> active;  // (begin, id)
  std::vector<BudgetSegment> segs;
  std::int64_t t = 0;
  for (const auto& [at, opens, s] : edges) {
    if (!active.empty() && at > t) {
      const SpanRec* owner = span_by_id(f, active.rbegin()->second);
      if (!segs.empty() && segs.back().span == owner && segs.back().end_ps == t)
        segs.back().end_ps = at;
      else
        segs.push_back({t, at, owner});
    }
    t = at;
    if (opens)
      active.insert({s->begin_ps, s->id});
    else
      active.erase({s->begin_ps, s->id});
  }
  return segs;
}

// One trace's spans clamped to its root's interval.  The root is always
// active, so the segments partition that interval.
std::vector<BudgetSegment> sweep_root(
    const SpanFile& f, const TraceRec& tr,
    const std::vector<const SpanRec*>& spans) {
  const SpanRec* root = span_by_id(f, tr.root);
  if (root == nullptr || root->end_ps <= root->begin_ps) return {};
  return sweep_innermost(f, spans, root->begin_ps, root->end_ps);
}

}  // namespace

std::vector<BudgetSegment> sweep_trace(const SpanFile& f,
                                       std::uint64_t trace_id) {
  const TraceRec* tr = find_trace(f, trace_id);
  if (tr == nullptr) return {};
  std::vector<const SpanRec*> spans;
  for (const SpanRec& s : f.spans)
    if (s.trace == trace_id) spans.push_back(&s);
  return sweep_root(f, *tr, spans);
}

PhaseBudget budget(const SpanFile& f) {
  // Each root duration fits in int64, but their sum need not.
  const auto add = [](std::int64_t& sum, std::int64_t ps) {
    if (__builtin_add_overflow(sum, ps, &sum))
      throw std::overflow_error(
          "latency budget: closed traces sum to more than 2^63-1 ps "
          "(~106 simulated days)");
  };
  // Group the spans by trace once (the loader gave each a trace line).
  std::vector<std::vector<const SpanRec*>> by_trace(f.traces.size());
  for (const SpanRec& s : f.spans)
    if (find_trace(f, s.trace) != nullptr) by_trace[s.trace - 1].push_back(&s);
  PhaseBudget b;
  for (const TraceRec& t : f.traces) {
    if (t.status == "aborted") {
      ++b.aborted_traces;
      continue;
    }
    if (t.status != "closed") {
      ++b.open_traces;
      continue;
    }
    ++b.closed_traces;
    add(b.total_ps, root_duration(f, t));
    for (const BudgetSegment& seg : sweep_root(f, t, by_trace[t.id - 1]))
      add(b.phase_ps[seg.span->phase], seg.end_ps - seg.begin_ps);
  }
  return b;
}

const TraceRec* select_trace(const SpanFile& f, const std::string& selector,
                             std::string& error) {
  if (!selector.empty() &&
      selector.find_first_not_of("0123456789") == std::string::npos) {
    const std::uint64_t id = std::strtoull(selector.c_str(), nullptr, 10);
    const TraceRec* t = find_trace(f, id);
    if (t == nullptr) error = "no trace with id " + selector;
    return t;
  }

  // "worst" and "p99" rank closed traces by end-to-end (root) duration.
  std::vector<std::pair<std::int64_t, const TraceRec*>> closed;
  for (const TraceRec& t : f.traces)
    if (t.status == "closed") closed.push_back({root_duration(f, t), &t});
  if (closed.empty()) {
    error = "no closed traces in artifact";
    return nullptr;
  }
  std::sort(closed.begin(), closed.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second->id < b.second->id;
            });
  if (selector == "worst") return closed.back().second;
  if (selector == "p99") {
    // Nearest-rank percentile: ceil(0.99 * n) in 1-based rank.
    const std::size_t n = closed.size();
    const std::size_t rank = (99 * n + 99) / 100;
    return closed[rank - 1].second;
  }
  error = "bad selector '" + selector + "' (want a trace id, worst, or p99)";
  return nullptr;
}

namespace {

bool on_lane(const SpanRec& s) { return s.lane >= 0 && s.status == "ok"; }

bool is_recv(const SpanFile& f, const SpanRec& s) {
  const SpanRec* parent = span_by_id(f, s.parent);
  return parent != nullptr && parent->to >= 0;
}

// Closed state spans (lane spans that are not messages), per lane.
std::vector<std::vector<const SpanRec*>> lane_states(const SpanFile& f,
                                                     std::int64_t lanes) {
  std::vector<std::vector<const SpanRec*>> out(
      static_cast<std::size_t>(lanes));
  for (const SpanRec& s : f.spans)
    if (on_lane(s) && s.to < 0 && !is_recv(f, s))
      out[static_cast<std::size_t>(s.lane)].push_back(&s);
  return out;
}

}  // namespace

LaneStats lane_stats(const SpanFile& f) {
  LaneStats st;
  bool first = true;
  for (const SpanRec& s : f.spans) {
    if (!on_lane(s)) continue;
    st.lanes = std::max(st.lanes, s.lane + 1);
    st.begin_ps = first ? s.begin_ps : std::min(st.begin_ps, s.begin_ps);
    st.end_ps = first ? s.end_ps : std::max(st.end_ps, s.end_ps);
    first = false;
    if (s.to >= 0) {
      ++st.messages[{s.lane, s.to}];
      st.bytes[{s.lane, s.to}] += s.bytes;
      ++st.total_messages;
      st.total_bytes += s.bytes;
    } else if (!is_recv(f, s) &&
               std::find(st.states.begin(), st.states.end(), s.name) ==
                   st.states.end()) {
      st.states.push_back(s.name);
    }
  }

  // Every instant of a lane belongs to its innermost active state.
  const auto states = lane_states(f, st.lanes);
  for (std::int64_t lane = 0; lane < st.lanes; ++lane)
    for (const BudgetSegment& seg :
         sweep_innermost(f, states[static_cast<std::size_t>(lane)],
                         INT64_MIN, INT64_MAX))
      st.state_ps[{lane, seg.span->name}] += seg.end_ps - seg.begin_ps;
  return st;
}

std::string profile(const SpanFile& f) {
  const LaneStats st = lane_stats(f);
  std::ostringstream os;
  os << "state time profile (seconds):\n";
  for (std::int64_t lane = 0; lane < st.lanes; ++lane) {
    os << "  rank " << lane << ":";
    for (const std::string& state : st.states) {
      const auto it = st.state_ps.find({lane, state});
      if (it != st.state_ps.end() && it->second > 0)
        os << "  " << state << "="
           << des::SimTime::picoseconds(it->second).sec();
    }
    os << "\n";
  }
  os << "messages: " << st.total_messages << ", bytes: " << st.total_bytes
     << "\n";
  return os.str();
}

std::string gantt(const SpanFile& f, int columns) {
  const LaneStats st = lane_stats(f);
  if (st.lanes == 0 || st.end_ps <= st.begin_ps) return "(empty trace)\n";
  const double range = static_cast<double>(st.end_ps - st.begin_ps);
  const auto cell = [&](std::int64_t t) {
    return static_cast<int>(static_cast<double>(t - st.begin_ps) / range *
                            columns);
  };
  std::string out;
  auto states = lane_states(f, st.lanes);
  for (std::int64_t lane = 0; lane < st.lanes; ++lane) {
    // A state paints when it ends, so an enclosing state paints over the
    // ones it holds; of two ending together the later-begun goes first.
    std::vector<const SpanRec*>& v = states[static_cast<std::size_t>(lane)];
    std::sort(v.begin(), v.end(), [](const SpanRec* a, const SpanRec* b) {
      if (a->end_ps != b->end_ps) return a->end_ps < b->end_ps;
      if (a->begin_ps != b->begin_ps) return a->begin_ps > b->begin_ps;
      return a->id > b->id;
    });
    std::string row(static_cast<std::size_t>(columns), '.');
    for (const SpanRec* s : v) {
      const int a = std::clamp(cell(s->begin_ps), 0, columns - 1);
      const int b = std::clamp(cell(s->end_ps), a, columns - 1);
      const char c = s->name.empty() ? '?' : s->name[0];
      for (int i = a; i <= b; ++i) row[static_cast<std::size_t>(i)] = c;
    }
    char label[32];
    std::snprintf(label, sizeof label, "rank %2d |", static_cast<int>(lane));
    out += label + row + "|\n";
  }
  return out;
}

std::string msg_matrix(const SpanFile& f) {
  const LaneStats st = lane_stats(f);
  std::ostringstream os;
  for (const auto* m : {&st.messages, &st.bytes}) {
    os << (m == &st.messages ? "messages" : "bytes")
       << " (rows: from, cols: to)\n      ";
    for (std::int64_t to = 0; to < st.lanes; ++to) os << "\t" << to;
    os << "\n";
    for (std::int64_t from = 0; from < st.lanes; ++from) {
      os << "  " << from << "  ";
      for (std::int64_t to = 0; to < st.lanes; ++to) {
        const auto it = m->find({from, to});
        os << "\t" << (it != m->end() ? it->second : 0);
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace gtw::obs
