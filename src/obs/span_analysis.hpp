// Offline analysis of OBS_*.spans.json artifacts (DESIGN.md section 13):
// the reader half of the causal tracing layer, consumed by gtw-trace.
//
// The artifact is line-oriented (one JSON object per line: header, trace
// lines, span lines, footer), so the loader is a strict line scanner, not
// a general JSON parser.  Strict means: a missing or wrong header, a
// missing footer, a footer whose counts disagree with the lines actually
// present, an integer field that is not a number, span or trace ids out
// of 1..N file order, a closed span that ends before it begins, a span
// naming no trace line, a root or parent id naming no span of the same
// trace, or a malformed lane key is a hard load error — gtw-trace turns
// those into a non-zero exit so CI catches truncated or corrupt artifacts
// instead of silently analysing them.
//
// Analyses:
//  - sweep_trace(): the latency-budget decomposition.  At every instant of
//    a trace's lifetime, the *innermost* active span — the one begun most
//    recently (ties broken by higher span id, i.e. later creation) — owns
//    that instant.  Sweeping the boundaries left to right partitions the
//    root span's [begin, end) into contiguous segments, each attributed to
//    exactly one span and therefore one phase.  Because the segments
//    partition the root interval, per-phase sums add up to the end-to-end
//    latency *exactly*, in integer picoseconds — container phases (root,
//    transfer) absorb any time their children don't cover.
//  - budget(): aggregates the sweep over every closed trace into the
//    paper-style delay-budget table (e2 experiment).
//  - select_trace(): resolves --critical-path's argument (a trace id,
//    "worst", or "p99") against the closed traces' root durations.
//  - lane_stats(), profile(), gantt(), msg_matrix(): the VAMPIR views
//    over lane spans (see below).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace gtw::obs {

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t trace = 0;
  std::uint64_t parent = 0;  // 0 for trace roots
  std::string phase;
  std::string layer;
  std::string name;
  std::int64_t begin_ps = 0;
  std::int64_t end_ps = 0;
  std::string status;  // "ok" | "aborted" | "open"
  std::int64_t lane = -1;  // stage index or communicator rank; -1: none
  std::int64_t to = -1;    // a message send's receiving lane; -1: not a send
  std::uint64_t bytes = 0;  // a message send's size
};

struct TraceRec {
  std::uint64_t id = 0;
  std::uint64_t root = 0;  // root span id
  std::string origin;
  std::string status;  // "open" | "closed" | "aborted"
  std::string reason;  // abort reason, if aborted
};

struct SpanFile {
  std::string label;
  std::vector<TraceRec> traces;
  std::vector<SpanRec> spans;  // id order; id == index + 1
  std::uint64_t spans_total = 0;
  std::uint64_t traces_total = 0;
  std::uint64_t open_spans = 0;
};

// Strict loader; on failure returns false and sets `error` to a one-line
// human-readable reason (see the file comment).  `what` names the artifact
// in the message (usually the path).
bool load_spans(std::istream& in, const std::string& what, SpanFile& out,
                std::string& error);

// Span by id (nullptr when out of range); ids are dense, 1-based.
const SpanRec* span_by_id(const SpanFile& f, std::uint64_t span_id);

// The layer chain from the trace root down to `s`, e.g.
// "flow>meta>tcp>link" — consecutive duplicate layers collapsed, the
// root's synthetic "trace" layer skipped.  This is the causal crossing a
// critical-path row reports.
std::string layer_chain(const SpanFile& f, const SpanRec& s);

// One contiguous slice of a trace's timeline, attributed to the innermost
// span active over [begin_ps, end_ps).
struct BudgetSegment {
  std::int64_t begin_ps = 0;
  std::int64_t end_ps = 0;
  const SpanRec* span = nullptr;
};

// Innermost-active-span sweep over one trace (see file comment).  Segments
// are returned in time order and partition the root span's interval, so
// their durations sum to the root duration exactly.  Returns an empty
// vector for an unknown trace id or a zero-duration root.
std::vector<BudgetSegment> sweep_trace(const SpanFile& f,
                                       std::uint64_t trace_id);

struct PhaseBudget {
  // Integer-picosecond total attributed to each phase, summed over every
  // closed trace's sweep.  Invariant: values sum to total_ps exactly.
  std::map<std::string, std::int64_t> phase_ps;
  std::int64_t total_ps = 0;  // sum of closed-trace root durations
  std::size_t closed_traces = 0;
  std::size_t aborted_traces = 0;
  std::size_t open_traces = 0;
};
// Throws std::overflow_error when the closed traces' total, or one
// phase's, passes INT64_MAX picoseconds.
PhaseBudget budget(const SpanFile& f);

// Resolves a --critical-path selector: a numeric trace id (any status),
// "worst" (closed trace with the longest root duration), or "p99" (closed
// trace at the 99th-percentile root duration).  Returns nullptr and sets
// `error` when the selector matches nothing.
const TraceRec* select_trace(const SpanFile& f, const std::string& selector,
                             std::string& error);

// --- VAMPIR views --------------------------------------------------------
// The views read closed lane spans only.  A lane span with "to" is a
// message send; one whose parent is a send is that message's receipt;
// every other lane span is a state, named by its span name.  Rows run from
// lane 0 to the highest lane, states print in the order they first appear,
// and the time range is that of the lane spans.
struct LaneStats {
  std::int64_t lanes = 0;           // highest lane + 1
  std::vector<std::string> states;  // in order of first appearance
  // Time of each (lane, state): every instant of a lane belongs to its
  // innermost state, the one begun last (higher span id on ties).
  std::map<std::pair<std::int64_t, std::string>, std::int64_t> state_ps;
  // Sends per (from lane, to lane).
  std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t> messages;
  std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t> bytes;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::int64_t begin_ps = 0, end_ps = 0;
};
LaneStats lane_stats(const SpanFile& f);

// Per-lane state time profile (seconds) plus the message totals.
std::string profile(const SpanFile& f);
// Text timeline: one row per lane, `columns` cells over the time range.
// Each closed state paints its interval with its first letter, in the
// order the states end (an enclosing state after the ones it holds).
std::string gantt(const SpanFile& f, int columns = 72);
// Message count and byte matrices, rows from, columns to.
std::string msg_matrix(const SpanFile& f);

}  // namespace gtw::obs
