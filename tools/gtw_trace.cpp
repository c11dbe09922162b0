// gtw-trace: inspect a GTWT binary trace (the VAMPIR-style logs the
// simulator's TraceRecorder writes) from the command line.
//
//   gtw-trace run.gtwt                     summary (ranks, events, span)
//   gtw-trace run.gtwt --profile           per-rank/state time profile
//   gtw-trace run.gtwt --gantt [cols]      text timeline
//   gtw-trace run.gtwt --msg-matrix        rank-pair message statistics
//   gtw-trace run.gtwt --chrome out.json   convert to Chrome trace-event
//                                          JSON (Perfetto / chrome://tracing)
//   gtw-trace run.gtwt --metrics           event-kind and message totals
//   gtw-trace run.gtwt --obs m.json        DES-engine section from an
//                                          OBS_*.metrics.json snapshot
//   gtw-trace OBS_x.metrics.json           engine section alone (no trace)
//
// Spans mode — first argument is an OBS_*.spans.json causal-span artifact
// (DESIGN.md section 13):
//
//   gtw-trace x.spans.json                       summary (traces, spans)
//   gtw-trace x.spans.json --budget              latency-budget table: the
//                                                end-to-end time of every
//                                                closed trace decomposed
//                                                into phases; phase sums
//                                                equal the total exactly
//                                                (integer picoseconds)
//   gtw-trace x.spans.json --critical-path SEL   per-phase waterfall of one
//                                                trace; SEL is a trace id,
//                                                `worst`, or `p99`
//   gtw-trace x.spans.json --chrome out.json     Chrome trace-event export
//                                                with flow arrows on the
//                                                parent->child span edges
//
// A missing, malformed, or truncated spans artifact (footer counts
// disagree with the lines present) is a non-zero exit with a one-line
// reason — CI depends on that.
//
// Flags combine; sections print in the order given above.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/exporter.hpp"
#include "obs/span_analysis.hpp"
#include "trace/trace.hpp"

namespace {

using gtw::trace::EventKind;
using gtw::trace::TraceEvent;
using gtw::trace::TraceRecorder;
using gtw::trace::TraceStats;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <trace.gtwt|metrics.json> [--profile] [--gantt [cols]]"
               " [--msg-matrix] [--chrome out.json] [--metrics]"
               " [--obs metrics.json]\n"
               "       "
            << argv0
            << " <spans.json> [--budget] [--critical-path <id|worst|p99>]"
               " [--chrome out.json]\n";
  return 2;
}

// Print the engine-core metrics (scheduler calendar, event pool) out of an
// OBS_*.metrics.json snapshot.  The exporter writes one metric per line as
// `    "name": value,` so a line scan suffices — no JSON parser needed for
// our own format.
int print_obs_engine(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "gtw-trace: cannot open '" << path << "'\n";
    return 1;
  }
  std::cout << "des engine (" << path << ")\n";
  bool any = false;
  std::string line;
  while (std::getline(in, line)) {
    const auto q0 = line.find('"');
    if (q0 == std::string::npos) continue;
    const auto q1 = line.find('"', q0 + 1);
    if (q1 == std::string::npos) continue;
    const std::string name = line.substr(q0 + 1, q1 - q0 - 1);
    if (name.rfind("des.sched.", 0) != 0) continue;
    auto colon = line.find(':', q1);
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ')) value.erase(0, 1);
    while (!value.empty() && (value.back() == ',' || value.back() == ' '))
      value.pop_back();
    std::cout << "  " << name << ": " << value << "\n";
    any = true;
  }
  if (!any)
    std::cout << "  (no des.sched.* metrics in snapshot — was the scheduler"
                 " instrumented?)\n";
  return 0;
}

void print_summary(const TraceRecorder& rec) {
  std::int64_t begin = 0, end = 0;
  if (!rec.events().empty()) {
    begin = rec.events().front().time_ps;
    end = rec.events().back().time_ps;
  }
  std::cout << "ranks:   " << rec.ranks() << "\n"
            << "states:  " << rec.state_count() << "\n"
            << "events:  " << rec.events().size() << "\n"
            << "span:    " << static_cast<double>(end - begin) * 1e-12
            << " s (" << begin << " .. " << end << " ps)\n";
}

void print_metrics(const TraceRecorder& rec, const TraceStats& stats) {
  std::uint64_t enters = 0, leaves = 0, sends = 0, recvs = 0;
  for (const TraceEvent& e : rec.events()) {
    switch (e.kind) {
      case EventKind::kEnter: ++enters; break;
      case EventKind::kLeave: ++leaves; break;
      case EventKind::kSend: ++sends; break;
      case EventKind::kRecv: ++recvs; break;
    }
  }
  std::cout << "enter events:   " << enters << "\n"
            << "leave events:   " << leaves << "\n"
            << "send events:    " << sends << "\n"
            << "recv events:    " << recvs << "\n"
            << "total messages: " << stats.total_messages() << "\n"
            << "total bytes:    " << stats.total_bytes() << "\n";
}

void print_msg_matrix(const TraceRecorder& rec, const TraceStats& stats) {
  const auto ranks = static_cast<std::uint32_t>(rec.ranks());
  std::cout << "messages (rows: from, cols: to)\n      ";
  for (std::uint32_t to = 0; to < ranks; ++to) std::cout << "\t" << to;
  std::cout << "\n";
  for (std::uint32_t from = 0; from < ranks; ++from) {
    std::cout << "  " << from << "  ";
    for (std::uint32_t to = 0; to < ranks; ++to)
      std::cout << "\t" << stats.messages(from, to);
    std::cout << "\n";
  }
  std::cout << "bytes (rows: from, cols: to)\n      ";
  for (std::uint32_t to = 0; to < ranks; ++to) std::cout << "\t" << to;
  std::cout << "\n";
  for (std::uint32_t from = 0; from < ranks; ++from) {
    std::cout << "  " << from << "  ";
    for (std::uint32_t to = 0; to < ranks; ++to)
      std::cout << "\t" << stats.bytes(from, to);
    std::cout << "\n";
  }
}

// --- spans mode -------------------------------------------------------------

using gtw::obs::BudgetSegment;
using gtw::obs::PhaseBudget;
using gtw::obs::SpanFile;
using gtw::obs::TraceRec;

void print_spans_summary(const SpanFile& f) {
  std::size_t closed = 0, aborted = 0, open = 0;
  for (const TraceRec& t : f.traces) {
    if (t.status == "closed")
      ++closed;
    else if (t.status == "aborted")
      ++aborted;
    else
      ++open;
  }
  std::cout << "label:   " << f.label << "\n"
            << "traces:  " << f.traces.size() << " (" << closed << " closed, "
            << aborted << " aborted, " << open << " open)\n"
            << "spans:   " << f.spans.size() << " (" << f.open_spans
            << " open at write)\n";
}

// The delay-budget table (paper experiment e2): every closed trace's
// end-to-end latency decomposed into phases by the innermost-active-span
// sweep.  The sweep partitions each root interval, so the phase column
// sums to the end-to-end column *exactly* in integer picoseconds — a
// mismatch means a corrupt artifact and is a non-zero exit.
int print_budget(const SpanFile& f) {
  const PhaseBudget b = gtw::obs::budget(f);
  std::cout << "latency budget (label \"" << f.label << "\", "
            << b.closed_traces << " closed trace(s); " << b.aborted_traces
            << " aborted, " << b.open_traces << " open excluded)\n";
  if (b.closed_traces == 0) {
    std::cout << "  (no closed traces to decompose)\n";
    return 0;
  }

  // Largest share first; ties in lexicographic phase order (the map order),
  // so output is deterministic.
  std::vector<std::pair<std::string, std::int64_t>> rows(b.phase_ps.begin(),
                                                         b.phase_ps.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& x, const auto& y) {
                     return x.second > y.second;
                   });
  std::int64_t sum = 0;
  std::printf("  %-18s %20s %8s\n", "phase", "total_ps", "share");
  for (const auto& [phase, ps] : rows) {
    sum += ps;
    // Integer per-mille, rounded half up: exact and deterministic.
    const std::int64_t permille =
        b.total_ps == 0 ? 0 : (ps * 1000 + b.total_ps / 2) / b.total_ps;
    std::printf("  %-18s %20lld %5lld.%lld%%\n", phase.c_str(),
                static_cast<long long>(ps),
                static_cast<long long>(permille / 10),
                static_cast<long long>(permille % 10));
  }
  std::printf("  %-18s %20s\n", "", "--------------------");
  std::printf("  %-18s %20lld\n", "phase sum", static_cast<long long>(sum));
  std::printf("  %-18s %20lld", "end-to-end",
              static_cast<long long>(b.total_ps));
  if (sum == b.total_ps) {
    std::printf("  (exact)\n");
    return 0;
  }
  std::printf("  MISMATCH (delta %lld ps)\n",
              static_cast<long long>(sum - b.total_ps));
  std::cerr << "gtw-trace: budget decomposition does not sum to the"
               " end-to-end latency — corrupt spans artifact?\n";
  return 1;
}

// Waterfall of one trace: the sweep's segments in causal (== time) order,
// one row per contiguous slice, with a proportional bar on the right.
void print_critical_path(const SpanFile& f, const TraceRec& t) {
  const std::vector<BudgetSegment> segs = gtw::obs::sweep_trace(f, t.id);
  std::cout << "critical path: trace " << t.id << ", origin \"" << t.origin
            << "\", " << t.status;
  if (!t.reason.empty()) std::cout << " (" << t.reason << ")";
  if (segs.empty()) {
    std::cout << "\n  (no timed spans — trace still open, or zero-width)\n";
    return;
  }
  const std::int64_t t0 = segs.front().begin_ps;
  const std::int64_t total = segs.back().end_ps - t0;
  std::cout << ", " << total << " ps end-to-end\n";
  constexpr int kBar = 40;
  std::printf("  %14s %14s  %-16s %-38s %s\n", "t+ps", "dur_ps", "phase",
              "layers/span", "waterfall");
  for (const BudgetSegment& seg : segs) {
    const std::int64_t dur = seg.end_ps - seg.begin_ps;
    const int lo = static_cast<int>((seg.begin_ps - t0) * kBar / total);
    int hi = static_cast<int>((seg.end_ps - t0) * kBar / total);
    if (hi <= lo) hi = lo + 1;  // every segment gets at least one cell
    std::string bar(kBar, '.');
    for (int i = lo; i < hi && i < kBar; ++i) bar[i] = '#';
    // The layer chain from the root down to the owning span is the causal
    // crossing this slice of the budget sits on (flow>meta>tcp>link ...).
    const std::string span_col = gtw::obs::layer_chain(f, *seg.span) + "/" +
                                 seg.span->name +
                                 (seg.span->status == "aborted" ? "!" : "");
    std::printf("  %14lld %14lld  %-16s %-38s |%s|\n",
                static_cast<long long>(seg.begin_ps - t0),
                static_cast<long long>(dur), seg.span->phase.c_str(),
                span_col.c_str(), bar.c_str());
  }
}

int run_spans_mode(const std::string& path, int argc, char** argv) {
  bool budget = false;
  std::string critical_sel;
  std::string chrome_out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--budget") {
      budget = true;
    } else if (arg == "--critical-path") {
      if (i + 1 >= argc) return usage(argv[0]);
      critical_sel = argv[++i];
    } else if (arg == "--chrome") {
      if (i + 1 >= argc) return usage(argv[0]);
      chrome_out = argv[++i];
    } else {
      std::cerr << "gtw-trace: unknown spans-mode flag '" << arg << "'\n";
      return usage(argv[0]);
    }
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "gtw-trace: cannot open '" << path << "'\n";
    return 1;
  }
  SpanFile f;
  std::string error;
  if (!gtw::obs::load_spans(in, path, f, error)) {
    std::cerr << "gtw-trace: " << error << "\n";
    return 1;
  }

  if (!budget && critical_sel.empty() && chrome_out.empty())
    print_spans_summary(f);
  if (budget) {
    if (const int rc = print_budget(f); rc != 0) return rc;
  }
  if (!critical_sel.empty()) {
    const TraceRec* t = gtw::obs::select_trace(f, critical_sel, error);
    if (t == nullptr) {
      std::cerr << "gtw-trace: " << error << "\n";
      return 1;
    }
    print_critical_path(f, *t);
  }
  if (!chrome_out.empty()) {
    std::ofstream out(chrome_out, std::ios::binary);
    if (!out) {
      std::cerr << "gtw-trace: cannot write '" << chrome_out << "'\n";
      return 1;
    }
    gtw::obs::write_spans_chrome(out, f);
    std::cout << "wrote " << chrome_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string path = argv[1];
  if (path == "--help" || path == "-h") return usage(argv[0]);

  // Spans mode: causal-span artifacts get their own flag set.
  if (path.size() > 11 && path.rfind(".spans.json") == path.size() - 11)
    return run_spans_mode(path, argc, argv);

  // Metrics-snapshot-only mode: the engine section needs no trace file.
  if (path.size() > 5 && path.rfind(".json") == path.size() - 5)
    return print_obs_engine(path);

  bool profile = false, gantt = false, msg_matrix = false, metrics = false;
  int gantt_cols = 72;
  std::string chrome_out;
  std::string obs_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--profile") {
      profile = true;
    } else if (arg == "--gantt") {
      gantt = true;
      if (i + 1 < argc && argv[i + 1][0] != '-')
        gantt_cols = std::stoi(argv[++i]);
    } else if (arg == "--msg-matrix") {
      msg_matrix = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--chrome") {
      if (i + 1 >= argc) return usage(argv[0]);
      chrome_out = argv[++i];
    } else if (arg == "--obs") {
      if (i + 1 >= argc) return usage(argv[0]);
      obs_path = argv[++i];
    } else {
      std::cerr << "gtw-trace: unknown flag '" << arg << "'\n";
      return usage(argv[0]);
    }
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "gtw-trace: cannot open '" << path << "'\n";
    return 1;
  }
  TraceRecorder rec = TraceRecorder::read(in);
  const TraceStats stats(rec);

  const bool any_section =
      profile || gantt || msg_matrix || metrics || !chrome_out.empty();
  if (!any_section) print_summary(rec);
  if (!obs_path.empty()) {
    if (const int rc = print_obs_engine(obs_path); rc != 0) return rc;
  }

  if (profile) std::cout << stats.profile();
  if (gantt) std::cout << stats.gantt(gantt_cols);
  if (msg_matrix) print_msg_matrix(rec, stats);
  if (metrics) print_metrics(rec, stats);
  if (!chrome_out.empty()) {
    std::ofstream out(chrome_out, std::ios::binary);
    if (!out) {
      std::cerr << "gtw-trace: cannot write '" << chrome_out << "'\n";
      return 1;
    }
    gtw::obs::write_chrome_trace(out, rec);
    std::cout << "wrote " << chrome_out << "\n";
  }
  return 0;
}
