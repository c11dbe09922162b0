// gtw-trace: inspect the simulator's artifacts from the command line.
//
// The first argument is an OBS_*.spans.json causal-span artifact (DESIGN.md
// sections 9 and 13):
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
//   gtw-trace x.spans.json --profile             VAMPIR views over the lane
//   gtw-trace x.spans.json --gantt [cols]        spans: per-lane state
//   gtw-trace x.spans.json --msg-matrix          profile, text timeline
//                                                (1-1000 columns, default
//                                                72), message matrices
//   gtw-trace x.spans.json --chrome out.json     Chrome trace-event export
//                                                (Perfetto /
//                                                chrome://tracing)
//
// or an OBS_*.metrics.json snapshot:
//
//   gtw-trace OBS_x.metrics.json                 its DES-engine section
//
// A missing, malformed, or truncated artifact (spans: footer counts
// disagree with the lines present; metrics: the "metrics" object or the
// file is not closed) is a non-zero exit with a one-line reason — CI
// depends on that.
//
// Spans flags combine; sections print in the order given above.  The
// metrics mode takes no flag.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/exporter.hpp"
#include "obs/span_analysis.hpp"

namespace {

// (a * b + c) / d with the product formed in 128 bits: a loader-accepted
// duration is any non-negative int64, so `a * b` alone can overflow.
__extension__ typedef __int128 Wide;
std::int64_t mul_div(std::int64_t a, std::int64_t b, std::int64_t c,
                     std::int64_t d) {
  return static_cast<std::int64_t>((static_cast<Wide>(a) * b + c) / d);
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <spans.json> [--budget] [--critical-path <id|worst|p99>]"
               " [--profile] [--gantt [cols]] [--msg-matrix]"
               " [--chrome out.json]\n"
               "       "
            << argv0 << " <metrics.json>\n";
  return 2;
}

// Print the engine-core metrics (scheduler and event pool) out of an
// OBS_*.metrics.json snapshot.  The exporter writes the "metrics" object
// one `    "name": value,` per line, so a line scan suffices — no JSON
// parser needed for our own format.  The scan holds the file to that
// framing: the object's opener, a `"name": <number>` on every line inside
// it, its closing brace and the file's final `}`.  Anything else is a
// truncated or foreign file, and nothing is printed from it.
int print_obs_engine(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "gtw-trace: cannot open '" << path << "'\n";
    return 1;
  }
  const auto reject = [&path](const std::string& why) {
    std::cerr << "gtw-trace: " << path << ": " << why << "\n";
    return 1;
  };
  const auto trim = [](std::string_view v) {
    while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
    while (!v.empty() && v.back() == ' ') v.remove_suffix(1);
    return v;
  };
  std::string line;
  std::size_t lineno = 0;
  bool opened = false;
  while (!opened && std::getline(in, line)) {
    ++lineno;
    opened = trim(line) == "\"metrics\": {";
  }
  if (!opened)
    return reject("no \"metrics\" object (not a metrics snapshot)");

  std::vector<std::pair<std::string, std::string>> engine;
  bool closed = false;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view v = trim(line);
    if (v == "}" || v == "},") {
      closed = true;
      break;
    }
    if (!v.empty() && v.back() == ',') v.remove_suffix(1);
    const auto sep = v.find('"', 1);
    const bool named = !v.empty() && v.front() == '"' &&
                       sep != std::string_view::npos && sep > 1 &&
                       v.substr(sep, 3) == "\": ";
    const std::string value(named ? v.substr(sep + 3) : std::string_view{});
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (value.empty() || value.front() == ' ' || *end != '\0')
      return reject("line " + std::to_string(lineno) +
                    ": expected \"name\": <number> inside \"metrics\"");
    std::string name(v.substr(1, sep - 1));
    if (name.rfind("des.sched.", 0) == 0)
      engine.emplace_back(std::move(name), value);
  }
  if (!closed)
    return reject("the \"metrics\" object is not closed (truncated?)");
  std::string last;
  while (std::getline(in, line))
    if (const std::string_view v = trim(line); !v.empty()) last = v;
  if (last != "}") return reject("the file does not end in '}' (truncated?)");

  std::cout << "des engine (" << path << ")\n";
  for (const auto& [name, value] : engine)
    std::cout << "  " << name << ": " << value << "\n";
  if (engine.empty())
    std::cout << "  (no des.sched.* metrics in snapshot — was the scheduler"
                 " instrumented?)\n";
  return 0;
}

// --- spans mode -------------------------------------------------------------

using gtw::obs::BudgetSegment;
using gtw::obs::PhaseBudget;
using gtw::obs::SpanFile;
using gtw::obs::SpanRec;
using gtw::obs::SpanStatus;
using gtw::obs::TraceRec;
using gtw::obs::TraceStatus;

void print_spans_summary(const SpanFile& f) {
  std::size_t closed = 0, aborted = 0, open = 0, open_spans = 0;
  for (const TraceRec& t : f.traces) {
    if (t.status == TraceStatus::kClosed)
      ++closed;
    else if (t.status == TraceStatus::kAborted)
      ++aborted;
    else
      ++open;
  }
  for (const SpanRec& s : f.spans)
    if (s.status == SpanStatus::kOpen) ++open_spans;
  std::cout << "label:   " << f.label << "\n"
            << "traces:  " << f.traces.size() << " (" << closed << " closed, "
            << aborted << " aborted, " << open << " open)\n"
            << "spans:   " << f.spans.size() << " (" << open_spans
            << " open at write)\n";
}

// The delay-budget table (paper experiment e2): every closed trace's
// end-to-end latency decomposed into phases by the innermost-active-span
// sweep.  The sweep partitions each root interval, so the phase column
// sums to the end-to-end column *exactly* in integer picoseconds — a
// mismatch means a corrupt artifact and is a non-zero exit.
int print_budget(const SpanFile& f) {
  PhaseBudget b;
  try {
    b = gtw::obs::budget(f);
  } catch (const std::overflow_error& e) {
    std::cerr << "gtw-trace: " << e.what() << "\n";
    return 1;
  }
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
        b.total_ps == 0 ? 0 : mul_div(ps, 1000, b.total_ps / 2, b.total_ps);
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
            << "\", " << gtw::obs::trace_status_name(t.status);
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
    const int lo =
        static_cast<int>(mul_div(seg.begin_ps - t0, kBar, 0, total));
    int hi = static_cast<int>(mul_div(seg.end_ps - t0, kBar, 0, total));
    if (hi <= lo) hi = lo + 1;  // every segment gets at least one cell
    std::string bar(kBar, '.');
    for (int i = lo; i < hi && i < kBar; ++i) bar[i] = '#';
    // The layer chain from the root down to the owning span is the causal
    // crossing this slice of the budget sits on (flow>meta>tcp>link ...).
    const std::string span_col = gtw::obs::layer_chain(f, *seg.span) + "/" +
                                 seg.span->name +
                                 (seg.span->status == SpanStatus::kAborted
                                      ? "!"
                                      : "");
    std::printf("  %14lld %14lld  %-16s %-38s |%s|\n",
                static_cast<long long>(seg.begin_ps - t0),
                static_cast<long long>(dur),
                gtw::des::span_phase_name(seg.span->phase),
                span_col.c_str(), bar.c_str());
  }
}

int run_spans_mode(const std::string& path, int argc, char** argv) {
  bool budget = false, profile = false, gantt = false, msg_matrix = false;
  int gantt_cols = 72;
  std::string critical_sel;
  std::string chrome_out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--budget") {
      budget = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--gantt") {
      gantt = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        const std::string cols = argv[++i];
        const bool digits =
            !cols.empty() && cols.size() <= 4 &&
            cols.find_first_not_of("0123456789") == std::string::npos;
        gantt_cols = digits ? std::stoi(cols) : 0;
        if (gantt_cols < 1 || gantt_cols > 1000) {
          std::cerr << "gtw-trace: --gantt takes 1-1000 columns, got '"
                    << cols << "'\n";
          return usage(argv[0]);
        }
      }
    } else if (arg == "--msg-matrix") {
      msg_matrix = true;
    } else if (arg == "--critical-path") {
      if (i + 1 >= argc) return usage(argv[0]);
      critical_sel = argv[++i];
    } else if (arg == "--chrome") {
      if (i + 1 >= argc) return usage(argv[0]);
      chrome_out = argv[++i];
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
  SpanFile f;
  std::string error;
  if (!gtw::obs::load_spans(in, path, f, error)) {
    std::cerr << "gtw-trace: " << error << "\n";
    return 1;
  }

  if (!budget && critical_sel.empty() && !profile && !gantt && !msg_matrix &&
      chrome_out.empty())
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
  if (profile) std::cout << gtw::obs::profile(f);
  if (gantt) std::cout << gtw::obs::gantt(f, gantt_cols);
  if (msg_matrix) std::cout << gtw::obs::msg_matrix(f);
  if (!chrome_out.empty()) {
    std::ofstream out(chrome_out, std::ios::binary);
    if (!out) {
      std::cerr << "gtw-trace: cannot write '" << chrome_out << "'\n";
      return 1;
    }
    gtw::obs::write_chrome_trace(out, f);
    std::cout << "wrote " << chrome_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string path = argv[1];
  if (path == "--help" || path == "-h") return usage(argv[0]);

  if (path.size() > 11 && path.rfind(".spans.json") == path.size() - 11)
    return run_spans_mode(path, argc, argv);

  if (path.size() > 5 && path.rfind(".json") == path.size() - 5)
    return argc == 2 ? print_obs_engine(path) : usage(argv[0]);
  return usage(argv[0]);
}
