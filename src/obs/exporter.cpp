#include "obs/exporter.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string_view>

namespace gtw::obs {

namespace {

// JSON string escape (control characters, quote, backslash).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Chrome `ts` is microseconds.  1 us == 1'000'000 ps, so the 6-digit
// fraction below is the picosecond remainder verbatim: exact integer
// formatting, byte-identical run to run.
std::string ts_us(std::int64_t ps) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%06" PRId64, ps / 1'000'000,
                ps % 1'000'000);
  return buf;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const SpanFile& f,
                        const ChromeTraceOptions& opts) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };

  // Process 0: the lane tracks (and the marks and counters below).
  const LaneStats lanes = lane_stats(f);
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
       "\"args\":{\"name\":\"" + json_escape(opts.process_name) + "\"}}");
  for (std::int64_t l = 0; l < lanes.lanes; ++l) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
         std::to_string(l) + ",\"args\":{\"name\":\"lane " +
         std::to_string(l) + "\"}}");
  }

  // One process per trace, one track per span.
  for (const TraceRec& t : f.traces) {
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(t.id) + ",\"tid\":0,\"args\":{\"name\":\"trace " +
         std::to_string(t.id) + " " + json_escape(t.origin) + " (" +
         trace_status_name(t.status) + ")\"}}");
  }
  for (const SpanRec& s : f.spans) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(s.trace) + ",\"tid\":" + std::to_string(s.id) +
         ",\"args\":{\"name\":\"" + json_escape(s.layer) + "/" +
         json_escape(s.name) + "\"}}");
    emit("{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
         des::span_phase_name(s.phase) + "\",\"ph\":\"X\",\"pid\":" +
         std::to_string(s.trace) + ",\"tid\":" + std::to_string(s.id) +
         ",\"ts\":" + ts_us(s.begin_ps) + ",\"dur\":" +
         ts_us(s.end_ps - s.begin_ps) + ",\"args\":{\"layer\":\"" +
         json_escape(s.layer) + "\",\"status\":\"" +
         span_status_name(s.status) + "\"}}");
  }
  // Causal edges: a flow arrow from each parent span to each child, bound
  // at the child's begin time (the instant causality transfers).
  for (const SpanRec& s : f.spans) {
    if (s.parent == 0) continue;
    const std::string id = std::to_string(s.id);
    emit("{\"name\":\"span-edge\",\"cat\":\"span\",\"ph\":\"s\",\"pid\":" +
         std::to_string(s.trace) + ",\"tid\":" + std::to_string(s.parent) +
         ",\"ts\":" + ts_us(s.begin_ps) + ",\"id\":" + id + "}");
    emit("{\"name\":\"span-edge\",\"cat\":\"span\",\"ph\":\"f\",\"bp\":\"e\","
         "\"pid\":" +
         std::to_string(s.trace) + ",\"tid\":" + std::to_string(s.id) +
         ",\"ts\":" + ts_us(s.begin_ps) + ",\"id\":" + id + "}");
  }

  // The lane tracks: states as complete events, and per message an arrow
  // from its send to its recv.  Message arrows take the id space after the
  // span edges', so every flow id in the file is unique.
  for (const SpanRec& s : f.spans) {
    if (s.lane < 0 || s.status != SpanStatus::kOk) continue;
    const SpanRec* send = span_by_id(f, s.parent);
    const std::string tid = std::to_string(s.lane);
    if (send != nullptr && send->to >= 0) {
      const std::string id = std::to_string(f.spans.size() + s.id);
      const std::string bytes = std::to_string(send->bytes);
      emit("{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"pid\":0,"
           "\"tid\":" + std::to_string(send->lane) + ",\"ts\":" +
           ts_us(send->begin_ps) + ",\"id\":" + id +
           ",\"args\":{\"bytes\":" + bytes + "}}");
      emit("{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\","
           "\"pid\":0,\"tid\":" + tid + ",\"ts\":" + ts_us(s.begin_ps) +
           ",\"id\":" + id + ",\"args\":{\"bytes\":" + bytes + "}}");
    } else if (s.to < 0) {
      emit("{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
           des::span_phase_name(s.phase) +
           "\",\"ph\":\"X\",\"pid\":0,\"tid\":" + tid + ",\"ts\":" +
           ts_us(s.begin_ps) + ",\"dur\":" + ts_us(s.end_ps - s.begin_ps) +
           "}");
    }
  }

  if (opts.marks_from != nullptr) {
    for (const Mark& m : opts.marks_from->marks()) {
      emit("{\"name\":\"" + json_escape(m.name) +
           "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":" +
           ts_us(m.t.ps()) + ",\"args\":{\"phase\":\"" +
           (m.begin ? "begin" : "end") + "\"}}");
    }
  }

  if (opts.series != nullptr) {
    for (const TimeSeriesSampler::Series& s : opts.series->series()) {
      const std::string name = json_escape(s.name);
      for (const auto& [t_ps, value] : s.points) {
        emit("{\"name\":\"" + name + "\",\"ph\":\"C\",\"pid\":0,\"ts\":" +
             ts_us(t_ps) + ",\"args\":{\"value\":" + fmt_double(value) +
             "}}");
      }
    }
  }

  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_metrics_json(std::ostream& os, const Registry& reg,
                        const std::string& label) {
  os << "{\n  \"label\": \"" << json_escape(label) << "\",\n  \"metrics\": {";
  bool first = true;
  for (const Registry::Sample& s : reg.snapshot()) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(s.name) << "\": ";
    if (s.kind == Registry::Kind::kGauge)
      os << fmt_double(s.d);
    else
      os << s.u;
    first = false;
  }
  // The registry keeps no histograms; the empty object keeps the schema.
  os << "\n  },\n  \"histograms\": {\n  },\n  \"marks\": [";
  first = true;
  for (const Mark& m : reg.marks()) {
    os << (first ? "\n" : ",\n") << "    {\"t_ps\": " << m.t.ps()
       << ", \"name\": \"" << json_escape(m.name) << "\", \"phase\": \""
       << (m.begin ? "begin" : "end") << "\"}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

bool load_metrics(std::istream& in, const std::string& what,
                  std::vector<MetricRec>& out, std::string& error) {
  const auto reject = [&](const std::string& why) {
    error = what + ": " + why;
    return false;
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
    std::string value(named ? v.substr(sep + 3) : std::string_view{});
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (value.empty() || value.front() == ' ' || *end != '\0')
      return reject("line " + std::to_string(lineno) +
                    ": expected \"name\": <number> inside \"metrics\"");
    out.push_back({std::string(v.substr(1, sep - 1)), std::move(value)});
  }
  if (!closed)
    return reject("the \"metrics\" object is not closed (truncated?)");
  std::string last;
  while (std::getline(in, line))
    if (const std::string_view v = trim(line); !v.empty()) last = v;
  if (last != "}") return reject("the file does not end in '}' (truncated?)");
  return true;
}

void write_series_json(std::ostream& os, const TimeSeriesSampler& sampler) {
  os << "{\n  \"series\": [";
  bool first = true;
  for (const TimeSeriesSampler::Series& s : sampler.series()) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << json_escape(s.name)
       << "\", \"points\": [";
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      os << (i ? ", " : "") << "[" << s.points[i].first << ", "
         << fmt_double(s.points[i].second) << "]";
    }
    os << "]}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

}  // namespace gtw::obs
