#include "src/obs/exporters.h"

#include <cinttypes>
#include <cstdio>

#include "src/util/strings.h"

namespace robodet {
namespace {

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string FormatU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string FormatMicros(uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1000.0);
  return buf;
}

// Prometheus label-value escaping: backslash, quote, newline.
std::string PromEscape(std::string_view s) {
  std::string out = ReplaceAll(s, "\\", "\\\\");
  out = ReplaceAll(out, "\"", "\\\"");
  out = ReplaceAll(out, "\n", "\\n");
  return out;
}

// {a="1",b="2"} with an optional extra label (used for `le`); empty
// string when there are no labels at all.
std::string PromLabels(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) {
    return "";
  }
  std::string out = "{";
  for (const Label& label : labels) {
    if (out.size() > 1) {
      out += ',';
    }
    out += label.key + "=\"" + PromEscape(label.value) + "\"";
  }
  if (!extra.empty()) {
    if (out.size() > 1) {
      out += ',';
    }
    out += extra;
  }
  out += '}';
  return out;
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  for (const Label& label : labels) {
    if (out.size() > 1) {
      out += ',';
    }
    out += '"';
    out += JsonEscape(label.key);
    out += "\":\"";
    out += JsonEscape(label.value);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string ExportPrometheus(const RegistrySnapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.name != last_family) {
      out += "# TYPE " + m.name + " " + std::string(MetricKindName(m.kind)) + "\n";
      last_family = m.name;
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        out += m.name + PromLabels(m.labels) + " " + FormatU64(m.counter) + "\n";
        break;
      case MetricKind::kGauge:
        out += m.name + PromLabels(m.labels) + " " + std::to_string(m.gauge) + "\n";
        break;
      case MetricKind::kHistogram: {
        uint64_t cumulative = 0;
        for (size_t i = 0; i < m.histogram.counts.size(); ++i) {
          cumulative += m.histogram.counts[i];
          const std::string le = i < m.histogram.bounds.size()
                                     ? FormatNumber(m.histogram.bounds[i])
                                     : "+Inf";
          out += m.name + "_bucket" + PromLabels(m.labels, "le=\"" + le + "\"") + " " +
                 FormatU64(cumulative) + "\n";
        }
        out += m.name + "_sum" + PromLabels(m.labels) + " " + FormatNumber(m.histogram.sum) +
               "\n";
        out += m.name + "_count" + PromLabels(m.labels) + " " + FormatU64(m.histogram.count) +
               "\n";
        break;
      }
    }
  }
  return out;
}

std::string ExportJson(const RegistrySnapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"" + JsonEscape(m.name) + "\",\"kind\":\"" +
           std::string(MetricKindName(m.kind)) + "\",\"labels\":" + JsonLabels(m.labels);
    switch (m.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":" + FormatU64(m.counter);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":" + std::to_string(m.gauge);
        break;
      case MetricKind::kHistogram: {
        out += ",\"count\":" + FormatU64(m.histogram.count) +
               ",\"sum\":" + FormatNumber(m.histogram.sum) + ",\"buckets\":[";
        for (size_t i = 0; i < m.histogram.counts.size(); ++i) {
          if (i > 0) {
            out += ',';
          }
          const std::string le = i < m.histogram.bounds.size()
                                     ? FormatNumber(m.histogram.bounds[i])
                                     : "\"+Inf\"";
          out += "{\"le\":" + le + ",\"count\":" + FormatU64(m.histogram.counts[i]) + "}";
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string FormatTraceText(const RequestTrace& trace) {
  std::string out = "trace " + FormatU64(trace.trace_id) + " path=" + trace.path +
                    " session=" + FormatU64(trace.session_id);
  if (!trace.verdict.empty()) {
    out += " verdict=" + trace.verdict;
  }
  if (!trace.verdict_source.empty()) {
    out += " source=" + trace.verdict_source;
  }
  if (trace.blocked) {
    out += " blocked";
  }
  if (trace.forced) {
    out += " forced";
  }
  out += " total=" + FormatMicros(trace.duration_ns) + "\n";
  for (const TraceSpan& span : trace.spans) {
    out.append(2 + 2 * static_cast<size_t>(span.depth), ' ');
    char line[160];
    std::snprintf(line, sizeof(line), "%-24s %s", span.name.c_str(),
                  FormatMicros(span.duration_ns).c_str());
    out += line;
    if (!span.note.empty()) {
      out += " [" + span.note + "]";
    }
    out += '\n';
  }
  return out;
}

std::string ExportTracesJson(const std::vector<RequestTrace>& traces) {
  std::string out = "{\"traces\":[";
  bool first_trace = true;
  for (const RequestTrace& trace : traces) {
    if (!first_trace) {
      out += ',';
    }
    first_trace = false;
    out += "{\"trace_id\":" + FormatU64(trace.trace_id) +
           ",\"session_id\":" + FormatU64(trace.session_id) + ",\"path\":\"" +
           JsonEscape(trace.path) + "\",\"duration_ns\":" + FormatU64(trace.duration_ns) +
           ",\"blocked\":" + (trace.blocked ? "true" : "false") + ",\"verdict\":\"" +
           JsonEscape(trace.verdict) + "\",\"verdict_source\":\"" +
           JsonEscape(trace.verdict_source) + "\",\"spans\":[";
    bool first_span = true;
    for (const TraceSpan& span : trace.spans) {
      if (!first_span) {
        out += ',';
      }
      first_span = false;
      out += "{\"name\":\"" + JsonEscape(span.name) +
             "\",\"depth\":" + std::to_string(span.depth) +
             ",\"duration_ns\":" + FormatU64(span.duration_ns);
      if (!span.note.empty()) {
        out += ",\"note\":\"" + JsonEscape(span.note) + "\"";
      }
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace robodet
