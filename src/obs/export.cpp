#include "obs/export.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/span.h"

namespace viaduct::obs {

namespace {

/// Shortest round-trip double formatting of a finite value, valid in both
/// OpenMetrics and JSON.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// JSON number: non-finite values (an overflow-bucket quantile, a NaN
/// gauge) have no JSON spelling and are written as null.
std::string jsonNum(double v) {
  return std::isfinite(v) ? num(v) : std::string("null");
}

/// OpenMetrics float: like num() but with the exposition-format spellings
/// of the non-finite values.
std::string omNum(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return num(v);
}

void appendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string openMetricsName(std::string_view name) {
  std::string out = "viaduct_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

const char* openMetricsContentType() {
  return "application/openmetrics-text; version=1.0.0; charset=utf-8";
}

std::string openMetricsText(const RegistrySnapshot& snap) {
  std::string out;
  out.reserve(4096);

  for (const auto& [name, value] : snap.counters) {
    const std::string m = openMetricsName(name);
    out += "# TYPE " + m + " counter\n";
    out += m + "_total " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string m = openMetricsName(name);
    out += "# TYPE " + m + " gauge\n";
    out += m + " " + omNum(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string m = openMetricsName(name);
    out += "# TYPE " + m + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      out += m + "_bucket{le=\"";
      out += b < h.bounds.size() ? omNum(h.bounds[b]) : std::string("+Inf");
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += m + "_sum " + omNum(h.sum) + "\n";
    out += m + "_count " + std::to_string(h.count) + "\n";
    // Derived quantiles as companion gauges (an OpenMetrics histogram has
    // no quantile children; a scraper without recording rules still gets
    // p50/p90/p99 directly).
    for (const auto& [suffix, q] :
         {std::pair<const char*, double>{"_p50", 0.50},
          {"_p90", 0.90},
          {"_p99", 0.99}}) {
      out += "# TYPE " + m + suffix + " gauge\n";
      out += m + suffix + " " + omNum(histogramQuantile(h, q)) + "\n";
    }
  }
  for (const auto& [name, s] : snap.spans) {
    const std::string m = openMetricsName("span." + name);
    out += "# TYPE " + m + "_seconds counter\n";
    out += m + "_seconds_total " + num(static_cast<double>(s.totalNs) * 1e-9) +
           "\n";
    out += "# TYPE " + m + "_calls counter\n";
    out += m + "_calls_total " + std::to_string(s.count) + "\n";
  }
  out += "# EOF\n";
  return out;
}

std::string openMetricsText() {
  return openMetricsText(Registry::instance().snapshot());
}

std::string sampleJsonLine(const RegistrySnapshot& snap, std::uint64_t seq,
                           std::uint64_t unixMillis, std::uint64_t monoNs) {
  std::string out;
  out.reserve(2048);
  out += "{\"schema\":\"viaduct-obs-stream-v1\",\"seq\":";
  out += std::to_string(seq);
  out += ",\"unix_ms\":" + std::to_string(unixMillis);
  out += ",\"mono_ns\":" + std::to_string(monoNs);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ',';
    first = false;
    appendJsonString(out, name);
    out += ':' + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    appendJsonString(out, name);
    out += ':' + jsonNum(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    appendJsonString(out, name);
    out += ":{\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + num(h.sum);
    out += ",\"p50\":" + jsonNum(histogramQuantile(h, 0.50));
    out += ",\"p90\":" + jsonNum(histogramQuantile(h, 0.90));
    out += ",\"p99\":" + jsonNum(histogramQuantile(h, 0.99));
    out += ",\"counts\":[";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b) out += ',';
      out += std::to_string(h.counts[b]);
    }
    out += "]}";
  }
  out += "},\"spans\":{";
  first = true;
  for (const auto& [name, s] : snap.spans) {
    if (!first) out += ',';
    first = false;
    appendJsonString(out, name);
    out += ":{\"count\":" + std::to_string(s.count);
    out += ",\"total_seconds\":" + num(static_cast<double>(s.totalNs) * 1e-9);
    out += '}';
  }
  out += "}}\n";
  return out;
}

}  // namespace viaduct::obs
