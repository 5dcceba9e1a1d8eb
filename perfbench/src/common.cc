#include "common.h"

#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

// %.17g round-trips every double; JSON has no inf/nan, so those (which
// no measurement here produces) become null and fail run.py's parse.
void AppendNumber(std::string& out, double value) {
  if (value != value || value - value != 0.0) {
    out += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

void AppendString(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

std::uint64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::uint64_t kib = 0;
      fields >> kib;
      return kib * 1024;
    }
  }
  return 0;
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

bool Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  if (!ok) {
    std::fprintf(stderr, "perfbench: check failed: %s %s\n", name.c_str(),
                 detail.c_str());
  }
  return ok;
}

SpanBuffer* Report::NewBuffer(const std::string& phase) {
  buffers_.push_back(std::make_unique<SpanBuffer>(phase));
  return buffers_.back().get();
}

std::string Report::ToJson() const {
  std::string out = "{\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : samples_) {
    if (!first) out += ',';
    first = false;
    AppendString(out, name);
    out += ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out += ',';
      AppendNumber(out, values[i]);
    }
    out += ']';
  }
  out += "},\"values\":{";
  first = true;
  for (const auto& [name, value] : values_) {
    if (!first) out += ',';
    first = false;
    AppendString(out, name);
    out += ':';
    AppendNumber(out, value);
  }
  out += "},\"counters\":{";
  first = true;
  for (const auto& [phase, counters] : counters_) {
    if (!first) out += ',';
    first = false;
    AppendString(out, phase);
    out += ":{";
    bool inner_first = true;
    for (const auto& [name, value] : counters) {
      if (!inner_first) out += ',';
      inner_first = false;
      AppendString(out, name);
      out += ':';
      AppendNumber(out, value);
    }
    out += '}';
  }
  out += "},\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) + ",\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i) out += ',';
    out += "{\"name\":";
    AppendString(out, checks_[i].name);
    out += ",\"ok\":";
    out += checks_[i].ok ? "true" : "false";
    out += ",\"detail\":";
    AppendString(out, checks_[i].detail);
    out += '}';
  }
  // Spans as [lane, index, parent, name, start_ns, end_ns, request, phase];
  // a root's parent is -1.
  out += "],\"spans\":[";
  first = true;
  for (std::size_t lane = 0; lane < buffers_.size(); ++lane) {
    const SpanBuffer& buffer = *buffers_[lane];
    for (std::size_t i = 0; i < buffer.spans().size(); ++i) {
      const Span& span = buffer.spans()[i];
      if (!first) out += ',';
      first = false;
      out += '[' + std::to_string(lane) + ',' + std::to_string(i) + ',' +
             (span.parent == Span::kNoParent ? std::string("-1")
                                             : std::to_string(span.parent)) +
             ',';
      AppendString(out, span.name);
      out += ',' + std::to_string(span.start_ns) + ',' +
             std::to_string(span.end_ns) + ',' +
             std::to_string(span.request) + ',';
      AppendString(out, buffer.phase());
      out += ']';
    }
  }
  out += "]}";
  return out;
}

EngineTotals Totals(const corekit::CoreEngine& engine) {
  const corekit::StageStats& stats = engine.stats();
  return {stats.TotalBuilds(), stats.TotalHits(), stats.TotalPatches()};
}

corekit::CoreEngineOptions BenchEngineOptions() {
  corekit::CoreEngineOptions options;
  options.num_threads = 1;
  return options;
}

}  // namespace perfbench
