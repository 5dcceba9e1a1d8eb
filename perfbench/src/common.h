// Shared pieces of the perfbench binary: the clock, the span recorder
// used by traced runs, and the raw report the binary hands to run.py.
//
// The binary measures and checks; it computes no statistics.  Every
// sample, span and counter goes out raw, and run.py (stats.py) turns
// them into the printed metrics, so the arithmetic lives in one place
// that its unit tests cover.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corekit/engine/core_engine.h"

namespace perfbench {

// Nanoseconds on the steady clock since the process started.
std::int64_t NowNs();
inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Peak resident set of this process (VmHWM), in bytes.
std::uint64_t PeakRssBytes();

// --- Spans ---------------------------------------------------------------

// One timed call.  `parent` is the index of the enclosing span in the same
// buffer (kNoParent for a root); `request` groups the spans of one request.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t parent;
  std::uint64_t request;
};

// Spans recorded by one thread, kept in memory until the run ends.  A
// buffer belongs to one phase: "workload" for the workload's own calls,
// "control" for the small fixed pass that covers layers the workload does
// not call (see README.md).
class SpanBuffer {
 public:
  explicit SpanBuffer(std::string phase) : phase_(std::move(phase)) {}

  std::uint32_t Begin(const char* name, std::uint64_t request) {
    const std::uint32_t parent = open_.empty() ? Span::kNoParent : open_.back();
    spans_.push_back({name, NowNs(), 0, parent, request});
    const auto index = static_cast<std::uint32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }
  void End(std::uint32_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  const std::string& phase() const { return phase_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string phase_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// RAII span; a null buffer makes it free, which is the untraced path.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, std::uint64_t request = 0)
      : buffer_(buffer),
        index_(buffer ? buffer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (buffer_) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  std::uint32_t index_;
};

// --- The raw report --------------------------------------------------------

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Report {
 public:
  // Timing samples in seconds, by name (e.g. "setup_s", "query_s").
  std::vector<double>& Samples(const std::string& name) {
    return samples_[name];
  }
  void SetValue(const std::string& name, double value) {
    values_[name] = value;
  }
  // Layer counters of a traced run, by phase.
  void SetCounter(const std::string& phase, const std::string& name,
                  double value) {
    counters_[phase][name] = value;
  }
  void AddOps(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // Records one correctness check; a failed check fails the run.
  bool Check(const std::string& name, bool ok, const std::string& detail = "");

  // A span buffer owned by the report (stable address).
  SpanBuffer* NewBuffer(const std::string& phase);

  std::string ToJson() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, std::map<std::string, double>> counters_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<CheckResult> checks_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// Exact bit pattern of a double, for bitwise answer comparisons.
std::uint64_t Bits(double value);

// Stage counters of one engine summed over its stages (StageStats).
struct EngineTotals {
  std::uint64_t builds = 0;
  std::uint64_t hits = 0;
  std::uint64_t patches = 0;
};
EngineTotals Totals(const corekit::CoreEngine& engine);

// Options of every engine the benchmark builds: one thread and the
// parallel stage flags off (see README.md, "Box and load").
corekit::CoreEngineOptions BenchEngineOptions();

// --- Workload entry points ---------------------------------------------

struct RunOptions {
  std::string workload;
  std::string inputs;  // directory `gen` wrote
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Test hook: flips one bit of one expected answer, so the correctness
  // gate must fail the run.
  bool corrupt_expected = false;
};

// cold_bestk (cold.cc).
void RunCold(const RunOptions& options, Report& report);
// serve_hot and churn_evict (serve.cc).
void RunServe(const RunOptions& options, Report& report);

// The control pass of a traced run: the cold pipeline and the serving
// path once each over the small control inputs, recorded in "control"
// spans and counters (README.md, "Traced run").
void ControlCold(const RunOptions& options, Report& report);
void ControlServe(const RunOptions& options, Report& report);

}  // namespace perfbench
