// cold_bestk: the paper's batch use.  Load a SNAP edge list through
// CoreEngine::FromEdgeListFile (setup_s), then answer the report a batch
// job prints — component count, global triangles and triplets, and the
// best k-core set and best single k-core for the six paper metrics
// (analyze_s).  Every repetition starts from a fresh engine.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "corekit/core/baseline.h"
#include "corekit/core/metrics.h"
#include "corekit/graph/parallel_edge_list.h"
#include "corekit/graph/parallel_graph_builder.h"
#include "corekit/util/thread_pool.h"
#include "inputs.h"

namespace perfbench {

using corekit::CoreEngine;
using corekit::Metric;

namespace {

struct Best {
  corekit::VertexId k = 0;
  std::uint64_t score_bits = 0;
  std::size_t num_scores = 0;
  bool operator==(const Best&) const = default;
};

struct ColdAnswers {
  std::uint64_t components = 0;
  std::uint64_t triangles = 0;
  std::uint64_t triplets = 0;
  std::vector<Best> core_set;     // kAllMetrics order
  std::vector<Best> single_core;  // kAllMetrics order
  bool operator==(const ColdAnswers&) const = default;
};

// Answers the report: 15 answers, each a query whose latency is recorded
// when `latencies` is given.  A traced call first builds the decomposition,
// order and forest in their own spans, in dependency order, so every span
// covers exactly one stage's build; untraced, the first answers that need
// them pay for those builds, as a caller would.
ColdAnswers Analyze(CoreEngine& engine, SpanBuffer* trace,
                    std::uint64_t request, std::vector<double>* latencies) {
  if (trace != nullptr) {
    { ScopedSpan s(trace, "core.decompose", request); (void)engine.Cores(); }
    { ScopedSpan s(trace, "core.order", request); (void)engine.Ordered(); }
    { ScopedSpan s(trace, "core.forest", request); (void)engine.Forest(); }
  }
  ColdAnswers answers;
  const auto answer = [&](const char* span, const auto& compute) {
    ScopedSpan s(trace, span, request);
    const std::int64_t start = NowNs();
    compute();
    if (latencies != nullptr) latencies->push_back(SecondsSince(start));
  };
  answer("core.components",
         [&] { answers.components = engine.Components().num_components; });
  answer("core.triangles", [&] { answers.triangles = engine.Triangles(); });
  answer("core.triplets", [&] { answers.triplets = engine.Triplets(); });
  for (const Metric metric : corekit::kAllMetrics) {
    answer("core.coreset", [&] {
      const corekit::CoreSetProfile& p = engine.BestCoreSet(metric);
      answers.core_set.push_back(
          {p.best_k, Bits(p.best_score), p.scores.size()});
    });
  }
  for (const Metric metric : corekit::kAllMetrics) {
    answer("core.singlecore", [&] {
      const corekit::SingleCoreProfile& p = engine.BestSingleCore(metric);
      answers.single_core.push_back(
          {p.best_k, Bits(p.best_score), p.scores.size()});
    });
  }
  return answers;
}

constexpr std::uint64_t kAnswersPerRep = 3 + 2 * std::size(corekit::kAllMetrics);
constexpr std::uint64_t kOpsPerRep = 1 + kAnswersPerRep;
// Repetitions a metric run makes at least, however long they take: enough
// answers that the p99 answer latency has ten samples beyond it.
constexpr int kMinReps = 80;

// One untraced repetition: the FromEdgeListFile load, then the analysis.
bool UntracedRep(const std::string& path, Report& report,
                 std::vector<ColdAnswers>& answers) {
  const std::int64_t start = NowNs();
  auto engine = CoreEngine::FromEdgeListFile(path, BenchEngineOptions());
  if (!engine.ok()) {
    report.Check("cold.load", false, engine.status().ToString());
    report.AddOps(kOpsPerRep, kOpsPerRep);
    return false;
  }
  const double setup = SecondsSince(start);
  const std::int64_t analyze_start = NowNs();
  answers.push_back(Analyze(**engine, nullptr, 0, &report.Samples("query_s")));
  const double analyze = SecondsSince(analyze_start);
  report.Samples("setup_s").push_back(setup);
  report.Samples("analyze_s").push_back(analyze);
  report.AddOps(kOpsPerRep, 0);
  return true;
}

// One traced repetition: the same work as FromEdgeListFile, called layer
// by layer (parse, CSR build, engine) so each gets its own span.
bool TracedRep(const std::string& path, SpanBuffer* trace,
               std::uint64_t request, Report& report, const std::string& phase,
               std::vector<ColdAnswers>& answers) {
  std::unique_ptr<CoreEngine> engine;
  {
    ScopedSpan root(trace, "cold", request);
    auto pool = std::make_unique<corekit::ThreadPool>(
        BenchEngineOptions().num_threads);
    corekit::Result<corekit::ParsedEdgeList> parsed =
        corekit::Status::Internal("unset");
    {
      ScopedSpan s(trace, "graph.ingest", request);
      parsed = corekit::ParseSnapEdgeListParallel(path, *pool);
    }
    if (!parsed.ok()) {
      report.Check("cold.load", false, parsed.status().ToString());
      return false;
    }
    corekit::Graph graph;
    {
      ScopedSpan s(trace, "graph.build", request);
      graph = corekit::BuildGraphParallel(parsed->num_vertices, parsed->edges,
                                          *pool);
    }
    report.SetCounter(phase, "graph.edges",
                      static_cast<double>(graph.NumEdges()));
    {
      ScopedSpan s(trace, "engine.construct", request);
      engine = std::make_unique<CoreEngine>(std::move(graph),
                                            BenchEngineOptions());
    }
    answers.push_back(Analyze(*engine, trace, request, nullptr));
  }
  const EngineTotals totals = Totals(*engine);
  report.SetCounter(phase, "engine.builds", static_cast<double>(totals.builds));
  report.SetCounter(phase, "engine.hits", static_cast<double>(totals.hits));
  report.SetCounter(phase, "engine.patches",
                    static_cast<double>(totals.patches));
  report.AddOps(kOpsPerRep, 0);
  return true;
}

std::string Describe(const Best& best) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "k=%u score_bits=%016" PRIx64 " n=%zu",
                best.k, best.score_bits, best.num_scores);
  return buffer;
}

// The correctness gate: every repetition answered the same, and that
// answer equals an engine built on the generator's in-memory graph and,
// for ad/den/cr/con/mod, the Sec. III-A / IV-B from-scratch baselines.
void CheckCold(const RunOptions& options, const std::vector<ColdAnswers>& all,
               Report& report) {
  if (!report.Check("cold.answered", !all.empty())) return;
  const ColdAnswers& got = all.front();
  bool repeat = true;
  for (const ColdAnswers& answers : all) repeat = repeat && answers == got;
  report.Check("cold.repetitions_agree", repeat);

  CoreEngine oracle(MakeColdOracleGraph(options.seed), BenchEngineOptions());
  ColdAnswers expected = Analyze(oracle, nullptr, 0, nullptr);
  if (options.corrupt_expected) expected.core_set[0].score_bits ^= 1;
  report.Check("cold.components", got.components == expected.components);
  report.Check("cold.triangles", got.triangles == expected.triangles);
  report.Check("cold.triplets", got.triplets == expected.triplets);

  const corekit::Graph& graph = oracle.graph();
  const corekit::CoreDecomposition& cores = oracle.Cores();
  const corekit::CoreForest& forest = oracle.Forest();
  for (std::size_t i = 0; i < std::size(corekit::kAllMetrics); ++i) {
    const Metric metric = corekit::kAllMetrics[i];
    const std::string name = corekit::MetricShortName(metric);
    report.Check("cold.coreset." + name,
                 got.core_set[i] == expected.core_set[i],
                 Describe(got.core_set[i]) + " vs " +
                     Describe(expected.core_set[i]));
    report.Check("cold.singlecore." + name,
                 got.single_core[i] == expected.single_core[i],
                 Describe(got.single_core[i]) + " vs " +
                     Describe(expected.single_core[i]));
    if (metric == Metric::kClusteringCoefficient) continue;
    const corekit::CoreSetProfile set =
        corekit::BaselineFindBestCoreSet(graph, cores, metric);
    const Best set_best{set.best_k, Bits(set.best_score), set.scores.size()};
    report.Check("cold.baseline.coreset." + name, got.core_set[i] == set_best,
                 Describe(got.core_set[i]) + " vs " + Describe(set_best));
    const corekit::SingleCoreProfile single =
        corekit::BaselineFindBestSingleCore(graph, cores, forest, metric);
    const Best single_best{single.best_k, Bits(single.best_score),
                           single.scores.size()};
    report.Check("cold.baseline.singlecore." + name,
                 got.single_core[i] == single_best,
                 Describe(got.single_core[i]) + " vs " + Describe(single_best));
  }
}

}  // namespace

void RunCold(const RunOptions& options, Report& report) {
  const std::string path = options.inputs + "/" + kColdGraphFile;
  std::vector<ColdAnswers> answers;
  // One discarded repetition first: faults in the allocator's arenas and
  // the file's pages, which every later repetition finds warm.
  {
    Report discard;
    if (!UntracedRep(path, discard, answers)) {
      report.Check("cold.load", false, "warm-up load failed");
      return;
    }
  }
  // Untraced repetitions until the time is up (at least three).  A traced
  // run alternates untraced and traced repetitions, so both see the same
  // machine state; the untraced ones give the end-to-end numbers the
  // tracing overhead and the self-time sum are compared against.
  SpanBuffer* trace = options.trace ? report.NewBuffer("workload") : nullptr;
  const std::int64_t start = NowNs();
  std::uint64_t traced_reps = 0;
  for (int rep = 0;; ++rep) {
    const bool traced = trace != nullptr && rep % 2 == 1;
    const bool ok = traced ? TracedRep(path, trace, traced_reps++, report,
                                       "workload", answers)
                           : UntracedRep(path, report, answers);
    if (!ok) return;
    const bool enough = trace == nullptr ? rep + 1 >= kMinReps : traced_reps >= 3;
    if (enough && SecondsSince(start) >= options.seconds) break;
  }
  report.SetValue("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  CheckCold(options, answers, report);
}

void ControlCold(const RunOptions& options, Report& report) {
  SpanBuffer* trace = report.NewBuffer("control");
  std::vector<ColdAnswers> answers;
  const std::string path = options.inputs + "/" + kControlEdgeFile;
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    if (!TracedRep(path, trace, rep, report, "control", answers)) return;
  }
  bool repeat = true;
  for (const ColdAnswers& a : answers) repeat = repeat && a == answers.front();
  report.Check("control.cold.repetitions_agree", repeat);
}

}  // namespace perfbench
