// serve_hot and churn_evict: serving over loopback TCP.
//
// Both start an in-process TcpServer over an EngineRegistry whose tenants
// come from .ckg files, warm every tenant, and then drive closed loops:
//   serve_hot    `clients` connections, each replaying its own DrawQuery
//                stream (the shared mix), read-only, budget holds all.
//   churn_evict  one connection walking the churn schedule: reads from the
//                mix across every tenant, ApplyBatch frames on one tenant,
//                budget for about half the tenants.  One connection keeps
//                builds, admissions and evictions repeatable.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "common.h"
#include "corekit/engine/engine_registry.h"
#include "corekit/graph/ckg_format.h"
#include "corekit/graph/parallel_graph_builder.h"
#include "corekit/server/engine_service.h"
#include "corekit/server/load_generator.h"
#include "corekit/server/tcp_server.h"
#include "corekit/server/wire_client.h"
#include "corekit/truss/truss_decomposition.h"
#include "corekit/util/random.h"
#include "corekit/util/thread_pool.h"
#include "inputs.h"

namespace perfbench {

using corekit::CoreEngine;
using corekit::EngineRegistry;
using corekit::Metric;
using corekit::server::EngineService;
using corekit::server::LoadGenOptions;
using corekit::server::Opcode;
using corekit::server::QuerySpec;
using corekit::server::Request;
using corekit::server::Response;
using corekit::server::TcpServer;
using corekit::server::WireClient;
using corekit::server::WireError;

namespace {

// Setups per run: at least so many, taken for at least so long before the
// serving loop and again after it; setup_s and analyze_s are their medians.
// Spreading them over the run rather than a burst keeps a slow spell of
// the box from setting the median.
constexpr int kMinSetups = 20;
constexpr double kMinSetupSeconds = 1.0;
// Ops in each fixed-length replay of a traced run.
constexpr std::uint64_t kReplayOps = 400;
// Samples a loop collects at least, however long that takes, so that p99
// (reads) and p90 (batches) have ten samples beyond them.
constexpr std::uint64_t kMinReads = 1100;
constexpr std::uint64_t kMinBatches = 120;
// churn_evict reads its peak RSS after this many ops: the churned engine
// keeps every artifact version it builds, so memory grows with each batch,
// and a fixed op count keeps the figure independent of the box's speed.
constexpr std::uint64_t kRssOps = 1500;

// --- Setup -----------------------------------------------------------------

// One serving stack.  Members are destroyed server first, registry last.
struct Stack {
  MixSpec mix;
  std::uint64_t edges = 0;  // summed over the tenants as loaded
  std::unique_ptr<EngineRegistry> registry;
  std::unique_ptr<EngineService> service;
  std::unique_ptr<TcpServer> server;  // null for a direct-only twin
};

// Builds every artifact the read mix can ask for.
void Warm(CoreEngine& engine, SpanBuffer* trace) {
  { ScopedSpan s(trace, "core.decompose"); (void)engine.Cores(); }
  { ScopedSpan s(trace, "core.order"); (void)engine.Ordered(); }
  { ScopedSpan s(trace, "core.forest"); (void)engine.Forest(); }
  for (const Metric metric : corekit::kAllMetrics) {
    ScopedSpan s(trace, "core.coreset");
    (void)engine.BestCoreSet(metric);
  }
  for (const Metric metric : corekit::kAllMetrics) {
    ScopedSpan s(trace, "core.singlecore");
    (void)engine.BestSingleCore(metric);
  }
}

// The first edge of `graph`, deleted and restored to switch a tenant into
// mutable mode without changing it.
corekit::Edge FirstEdge(const corekit::Graph& graph) {
  for (corekit::VertexId u = 0; u < graph.NumVertices(); ++u) {
    if (graph.Degree(u) > 0) return {u, graph.Neighbors(u)[0]};
  }
  return {0, 0};
}

// Loads the tenants, starts the server (when asked), warms every tenant in
// mix order and switches the churned tenant into mutable mode.  The
// churned tenant's two setup batches pin it in the registry from the start.
bool BuildStack(const std::string& dir, const MixSpec& mix, bool with_server,
                bool unbounded, SpanBuffer* trace, Report& report,
                Stack& stack, double* warm_seconds = nullptr) {
  ScopedSpan root(trace, "setup");
  double warm = 0.0;
  const auto timed_warm = [&](CoreEngine& engine) {
    const std::int64_t start = NowNs();
    Warm(engine, trace);
    warm += SecondsSince(start);
  };
  stack.mix = mix;
  corekit::EngineRegistryOptions registry_options;
  registry_options.memory_budget_bytes = unbounded ? 0 : mix.budget_bytes;
  registry_options.engine_options = BenchEngineOptions();
  stack.registry = std::make_unique<EngineRegistry>(registry_options);
  for (const TenantSpec& tenant : mix.tenants) {
    corekit::Result<corekit::Graph> graph = corekit::Status::Internal("unset");
    {
      ScopedSpan s(trace, "graph.ckg_load");
      graph = corekit::ReadCkgGraph(dir + "/" + tenant.file);
    }
    if (!report.Check("setup.load." + tenant.name, graph.ok(),
                      graph.status().ToString())) {
      return false;
    }
    stack.edges += graph->NumEdges();
    ScopedSpan s(trace, "registry.add");
    if (!report.Check("setup.add." + tenant.name,
                      stack.registry->AddGraph(tenant.name,
                                               std::move(graph).value())
                          .ok())) {
      return false;
    }
  }
  stack.service = std::make_unique<EngineService>(*stack.registry);
  if (with_server) {
    ScopedSpan s(trace, "server.start");
    stack.server = std::make_unique<TcpServer>(*stack.service);
    const corekit::Status started = stack.server->Start();
    if (!report.Check("setup.server", started.ok(), started.ToString())) {
      return false;
    }
  }
  for (const TenantSpec& tenant : mix.tenants) {
    if (tenant.name == mix.churned) continue;  // warmed last, below
    corekit::Result<EngineRegistry::Lease> lease =
        corekit::Status::Internal("unset");
    {
      ScopedSpan s(trace, "registry.acquire");
      lease = stack.registry->Acquire(tenant.name);
    }
    if (!report.Check("setup.acquire." + tenant.name, lease.ok())) return false;
    timed_warm(lease->engine());
  }
  if (!mix.churned.empty()) {
    corekit::Result<EngineRegistry::Lease> lease =
        corekit::Status::Internal("unset");
    {
      ScopedSpan s(trace, "registry.acquire");
      lease = stack.registry->Acquire(mix.churned);
    }
    if (!report.Check("setup.acquire." + mix.churned, lease.ok())) return false;
    CoreEngine& engine = lease->engine();
    const corekit::Edge edge = FirstEdge(engine.graph());
    {
      ScopedSpan s(trace, "dynamic.apply");
      (void)engine.ApplyBatch({}, {edge});
    }
    {
      ScopedSpan s(trace, "dynamic.apply");
      (void)engine.ApplyBatch({edge}, {});
    }
    report.Check("setup.mutable." + mix.churned, engine.Epoch() == 2);
    timed_warm(engine);
  }
  if (warm_seconds != nullptr) *warm_seconds = warm;
  return true;
}

// Timed setups; the last one's stack is kept when `kept` is given.
// analyze_s is the part of each setup that takes the loaded engines to
// every best-k answer.
bool TimedSetups(const std::string& dir, const MixSpec& mix, SpanBuffer* trace,
                 Report& report, Stack* kept) {
  const std::int64_t first = NowNs();
  for (int i = 1;; ++i) {
    Stack stack;
    double warm = 0.0;
    const std::int64_t start = NowNs();
    if (!BuildStack(dir, mix, true, false, trace, report, stack, &warm)) {
      return false;
    }
    report.Samples("setup_s").push_back(SecondsSince(start));
    report.Samples("analyze_s").push_back(warm);
    if (i >= kMinSetups && SecondsSince(first) >= kMinSetupSeconds) {
      if (kept != nullptr) *kept = std::move(stack);
      return true;
    }
  }
}

// --- The request stream ------------------------------------------------------

struct StreamOp {
  QuerySpec spec;  // opcode kApplyBatch for writes
  Request request;
};

// The deterministic op sequence of a sequential replay.  With a schedule,
// op j is schedule[j mod size]: a read takes the next query of the mix's
// client 0, a batch goes to the churned tenant.  Without one, op j is query
// j / clients of client j mod clients, the serving mix interleaved.
class Stream {
 public:
  Stream(const MixSpec& mix, const std::vector<ScheduleOp>* schedule)
      : mix_(mix), options_(mix.LoadGen()), schedule_(schedule) {}

  StreamOp Next() {
    StreamOp op;
    const std::uint64_t j = next_++;
    if (schedule_ != nullptr &&
        (*schedule_)[j % schedule_->size()].batch) {
      const ScheduleOp& batch = (*schedule_)[j % schedule_->size()];
      op.spec.opcode = Opcode::kApplyBatch;
      op.spec.graph = mix_.churned;
      op.request.opcode = Opcode::kApplyBatch;
      op.request.graph = mix_.churned;
      op.request.inserts = batch.inserts;
      op.request.deletes = batch.deletes;
    } else {
      std::uint32_t client = 0;
      std::uint32_t index = reads_;
      if (schedule_ == nullptr) {
        client = static_cast<std::uint32_t>(reads_ % mix_.clients);
        index = static_cast<std::uint32_t>(reads_ / mix_.clients);
      }
      ++reads_;
      op.spec = corekit::server::DrawQuery(options_, client, index);
      op.request = corekit::server::SpecToRequest(op.spec);
    }
    op.request.request_id = j + 1;
    return op;
  }

 private:
  const MixSpec& mix_;
  LoadGenOptions options_;
  const std::vector<ScheduleOp>* schedule_;
  std::uint64_t next_ = 0;
  std::uint32_t reads_ = 0;
};

bool IsBatch(const StreamOp& op) {
  return op.request.opcode == Opcode::kApplyBatch;
}

// Sends `request` and times it; client-side spans when traced.  Returns
// false on a transport failure.
bool WireCall(WireClient& client, const Request& request, SpanBuffer* trace,
              Response* response, double* seconds) {
  const std::int64_t start = NowNs();
  if (trace == nullptr) {
    corekit::Result<Response> result = client.Call(request);
    *seconds = SecondsSince(start);
    if (!result.ok()) return false;
    *response = std::move(result).value();
    return true;
  }
  bool ok = false;
  {
    ScopedSpan root(trace, "wire.request", request.request_id);
    std::vector<std::uint8_t> bytes;
    {
      ScopedSpan s(trace, "wire.encode", request.request_id);
      bytes = corekit::server::EncodeRequest(request);
    }
    {
      ScopedSpan s(trace, "wire.roundtrip", request.request_id);
      ok = client.SendRaw(bytes).ok() && client.Receive(response).ok();
    }
    if (ok) {
      // The client decodes inside Receive; decoding the same frame again
      // in its own span times the wire-format decode alone.
      const std::vector<std::uint8_t> frame =
          corekit::server::EncodeResponse(*response);
      Response decoded;
      ScopedSpan s(trace, "wire.decode", request.request_id);
      ok = corekit::server::DecodeResponse(frame, &decoded) == WireError::kOk;
    }
  }
  *seconds = SecondsSince(start);
  return ok;
}

// The load generator's per-query checksum term (load_generator.cc,
// Account): the answer's fold mixed with its index and opcode.  Kept in
// step with it so the wire checksum can be compared to RunDirectLoad.
std::uint64_t ChecksumTerm(std::uint64_t fold, std::uint32_t index,
                           Opcode opcode) {
  const std::uint64_t tag = (static_cast<std::uint64_t>(index) << 8) |
                            static_cast<std::uint64_t>(opcode);
  return corekit::SplitMix64(fold ^ (tag + 0x9e3779b97f4a7c15ULL)).Next();
}

// --- serve_hot: concurrent closed loop ---------------------------------------

struct ClientLog {
  std::vector<double> ok_seconds;
  std::vector<std::uint64_t> folds;  // by query index, every answer
  std::vector<Opcode> opcodes;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
};

// `clients` connections, each sending its own DrawQuery stream until the
// deadline has passed and `min_answers` answers came back in all.  A
// traced run records client-side spans per connection.
std::vector<ClientLog> ConcurrentLoop(const Stack& stack, std::int64_t deadline,
                                      std::uint64_t min_answers,
                                      const std::vector<SpanBuffer*>& traces,
                                      double* wall_seconds) {
  const LoadGenOptions options = stack.mix.LoadGen();
  std::vector<ClientLog> logs(stack.mix.clients);
  std::atomic<std::uint64_t> answers{0};
  const std::int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < stack.mix.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      SpanBuffer* trace = traces.empty() ? nullptr : traces[c];
      WireClient client;
      if (!client.Connect("127.0.0.1", stack.server->port()).ok()) {
        ++log.sent;
        ++log.failed;
        return;
      }
      for (std::uint32_t i = 0;
           NowNs() < deadline ||
           answers.load(std::memory_order_relaxed) < min_answers;
           ++i) {
        const QuerySpec spec = corekit::server::DrawQuery(options, c, i);
        Request request = corekit::server::SpecToRequest(spec);
        request.request_id = (static_cast<std::uint64_t>(c) << 32) | i;
        Response response;
        double seconds = 0.0;
        ++log.sent;
        if (!WireCall(client, request, trace, &response, &seconds)) {
          ++log.failed;
          return;
        }
        log.folds.push_back(corekit::server::FoldAnswer(spec, response));
        log.opcodes.push_back(spec.opcode);
        answers.fetch_add(1, std::memory_order_relaxed);
        if (response.status == WireError::kOk) {
          log.ok_seconds.push_back(seconds);
        } else {
          ++log.failed;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  *wall_seconds = SecondsSince(start);
  return logs;
}

void RecordQueries(const std::vector<ClientLog>& logs, double wall,
                   Report& report, const std::string& prefix) {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<double>& samples = report.Samples(prefix + "query_s");
  for (const ClientLog& log : logs) {
    samples.insert(samples.end(), log.ok_seconds.begin(), log.ok_seconds.end());
    sent += log.sent;
    failed += log.failed;
  }
  report.SetValue(prefix + "query_wall_s", wall);
  report.SetValue(prefix + "query_failed", static_cast<double>(failed));
  report.AddOps(sent, failed);
}

// Wire checksum vs RunDirectLoad on a fresh, unbounded registry.  Clients
// that stopped early are topped up over the wire (untimed) so every client
// has answered the same number of queries, as RunDirectLoad replays.
void CheckServeHot(const RunOptions& options, const Stack& stack,
                   std::vector<ClientLog>& logs, Report& report) {
  const LoadGenOptions mix = stack.mix.LoadGen();
  std::size_t most = 0;
  for (const ClientLog& log : logs) most = std::max(most, log.folds.size());
  for (std::uint32_t c = 0; c < logs.size(); ++c) {
    WireClient client;
    if (!report.Check("serve.topup.connect",
                      client.Connect("127.0.0.1", stack.server->port()).ok())) {
      return;
    }
    for (auto i = static_cast<std::uint32_t>(logs[c].folds.size()); i < most;
         ++i) {
      const QuerySpec spec = corekit::server::DrawQuery(mix, c, i);
      Request request = corekit::server::SpecToRequest(spec);
      request.request_id = (static_cast<std::uint64_t>(c) << 32) | i;
      corekit::Result<Response> response = client.Call(request);
      if (!report.Check("serve.topup.call", response.ok())) return;
      logs[c].folds.push_back(corekit::server::FoldAnswer(spec, *response));
      logs[c].opcodes.push_back(spec.opcode);
    }
  }
  std::uint64_t wire = 0;
  for (const ClientLog& log : logs) {
    for (std::uint32_t i = 0; i < log.folds.size(); ++i) {
      wire ^= ChecksumTerm(log.folds[i], i, log.opcodes[i]);
    }
  }
  Stack fresh;
  if (!BuildStack(options.inputs, stack.mix, false, true, nullptr, report,
                  fresh)) {
    return;
  }
  const corekit::server::LoadGenReport direct = corekit::server::RunDirectLoad(
      *fresh.service, stack.mix.LoadGen(static_cast<std::uint32_t>(most)));
  const std::uint64_t expected =
      direct.checksum ^ (options.corrupt_expected ? 1 : 0);
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "wire %016" PRIx64 " direct %016" PRIx64 " queries %zu",
                wire, expected, most * logs.size());
  report.Check("serve.wire_vs_direct",
               wire == expected && direct.errors == 0, detail);
}

// --- churn_evict: one connection over the schedule ---------------------------

struct SequentialLog {
  std::vector<StreamOp> ops;  // executed, in order
  std::vector<Response> responses;
};

// Walks `stream` over one connection until the deadline has passed and at
// least `min_reads` reads and `min_batches` batches were answered.  With
// `rss_ops`, also runs at least that many ops and records the peak RSS
// right after op `rss_ops`.
SequentialLog SequentialLoop(const Stack& stack, Stream& stream,
                             std::int64_t deadline, std::uint64_t min_reads,
                             std::uint64_t min_batches, SpanBuffer* trace,
                             Report& report, const std::string& prefix,
                             std::uint64_t rss_ops = 0) {
  SequentialLog log;
  WireClient client;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<double>& reads = report.Samples(prefix + "query_s");
  std::vector<double>& batches = report.Samples(prefix + "batch_s");
  const std::int64_t start = NowNs();
  if (!client.Connect("127.0.0.1", stack.server->port()).ok()) {
    sent = failed = 1;
  }
  while (failed == 0 && (NowNs() < deadline || reads.size() < min_reads ||
                         batches.size() < min_batches ||
                         log.ops.size() < rss_ops)) {
    StreamOp op = stream.Next();
    Response response;
    double seconds = 0.0;
    ++sent;
    if (!WireCall(client, op.request, trace, &response, &seconds)) {
      ++failed;
      break;
    }
    if (response.status != WireError::kOk) {
      ++failed;
    } else {
      (IsBatch(op) ? batches : reads).push_back(seconds);
    }
    log.ops.push_back(std::move(op));
    log.responses.push_back(std::move(response));
    if (log.ops.size() == rss_ops) {
      report.SetValue("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
    }
  }
  report.SetValue(prefix + "query_wall_s", SecondsSince(start));
  report.SetValue(prefix + "query_failed", static_cast<double>(failed));
  report.AddOps(sent, failed);
  return log;
}

// Field-by-field comparison of a wire answer with the expected one.
bool SameAnswer(const Response& a, const Response& b) {
  return a.status == b.status && a.num_vertices == b.num_vertices &&
         a.num_edges == b.num_edges && a.coreness == b.coreness &&
         a.kmax == b.kmax && a.best_k == b.best_k &&
         a.best_node == b.best_node && Bits(a.best_score) == Bits(b.best_score) &&
         a.num_scores == b.num_scores && a.tmax == b.tmax;
}

// The churn gate.  Every batch applied in full; every read of a tenant
// that takes no writes matches a direct EngineService replay on a fresh,
// unbounded registry; and the churned tenant's final answers equal a cold
// engine built on the final edge set.
void CheckChurn(const RunOptions& options, const Stack& stack,
                const SequentialLog& log, Report& report) {
  bool batches_ok = true;
  for (std::size_t i = 0; i < log.ops.size(); ++i) {
    const Request& request = log.ops[i].request;
    if (!IsBatch(log.ops[i])) continue;
    const Response& response = log.responses[i];
    batches_ok = batches_ok && response.status == WireError::kOk &&
                 response.inserted == request.inserts.size() &&
                 response.deleted == request.deletes.size() &&
                 response.rejected == 0;
  }
  report.Check("churn.batches_applied", batches_ok);

  Stack fresh;
  if (!BuildStack(options.inputs, stack.mix, false, true, nullptr, report,
                  fresh)) {
    return;
  }
  // Tenants without writes answer the same at every epoch, so one direct
  // answer per distinct request stands for every repeat of it.
  std::map<std::string, std::uint64_t> expected;
  std::uint64_t compared = 0;
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < log.ops.size(); ++i) {
    const StreamOp& op = log.ops[i];
    if (IsBatch(op) || op.spec.graph == stack.mix.churned) continue;
    const std::string key = op.spec.graph + '/' +
                            std::to_string(static_cast<int>(op.spec.opcode)) +
                            '/' + std::to_string(op.spec.vertex) + '/' +
                            std::to_string(static_cast<int>(op.spec.metric));
    auto it = expected.find(key);
    if (it == expected.end()) {
      it = expected
               .emplace(key, corekit::server::FoldAnswer(
                                 op.spec, fresh.service->Handle(op.request)))
               .first;
    }
    ++compared;
    const std::uint64_t want = it->second ^ (options.corrupt_expected ? 1 : 0);
    if (corekit::server::FoldAnswer(op.spec, log.responses[i]) != want) {
      ++mismatched;
    }
  }
  report.Check("churn.reads_vs_direct", compared > 0 && mismatched == 0,
               std::to_string(mismatched) + " of " + std::to_string(compared) +
                   " reads differ");

  // The churned tenant's final edge set: its .ckg graph with every
  // executed batch (and the two setup batches, which cancel) applied.
  const TenantSpec* churned = nullptr;
  for (const TenantSpec& tenant : stack.mix.tenants) {
    if (tenant.name == stack.mix.churned) churned = &tenant;
  }
  if (!report.Check("churn.tenant", churned != nullptr)) return;
  corekit::Result<corekit::Graph> initial =
      corekit::ReadCkgGraph(options.inputs + "/" + churned->file);
  if (!report.Check("churn.reload", initial.ok())) return;
  std::set<corekit::Edge> edges;
  for (const corekit::Edge& e : initial->ToEdgeList()) edges.insert(e);
  const auto canonical = [](corekit::Edge e) {
    return e.first < e.second ? e : corekit::Edge{e.second, e.first};
  };
  for (const StreamOp& op : log.ops) {
    for (const corekit::Edge& e : op.request.inserts) edges.insert(canonical(e));
    for (const corekit::Edge& e : op.request.deletes) edges.erase(canonical(e));
  }
  corekit::ThreadPool pool(1);
  CoreEngine cold(corekit::BuildGraphParallel(
                      initial->NumVertices(),
                      corekit::EdgeList(edges.begin(), edges.end()), pool),
                  BenchEngineOptions());

  WireClient client;
  if (!report.Check("churn.final.connect",
                    client.Connect("127.0.0.1", stack.server->port()).ok())) {
    return;
  }
  std::uint64_t final_mismatches = 0;
  std::uint64_t final_compared = 0;
  const auto compare = [&](Request request, const Response& want) {
    request.graph = stack.mix.churned;
    request.request_id = ++final_compared;
    corekit::Result<Response> got = client.Call(request);
    if (!got.ok() || !SameAnswer(*got, want)) ++final_mismatches;
  };
  {
    Request request;
    request.opcode = Opcode::kGraphInfo;
    Response want;
    want.num_vertices = cold.graph().NumVertices();
    want.num_edges = cold.graph().NumEdges() + (options.corrupt_expected ? 1 : 0);
    compare(request, want);
  }
  for (const Metric metric : corekit::kAllMetrics) {
    Request request;
    request.metric = metric;
    request.opcode = Opcode::kBestCoreSet;
    const corekit::CoreSetProfile& set = cold.BestCoreSet(metric);
    Response want;
    want.best_k = set.best_k;
    want.best_score = set.best_score;
    want.num_scores = set.scores.size();
    compare(request, want);
    request.opcode = Opcode::kBestSingleCore;
    const corekit::SingleCoreProfile& single = cold.BestSingleCore(metric);
    want.best_k = single.best_k;
    want.best_node = single.best_node;
    want.best_score = single.best_score;
    want.num_scores = single.scores.size();
    compare(request, want);
  }
  for (corekit::VertexId v = 0; v < cold.graph().NumVertices(); v += 7) {
    Request request;
    request.opcode = Opcode::kCoreness;
    request.vertex = v;
    Response want;
    want.coreness = cold.Cores().coreness[v];
    want.kmax = cold.Cores().kmax;
    compare(request, want);
  }
  {
    Request request;
    request.opcode = Opcode::kTrussMax;
    const corekit::TrussDecomposition truss =
        corekit::ComputeTrussDecomposition(cold.graph());
    Response want;
    want.tmax = truss.tmax;
    want.num_edges = truss.edges.size();
    compare(request, want);
  }
  report.Check("churn.final_vs_cold", final_mismatches == 0,
               std::to_string(final_mismatches) + " of " +
                   std::to_string(final_compared) + " answers differ");
}

// --- Traced serving ------------------------------------------------------------

const char* OpcodeMetricName(Opcode opcode) {
  switch (opcode) {
    case Opcode::kGraphInfo: return "graph_info";
    case Opcode::kCoreness: return "coreness";
    case Opcode::kBestCoreSet: return "best_core_set";
    case Opcode::kBestSingleCore: return "best_single_core";
    case Opcode::kTrussMax: return "truss_max";
    case Opcode::kApplyBatch: return "apply_batch";
    case Opcode::kPing: break;
  }
  return "ping";
}

// One request answered layer by layer: the registry lease, then each
// engine accessor in dependency order, the truss peel, or the batch.  The
// Response mirrors what EngineService builds, so its fold can be compared.
Response LayerCall(EngineRegistry& registry, const Request& request,
                   SpanBuffer* trace, EngineTotals* delta,
                   CoreEngine::BatchResult* batch) {
  const std::uint64_t id = request.request_id;
  ScopedSpan root(trace, "request", id);
  corekit::Result<EngineRegistry::Lease> lease =
      corekit::Status::Internal("unset");
  {
    ScopedSpan s(trace, "registry.acquire", id);
    lease = registry.Acquire(request.graph);
  }
  Response response;
  response.opcode = request.opcode;
  if (!lease.ok()) {
    response.status = WireError::kUnknownGraph;
    return response;
  }
  CoreEngine& engine = lease->engine();
  const EngineTotals before = Totals(engine);
  switch (request.opcode) {
    case Opcode::kGraphInfo: {
      ScopedSpan s(trace, "graph.build", id);
      response.num_vertices = engine.graph().NumVertices();
      response.num_edges = engine.graph().NumEdges();
      response.epoch = engine.Epoch();
      break;
    }
    case Opcode::kCoreness: {
      ScopedSpan s(trace, "core.decompose", id);
      const corekit::CoreDecomposition& cores = engine.Cores();
      if (request.vertex >= cores.coreness.size()) {
        response.status = WireError::kBadRequest;
        break;
      }
      response.coreness = cores.coreness[request.vertex];
      response.kmax = cores.kmax;
      break;
    }
    case Opcode::kBestCoreSet: {
      { ScopedSpan s(trace, "core.decompose", id); (void)engine.Cores(); }
      { ScopedSpan s(trace, "core.order", id); (void)engine.Ordered(); }
      ScopedSpan s(trace, "core.coreset", id);
      const corekit::CoreSetProfile& p = engine.BestCoreSet(request.metric);
      response.best_k = p.best_k;
      response.best_score = p.best_score;
      response.num_scores = p.scores.size();
      break;
    }
    case Opcode::kBestSingleCore: {
      { ScopedSpan s(trace, "core.decompose", id); (void)engine.Cores(); }
      { ScopedSpan s(trace, "core.order", id); (void)engine.Ordered(); }
      { ScopedSpan s(trace, "core.forest", id); (void)engine.Forest(); }
      ScopedSpan s(trace, "core.singlecore", id);
      const corekit::SingleCoreProfile& p =
          engine.BestSingleCore(request.metric);
      response.best_k = p.best_k;
      response.best_node = p.best_node;
      response.best_score = p.best_score;
      response.num_scores = p.scores.size();
      break;
    }
    case Opcode::kTrussMax: {
      const corekit::Graph* graph = nullptr;
      {
        ScopedSpan s(trace, "graph.build", id);
        graph = &engine.graph();
      }
      ScopedSpan s(trace, "truss.peel", id);
      const corekit::TrussDecomposition truss =
          corekit::ComputeTrussDecomposition(*graph);
      response.tmax = truss.tmax;
      response.num_edges = truss.edges.size();
      break;
    }
    case Opcode::kApplyBatch: {
      ScopedSpan s(trace, "dynamic.apply", id);
      *batch = engine.ApplyBatch(request.inserts, request.deletes);
      response.epoch = batch->epoch;
      response.inserted = batch->inserted;
      response.deleted = batch->deleted;
      response.rejected = batch->rejected;
      response.coreness_changed = batch->coreness_changed;
      break;
    }
    case Opcode::kPing:
      break;
  }
  const EngineTotals after = Totals(engine);
  *delta = {after.builds - before.builds, after.hits - before.hits,
            after.patches - before.patches};
  return response;
}

// The layer replay of a traced run: kReplayOps ops of the stream on a
// fresh stack, answered through LayerCall.  Counts repeat exactly for a
// seed.  Returns the folds for the differential against the direct replay.
std::vector<std::uint64_t> LayerReplay(Stack& stack,
                                       const std::vector<ScheduleOp>* schedule,
                                       SpanBuffer* trace,
                                       const std::string& phase,
                                       Report& report) {
  const EngineRegistry::Stats before = stack.registry->stats();
  Stream stream(stack.mix, schedule);
  std::vector<std::uint64_t> folds;
  EngineTotals engine;
  std::uint64_t batches = 0;
  std::uint64_t churned_builds = 0;
  double coreness_changed = 0.0;
  double footprint = 0.0;
  for (std::uint64_t i = 0; i < kReplayOps; ++i) {
    const StreamOp op = stream.Next();
    EngineTotals delta;
    CoreEngine::BatchResult batch;
    const Response response =
        LayerCall(*stack.registry, op.request, trace, &delta, &batch);
    folds.push_back(corekit::server::FoldAnswer(op.spec, response));
    engine.builds += delta.builds;
    engine.hits += delta.hits;
    engine.patches += delta.patches;
    if (op.spec.graph == stack.mix.churned) churned_builds += delta.builds;
    if (IsBatch(op)) {
      ++batches;
      coreness_changed += static_cast<double>(batch.coreness_changed);
      footprint += static_cast<double>(batch.footprint);
    }
  }
  const EngineRegistry::Stats after = stack.registry->stats();
  const auto set = [&](const char* name, double value) {
    report.SetCounter(phase, name, value);
  };
  set("engine.builds", static_cast<double>(engine.builds));
  set("engine.hits", static_cast<double>(engine.hits));
  set("engine.patches", static_cast<double>(engine.patches));
  set("replay.batches", static_cast<double>(batches));
  set("replay.churned_builds", static_cast<double>(churned_builds));
  set("dynamic.coreness_changed_total", coreness_changed);
  set("dynamic.footprint_total", footprint);
  set("registry.admissions",
      static_cast<double>(after.admissions - before.admissions));
  set("registry.evictions",
      static_cast<double>(after.evictions - before.evictions));
  set("registry.hits", static_cast<double>(after.hits - before.hits));
  set("registry.overcommits",
      static_cast<double>(after.overcommits - before.overcommits));
  set("registry.resident_bytes", static_cast<double>(after.resident_bytes));
  set("graph.edges", static_cast<double>(stack.edges));
  return folds;
}

// The paired replay: each op goes over the wire to `wired` and then
// straight into the twin `direct` through EngineService::Handle.  The two
// stacks start identical and see the same ops, so they stay identical.
std::vector<std::uint64_t> PairedReplay(
    Stack& wired, Stack& direct, const std::vector<ScheduleOp>* schedule,
    const std::string& phase, Report& report, bool* wire_matches) {
  Stream stream(wired.mix, schedule);
  WireClient client;
  std::vector<std::uint64_t> direct_folds;
  *wire_matches = client.Connect("127.0.0.1", wired.server->port()).ok();
  for (std::uint64_t i = 0; *wire_matches && i < kReplayOps; ++i) {
    const StreamOp op = stream.Next();
    const std::int64_t wire_start = NowNs();
    corekit::Result<Response> wire = client.Call(op.request);
    const double wire_seconds = SecondsSince(wire_start);
    const std::int64_t direct_start = NowNs();
    const Response answer = direct.service->Handle(op.request);
    const double direct_seconds = SecondsSince(direct_start);
    if (!wire.ok()) {
      *wire_matches = false;
      break;
    }
    const std::uint64_t fold = corekit::server::FoldAnswer(op.spec, answer);
    *wire_matches = *wire_matches &&
                    corekit::server::FoldAnswer(op.spec, *wire) == fold;
    direct_folds.push_back(fold);
    report.Samples(phase + ".handle_s." + OpcodeMetricName(op.spec.opcode))
        .push_back(direct_seconds);
    report.Samples(phase + ".wire_minus_handle_s")
        .push_back(wire_seconds - direct_seconds);
  }
  return direct_folds;
}

// A traced serving run over (mix, schedule): setups, layer replay, paired
// replay, then untraced and traced closed loops for the overhead.
void TraceServing(const RunOptions& options, const MixSpec& mix,
                  const std::vector<ScheduleOp>* schedule,
                  const std::string& phase, double loop_seconds,
                  Report& report) {
  SpanBuffer* trace = report.NewBuffer(phase);
  Stack wired;
  if (phase == "workload") {
    if (!TimedSetups(options.inputs, mix, trace, report, &wired)) return;
  } else if (!BuildStack(options.inputs, mix, true, false, trace, report,
                         wired)) {
    return;
  }
  Stack direct;
  Stack layered;
  if (!BuildStack(options.inputs, mix, false, false, nullptr, report,
                  direct) ||
      !BuildStack(options.inputs, mix, false, false, nullptr, report,
                  layered)) {
    return;
  }
  const std::vector<std::uint64_t> layer_folds =
      LayerReplay(layered, schedule, trace, phase, report);
  bool wire_matches = false;
  const std::vector<std::uint64_t> direct_folds =
      PairedReplay(wired, direct, schedule, phase, report, &wire_matches);
  report.Check(phase + ".wire_vs_direct", wire_matches);
  report.Check(phase + ".layers_vs_direct", layer_folds == direct_folds);

  // Untraced, then traced closed loops of equal length on the wired stack.
  const TcpServer::Stats server_before = wired.server->stats();
  const EngineService::Stats service_before = wired.service->stats();
  // A schedule continues where the paired replay left the wired stack.
  Stream stream(mix, schedule);
  for (std::uint64_t i = 0; schedule != nullptr && i < kReplayOps; ++i) {
    (void)stream.Next();
  }
  for (const bool traced : {false, true}) {
    const std::string prefix = phase + (traced ? ".traced." : ".untraced.");
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(loop_seconds * 1e9);
    if (schedule == nullptr) {
      std::vector<SpanBuffer*> traces;
      for (std::uint32_t c = 0; traced && c < mix.clients; ++c) {
        traces.push_back(report.NewBuffer(phase));
      }
      double wall = 0.0;
      const std::vector<ClientLog> logs =
          ConcurrentLoop(wired, deadline, 0, traces, &wall);
      RecordQueries(logs, wall, report, prefix);
    } else {
      (void)SequentialLoop(wired, stream, deadline, 0, kMinBatches,
                           traced ? trace : nullptr, report, prefix);
    }
  }
  const TcpServer::Stats server_after = wired.server->stats();
  const EngineService::Stats service_after = wired.service->stats();
  report.SetCounter(phase, "server.requests",
                    static_cast<double>(service_after.requests -
                                        service_before.requests));
  report.SetCounter(phase, "server.coalesced",
                    static_cast<double>(service_after.coalesced -
                                        service_before.coalesced));
  report.SetCounter(phase, "server.busy_rejections",
                    static_cast<double>(server_after.busy_rejections -
                                        server_before.busy_rejections));
  report.SetCounter(phase, "server.frames_rejected",
                    static_cast<double>(server_after.frames_rejected -
                                        server_before.frames_rejected));
}

bool LoadMixAndSchedule(const std::string& dir, const char* mix_file,
                        const char* schedule_file, Report& report,
                        MixSpec* mix, std::vector<ScheduleOp>* schedule) {
  corekit::Result<MixSpec> read = ReadMix(dir + "/" + mix_file);
  if (!report.Check("inputs.mix", read.ok(), read.status().ToString())) {
    return false;
  }
  *mix = std::move(read).value();
  if (schedule_file == nullptr) return true;
  corekit::Result<std::vector<ScheduleOp>> ops =
      ReadSchedule(dir + "/" + schedule_file);
  if (!report.Check("inputs.schedule", ops.ok(), ops.status().ToString())) {
    return false;
  }
  *schedule = std::move(ops).value();
  return true;
}

}  // namespace

void RunServe(const RunOptions& options, Report& report) {
  const bool churn = options.workload == "churn_evict";
  MixSpec mix;
  std::vector<ScheduleOp> schedule;
  if (!LoadMixAndSchedule(options.inputs, kMixFile,
                          churn ? kScheduleFile : nullptr, report, &mix,
                          &schedule)) {
    return;
  }
  const std::vector<ScheduleOp>* ops = churn ? &schedule : nullptr;
  if (options.trace) {
    TraceServing(options, mix, ops, "workload", options.seconds / 4, report);
    report.SetValue("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
    return;
  }
  Stack stack;
  if (!TimedSetups(options.inputs, mix, nullptr, report, &stack)) return;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  if (churn) {
    Stream stream(mix, ops);
    const SequentialLog log =
        SequentialLoop(stack, stream, deadline, kMinReads, 0, nullptr, report,
                       "", kRssOps);
    if (!TimedSetups(options.inputs, mix, nullptr, report, nullptr)) return;
    CheckChurn(options, stack, log, report);
  } else {
    double wall = 0.0;
    std::vector<ClientLog> logs =
        ConcurrentLoop(stack, deadline, kMinReads, {}, &wall);
    RecordQueries(logs, wall, report, "");
    report.SetValue("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
    if (!TimedSetups(options.inputs, mix, nullptr, report, nullptr)) return;
    CheckServeHot(options, stack, logs, report);
  }
}

void ControlServe(const RunOptions& options, Report& report) {
  MixSpec mix;
  std::vector<ScheduleOp> schedule;
  if (!LoadMixAndSchedule(options.inputs, kControlMixFile,
                          kControlScheduleFile, report, &mix, &schedule)) {
    return;
  }
  TraceServing(options, mix, &schedule, "control", 0.0, report);
}

}  // namespace perfbench
