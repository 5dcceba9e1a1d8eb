#include "inputs.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "corekit/engine/engine_registry.h"
#include "corekit/gen/generators.h"
#include "corekit/graph/ckg_format.h"
#include "corekit/graph/parallel_graph_builder.h"
#include "corekit/util/random.h"
#include "corekit/util/thread_pool.h"

namespace perfbench {

using corekit::Edge;
using corekit::EdgeList;
using corekit::Graph;
using corekit::Result;
using corekit::Status;
using corekit::VertexId;

namespace {

// --- Sizes -----------------------------------------------------------------
// cold_bestk: an R-MAT with the Graph500 skew, about 0.23M edges after
// de-duplication: one load and analysis takes about 0.13 s on one core, so
// a run repeats it often enough for a p99 over the per-answer latencies.
constexpr std::uint32_t kColdScale = 15;
constexpr corekit::EdgeId kColdEdges = 1u << 18;
// Serving tenants: 2^12 vertices, so a TrussMax peel takes milliseconds.
constexpr std::uint32_t kTenantScale = 12;
// The control pass input: a small R-MAT.
constexpr std::uint32_t kControlScale = 10;
constexpr corekit::EdgeId kControlEdges = 6000;
// Churn schedule: ops per file (runs wrap around), share of batches and
// edges per batch.
constexpr std::uint32_t kScheduleOps = 20000;
constexpr std::uint32_t kControlScheduleOps = 400;
constexpr std::uint64_t kBatchOneIn = 4;
constexpr std::uint32_t kEdgesPerBatch = 8;
constexpr std::uint32_t kServeClients = 4;

std::uint64_t SubSeed(std::uint64_t seed, const std::string& label) {
  return corekit::SplitMix64(seed ^ corekit::SeedFromString(label)).Next();
}

Graph MakeColdGeneratorGraph(std::uint64_t seed) {
  corekit::RmatParams params;
  params.scale = kColdScale;
  params.num_edges = kColdEdges;
  params.seed = SubSeed(seed, "cold");
  return corekit::GenerateRmat(params);
}

Graph MakeControlGraph(std::uint64_t seed) {
  corekit::RmatParams params;
  params.scale = kControlScale;
  params.num_edges = kControlEdges;
  params.seed = SubSeed(seed, "control");
  return corekit::GenerateRmat(params);
}

// The serving tenants: four generator families, so peel depth, triangle
// density and degree skew differ across tenants; about 5 edges per vertex.
std::vector<std::pair<std::string, Graph>> MakeTenants(std::uint64_t seed,
                                                       int count) {
  const VertexId n = VertexId{1} << kTenantScale;
  std::vector<std::pair<std::string, Graph>> tenants;
  for (int i = 0; i < count; ++i) {
    const std::string tag = "t" + std::to_string(i);
    const std::uint64_t s = SubSeed(seed, tag);
    switch (i % 4) {
      case 0: {
        corekit::RmatParams params;
        params.scale = kTenantScale;
        params.num_edges = 6 * corekit::EdgeId{n};
        params.seed = s;
        tenants.emplace_back(tag + "-rmat", corekit::GenerateRmat(params));
        break;
      }
      case 1:
        tenants.emplace_back(tag + "-ba",
                             corekit::GenerateBarabasiAlbert(n, 5, s));
        break;
      case 2:
        tenants.emplace_back(tag + "-ws",
                             corekit::GenerateWattsStrogatz(n, 5, 0.1, s));
        break;
      default:
        tenants.emplace_back(
            tag + "-er", corekit::GenerateErdosRenyi(n, 5 * corekit::EdgeId{n}, s));
        break;
    }
  }
  return tenants;
}

Status WriteText(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Status::IoError("cannot create " + path);
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (std::fclose(file) != 0 || !ok) {
    return Status::IoError("write error on " + path);
  }
  return Status::OK();
}

// Writes `graph` as a SNAP edge list whose lines come in a seeded random
// order with random endpoint order, the way real dumps arrive.
Status WriteShuffledEdgeList(const Graph& graph, std::uint64_t seed,
                             const std::string& path) {
  EdgeList edges = graph.ToEdgeList();
  corekit::Rng rng(seed);
  rng.Shuffle(edges);
  std::string text = "# perfbench edge list\n";
  text.reserve(edges.size() * 14);
  for (Edge& edge : edges) {
    if (rng.NextBounded(2) != 0) std::swap(edge.first, edge.second);
    text += std::to_string(edge.first);
    text += ' ';
    text += std::to_string(edge.second);
    text += '\n';
  }
  return WriteText(path, text);
}

// Writes the tenants' .ckg files and the mix description.
Status WriteMix(const std::string& dir, const std::string& mix_file,
                const std::vector<std::pair<std::string, Graph>>& tenants,
                std::uint64_t mix_seed, std::uint32_t clients,
                double budget_share, const std::string& churned) {
  std::uint64_t total_footprint = 0;
  std::ostringstream mix;
  std::ostringstream lines;
  for (const auto& [name, graph] : tenants) {
    const std::string file = name + ".ckg";
    const Status status = corekit::WriteCkgGraph(graph, dir + "/" + file);
    if (!status.ok()) return status;
    total_footprint += corekit::EstimateEngineFootprintBytes(graph);
    lines << "tenant " << name << ' ' << file << ' ' << graph.NumVertices()
          << '\n';
  }
  mix << "mix_seed " << mix_seed << '\n'
      << "clients " << clients << '\n'
      << "budget_bytes "
      << static_cast<std::uint64_t>(budget_share *
                                    static_cast<double>(total_footprint))
      << '\n'
      << "churned " << (churned.empty() ? "-" : churned) << '\n'
      << lines.str();
  return WriteText(dir + "/" + mix_file, mix.str());
}

// A churn schedule over `graph`: seeded interleaving of reads and
// ApplyBatch ops, one batch in kBatchOneIn on average.  Batches come in
// delete/restore pairs over disjoint slices of the shuffled live edges, so
// m stays stationary and the graph is back to its original edge set after
// every pair — which also makes wrapping around the schedule valid.
Status WriteSchedule(const Graph& graph, std::uint64_t seed,
                     std::uint32_t ops, const std::string& path) {
  EdgeList live = graph.ToEdgeList();
  corekit::Rng rng(seed);
  rng.Shuffle(live);
  std::string text;
  std::size_t cursor = 0;
  EdgeList pending;  // deleted by the last batch, restored by the next
  const auto emit_batch = [&] {
    const bool restore = !pending.empty();
    for (std::uint32_t i = 0; !restore && i < kEdgesPerBatch; ++i) {
      pending.push_back(live[cursor++ % live.size()]);
    }
    text += restore ? "B i" : "B d";
    for (const Edge& edge : pending) {
      text += ' ' + std::to_string(edge.first) + ' ' +
              std::to_string(edge.second);
    }
    text += '\n';
    if (restore) pending.clear();
  };
  for (std::uint32_t op = 0; op < ops; ++op) {
    if (rng.NextBounded(kBatchOneIn) == 0) {
      emit_batch();
    } else {
      text += "R\n";
    }
  }
  if (!pending.empty()) emit_batch();  // close the last pair
  return WriteText(path, text);
}

Status GenerateControl(std::uint64_t seed, const std::string& dir) {
  const Graph control = MakeControlGraph(seed);
  Status status = WriteShuffledEdgeList(control, SubSeed(seed, "control-txt"),
                                        dir + "/" + kControlEdgeFile);
  if (!status.ok()) return status;
  std::vector<std::pair<std::string, Graph>> tenants;
  tenants.emplace_back("control", control);
  status = WriteMix(dir, kControlMixFile, tenants, SubSeed(seed, "control-mix"),
                    1, 0.0, "control");
  if (!status.ok()) return status;
  return WriteSchedule(control, SubSeed(seed, "control-schedule"),
                       kControlScheduleOps, dir + "/" + kControlScheduleFile);
}

}  // namespace

Status GenerateInputs(const std::string& workload, std::uint64_t seed,
                      const std::string& dir) {
  Status status = GenerateControl(seed, dir);
  if (!status.ok()) return status;
  if (workload == "cold_bestk") {
    return WriteShuffledEdgeList(MakeColdGeneratorGraph(seed),
                                 SubSeed(seed, "cold-txt"),
                                 dir + "/" + kColdGraphFile);
  }
  if (workload == "serve_hot") {
    // The budget holds every tenant with room to spare.
    return WriteMix(dir, kMixFile, MakeTenants(seed, 4), SubSeed(seed, "mix"),
                    kServeClients, 1.5, "");
  }
  if (workload == "churn_evict") {
    // Six tenants, a budget for about half of them; t0 takes the writes.
    const auto tenants = MakeTenants(seed, 6);
    status = WriteMix(dir, kMixFile, tenants, SubSeed(seed, "mix"), 1, 0.45,
                      tenants[0].first);
    if (!status.ok()) return status;
    return WriteSchedule(tenants[0].second, SubSeed(seed, "schedule"),
                         kScheduleOps, dir + "/" + kScheduleFile);
  }
  return Status::InvalidArgument("unknown workload " + workload);
}

Graph MakeColdOracleGraph(std::uint64_t seed) {
  const Graph graph = MakeColdGeneratorGraph(seed);
  std::vector<VertexId> id(graph.NumVertices(), corekit::kInvalidVertex);
  VertexId next = 0;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (graph.Degree(v) > 0) id[v] = next++;
  }
  EdgeList edges = graph.ToEdgeList();
  for (Edge& edge : edges) edge = {id[edge.first], id[edge.second]};
  corekit::ThreadPool pool(1);
  return corekit::BuildGraphParallel(next, edges, pool);
}

corekit::server::LoadGenOptions MixSpec::LoadGen(
    std::uint32_t queries_per_client) const {
  corekit::server::LoadGenOptions options;
  for (const TenantSpec& tenant : tenants) {
    options.graphs.push_back(tenant.name);
    options.graph_sizes.push_back(tenant.num_vertices);
  }
  options.num_clients = clients;
  options.queries_per_client = queries_per_client;
  options.seed = mix_seed;
  return options;
}

Result<MixSpec> ReadMix(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  MixSpec mix;
  std::string key;
  while (in >> key) {
    if (key == "mix_seed") {
      in >> mix.mix_seed;
    } else if (key == "clients") {
      in >> mix.clients;
    } else if (key == "budget_bytes") {
      in >> mix.budget_bytes;
    } else if (key == "churned") {
      in >> mix.churned;
      if (mix.churned == "-") mix.churned.clear();
    } else if (key == "tenant") {
      TenantSpec tenant;
      in >> tenant.name >> tenant.file >> tenant.num_vertices;
      mix.tenants.push_back(tenant);
    } else {
      return Status::Corruption(path + ": unknown key " + key);
    }
    if (!in) return Status::Corruption(path + ": bad value for " + key);
  }
  if (mix.tenants.empty()) return Status::Corruption(path + ": no tenants");
  return mix;
}

Result<std::vector<ScheduleOp>> ReadSchedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<ScheduleOp> ops;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    ScheduleOp op;
    if (kind == "B") {
      std::string direction;
      fields >> direction;
      EdgeList& edges = direction == "d" ? op.deletes : op.inserts;
      VertexId u = 0;
      VertexId v = 0;
      while (fields >> u >> v) edges.emplace_back(u, v);
      if (edges.empty() || (direction != "d" && direction != "i")) {
        return Status::Corruption(path + ": bad batch line");
      }
      op.batch = true;
    } else if (kind != "R") {
      return Status::Corruption(path + ": bad op " + kind);
    }
    ops.push_back(std::move(op));
  }
  if (ops.empty()) return Status::Corruption(path + ": empty schedule");
  return ops;
}

}  // namespace perfbench
