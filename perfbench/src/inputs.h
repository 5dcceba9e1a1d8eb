// Seeded input generation.  `perfbench gen` writes every input a
// workload reads — the SNAP edge list, the .ckg tenant files, the query
// mix and the churn schedule — as a pure function of (workload, seed);
// the measured runs then read only these files.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corekit/graph/graph.h"
#include "corekit/graph/types.h"
#include "corekit/server/load_generator.h"
#include "corekit/util/status.h"

namespace perfbench {

inline constexpr char kColdGraphFile[] = "graph.txt";
inline constexpr char kMixFile[] = "mix.txt";
inline constexpr char kScheduleFile[] = "schedule.txt";
// The control pass of traced runs (README.md, "Traced run").
inline constexpr char kControlEdgeFile[] = "control.txt";
inline constexpr char kControlMixFile[] = "control_mix.txt";
inline constexpr char kControlScheduleFile[] = "control_schedule.txt";

inline constexpr const char* kWorkloads[] = {"cold_bestk", "serve_hot",
                                             "churn_evict"};

// Writes every input of `workload` under `dir` (which must exist).
corekit::Status GenerateInputs(const std::string& workload,
                               std::uint64_t seed, const std::string& dir);

// The cold_bestk graph as the generator produced it, isolated vertices
// dropped (an edge list cannot carry them) and otherwise in generator
// numbering — not the numbering the edge-list reader assigns.  The
// correctness gate builds its oracle engine on this graph.
corekit::Graph MakeColdOracleGraph(std::uint64_t seed);

// One tenant of a serving setup.
struct TenantSpec {
  std::string name;
  std::string file;  // .ckg, relative to the inputs directory
  corekit::VertexId num_vertices = 0;
};

// A serving setup as mix.txt records it.
struct MixSpec {
  std::uint64_t mix_seed = 0;
  std::uint32_t clients = 1;
  std::uint64_t budget_bytes = 0;  // registry budget; 0 = unbounded
  std::string churned;             // tenant taking writes; empty = none
  std::vector<TenantSpec> tenants;

  // The DrawQuery parameters of this mix for `queries_per_client`.
  corekit::server::LoadGenOptions LoadGen(
      std::uint32_t queries_per_client = 0) const;
};

// One step of a churn schedule: a read (the next query of the mix's
// client 0) or an ApplyBatch on the churned tenant.
struct ScheduleOp {
  bool batch = false;
  corekit::EdgeList inserts;
  corekit::EdgeList deletes;
};

corekit::Result<MixSpec> ReadMix(const std::string& path);
corekit::Result<std::vector<ScheduleOp>> ReadSchedule(const std::string& path);

}  // namespace perfbench
