// perfbench: the measuring half of the repository benchmark.
//
//   perfbench gen --workload W --seed N --out DIR
//       writes every input of workload W for seed N into DIR
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                        --inputs DIR --out FILE [--corrupt-expected]
//       runs W on the inputs in DIR and writes the raw report to FILE
//   perfbench env
//       prints the build's SIMD and build-type facts as JSON
//
// run.py drives all three; see README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "common.h"
#include "corekit/simd/dispatch.h"
#include "inputs.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --out DIR\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --inputs DIR --out FILE [--corrupt-expected]\n"
               "       perfbench env\n");
  return 2;
}

bool KnownWorkload(const std::string& name) {
  for (const char* workload : perfbench::kWorkloads) {
    if (name == workload) return true;
  }
  return false;
}

int Env() {
  namespace simd = corekit::simd;
  const char* force = std::getenv("COREKIT_FORCE_SCALAR");
  std::printf(
      "{\"isa\":\"%s\",\"cpu_avx2\":%s,\"force_scalar\":%s,"
      "\"build_type\":\"%s\"}\n",
      simd::IsaName(simd::ActiveIsa()),
      simd::CpuSupportsAvx2() ? "true" : "false",
      force != nullptr && std::strcmp(force, "0") != 0 && *force != '\0'
          ? "true"
          : "false",
      PERFBENCH_BUILD_TYPE);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "env") return Env();
  std::map<std::string, std::string> flags;
  bool corrupt = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-expected") {
      corrupt = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      return Usage();
    }
  }
  const auto flag = [&](const char* name) -> std::string {
    const auto it = flags.find(name);
    return it == flags.end() ? "" : it->second;
  };
  const std::string workload = flag("workload");
  if (!KnownWorkload(workload) || flag("seed").empty()) return Usage();
  const std::uint64_t seed = std::strtoull(flag("seed").c_str(), nullptr, 10);

  if (mode == "gen") {
    if (flag("out").empty()) return Usage();
    const corekit::Status status =
        perfbench::GenerateInputs(workload, seed, flag("out"));
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode != "run" || flag("inputs").empty() || flag("out").empty() ||
      flag("seconds").empty()) {
    return Usage();
  }
  perfbench::RunOptions options;
  options.workload = workload;
  options.inputs = flag("inputs");
  options.seed = seed;
  options.seconds = std::strtod(flag("seconds").c_str(), nullptr);
  options.trace = flag("trace") == "1";
  options.corrupt_expected = corrupt;

  perfbench::Report report;
  if (workload == "cold_bestk") {
    perfbench::RunCold(options, report);
  } else {
    perfbench::RunServe(options, report);
  }
  if (options.trace) {
    perfbench::ControlCold(options, report);
    perfbench::ControlServe(options, report);
  }
  std::ofstream out(flag("out"), std::ios::binary);
  out << report.ToJson() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", flag("out").c_str());
    return 1;
  }
  return 0;
}
