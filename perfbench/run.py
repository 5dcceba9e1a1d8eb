#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload cold_bestk --seed 1 --seconds 10 --trace 0

Run from the repository root.  It builds perfbench from source (into
$CARGO_TARGET_DIR, default .bench_build), generates the workload's inputs
from the seed, runs the workload, checks its answers, prints every metric
with its median, tail percentile and sample count, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.  The
exit code is 0 only when every correctness check passed.  See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import stats  # noqa: E402

REPO_ROOT = BENCH_DIR.parent
WORKLOADS = ("cold_bestk", "serve_hot", "churn_evict")
# Wall-clock limits: a run must end within 180 s, its first build within 900.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# cold_bestk, traced: the layer spans' self times must add up to
# setup_s + analyze_s of the untraced repetitions within this share.
SELF_TIME_TOLERANCE = 0.15
MIB = 1 << 20


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


# --- Build and inputs ---------------------------------------------------------

def build():
    """Configures and builds perfbench; returns (build root, binary)."""
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not root.is_absolute():
        root = Path.cwd() / root
    build_dir = root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
    ]
    with open(log_path, "a") as log:
        for step in steps:
            try:
                result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[:2], error))
            if result.returncode != 0:
                fail("build failed (%s); see %s" % (" ".join(step[:3]), log_path))
    return root, build_dir / "perfbench"


def generate(binary, workload, seed, directory):
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    result = subprocess.run([str(binary), "gen", "--workload", workload,
                             "--seed", str(seed), "--out", str(directory)],
                            timeout=RUN_TIMEOUT_S)
    if result.returncode != 0:
        fail("input generation failed")


# --- Environment stamp --------------------------------------------------------

SPIN = "x = 0\nfor i in range(%d):\n    x += i\n"


def spin_wall(processes, iterations):
    start = time.perf_counter()
    children = [subprocess.Popen([sys.executable, "-c", SPIN % iterations])
                for _ in range(processes)]
    for child in children:
        child.wait()
    return time.perf_counter() - start


def effective_cores(nproc):
    """nproc CPU-bound processes against one: how many ran at full speed."""
    iterations = 3_000_000
    one = spin_wall(1, iterations)
    many = spin_wall(nproc, iterations)
    return round(nproc * one / many, 2)


def source_digest():
    digest = hashlib.sha256()
    paths = sorted(p for p in (REPO_ROOT / "src").rglob("*") if p.is_file())
    for path in paths + [REPO_ROOT / "CMakeLists.txt"]:
        digest.update(str(path.relative_to(REPO_ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        result = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def measured_cpu():
    """The one CPU the measured process runs on (README.md, "Box and load")."""
    return max(os.sched_getaffinity(0))


def environment(binary):
    """The facts that decide whether two runs may be compared."""
    built = json.loads(subprocess.run([str(binary), "env"], capture_output=True,
                                      text=True, timeout=30, check=True).stdout)
    nproc = len(os.sched_getaffinity(0))
    env = {
        "nproc": nproc,
        "effective_cores": effective_cores(nproc),
        "pinned_cpu": measured_cpu(),
        "isa": built["isa"],
        "cpu_avx2": built["cpu_avx2"],
        "force_scalar": built["force_scalar"],
        "build_type": built["build_type"],
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }
    reference = json.loads((BENCH_DIR / "reference_env.json").read_text())
    flags = ["%s is %s, reference %s" % (key, env[key], value)
             for key, value in sorted(reference.items()) if env[key] != value]
    env["comparable"] = not flags
    env["flags"] = flags
    return env


# --- Metrics --------------------------------------------------------------------

def describe(name, unit, scale, values, failed=0):
    """One line: median, the highest supported tail percentile, count."""
    med, q, tail, count = stats.summarize(values, failed)
    text = "%s: median %.6g %s" % (name, med * scale, unit)
    if q is not None:
        text += ", p%g %.6g %s" % (q * 100, tail * scale, unit)
    else:
        text += ", no tail percentile (fewer than %d samples beyond p75)" % (
            stats.MIN_BEYOND)
    return text + " (n=%d, %d failed)" % (count, failed)


def end_to_end(raw, workload, lines):
    samples, values = raw["samples"], raw["values"]
    failed_reads = int(values.get("query_failed", 0))
    lines.append(describe("setup_s", "s", 1, samples["setup_s"]))
    lines.append(describe("analyze_s", "s", 1, samples["analyze_s"]))
    lines.append(describe("query latency", "ms", 1e3, samples["query_s"],
                          failed_reads))
    reads = samples["query_s"]
    if workload == "cold_bestk":
        # Answers per second of analysis time.
        qps = len(reads) / sum(samples["analyze_s"])
    else:
        qps = len(reads) / values["query_wall_s"]
    if "batch_s" in samples:
        lines.append(describe("batch latency", "ms", 1e3, samples["batch_s"]))
    ok_frac = 1 - stats.failed_fraction(raw["attempted"], raw["failed"])
    return {
        "setup_s": (stats.median(samples["setup_s"]), "s"),
        "analyze_s": (stats.median(samples["analyze_s"]), "s"),
        "query_p50_ms": (stats.percentile(reads, 0.5, failed_reads) * 1e3, "ms"),
        "query_p99_ms": (stats.percentile(reads, 0.99, failed_reads) * 1e3, "ms"),
        "query_qps": (qps, "1/s"),
        "peak_rss_mb": (values["peak_rss_bytes"] / MIB, "MiB"),
        "ops_ok_frac": (ok_frac, "ratio"),
    }


class Phase:
    """Spans and counters of one phase ("workload" or "control")."""

    def __init__(self, raw, name):
        self.counters = raw["counters"].get(name, {})
        self.samples = {key[len(name) + 1:]: value
                        for key, value in raw["samples"].items()
                        if key.startswith(name + ".")}
        spans = [s for s in raw["spans"] if s[7] == name]
        selfs = stats.self_times(spans)
        # Roots precede their descendants in a lane, so one pass finds them.
        root_of = {}
        for span in spans:
            key = (span[0], span[1])
            root_of[key] = key if span[2] < 0 else root_of[(span[0], span[2])]
        by_key = {(s[0], s[1]): s for s in spans}
        self.units = {}       # root kind -> {root key -> {name: self seconds}}
        self.durations = {}   # (root kind, name) -> [seconds]
        self.root_seconds = {}  # root kind -> [seconds]
        for span, own in zip(spans, selfs):
            root = by_key[root_of[(span[0], span[1])]]
            kind = root[3]
            if span is root:
                self.root_seconds.setdefault(kind, []).append(
                    (span[5] - span[4]) * 1e-9)
                continue
            unit = self.units.setdefault(kind, {}).setdefault(
                (root[0], root[1]), {})
            unit[span[3]] = unit.get(span[3], 0.0) + own * 1e-9
            self.durations.setdefault((kind, span[3]), []).append(
                (span[5] - span[4]) * 1e-9)

    def per_unit(self, kind, name):
        """Median over units of `kind` of the self time `name` spent in each.

        For "request" roots (the fixed-length layer replay) the unit is the
        whole replay, so this is the total.
        """
        units = self.units.get(kind, {})
        if not any(name in unit for unit in units.values()):
            return None
        if kind == "request":
            return sum(unit.get(name, 0.0) for unit in units.values())
        return stats.median([unit.get(name, 0.0) for unit in units.values()])

    def layer_sum(self, kind):
        units = self.units.get(kind, {})
        return [sum(unit.values()) for unit in units.values()]


def first(*candidates):
    for value in candidates:
        if value is not None:
            return value
    raise stats.Refused("no phase measured this")


def median_or_none(values):
    return stats.median(values) if values else None


def pick(phases, has):
    """The first phase (workload before control) for which has(phase)."""
    for phase in phases:
        if has(phase):
            return phase
    raise stats.Refused("no phase measured this")


def per_layer(raw, workload, lines):
    work, control = Phase(raw, "workload"), Phase(raw, "control")
    phases = (work, control)
    metrics = {}

    def stage_seconds(name):
        return first(*(p.per_unit(kind, name) for p in phases
                       for kind in ("cold", "request")))

    metrics["graph.ingest_s"] = (stage_seconds("graph.ingest"), "s")
    metrics["graph.build_s"] = (stage_seconds("graph.build"), "s")
    metrics["graph.edges"] = (work.counters["graph.edges"], "count")
    metrics["graph.ckg_load_s"] = (
        first(*(p.per_unit("setup", "graph.ckg_load") for p in phases)), "s")
    for stage in ("decompose", "order", "forest", "components", "triangles",
                  "triplets", "coreset", "singlecore"):
        metrics["core.%s_s" % stage] = (stage_seconds("core." + stage), "s")

    engine = work.counters
    metrics["engine.builds"] = (engine["engine.builds"], "count")
    metrics["engine.hits"] = (engine["engine.hits"], "count")
    metrics["engine.patches"] = (engine["engine.patches"], "count")
    looked_up = engine["engine.hits"] + engine["engine.builds"]
    metrics["engine.hit_ratio"] = (
        engine["engine.hits"] / looked_up if looked_up else 0.0, "ratio")
    batched = pick(phases, lambda p: p.counters.get("replay.batches"))
    batches = batched.counters["replay.batches"]
    metrics["engine.rebuilds_per_batch"] = (
        batched.counters["replay.churned_builds"] / batches, "builds/batch")

    leased = pick(phases, lambda p: "registry.admissions" in p.counters)
    registry = leased.counters
    metrics["registry.lease_us"] = (first(*(
        median_or_none(p.durations.get(("request", "registry.acquire"), []))
        for p in phases)) * 1e6, "us")
    for counter in ("admissions", "evictions", "overcommits"):
        metrics["registry." + counter] = (registry["registry." + counter], "count")
    acquires = registry["registry.hits"] + registry["registry.admissions"]
    metrics["registry.hit_ratio"] = (
        registry["registry.hits"] / acquires if acquires else 0.0, "ratio")
    metrics["registry.resident_mb"] = (
        registry["registry.resident_bytes"] / MIB, "MiB")

    def request_median(name):
        return first(*(median_or_none(p.durations.get(("request", name), []))
                       for p in phases))

    metrics["truss.peel_ms"] = (request_median("truss.peel") * 1e3, "ms")
    metrics["dynamic.apply_ms"] = (request_median("dynamic.apply") * 1e3, "ms")
    metrics["dynamic.coreness_changed"] = (
        batched.counters["dynamic.coreness_changed_total"] / batches,
        "vertices/batch")
    metrics["dynamic.footprint"] = (
        batched.counters["dynamic.footprint_total"] / batches, "vertices/batch")
    batch_samples = pick(
        phases, lambda p: p.samples.get("untraced.batch_s")).samples[
            "untraced.batch_s"]
    lines.append(describe("untraced batch latency", "ms", 1e3, batch_samples))
    metrics["dynamic.batch_p50_ms"] = (
        stats.percentile(batch_samples, 0.5) * 1e3, "ms")
    metrics["dynamic.batch_p90_ms"] = (
        stats.percentile(batch_samples, 0.9) * 1e3, "ms")

    def wire_median(name):
        return first(*(median_or_none(p.durations.get(("wire.request", name), []))
                       for p in phases))

    metrics["server.encode_us"] = (wire_median("wire.encode") * 1e6, "us")
    metrics["server.decode_us"] = (wire_median("wire.decode") * 1e6, "us")
    overhead = pick(phases, lambda p: p.samples.get(
        "wire_minus_handle_s")).samples["wire_minus_handle_s"]
    metrics["server.wire_overhead_us"] = (stats.median(overhead) * 1e6, "us")
    for opcode in ("graph_info", "coreness", "best_core_set", "best_single_core",
                   "truss_max", "apply_batch"):
        key = "handle_s." + opcode
        handled = pick(phases, lambda p: p.samples.get(key)).samples[key]
        lines.append(describe("handle " + opcode, "us", 1e6, handled))
        metrics["server.handle_us." + opcode] = (
            stats.median(handled) * 1e6, "us")
    served = pick(phases, lambda p: "server.requests" in p.counters)
    server = served.counters
    metrics["server.coalesce_ratio"] = (
        server["server.coalesced"] / server["server.requests"], "ratio")
    metrics["server.busy_rejections"] = (server["server.busy_rejections"], "count")
    metrics["server.frames_rejected"] = (server["server.frames_rejected"], "count")

    # Tracing overhead and how much of the end-to-end time the layers cover.
    checks_ok = True
    samples = raw["samples"]
    if workload == "cold_bestk":
        untraced = stats.median(samples["setup_s"]) + stats.median(
            samples["analyze_s"])
        traced = stats.median(work.root_seconds["cold"])
        layer_sum = stats.median(work.layer_sum("cold"))
        overhead_frac = traced / untraced - 1
        layer_ratio = layer_sum / untraced
        checks_ok = abs(layer_ratio - 1) <= SELF_TIME_TOLERANCE
        lines.append(
            "self-time check: layer self times %.6g s vs setup_s + analyze_s "
            "%.6g s, ratio %.4f, tolerance +-%g: %s"
            % (layer_sum, untraced, layer_ratio, SELF_TIME_TOLERANCE,
               "ok" if checks_ok else "FAILED"))
    else:
        qps = {}
        for mode in ("untraced", "traced"):
            qps[mode] = (len(work.samples[mode + ".query_s"])
                         / raw["values"]["workload.%s.query_wall_s" % mode])
        overhead_frac = qps["untraced"] / qps["traced"] - 1
        layer_ratio = (sum(work.layer_sum("request"))
                       / sum(work.root_seconds["request"]))
    lines.append("tracing overhead: %+.4f of the untraced end-to-end time"
                 % overhead_frac)
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    metrics["trace.layer_sum_ratio"] = (layer_ratio, "ratio")
    return metrics, checks_ok


# --- Main -------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="test hook: corrupt one expected answer")
    args = parser.parse_args()
    started = time.monotonic()

    root, binary = build()
    env = environment(binary)
    print("env: " + json.dumps(env, sort_keys=True))
    if env["flags"]:
        print("env: NOT COMPARABLE with the reference box: " + "; ".join(env["flags"]))

    work = root / "runs" / ("%s-%d-%d-%d" % (args.workload, args.seed, args.trace,
                                            os.getpid()))
    try:
        generate(binary, args.workload, args.seed, work / "inputs")
        command = [str(binary), "run", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--inputs", str(work / "inputs"),
                   "--out", str(work / "raw.json")]
        if args.corrupt_expected:
            command.append("--corrupt-expected")
        remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
        cpu = measured_cpu()
        try:
            result = subprocess.run(
                command, timeout=max(1.0, remaining),
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        except subprocess.TimeoutExpired:
            fail("workload run exceeded the time limit")
        if result.returncode != 0:
            fail("perfbench exited with code %d" % result.returncode)
        raw = json.loads((work / "raw.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = []
    failed_checks = [c for c in raw["checks"] if not c["ok"]]
    for check in failed_checks:
        lines.append("check FAILED: %s %s" % (check["name"], check["detail"]))
    lines.append("checks: %d passed, %d failed"
                 % (len(raw["checks"]) - len(failed_checks), len(failed_checks)))
    correct = not failed_checks
    try:
        if args.trace:
            metrics, self_time_ok = per_layer(raw, args.workload, lines)
            correct = correct and self_time_ok
        else:
            metrics = end_to_end(raw, args.workload, lines)
    except stats.Refused as refusal:
        fail("refused to report: %s" % refusal)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%s = %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
