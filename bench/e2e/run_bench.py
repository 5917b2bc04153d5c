#!/usr/bin/env python3
"""End-to-end benchmark of the shipping binaries scenario_run and dist_run.

Builds bench/e2e (a CMake package that builds the repository's binaries
plus the traced replay bench_e2e_trace), then times whole runs of the
workloads under bench/e2e/workloads/ and checks every artifact against a
reference CRC. See bench/e2e/README.md for the workloads and metrics.

  python3 bench/e2e/run_bench.py --workload steady --seed 3 --seconds 20 --trace 0
  python3 bench/e2e/run_bench.py --workload dist_tcp --trace 1
  python3 bench/e2e/run_bench.py --seed 1     # every workload, 7 interleaved reps
  python3 bench/e2e/run_bench.py --smoke      # n = 4096, 1 rep: checks only

With --workload, the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
results JSON and the span JSON lines land in <build>/results/.

Exit status: 0 when every run was correct; 1 on a failed or wrong run or
a failed build; 2 when the build directory is not a Release build.
"""

import argparse
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Artifact CRCs of the workloads' scenarios for the default seed, made by
# `scenario_run --kernel scalar --shards 1` (an independent kernel).
REFERENCE = json.loads((HERE / "workloads" / "reference_crc.json").read_text())

TARGETS = ("scenario_run", "dist_run", "bench_e2e_trace")
RUN_TIMEOUT_S = 120
SETUP_RUNS = 5
MIN_REPS = 3
ALL_REPS = 7
SMOKE_N = 4096
MAX_UNATTRIBUTED = 0.05


@dataclass(frozen=True)
class Workload:
    scenario: str  # file under workloads/
    workers: int = 0  # > 0: a dist_run coordinator plus this many workers
    checkpoint: bool = False  # run with --checkpoint-out


WORKLOADS = {
    "steady": Workload("steady.scn"),
    "sharded_large": Workload("sharded_large.scn"),
    "zipf_ckpt": Workload("zipf_ckpt.scn", checkpoint=True),
    "dist_tcp": Workload("steady.scn", workers=3),
}
assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@dataclass
class Run:
    kind: str  # timed | setup | traced | oracle
    ok: bool = False  # every process exited 0 and the artifact verified
    wall_s: float = 0.0  # first exec to last exit
    cpu_s: float = 0.0  # user + system, all processes
    worker_cpu_s: float = 0.0
    rss_mib: float = 0.0  # ru_maxrss summed over processes
    crc: str = ""
    generated: int = 0
    spans: list = None
    error: str = ""
    correct: bool = False


def _on_term(signum, frame):
    sys.exit(128 + signum)  # unwinds through execute(), which kills children


def log(message):
    print(message, file=sys.stderr, flush=True)


# -- build and host ---------------------------------------------------------


def build_step(argv):
    if subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("run_bench: build failed: " + " ".join(argv))
        sys.exit(1)


def build(build_dir):
    """Configures and builds the package; exits 2 unless it is Release."""
    cache = build_dir / "CMakeCache.txt"
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
    if not cache.exists():
        configure.append("-DCMAKE_BUILD_TYPE=Release")
    build_step(configure)
    found = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
    build_type = found.group(1) if found else ""
    if build_type != "Release":
        log(f"run_bench: {build_dir} is a '{build_type}' build; timings need Release")
        sys.exit(2)
    build_step(["cmake", "--build", str(build_dir), "-j", str(min(4, os.cpu_count() or 1)),
                "--target", *TARGETS])
    binaries = {
        "scenario_run": build_dir / "iba" / "examples" / "scenario_run",
        "dist_run": build_dir / "iba" / "examples" / "dist_run",
        "bench_e2e_trace": build_dir / "bench_e2e_trace",
    }
    return binaries, build_type


def host_stamp(binaries, build_type):
    stamp = json.loads(subprocess.run(
        [str(binaries["bench_e2e_trace"]), "--host", "true"],
        capture_output=True, text=True, check=True).stdout)
    cpuinfo = Path("/proc/cpuinfo").read_text()
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    l3 = ""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (index / "level").read_text().strip() == "3":
            l3 = (index / "size").read_text().strip()
    stamp.update(nproc=len(os.sched_getaffinity(0)),
                 cpu_model=model.group(1) if model else "",
                 l3=l3, build_type=build_type)
    return stamp


# -- running processes ------------------------------------------------------


def free_port():
    """An ephemeral loopback port, free when this returns (dist_run's
    --listen takes no port 0)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _read_port(proc, deadline):
    """Reads the coordinator's stderr until it names its listening port."""
    fd = proc.stderr.fileno()
    seen = b""
    while True:
        found = re.search(rb"waiting for \d+ worker\(s\) on port (\d+)", seen)
        if found:
            return int(found.group(1))
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise TimeoutError(f"no port line within {RUN_TIMEOUT_S} s")
        chunk = os.read(fd, 4096)
        if not chunk:
            raise RuntimeError("coordinator exited before naming its port")
        seen += chunk


def execute(argv, workers, dist_run):
    """Runs argv and, for a coordinator, `workers` dist_run workers started
    once it names its port, and reaps every process with os.wait4.

    Returns (error, wall_s, usage): error is "" when every process exited
    0, and usage lists the rusage of each process that exited, the lead
    first. On any failure or timeout every child is killed and reaped
    before returning.
    """
    procs, usage, error = [], {}, ""
    start = time.perf_counter()
    deadline = start + RUN_TIMEOUT_S
    last_exit = start
    poller = select.poll()
    pidfds = {}
    try:
        lead = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE if workers else subprocess.DEVNULL)
        procs.append(lead)
        if workers:
            port = _read_port(lead, deadline)
            for index in range(workers):
                procs.append(subprocess.Popen(
                    [str(dist_run), "--role", "worker", "--connect",
                     f"127.0.0.1:{port}", "--index", str(index)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL))
        # A pidfd turns readable when its process exits, so one poll waits
        # for the next exit with a deadline.
        for proc in procs:
            fd = os.pidfd_open(proc.pid)
            pidfds[fd] = proc
            poller.register(fd, select.POLLIN)
        pending = len(procs)
        while pending and not error:
            remaining_ms = (deadline - time.perf_counter()) * 1e3
            ready = poller.poll(remaining_ms) if remaining_ms > 0 else []
            if not ready:
                error = f"timed out after {RUN_TIMEOUT_S} s"
            for fd, _ in ready:
                proc = pidfds[fd]
                poller.unregister(fd)
                _, status, usage[proc.pid] = os.wait4(proc.pid, 0)
                last_exit = time.perf_counter()
                proc.returncode = os.waitstatus_to_exitcode(status)
                pending -= 1
                if proc.returncode != 0:
                    error = f"{Path(proc.args[0]).name} exited {proc.returncode}"
    except (OSError, RuntimeError) as failure:
        error = str(failure)
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        for fd in pidfds:
            os.close(fd)
        if workers and procs:
            procs[0].stderr.close()
    return error, last_exit - start, [usage[p.pid] for p in procs if p.pid in usage]


def read_artifact(path):
    """(crc, generated) of an artifact whose CRC trailer verifies, the
    checks of artifact::verify_artifact_text; raises ValueError otherwise."""
    text = path.read_bytes()
    body, marker, trailer = text.rpartition(b"crc32 = ")
    if (not text.startswith(b"iba-artifact 1\n") or not marker
            or not body.endswith(b"\n") or len(trailer) != 9
            or not trailer.endswith(b"\n")):
        raise ValueError(f"{path.name}: malformed artifact")
    crc = trailer[:8].decode()
    if f"{zlib.crc32(body):08x}" != crc:
        raise ValueError(f"{path.name}: CRC trailer does not match the body")
    generated = re.search(rb"^generated = (\d+)$", body, re.M)
    if not generated:
        raise ValueError(f"{path.name}: no generated count")
    return crc, int(generated.group(1))


# -- the benchmark ----------------------------------------------------------


class Bench:
    def __init__(self, binaries, tmp, seed, smoke):
        self.bin = binaries
        self.tmp = tmp
        self.seed = seed
        self.smoke = smoke
        self.count = 0
        self.oracles = {}
        self.scenarios = {}

    def scenario(self, name, setup):
        """Path of the workload's scenario, cut to burn-in 0 and 1 round for
        set-up runs and to n = SMOKE_N under --smoke."""
        key = (WORKLOADS[name].scenario, setup)
        if key not in self.scenarios:
            text = (HERE / "workloads" / key[0]).read_text()
            changes = {"burn-in": 0, "rounds": 1} if setup else {}
            if self.smoke:
                changes.update({"n": SMOKE_N, "pool-limit": SMOKE_N})
            for field, value in changes.items():
                text = re.sub(rf"^{field} = .*$", f"{field} = {value}", text, flags=re.M)
            path = self.tmp / f"{Path(key[0]).stem}{'-setup' if setup else ''}.scn"
            path.write_text(text)
            self.scenarios[key] = path
        return self.scenarios[key]

    def run(self, name, kind):
        """One run of workload `name`: kind is timed, setup, traced (the
        bench_e2e_trace replay) or oracle (scalar kernel, 1 shard)."""
        workload = WORKLOADS[name]
        self.count += 1
        stem = self.tmp / str(self.count)
        out = Path(f"{stem}.artifact")
        spans = Path(f"{stem}.jsonl")
        common = ["--scenario", str(self.scenario(name, kind == "setup")),
                  "--seed", str(self.seed), "--out", str(out)]
        workers = 0 if kind == "oracle" else workload.workers
        ckpt = ["--checkpoint-out", f"{stem}.ckpt"] if workload.checkpoint else []
        if kind == "oracle":
            argv = [self.bin["scenario_run"], *common, "--kernel", "scalar", "--shards", "1"]
        elif kind == "traced":
            argv = [self.bin["bench_e2e_trace"], *common, "--workload", name,
                    "--spans", str(spans), *ckpt]
            if workers:
                argv += ["--workers", str(workers)]
        elif workers:
            argv = [self.bin["dist_run"], "--role", "coordinator", "--listen",
                    f"127.0.0.1:{free_port()}", "--workers", str(workers), *common]
        else:
            argv = [self.bin["scenario_run"], *common, *ckpt]

        error, wall, usage = execute([str(a) for a in argv], workers, self.bin["dist_run"])
        run = Run(kind, wall_s=wall, error=error)
        for index, rusage in enumerate(usage):
            cpu = rusage.ru_utime + rusage.ru_stime
            run.cpu_s += cpu
            run.worker_cpu_s += cpu if index > 0 else 0.0
            run.rss_mib += rusage.ru_maxrss / 1024.0
        if not error:
            try:
                run.crc, run.generated = read_artifact(out)
                if kind == "traced":
                    run.spans = [json.loads(line) for line in spans.read_text().splitlines()]
                run.ok = True
            except (OSError, ValueError) as failure:
                run.error = str(failure)
        for leftover in self.tmp.glob(f"{self.count}.*"):
            shutil.rmtree(leftover) if leftover.is_dir() else leftover.unlink()
        if run.error:
            log(f"run_bench: {name} {kind} run failed: {run.error}")
        return run

    def oracle(self, name):
        """Reference CRC for the workload's scenario at this seed."""
        scenario = WORKLOADS[name].scenario
        if scenario not in self.oracles:
            if self.seed == REFERENCE["seed"] and not self.smoke:
                self.oracles[scenario] = REFERENCE["crc32"][scenario]
            else:
                run = self.run(name, "oracle")
                self.oracles[scenario] = run.crc if run.ok else None
        return self.oracles[scenario]

    def check(self, name, run):
        """Full runs must match the oracle and set-up runs must verify; a
        traced run must also attribute its wall time to spans."""
        if run.kind == "setup" or not run.ok:
            run.correct = run.ok
        elif run.crc != self.oracle(name):
            log(f"run_bench: {name} {run.kind} artifact CRC {run.crc} != "
                f"reference {self.oracle(name)}")
        elif run.kind == "traced" and unattributed(run.spans) > MAX_UNATTRIBUTED:
            log(f"run_bench: {name}: {unattributed(run.spans):.1%} of the traced "
                "wall time lies outside the top-level spans")
        else:
            run.correct = True
        return run


# -- metrics ----------------------------------------------------------------


def quartiles(values):
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summary(values, pick, unit):
    """value = the fast quartile (`pick`) or the median, beside the spread."""
    q1, median, q3 = quartiles(values)
    value = {"q1": q1, "q3": q3, "median": median}[pick]
    return {"value": value, "unit": unit, "median": median, "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(timed, setups):
    """Interference only adds time, so rates and CPU use the fast quartile;
    set-up time and memory use the median."""
    good = [r for r in timed if r.correct]
    setup = [r.wall_s for r in setups if r.correct]
    if not good or not setup:
        return {}
    return {
        "arrivals_per_s": summary([r.generated / r.wall_s for r in good], "q3", "balls/s"),
        "setup_s": summary(setup, "median", "s"),
        "cpu_ns_per_arrival": summary([r.cpu_s * 1e9 / r.generated for r in good], "q1", "ns"),
        "peak_rss_mb": summary([r.rss_mib for r in good], "median", "MiB"),
    }


def span_seconds(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def self_ms(spans):
    """Self time per span name: each span minus the time its children cover."""
    children = defaultdict(float)
    for span in spans:
        children[span["parent"]] += span_seconds(span)
    totals = defaultdict(float)
    for span in spans:
        totals[span["name"]] += (span_seconds(span) - children[span["id"]]) * 1e3
    return dict(totals)


def trace_walls(spans):
    """(in-process wall, Σ top-level spans, calibration) in seconds; the
    calibration span is excluded from the other two."""
    root = spans[0]
    calib_s = sum(span_seconds(s) for s in spans if s["name"] == "calib")
    top_s = sum(span_seconds(s) for s in spans
                if s["parent"] == root["id"] and s["name"] != "calib")
    return span_seconds(root) - calib_s, top_s, calib_s


def unattributed(spans):
    wall_s, top_s, _ = trace_walls(spans)
    return (wall_s - top_s) / wall_s


def layers(run):
    """Per-layer numbers of one traced run (bench_e2e_trace span names)."""
    named = defaultdict(list)
    for span in run.spans:
        named[span["name"]].append(span)

    def total_ms(*names):
        return sum(span_seconds(s) for name in names for s in named[name]) * 1e3

    def median_ms(name):
        return statistics.median(span_seconds(s) for s in named[name]) * 1e3

    def per_draw_ns(name):
        return statistics.median(span_seconds(s) * 1e9 / s["attrs"]["draws"] for s in named[name])

    steps = named["core.step"] or named["dist.step"]
    step_ms = [span_seconds(s) * 1e3 for s in steps]
    cpu_ms = [s["attrs"]["cpu_ns"] / 1e6 for s in steps]
    counts = {key: sum(s["attrs"][key] for s in steps)
              for key in ("generated", "thrown", "accepted", "shed")}
    loop = named["rounds"][0]
    loop_cpu_s = loop["attrs"]["process_cpu_ns"] / 1e9 + run.worker_cpu_s

    def per_round(key):
        return sum(s["attrs"].get(key, 0) for s in named["round"]) / len(steps)

    return {
        "scenario.parse_ms": total_ms("scenario.parse"),
        "core.construct_ms": total_ms("core.construct", "dist.connect", "dist.construct"),
        "core.step_ms_p50": statistics.median(step_ms),
        "core.step_ns_per_throw": sum(step_ms) * 1e6 / counts["thrown"],
        "core.step_cpu_ms_p50": statistics.median(cpu_ms),
        "core.step_wait_ms_p50": statistics.median(w - c for w, c in zip(step_ms, cpu_ms)),
        "core.cpu_per_wall": loop_cpu_s / span_seconds(loop),
        "core.throws_per_arrival": counts["thrown"] / counts["generated"],
        "core.accept_frac": counts["accepted"] / counts["thrown"],
        "core.admit_frac": 1 - counts["shed"] / counts["generated"],
        "rng.fill_ns_per_draw": per_draw_ns("calib.rng.fill"),
        "scenario.zipf_ns_per_draw": per_draw_ns("calib.zipf.fill"),
        "concurrency.parallel_for_us": median_ms("calib.parallel_for") * 1e3,
        "fault.audit_ms": median_ms("calib.fault.audit"),
        "core.snapshot_ms": median_ms("calib.core.snapshot"),
        "sim.checkpoint_ms": median_ms("calib.sim.checkpoint"),
        "sim.checkpoint_mb": named["calib.sim.checkpoint"][0]["attrs"]["bytes"] / 2**20,
        "artifact.render_ms": total_ms("artifact.assemble", "artifact.render"),
        "net.bytes_out_per_round": per_round("bytes_out"),
        "net.bytes_in_per_round": per_round("bytes_in"),
        "net.segs_per_round": per_round("segs"),
        "trace.unattributed_frac": unattributed(run.spans),
    }


def per_layer(traced, timed):
    """Median over the traced runs of each layer metric, and the self-time
    ledger of the first traced run."""
    traced = [r for r in traced if r.correct]
    walls = [r.wall_s for r in timed if r.correct]
    if not traced or not walls:
        return {}, {}
    runs = [layers(r) for r in traced]
    values = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    # The traced wall without calibration against the untraced wall, both
    # the fast quartile.
    traced_s = [r.wall_s - trace_walls(r.spans)[2] for r in traced]
    values["trace.overhead_frac"] = quartiles(traced_s)[0] / quartiles(walls)[0] - 1
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER.items()}
    return metrics, self_ms(traced[0].spans)


# -- reporting --------------------------------------------------------------


def print_end_to_end(name, metrics):
    if not metrics:
        return
    print(f"\n{name}: end-to-end")
    print(f"  {'metric':<22}{'unit':<9}{'value':>14}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for key, m in metrics.items():
        print(f"  {key:<22}{m['unit']:<9}{m['value']:>14.6g}{m['median']:>14.6g}"
              f"{m['q1']:>14.6g}{m['q3']:>14.6g}{m['n']:>4}")


def print_layers(results):
    names = [n for n in results if results[n]["per_layer"]]
    if not names:
        return
    print("\nper-layer (median of traced runs)")
    print(f"  {'metric':<30}{'unit':<7}" + "".join(f"{n:>15}" for n in names))
    for key, unit in PER_LAYER.items():
        cells = "".join(f"{results[n]['per_layer'][key]['value']:>15.6g}" for n in names)
        print(f"  {key:<30}{unit:<7}{cells}")


def run_record(run):
    return {k: getattr(run, k) for k in
            ("kind", "correct", "wall_s", "cpu_s", "rss_mib", "crc", "generated", "error")}


def schema_errors(doc):
    """What a results document lacks, for --smoke."""
    errors = []
    for name in WORKLOADS:
        entry = doc["workloads"].get(name, {})
        if set(entry.get("end_to_end", {})) != set(END_TO_END):
            errors.append(f"{name}: end-to-end metrics differ from BENCHMARK.json")
        for key, m in entry.get("end_to_end", {}).items():
            if set(m) != {"value", "unit", "median", "q1", "q3", "n"} or m["unit"] != END_TO_END[key]:
                errors.append(f"{name}: {key} malformed")
        if list(entry.get("per_layer", {})) != list(PER_LAYER):
            errors.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
    return errors


# -- modes ------------------------------------------------------------------


def measure_one(bench, name, seconds, trace):
    """The contract mode: one workload, timed for `seconds` seconds."""
    bench.oracle(name)
    timed, setups, traced = [], [], []
    if not trace:
        setups = [bench.check(name, bench.run(name, "setup")) for _ in range(SETUP_RUNS)]
    start = time.perf_counter()
    while len(timed) < MIN_REPS or time.perf_counter() - start < seconds:
        timed.append(bench.check(name, bench.run(name, "timed")))
        if trace:
            traced.append(bench.check(name, bench.run(name, "traced")))
    return timed, setups, traced


def measure_all(bench, reps):
    """Every workload: `reps` timed runs interleaved across workloads (the
    first workload rotates each rep), then set-up runs and one traced run."""
    names = list(WORKLOADS)
    for name in names:
        bench.oracle(name)
    timed = {name: [] for name in names}
    for rep in range(reps):
        for name in names[rep % len(names):] + names[:rep % len(names)]:
            timed[name].append(bench.check(name, bench.run(name, "timed")))
    out = {}
    for name in names:
        setups = [bench.check(name, bench.run(name, "setup")) for _ in range(SETUP_RUNS)]
        traced = [bench.check(name, bench.run(name, "traced"))]
        out[name] = (timed[name], setups, traced)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measuring time of one workload (--workload only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics (--workload only)")
    parser.add_argument("--build", type=Path, default=ROOT / ".bench_build" / "e2e",
                        help="build directory of the bench/e2e package")
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload at n = {SMOKE_N}, 1 rep: checks only")
    args = parser.parse_args()
    if args.smoke:
        args.workload = "all"

    signal.signal(signal.SIGTERM, _on_term)
    build_dir = args.build.resolve()
    binaries, build_type = build(build_dir)
    host = host_stamp(binaries, build_type)
    results_dir = build_dir / "results"
    results_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=build_dir))
    try:
        bench = Bench(binaries, tmp, args.seed, args.smoke)
        if args.workload == "all":
            measured = measure_all(bench, 1 if args.smoke else ALL_REPS)
        else:
            measured = {args.workload: measure_one(bench, args.workload, args.seconds, args.trace)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    runs, results, spans = [], {}, []
    for name, (timed, setups, traced) in measured.items():
        layer_metrics, ledger = per_layer(traced, timed)
        results[name] = {"end_to_end": end_to_end(timed, setups),
                         "per_layer": layer_metrics, "self_ms": ledger,
                         "runs": [run_record(r) for r in timed + setups + traced]}
        runs += timed + setups + traced
        spans += next((r.spans for r in traced if r.correct), [])
    oracle_ok = all(crc is not None for crc in bench.oracles.values())
    correct = oracle_ok and bool(runs) and all(r.correct for r in runs)

    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    if args.workload != "all":
        tag += f"-trace{args.trace}"
    doc = {"host": host, "seed": args.seed, "correct": correct, "workloads": results}
    results_path = results_dir / f"{tag}.json"
    results_path.write_text(json.dumps(doc, indent=1) + "\n")
    spans_path = results_dir / f"spans-{tag}.jsonl"
    spans_path.write_text("".join(json.dumps(s) + "\n" for s in spans))
    if args.smoke:
        errors = schema_errors(json.loads(results_path.read_text()))
        for error in errors:
            log(f"run_bench: smoke: {error}")
        correct = correct and not errors

    print(f"host: {host['nproc']} x {host['cpu_model']}, L3 {host['l3']}, "
          f"{host['simd_backend']}, {host['compiler']}, {host['build_type']}; seed {args.seed}")
    for name, entry in results.items():
        print_end_to_end(name, entry["end_to_end"])
    print_layers(results)
    print(f"\nresults: {results_path}\nspans:   {spans_path}")
    if args.workload == "all":
        metrics = {name: {k: m["value"] for k, m in {**e["end_to_end"], **e["per_layer"]}.items()}
                   for name, e in results.items()}
    else:
        entry = results[args.workload]
        chosen = entry["per_layer"] if args.trace else entry["end_to_end"]
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in chosen.items()}
    print(json.dumps({"correct": correct, "attempted": len(runs),
                      "failed": sum(not r.correct for r in runs), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
