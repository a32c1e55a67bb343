"""The repository's benchmark: one command, every layer, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zipf --seed 1 --seconds 30 --trace 0

Every run drives four scenarios from the outside, each against its own
public entry point: ``serve-ndn`` and ``serve-overload`` (``repro
serve`` daemons in processes of their own, fed by an open-loop UDP
generator in this process), ``engine-dip32`` (``ForwardingEngine.run``
in a closed loop) and ``fabric-golden`` (``golden_netsim`` and
``golden_fabric`` at 1 and N processes).  The workload picks the input
skew; the seed makes the inputs.  Each scenario checks its outputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
scenario untraced and then traced, with span wrappers around each
layer's entry point (see ``spans.py``), and prints the per-layer
metrics plus each scenario's tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full raw result, with host metadata,
goes to ``.perfbench/results/`` under the repository root.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

#: Input skew per workload: Zipf exponent for serve names and engine flows.
WORKLOADS = {"zipf": 1.1, "uniform": 0.0}


def _host(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _stat(pid) -> list:
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def _state(pid: int):
    """The process's state letter, or None once it is gone."""
    try:
        return _stat(pid)[0]
    except OSError:
        return None


def _descendants(pid: int) -> list:
    """Every process below ``pid``, parents before children."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat(entry)
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, queue = [], [pid]
    while queue:
        kids = children.get(queue.pop(0), [])
        found.extend(kids)
        queue.extend(kids)
    return found


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Engines, fabric runs and serve daemons stop their own processes on
    the normal path; this covers every other path out.  It also stops
    the resource tracker that ``multiprocessing`` starts for shared
    memory and spawned workers, which would otherwise notice only after
    this process has exited that it should exit too.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = module._resource_tracker if module is not None else None
    pids = [pid for pid in _descendants(os.getpid())
            if tracker is None or pid != tracker._pid]
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    for pid in pids:
        try:
            os.waitpid(pid, 0)  # a child of this process
            continue
        except ChildProcessError:
            pass
        # A grandchild: its new parent reaps it.
        while _state(pid) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.01)
    if tracker is not None:
        # Last, once no forked worker holds its pipe open: closing the
        # pipe makes it unlink any segment still registered and exit,
        # and this waits for it.
        tracker._stop()


def _strip(value):
    """Drop live objects (phases, reports) from a scenario result."""
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k != "phases"}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def end_to_end(args, skew: float, cpus: int, checks) -> tuple:
    from engine_bench import EngineDip32
    from fabric_bench import FabricGolden, run_rounds
    from serve_bench import Daemon, cpu_split, serve_ndn, serve_overload

    # The closed-loop rounds run before, between and after the serve
    # scenarios, so their samples span the whole run.
    benches = [EngineDip32(args.seed, skew, checks, cpus),
               FabricGolden(args.seed, checks, cpus)]
    share = 0.6 * args.seconds / 3
    run_rounds(benches, share)
    ndn = serve_ndn(ROOT, args.seed, skew, args.seconds, checks)
    run_rounds(benches, share, min_rounds=1)
    overload = serve_overload(ROOT, args.seed, skew, args.seconds, checks)
    spare = Daemon(ROOT, args.seed, None, cpus=cpu_split()[0])
    spare.stop()
    run_rounds(benches, share, min_rounds=1)
    engine, fabric = (bench.finish() for bench in benches)
    serve_setup = statistics.median(
        [ndn["setup_s"], overload["setup_s"], spare.setup_s]
    )
    metrics = {
        "setup_s": serve_setup + engine["setup_s"] + fabric["setup_s"],
        "light_p50_ms": ndn["light"]["p50_ms"],
        "light_p99_ms": ndn["light"]["p99_ms"],
        "heavy_p50_ms": ndn["heavy"]["p50_ms"],
        "heavy_p99_ms": ndn["heavy"]["p99_ms"],
        "max_rate_pps": ndn["max_rate_pps"],
        # Daemon CPU per packet at the heavy rate: the serve path's cost
        # (ingress, ServeCore, walk, encode), less tied to scheduling
        # than its latencies.
        "serve_cpu_us_per_pkt": (
            ndn["heavy"]["daemon_cpu_s"] / ndn["heavy"]["daemon_offered"] * 1e6
        ),
        "goodput_pps": overload["overload"]["goodput_pps"],
        "netsim_pps": fabric["netsim_pps"],
        "fabric_pps_1proc": fabric["fabric_1proc_pps"],
        "fabric_pps_nproc": fabric["fabric_nproc_pps"],
    }
    for config in ("serial", "parallel"):
        for size in (64, 1500):
            metrics[f"{config}_pps_{size}B"] = engine[f"{config}_pps_{size}B"]
    samples = {
        f"{phase}_{stat}_ms": ndn[phase]["samples"]
        for phase in ("light", "heavy") for stat in ("p50", "p99")
    }
    scenarios = {
        "samples": samples,
        "serve-ndn": ndn, "serve-overload": overload,
        "engine-dip32": engine, "fabric-golden": fabric,
        "setup_s": {"serve": serve_setup, "engine": engine["setup_s"],
                    "fabric": fabric["setup_s"]},
    }
    return metrics, scenarios


def per_layer(args, skew: float, cpus: int, checks) -> tuple:
    import engine_bench
    import fabric_bench
    import serve_bench
    from spans import SpanRecorder, install

    spans_dir = os.path.join(OUT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-{os.getpid()}"
    metrics = {}
    scenarios = {}
    recorders = {}

    # Every number goes into the raw result; BENCHMARK.json's
    # per_layer list picks the ones printed for each scenario.
    def put(scenario, layers):
        for name, value in layers.items():
            metrics[f"{scenario}.{name}"] = value

    def in_process(name, call):
        recorder = recorders[name] = SpanRecorder()
        uninstall = install(recorder)
        try:
            return call()
        finally:
            uninstall()

    # serve-ndn: the fixed rates on an untraced and a traced daemon.
    plain = serve_bench.serve_ndn(ROOT, args.seed, skew, args.seconds, checks, ladder=False)
    path = os.path.join(spans_dir, f"serve-ndn-{tag}.json")
    traced = serve_bench.serve_ndn(ROOT, args.seed, skew, args.seconds, checks,
                                   spans_path=path, ladder=False)
    spans = serve_bench.read_spans(path)
    layers = serve_bench.traced_layers(traced, "heavy", spans)
    cpu_per_pkt = {
        key: run["heavy"]["daemon_cpu_s"] / run["heavy"]["daemon_offered"]
        for key, run in (("plain", plain), ("traced", traced))
    }
    layers["trace.overhead_frac"] = cpu_per_pkt["traced"] / cpu_per_pkt["plain"] - 1
    put("serve-ndn", layers)
    scenarios["serve-ndn"] = {"untraced": plain, "traced": traced}

    # serve-overload: goodput untraced vs traced, layers from the trace.
    plain = serve_bench.serve_overload(ROOT, args.seed, skew, args.seconds, checks)
    path = os.path.join(spans_dir, f"serve-overload-{tag}.json")
    traced = serve_bench.serve_overload(ROOT, args.seed, skew, args.seconds, checks,
                                        spans_path=path)
    spans = serve_bench.read_spans(path)
    layers = serve_bench.traced_layers(traced, "overload", spans)
    layers["engine.ring.high_watermark"] = spans["counters"].get(
        "engine.ring.high_watermark", 0.0)
    layers["engine.ring.dropped"] = spans["counters"].get("engine.ring.dropped", 0.0)
    layers["trace.overhead_frac"] = (
        plain["overload"]["goodput_pps"] / traced["overload"]["goodput_pps"] - 1
    )
    put("serve-overload", layers)
    scenarios["serve-overload"] = {"untraced": plain, "traced": traced}

    # engine-dip32: serial spans, parallel ShardReports.
    def closed_loop(bench):
        fabric_bench.run_rounds([bench], 0.2 * args.seconds)
        return bench.finish()

    plain = closed_loop(engine_bench.EngineDip32(args.seed, skew, checks, cpus))
    traced = in_process("engine-dip32", lambda: closed_loop(
        engine_bench.EngineDip32(args.seed, skew, checks, cpus)))
    layers = engine_bench.traced_layers(traced, recorders["engine-dip32"].export())
    layers["trace.overhead_frac"] = (
        plain["serial_pps_64B"] / traced["serial_pps_64B"] - 1
    )
    put("engine-dip32", layers)
    scenarios["engine-dip32"] = {"untraced": plain, "traced": traced}

    # fabric-golden: every mode untraced; in-process modes traced.
    plain = closed_loop(fabric_bench.FabricGolden(args.seed, checks, cpus))
    traced = in_process("fabric-golden", lambda: closed_loop(
        fabric_bench.FabricGolden(args.seed, checks, cpus,
                                  modes=("netsim", "fabric_1proc"))))
    layers = fabric_bench.traced_layers(
        traced, plain, recorders["fabric-golden"].export())
    layers["trace.overhead_frac"] = (
        traced["fabric_1proc_wall_s"] / plain["fabric_1proc_wall_s"] - 1
    )
    put("fabric-golden", layers)
    scenarios["fabric-golden"] = {"untraced": plain, "traced": traced}

    for name, recorder in recorders.items():
        recorder.write(os.path.join(spans_dir, f"{name}-{tag}.json"))
    return metrics, scenarios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="DIP layered benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro package next to the benchmark", file=sys.stderr)
        return 2
    # Registered before anything imports multiprocessing, so it runs
    # after multiprocessing's own exit handler, on every path out.
    atexit.register(stop_children)
    try:
        return _run(args)
    finally:
        stop_children()


def _run(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        reported = {
            name: entry
            for group in json.load(handle)["reported"]
            for name, entry in group["metrics"].items()
        }
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    # Temporary files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")

    from serve_bench import Checks

    cpus = len(os.sched_getaffinity(0))
    skew = WORKLOADS[args.workload]
    checks = Checks()
    started = time.perf_counter()
    collect = per_layer if args.trace else end_to_end
    values, scenarios = collect(args, skew, cpus, checks)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    # Measured on every run, printed, but not gated (layers.json says why).
    values["failed_frac"] = checks.failed / max(checks.attempted, 1)
    ungated = {
        name: {"value": float(values[name]), "unit": entry["unit"]}
        for name, entry in reported.items() if name in values
    }
    correct = not checks.problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "skew": skew,
        "host": _host(args.seed),
        "wall_s": time.perf_counter() - started,
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        "metrics": metrics,
        "reported": ungated,
        "values": values,
        "scenarios": _strip(scenarios),
    }
    result_path = os.path.join(
        OUT, "results",
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json",
    )
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    samples = scenarios.get("samples", {})
    for heading, group in (("gated", metrics), ("reported, not gated", ungated)):
        print(f"# {heading}")
        for name, metric in group.items():
            count = f" ({samples[name]} samples)" if name in samples else ""
            print(f"{name} = {metric['value']!r} {metric['unit']}{count}")
    for problem in checks.problems:
        print(f"FAILED CHECK: {problem}")
    print(f"raw result: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
