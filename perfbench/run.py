"""latsum benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; latsum is imported from ``src/`` there.
With ``--trace 0`` it measures the workload for about S seconds with tracing
off and prints the end-to-end metrics; with ``--trace 1`` it runs one traced
pass and one untraced pass of the same inputs at one worker and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Every output
is checked against ``oracle.json``. See README.md in this directory for the
workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from calibrate import REFERENCE_S, Speedometer, Uncalibrated, warm_kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "entry_p50_ms": "ms",
    "entry_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# span name -> per-layer metric "<name>_ms" (self time)
SPAN_NAMES = (
    "groups.build", "groups.ingest", "groups.validate",
    "lattice.enumerate.worklist", "lattice.enumerate.subspace",
    "lattice.maximal", "lattice.recognize", "sigma.classify",
    "arith.build_sieve", "arith.scan_threshold", "arith.odd_part_scan",
    "analysis.analyze", "analysis.verify", "corpus.build",
    "cli.load_group", "cli.render", "cli.main",
)
COUNT_UNITS = {
    "groups.tables_exhaustive": "count",
    "groups.tables_sampled": "count",
    "groups.table_bytes": "B",
    "lattice.subgroups": "count",
    "lattice.maximals": "count",
    "arith.sieve_bytes": "B",
}


def import_latsum():
    """Import latsum from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "latsum" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no latsum sources under {src}")
    sys.path.insert(0, str(src))
    import latsum

    if Path(latsum.__file__).resolve().parent != (src / "latsum").resolve():
        raise SystemExit(f"perfbench: imported latsum from {latsum.__file__}, not from {src}")
    return latsum


def commit_id() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, workers: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workers": workers,
        "commit": commit_id(),
    }


def tail(samples: list[float], per_pass: int) -> tuple[float, int]:
    """(value, percentile): the pooled samples at the highest whole percentile
    that has at least ten samples above it within a single pass, by nearest
    rank. Taking it per pass keeps the percentile the same however many
    passes fit in the run."""
    pct = max(0, 100 * (per_pass - 10) // per_pass)
    s = sorted(samples)
    rank = max(1, math.ceil(pct * len(s) / 100))
    return s[rank - 1], pct


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def make_workload(args, workdir: Path):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.size, args.seed, workdir)


def setup_probe(args, workdir: Path) -> None:
    start = time.perf_counter()
    import_latsum()
    make_workload(args, workdir).build()
    setup = time.perf_counter() - start
    print(setup, warm_kernel_seconds())


def setup_seconds(args) -> list[tuple[float, float]]:
    """(set-up seconds, kernel seconds) for the import of latsum plus input
    building, each in a fresh process."""
    probes = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        setup, kernel = map(float, done.stdout.strip().splitlines()[-1].split())
        probes.append((setup, kernel))
    return probes


def end_to_end(setups: list[float], rates: list[float], latencies: list[float], per_pass: int) -> tuple[dict, int]:
    tail_ms, tail_pct = tail(latencies, per_pass)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "entry_p50_ms": statistics.median(latencies),
        "entry_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, tail_pct


def measure(args, workdir: Path) -> tuple[dict, list[bool], dict]:
    """The end-to-end run: tracing off, whole passes until --seconds elapse.
    Times of a one-process workload are reported at the reference speed of
    calibrate.py; the stamp carries them as measured too. The kernel runs on
    one core, and it did not track passes that keep both cores busy, so a
    pool workload is reported as measured."""
    probes = setup_seconds(args)
    import_latsum()
    wl = make_workload(args, workdir)
    items = wl.build()
    order = wl.order_rng()
    calibrated = wl.workers == 1
    speed = Speedometer() if calibrated else Uncalibrated()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        speed.sample()
        passes.append(wl.run_pass(order.sample(items, len(items)), wl.workers, between=speed.between_entries))
    speed.sample()
    factor = speed.factor()
    per_pass = len(passes[0].latencies_ms)
    metrics, tail_pct = end_to_end(
        [s * REFERENCE_S / k if calibrated else s for s, k in probes],
        [p.work / p.wall_s * factor for p in passes],
        [x / factor for p in passes for x in p.latencies_ms],
        per_pass,
    )
    as_measured, _ = end_to_end(
        [s for s, _ in probes],
        [p.work / p.wall_s for p in passes],
        [x for p in passes for x in p.latencies_ms],
        per_pass,
    )
    notes = {
        "passes": len(passes),
        "samples": sum(len(p.latencies_ms) for p in passes),
        "tail_percentile": tail_pct,
        "speed_factor": factor,
        "kernel_samples": len(speed.samples),
        "as_measured": as_measured,
    }
    return metrics, [c for p in passes for c in p.checks], notes


def trace(args, workdir: Path) -> tuple[dict, list[bool], dict]:
    """The traced run: one untraced and one traced pass of the same inputs at
    one worker; verify-general adds an untraced pass at its own worker count."""
    from tracer import NULL_TRACER, Tracer, layer_wrappers

    import_latsum()
    wl = make_workload(args, workdir)

    def one_pass(tracer=NULL_TRACER):
        start = time.perf_counter()
        with nullcontext() if tracer is NULL_TRACER else layer_wrappers(tracer):
            items = wl.build(tracer)
            result = wl.run_pass(wl.order_rng().sample(items, len(items)), 1, tracer)
        return time.perf_counter() - start, result

    untraced_s, untraced = one_pass()
    tracer = Tracer()
    traced_s, traced = one_pass(tracer)
    checks = untraced.checks + traced.checks
    parallel_wall = untraced.wall_s
    if wl.workers > 1:
        items = wl.build()
        parallel = wl.run_pass(wl.order_rng().sample(items, len(items)), wl.workers)
        parallel_wall = parallel.wall_s
        checks += parallel.checks

    self_s = tracer.self_times()
    metrics = {f"{name}_ms": self_s.get(name, 0.0) * 1000.0 for name in SPAN_NAMES}
    metrics.update({name: tracer.counts.get(name, 0) for name in COUNT_UNITS})
    entry_s = untraced.latencies_ms
    metrics["analysis.pool_efficiency"] = sum(entry_s) / 1000.0 / (wl.workers * parallel_wall)
    metrics["analysis.largest_entry_share"] = max(entry_s) / sum(entry_s)
    worklist = tracer.entry_seconds("lattice.enumerate.worklist")
    total = sum(worklist.values())
    pq = sum(v for k, v in worklist.items() if k and k.startswith("pq:"))
    metrics["lattice.enumerate.worklist_pq_share"] = pq / total if total else 0.0
    metrics["trace.wall_ms"] = traced_s * 1000.0
    metrics["trace.untraced_ms"] = untraced_s * 1000.0
    metrics["trace.overhead_ms"] = (traced_s - untraced_s) * 1000.0
    metrics["trace.unspanned_ms"] = (traced_s - tracer.root_seconds()) * 1000.0

    header = stamp(args, wl.workers)
    header["self_ms"] = {k: v * 1000.0 for k, v in sorted(self_s.items())}
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(path, header)
    notes = {"spans": len(tracer.spans), "trace_file": str(path.relative_to(ROOT))}
    return metrics, checks, notes


def per_layer_unit(name: str) -> str:
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    return "ratio"


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny inputs for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def execute(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run one measurement; returns (result object, stamp with run notes)."""
    from workloads import WORKLOADS

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        metrics, checks, notes = (trace if args.trace else measure)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {k: per_layer_unit(k) for k in metrics} if args.trace else END_TO_END_UNITS
    failed = checks.count(False)
    info = stamp(args, WORKLOADS[args.workload].workers)
    info.update(notes)
    info["failed_ratio"] = failed / len(checks)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
        try:
            setup_probe(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result, info = execute(args)
    print(json.dumps({"stamp": info}))
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
