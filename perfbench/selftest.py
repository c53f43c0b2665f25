"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at tiny size, untraced and traced, each in a fresh
   process, and checks that the last line is the result object with every
   metric BENCHMARK.json declares, with its unit, and no failed entry.
2. Injects a wrong answer -- every lattice loses one subgroup -- into latsum
   inside this process only, and checks that the benchmark reports failed
   entries for it.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def tiny_args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]


def check_every_workload() -> None:
    for workload in sorted(WORKLOADS):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), *tiny_args(workload, trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            check(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == declared(kind), f"{label}: metrics {units} differ from BENCHMARK.json")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), f"{label}: value")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: {result}")
            print(f"ok  {label}: {result['attempted']} entries, {len(units)} metrics")


def check_wrong_answer_is_caught() -> None:
    run.import_latsum()
    import latsum.analysis as analysis
    from latsum.lattice import Lattice

    original = analysis.enumerate_subgroups

    def one_subgroup_short(group, *args, **kwargs):
        lat = original(group, *args, **kwargs)
        if len(lat) < 3:
            return lat
        subgroups = lat.subgroups[:1] + lat.subgroups[2:]
        census = dict(sorted(Counter(s.order for s in subgroups).items()))
        return Lattice(group=group, subgroups=subgroups, census=census)

    analysis.enumerate_subgroups = one_subgroup_short
    try:
        for workload in ("abelian-lattice", "analyze-files"):
            result, info = run.execute(run.parse_args(tiny_args(workload, 0)))
            check(result["failed"] > 0 and not result["correct"], f"{workload}: wrong lattice not caught")
            check(info["failed_ratio"] > 0, f"{workload}: failed_ratio {info['failed_ratio']}")
            print(f"ok  {workload} with a subgroup removed: failed_ratio {info['failed_ratio']:.3f}")
    finally:
        analysis.enumerate_subgroups = original


if __name__ == "__main__":
    check_every_workload()
    check_wrong_answer_is_caught()
    print("selftest passed")
