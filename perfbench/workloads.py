"""The four benchmark workloads: seeded inputs, timed passes and traced passes.

Each workload turns a seed into a list of items (the inputs latsum receives)
and runs them in passes. A pass is one complete round over every item, in an
order drawn from the seed; the inputs of one workload cost about the same on
every seed, so that figures from different seeds are comparable. latsum is
imported only inside the functions here, so that the set-up time the
benchmark reports includes the import.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from oracle import Oracle, table_key
from tracer import NULL_TRACER

SIZES = ("full", "tiny")

# the group order cap of every latsum entry point
MAX_ORDER = 2000


@dataclass
class Item:
    """One input: its entry id, what latsum receives, and its oracle key."""

    entry: str
    payload: object
    key: str | None = None
    group: object = None  # a prebuilt group, used by the first pass only


@dataclass
class PassResult:
    wall_s: float  # excluding the time spent in ``between`` calls
    work: float  # groups analysed, or integers sieved and scanned
    latencies_ms: list[float] = field(default_factory=list)
    checks: list[bool] = field(default_factory=list)


def no_pause() -> float:
    return 0.0


def entry_failed(entry: str, exc: Exception) -> bool:
    """Report an entry that raised; it counts as failed and the run goes on."""
    print(f"perfbench: {entry}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return False


class Workload:
    name = ""
    workers = 1

    def __init__(self, size: str, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.oracle = Oracle()

    def build(self, tracer=NULL_TRACER) -> list[Item]:
        raise NotImplementedError

    def run_pass(self, items: list[Item], workers: int, tracer=NULL_TRACER, between=no_pause) -> PassResult:
        """Run every item once, in the order given. ``between`` runs after
        each item, outside every timing, and returns the seconds it took."""
        raise NotImplementedError

    def input_rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:inputs")

    def order_rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:order")


# ---------------------------------------------------------------------------
# verify-general
# ---------------------------------------------------------------------------

VERIFY_CORPUS = {
    # `latsum verify --elem-max 0 --pq-max 250`: every general-route family of
    # the default corpus; pq groups above order 250 are left out so that one
    # pass fits a run several times
    "full": dict(cyclic_max=200, dihedral_max=30, pq_max=250, ambient_sym=5),
    "tiny": dict(cyclic_max=12, dihedral_max=4, pq_max=40, ambient_sym=4),
}


class VerifyGeneral(Workload):
    name = "verify-general"
    workers = 2

    def build(self, tracer=NULL_TRACER) -> list[Item]:
        from latsum.corpus import build_default_corpus

        with tracer.span("corpus.build"):
            entries = build_default_corpus(elem_max=0, **VERIFY_CORPUS[self.size])
        return [Item(label, (label, source)) for label, source in entries]

    def key(self, item: Item) -> str:
        if item.key is None:
            label, source = item.payload
            item.key = label if not isinstance(source, list) else table_key(source)
        return item.key

    def run_pass(self, items, workers, tracer=NULL_TRACER, between=no_pause) -> PassResult:
        from latsum import verify_classification
        from latsum.corpus import DEFAULT_VERIFY_MAX_SUBGROUPS

        entries = [it.payload for it in items]
        results, latencies, paused = [], [], 0.0
        start = time.perf_counter()
        if workers > 1:
            try:
                summary = verify_classification(entries, max_subgroups=DEFAULT_VERIFY_MAX_SUBGROUPS, workers=workers)
                results = summary.results
            except Exception as exc:  # a crash in one entry ends the whole pool
                entry_failed(self.name, exc)
            wall = time.perf_counter() - start
            # per-entry latency as the program records it inside each worker
            latencies = [r.report.timing_ms for r in results if r.report is not None]
        else:
            for entry in entries:
                t0 = time.perf_counter()
                try:
                    with tracer.span("analysis.verify", entry=entry[0]):
                        summary = verify_classification([entry], max_subgroups=DEFAULT_VERIFY_MAX_SUBGROUPS, workers=1)
                    results.extend(summary.results)
                except Exception as exc:
                    entry_failed(entry[0], exc)
                latencies.append((time.perf_counter() - t0) * 1000.0)
                paused += between()
            wall = time.perf_counter() - start - paused
        by_label = {it.entry: it for it in items}
        checks = [
            r.error is None and r.report is not None
            and self.oracle.report_ok(self.key(by_label[r.label]), r.report)
            for r in results
        ]
        checks += [False] * (len(items) - len(results))
        return PassResult(wall, len(items), latencies, checks)


# ---------------------------------------------------------------------------
# abelian-lattice
# ---------------------------------------------------------------------------

ELEM_MAX_ORDER = {"full": 256, "tiny": 32}

# (p, k, m): elem:p,k x cyclic:m with p not dividing m. These are abelian but
# not elementary abelian, so latsum takes the worklist route for them. Each
# costs 13-30 ms here, so the median and the tail of the entry latencies
# fall inside this band, where neighbouring entries cost about the same.
ABELIAN_PRODUCTS = {
    "full": [
        (5, 2, 7), (3, 2, 16), (3, 2, 19), (2, 3, 9), (2, 2, 25), (5, 2, 6),
        (2, 4, 3), (2, 2, 27), (2, 2, 29), (7, 2, 4), (2, 3, 11), (3, 2, 23),
        (2, 2, 31), (3, 2, 20), (2, 2, 33), (3, 2, 25), (2, 3, 13), (3, 3, 4),
        (2, 2, 47), (2, 2, 35), (3, 2, 22), (5, 2, 8), (2, 2, 37), (3, 3, 5),
    ],
    "tiny": [(2, 2, 3), (3, 2, 2), (2, 3, 5), (5, 2, 2)],
}


def coprime_splits(m: int) -> list[list[int]]:
    """m itself, and every split of m into two coprime factors above 1."""
    out = [[m]]
    for a in range(2, m):
        if m % a == 0 and a < m // a and math.gcd(a, m // a) == 1:
            out.append([a, m // a])
    return out


def abelian_presentation(rng: random.Random, p: int, k: int, m: int) -> str:
    """A seeded spec string for elem:p,k x cyclic:m: the elementary part may be
    split into two, the cyclic part into coprime factors, and the factors
    come in any order. Every choice gives the same group up to isomorphism."""
    a = rng.randrange(k) or k
    elem = [f"elem:{p},{a}"] + ([f"elem:{p},{k - a}"] if a < k else [])
    cyclic = [f"cyclic:{c}" for c in rng.choice(coprime_splits(m))]
    parts = elem + cyclic
    rng.shuffle(parts)
    return "product:" + "+".join(parts)


class AbelianLattice(Workload):
    name = "abelian-lattice"

    def build(self, tracer=NULL_TRACER) -> list[Item]:
        from latsum import GroupSpec
        from latsum.corpus import elementary_abelian_specs

        rng = self.input_rng()
        specs = [(str(s), str(s)) for s in elementary_abelian_specs(ELEM_MAX_ORDER[self.size])]
        for p, k, m in ABELIAN_PRODUCTS[self.size]:
            specs.append((abelian_presentation(rng, p, k, m), f"product:elem:{p},{k}+cyclic:{m}"))
        items = []
        for text, key in specs:
            spec = GroupSpec.parse(text)
            items.append(Item(text, spec, key, spec.build(MAX_ORDER)))
        return items

    def run_pass(self, items, workers, tracer=NULL_TRACER, between=no_pause) -> PassResult:
        import latsum.analysis as analysis
        from latsum.corpus import DEFAULT_VERIFY_MAX_SUBGROUPS

        # a group caches derived facts, so every pass analyses fresh objects
        groups = []
        for it in items:
            groups.append(it.group if it.group is not None else it.payload.build(MAX_ORDER))
            it.group = None
        latencies, reports, paused = [], [], 0.0
        start = time.perf_counter()
        for it, group in zip(items, groups):
            t0 = time.perf_counter()
            try:
                reports.append(analysis.analyze_group(group, DEFAULT_VERIFY_MAX_SUBGROUPS, label=it.entry))
            except Exception as exc:
                reports.append(entry_failed(it.entry, exc))
            latencies.append((time.perf_counter() - t0) * 1000.0)
            paused += between()
        wall = time.perf_counter() - start - paused
        checks = [r is not False and self.oracle.report_ok(it.key, r) for it, r in zip(items, reports)]
        return PassResult(wall, len(items), latencies, checks)


# ---------------------------------------------------------------------------
# sigma-scan
# ---------------------------------------------------------------------------

# (first limit, spacing, menu size, limits per pass); every menu limit is in
# the oracle, and the seed draws which ones a run scans
SIGMA_LIMITS = {"full": (200_000, 331, 80, 40), "tiny": (10_000, 97, 8, 4)}


def sigma_menu(size: str) -> list[int]:
    first, step, count, _ = SIGMA_LIMITS[size]
    return [first + step * j for j in range(count)]


class SigmaScan(Workload):
    name = "sigma-scan"

    def build(self, tracer=NULL_TRACER) -> list[Item]:
        import latsum  # noqa: F401  (set-up is the import alone)

        per_pass = SIGMA_LIMITS[self.size][3]
        limits = sorted(self.input_rng().sample(sigma_menu(self.size), per_pass))
        return [Item(f"limit:{n}", n) for n in limits]

    def run_pass(self, items, workers, tracer=NULL_TRACER, between=no_pause) -> PassResult:
        from latsum import build_sieve, odd_part_inequality_scan, scan_threshold

        latencies, outputs, paused = [], [], 0.0
        start = time.perf_counter()
        for it in items:
            limit = it.payload
            t0 = time.perf_counter()
            try:
                with tracer.span("arith.build_sieve", entry=it.entry):
                    sieve = build_sieve(limit)
                with tracer.span("arith.scan_threshold", entry=it.entry):
                    scan = scan_threshold(sieve)
                with tracer.span("arith.odd_part_scan", entry=it.entry):
                    odd = odd_part_inequality_scan(limit, sieve)
                tracer.count("arith.sieve_bytes", len(sieve.table) * sieve.table.itemsize)
                outputs.append((scan, odd))
            except Exception as exc:
                outputs.append(entry_failed(it.entry, exc))
            latencies.append((time.perf_counter() - t0) * 1000.0)
            paused += between()
        wall = time.perf_counter() - start - paused
        checks = [out is not False and self.oracle.scan_ok(it.payload, *out) for it, out in zip(items, outputs)]
        return PassResult(wall, sum(it.payload for it in items), latencies, checks)


# ---------------------------------------------------------------------------
# analyze-files
# ---------------------------------------------------------------------------

# m for the twin tables of order 6m: cyclic:6m and S3 x cyclic:m (m coprime
# to 6). The large twins straddle the cutoff of 512 between the exhaustive
# and the sampled associativity check, and there are enough of them that the
# latency tail falls among them; the small tables and the permutation files
# hold the median. Lattices stay small, so parsing and validation dominate.
TABLE_TWINS = {"full": [5, 7, 11, 13, 65, 67, 71, 73, 89, 91, 95, 97], "tiny": [5, 7]}

PERM_GROUPS = {
    "full": [("cyclic", d) for d in (12, 16, 18, 20, 24, 28, 30)]
    + [("dihedral", d) for d in (9, 11, 13, 15, 17, 19, 21)]
    + [("s3xc", m) for m in (5, 7, 11, 13, 17, 19)],
    "tiny": [("cyclic", 6), ("dihedral", 5), ("s3xc", 5)],
}

S3_NAMES = ("pq:2,3", "dihedral:3")


def s3_key(m: int) -> str:
    return f"product:pq:2,3+cyclic:{m}"


def relabelled_table(table: list[list[int]], rng: random.Random) -> str:
    """Raw-table text of the group with its non-identity elements renamed at random."""
    import numpy as np

    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    pi = np.array([0] + rest, dtype=np.int64)
    out = np.empty((n, n), dtype=np.int64)
    out[np.ix_(pi, pi)] = pi[np.asarray(table, dtype=np.int64)]
    return f"{n}\n" + "\n".join(" ".join(map(str, row)) for row in out.tolist()) + "\n"


def cycles_text(perm: list[int]) -> str:
    """Disjoint-cycle notation of a permutation given in one-line form."""
    seen, out = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = perm[x]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out)


def perm_file_text(kind: str, d: int, rng: random.Random) -> tuple[str, str]:
    """(generator file text, oracle key) for a permutation group, with its
    points renamed at random and its generators in random order."""
    if kind == "cyclic":
        degree, key = d, f"cyclic:{d}"
        gens = [[(i + 1) % d for i in range(d)]]
    elif kind == "dihedral":
        degree, key = d, f"dihedral:{d}"
        gens = [[(i + 1) % d for i in range(d)], [(-i) % d for i in range(d)]]
    else:
        degree, key = 3 + d, s3_key(d)
        shift = [0, 1, 2] + [3 + (i + 1) % d for i in range(d)]
        gens = [[1, 2, 0] + list(range(3, degree)), [1, 0] + list(range(2, degree)), shift]
    names = list(range(degree))
    rng.shuffle(names)
    renamed = []
    for g in gens:
        perm = [0] * degree
        for i in range(degree):
            perm[names[i]] = names[g[i]]
        renamed.append(perm)
    rng.shuffle(renamed)
    return f"perm {degree}\n" + "\n".join(cycles_text(g) for g in renamed) + "\n", key


class AnalyzeFiles(Workload):
    name = "analyze-files"

    def build(self, tracer=NULL_TRACER) -> list[Item]:
        from latsum import GroupSpec

        rng = self.input_rng()
        self.workdir.mkdir(parents=True, exist_ok=True)
        files: list[tuple[str, str, str]] = []  # (file name, text, oracle key)
        for m in TABLE_TWINS[self.size]:
            n = 6 * m
            cyclic = "product:" + "+".join(f"cyclic:{c}" for c in rng.choice(coprime_splits(n)))
            parts = [rng.choice(S3_NAMES), f"cyclic:{m}"]
            rng.shuffle(parts)
            for text, key in ((cyclic, f"cyclic:{n}"), ("product:" + "+".join(parts), s3_key(m))):
                group = GroupSpec.parse(text).build(MAX_ORDER)
                files.append((f"table-{key}.txt", relabelled_table(group.table, rng), key))
        for kind, d in PERM_GROUPS[self.size]:
            text, key = perm_file_text(kind, d, rng)
            files.append((f"perm-{key}.txt", text, key))
        items = []
        for name, text, key in files:
            path = self.workdir / name.replace(":", "_").replace(",", "_").replace("+", "_")
            path.write_text(text, encoding="utf-8")
            items.append(Item(path.name, str(path), key))
        return items

    def run_pass(self, items, workers, tracer=NULL_TRACER, between=no_pause) -> PassResult:
        import latsum.cli as cli

        latencies, outputs, paused = [], [], 0.0
        start = time.perf_counter()
        for it in items:
            out = io.StringIO()
            t0 = time.perf_counter()
            try:
                with tracer.span("cli.main", entry=it.entry), redirect_stdout(out):
                    code = cli.main(["analyze", it.payload, "--json"])
            except Exception as exc:
                code = entry_failed(it.entry, exc)
            latencies.append((time.perf_counter() - t0) * 1000.0)
            outputs.append((code, out.getvalue()))
            paused += between()
        wall = time.perf_counter() - start - paused
        checks = [self.output_ok(it, *o) for it, o in zip(items, outputs)]
        return PassResult(wall, len(items), latencies, checks)

    def output_ok(self, item: Item, code, text: str) -> bool:
        if code is False or code != 0:  # False: the request raised
            return False
        try:
            return self.oracle.json_ok(item.key, json.loads(text))
        except (ValueError, KeyError, TypeError):
            return False


WORKLOADS = {w.name: w for w in (VerifyGeneral, AbelianLattice, SigmaScan, AnalyzeFiles)}
