"""In-memory span recorder and the layer wrappers the traced run installs.

A span records its name, start, end, parent span and entry id. Spans stay in
memory until the run ends; ``write_jsonl`` then writes one JSON object per
span. A layer's self time is its span's duration minus the time covered by
its direct children.

Spans are recorded from the benchmark's own files: ``layer_wrappers``
temporarily replaces public latsum functions, wherever a latsum module holds
a reference to them, with versions that open a span around the call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "entry")

    def __init__(self, id: int, name: str, start: float, parent: int | None, entry: str | None):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.entry = entry

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "entry": self.entry,
        }


class Tracer:
    """Records nested spans and named counts for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, entry: str | None = None):
        """Time the enclosed block; ``entry`` applies only where no enclosing span set one."""
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent.entry is not None:
            entry = parent.entry
        rec = Span(len(self.spans), name, time.perf_counter(), parent.id if parent else None, entry)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child_time[s.id]
        return dict(out)

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def entry_seconds(self, name: str) -> dict[str, float]:
        """Summed duration of the spans called ``name``, per entry id."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.name == name:
                out[s.entry] += s.end - s.start
        return dict(out)

    def write_jsonl(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


class NullTracer:
    """Stands in for a Tracer when tracing is off; every call is a no-op."""

    _null = nullcontext()

    def span(self, name: str, entry: str | None = None):
        return self._null

    def count(self, name: str, k: float = 1) -> None:
        pass


NULL_TRACER = NullTracer()


def elementary_abelian_rank(table: list[list[int]]) -> int:
    """k when the table is an elementary abelian group of order p^k, k >= 2; else 0.

    Computed here rather than asked of latsum, so that choosing the span name
    fills none of the group's caches.
    """
    n = len(table)
    if n < 4:
        return 0
    p = next(d for d in range(2, n + 1) if n % d == 0)
    k, m = 0, n
    while m % p == 0:
        m //= p
        k += 1
    if m != 1 or k < 2:
        return 0
    for a in range(1, n):
        x = a
        for _ in range(p - 1):
            x = table[x][a]
        if x != 0:
            return 0
    if any(table[a][b] != table[b][a] for a in range(n) for b in range(a)):
        return 0
    return k


def _patch_everywhere(patches: list, original, replacement) -> None:
    """Point every latsum module's reference to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name != "latsum" and not name.startswith("latsum."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, replacement)


@contextmanager
def layer_wrappers(tracer: Tracer):
    """Install span wrappers around latsum's public layer calls; undo on exit."""
    import latsum.analysis as analysis
    import latsum.cli as cli
    import latsum.groups as groups
    import latsum.lattice as lattice
    import latsum.sigma as sigma

    patches: list = []
    sampled_above = getattr(groups, "FULL_ASSOC_CHECK_MAX", None)

    def spanned(name, fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper

    enumerate_subgroups = lattice.enumerate_subgroups
    recognize = lattice.recognize
    maximal_subgroups = lattice.maximal_subgroups
    analyze_group = analysis.analyze_group

    def traced_enumerate(group, *args, **kwargs):
        route = "subspace" if elementary_abelian_rank(group.table) else "worklist"
        with tracer.span("lattice.enumerate." + route):
            lat = enumerate_subgroups(group, *args, **kwargs)
        tracer.count("lattice.subgroups", len(lat))
        return lat

    def traced_recognize(group, lat):
        # recognize always needs the maximal subgroups; computing them first
        # fills the lattice's cache, so recognize does not count them again
        with tracer.span("lattice.maximal"):
            tracer.count("lattice.maximals", len(maximal_subgroups(lat)))
        with tracer.span("lattice.recognize"):
            return recognize(group, lat)

    def traced_analyze(group, *args, label=None, **kwargs):
        with tracer.span("analysis.analyze", entry=label or group.label):
            return analyze_group(group, *args, label=label, **kwargs)

    def traced_validate(self, *args, **kwargs):
        exhaustive = sampled_above is None or self.order <= sampled_above
        tracer.count("groups.tables_exhaustive" if exhaustive else "groups.tables_sampled")
        with tracer.span("groups.validate"):
            return validate(self, *args, **kwargs)

    def traced_raw_table(text, *args, **kwargs):
        tracer.count("groups.table_bytes", len(text.encode()))
        with tracer.span("groups.ingest"):
            return group_from_raw_table(text, *args, **kwargs)

    def traced_build(self, *args, **kwargs):
        with tracer.span("groups.build", entry=str(self)):
            return build(self, *args, **kwargs)

    group_from_raw_table = groups.group_from_raw_table
    validate = groups.Group.validate
    build = groups.GroupSpec.build
    try:
        _patch_everywhere(patches, enumerate_subgroups, traced_enumerate)
        _patch_everywhere(patches, recognize, traced_recognize)
        _patch_everywhere(patches, analyze_group, traced_analyze)
        _patch_everywhere(patches, sigma.classify, spanned("sigma.classify", sigma.classify))
        _patch_everywhere(patches, group_from_raw_table, traced_raw_table)
        _patch_everywhere(patches, groups.group_from_perm_file,
                          spanned("groups.build", groups.group_from_perm_file))
        _patch_everywhere(patches, cli.load_group, spanned("cli.load_group", cli.load_group))
        render = getattr(cli, "_print_report", None)
        if render is not None:
            _patch_everywhere(patches, render, spanned("cli.render", render))
        for cls, attr, replacement in (
            (groups.Group, "validate", traced_validate),
            (groups.GroupSpec, "build", traced_build),
        ):
            patches.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
