"""Whole-group analysis reports and corpus-level verification."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from .corpus import CorpusEntry
from .errors import InvariantViolation, OrderCapExceeded
from .groups import DEFAULT_ORDER_CAP, Group, GroupSpec
from .lattice import (
    DEFAULT_MAX_SUBGROUPS,
    STRUCTURE_CYCLIC,
    STRUCTURE_OTHER,
    STRUCTURE_S3,
    StructuralProfile,
    enumerate_subgroups,
    recognize,
)
from .sigma import VERDICT_AT, VERDICT_BELOW, Classification, classify

DISPLAY_DIGITS = 12


def decimal_display(value: Fraction, digits: int = DISPLAY_DIGITS) -> str:
    """Fixed-point rendering (round-half-even); for human eyes only, never compared."""
    with localcontext() as ctx:
        ctx.prec = digits + len(str(value.numerator // value.denominator)) + 2
        quantum = Decimal(1).scaleb(-digits)
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return str(d.quantize(quantum, rounding=ROUND_HALF_EVEN))


def fraction_dict(value: Fraction) -> dict[str, str]:
    """Rationals travel as separate integer strings, never as floats."""
    return {"numerator": str(value.numerator), "denominator": str(value.denominator)}


@dataclass
class AnalysisReport:
    """Full analysis of one group: census, exact sigma1, verdict, structure flags."""

    label: str
    order: int
    subgroup_count: int
    census: dict[int, int]
    classification: Classification
    profile: StructuralProfile
    timing_ms: float

    def __post_init__(self):
        if sum(self.census.values()) != self.subgroup_count:
            raise InvariantViolation(f"census {self.census} of {self.label} does not sum to {self.subgroup_count}")

    @property
    def verdict(self) -> str:
        return self.classification.verdict

    @property
    def structure_label(self) -> str:
        """Canonical structure name used for threshold-hit reporting."""
        if self.classification.structure == STRUCTURE_CYCLIC:
            return f"Cyclic({self.order})"
        if self.classification.structure == STRUCTURE_OTHER:
            return f"Other({self.label})"
        return self.classification.structure

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "label": self.label,
            "order": self.order,
            "subgroup_count": self.subgroup_count,
            "census": {str(k): v for k, v in sorted(self.census.items())},
            "sigma1": fraction_dict(self.classification.sigma1),
            "sigma1_decimal_display": decimal_display(self.classification.sigma1),
            "threshold": fraction_dict(self.classification.threshold),
            "verdict": self.classification.verdict,
            "structure": self.classification.structure,
            "theorem_consistent": self.classification.theorem_consistent,
            "flags": {
                "is_cyclic": self.profile.is_cyclic,
                "is_abelian": self.profile.is_abelian,
                "is_nilpotent": self.profile.is_nilpotent,
                "is_p_group": self.profile.is_p_group,
                "p_group_prime": self.profile.p_group_prime,
                "frattini_rank": self.profile.frattini_rank,
                "recognized_as": self.profile.recognized_as,
            },
        }
        if include_timing:
            out["timing_ms"] = round(self.timing_ms, 3)
        return out


def analyze_group(
    group: Group,
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS,
    label: str | None = None,
) -> AnalysisReport:
    """Enumerate the lattice and classify; the one-stop analysis entry point."""
    start = time.perf_counter()
    lat = enumerate_subgroups(group, max_subgroups)
    profile = recognize(group, lat)
    classification = classify(group, lat, profile)
    elapsed = (time.perf_counter() - start) * 1000.0
    return AnalysisReport(
        label=label or group.label,
        order=group.order,
        subgroup_count=len(lat),
        census=dict(lat.census),
        classification=classification,
        profile=profile,
        timing_ms=elapsed,
    )


# ---------------------------------------------------------------------------
# corpus verification
# ---------------------------------------------------------------------------

@dataclass
class EntryResult:
    label: str
    report: AnalysisReport | None
    error: str | None


@dataclass
class VerificationSummary:
    """Outcome of classifying a whole corpus against the threshold."""

    results: list[EntryResult]

    @property
    def reports(self) -> list[AnalysisReport]:
        return [r.report for r in self.results if r.report is not None]

    @property
    def errors(self) -> list[EntryResult]:
        return [r for r in self.results if r.error is not None]

    @property
    def inconsistent(self) -> list[AnalysisReport]:
        return [r for r in self.reports if not r.classification.theorem_consistent]

    @property
    def below_reports(self) -> list[AnalysisReport]:
        return [r for r in self.reports if r.verdict == VERDICT_BELOW]

    @property
    def at_reports(self) -> list[AnalysisReport]:
        return [r for r in self.reports if r.verdict == VERDICT_AT]

    @property
    def at_structures(self) -> set[str]:
        """Distinct structures observed exactly at the threshold."""
        return {r.structure_label for r in self.at_reports}

    def property_counts(self) -> dict[str, dict[str, int]]:
        """Pass/fail tallies for each verified statement."""
        counts = {
            "classification_consistent": [0, 0],
            "below_implies_nilpotent": [0, 0],
            "at_implies_nilpotent_or_s3": [0, 0],
        }
        for r in self.reports:
            counts["classification_consistent"][0 if r.classification.theorem_consistent else 1] += 1
            if r.verdict == VERDICT_BELOW:
                counts["below_implies_nilpotent"][0 if r.profile.is_nilpotent else 1] += 1
            elif r.verdict == VERDICT_AT:
                ok = r.profile.is_nilpotent or r.profile.structure == STRUCTURE_S3
                counts["at_implies_nilpotent_or_s3"][0 if ok else 1] += 1
        return {name: {"pass": p, "fail": f} for name, (p, f) in counts.items()}

    def to_dict(self) -> dict:
        """Deterministic machine-readable form (timing omitted on purpose)."""
        return {
            "corpus_size": len(self.results),
            "inconsistent": sorted(r.label for r in self.inconsistent),
            "errors": {r.label: r.error for r in sorted(self.errors, key=lambda e: e.label)},
            "property_counts": self.property_counts(),
            "below": sorted(r.label for r in self.below_reports),
            "at_threshold": sorted(r.label for r in self.at_reports),
            "at_threshold_structures": sorted(self.at_structures),
            "entries": [
                r.report.to_dict(include_timing=False)
                for r in sorted(self.results, key=lambda e: e.label)
                if r.report is not None
            ],
        }


def _run_entry(payload: tuple[CorpusEntry, int, int]) -> EntryResult:
    (label, source), max_order, max_subgroups = payload
    try:
        if isinstance(source, GroupSpec):
            group = source.build(max_order)
        elif len(source) > max_order:
            raise OrderCapExceeded(f"order {len(source)} exceeds cap {max_order}")
        else:
            group = Group([list(row) for row in source], label)
        return EntryResult(label, analyze_group(group, max_subgroups, label=label), None)
    except Exception as exc:  # a bug in one entry is reported against it, never aborts the run
        return EntryResult(label, None, f"{type(exc).__name__}: {exc}")


def verify_classification(
    entries: Sequence[CorpusEntry],
    max_order: int = DEFAULT_ORDER_CAP,
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS,
    workers: int = 1,
) -> VerificationSummary:
    """Classify every corpus entry, isolating per-entry failures.

    Entries may be processed by a worker pool; results are sorted by label,
    so the summary is identical regardless of scheduling.
    """
    payloads = [(entry, max_order, max_subgroups) for entry in entries]
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_entry, payloads, chunksize=4))
    else:
        results = [_run_entry(p) for p in payloads]
    results.sort(key=lambda r: r.label)
    return VerificationSummary(results=results)
