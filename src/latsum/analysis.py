"""Whole-group analysis reports and corpus-level verification."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .corpus import CorpusEntry
from .errors import InvariantViolation, OrderCapExceeded
from .groups import DEFAULT_ORDER_CAP, Group, GroupSpec
from .lattice import DEFAULT_MAX_SUBGROUPS, StructuralProfile, enumerate_subgroups, recognize
from .sigma import (
    STRUCTURE_CYCLIC,
    STRUCTURE_OTHER,
    STRUCTURE_S3,
    VERDICT_AT,
    VERDICT_BELOW,
    Classification,
    classify,
)

DISPLAY_DIGITS = 12


def decimal_display(value: Fraction) -> str:
    """Fixed-point rendering of a nonnegative value (every sigma1 is at
    least 1) to ``DISPLAY_DIGITS`` places, rounded half to even from the
    exact value; for human eyes only, never compared."""
    scale = 10**DISPLAY_DIGITS
    whole, fraction = divmod(round(value * scale), scale)
    return f"{whole}.{fraction:0{DISPLAY_DIGITS}d}"


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
                "recognized_as": self.classification.recognized_as,
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
    """Outcome of classifying a whole corpus against the threshold; the
    results are kept in label order, whatever order they came in."""

    results: list[EntryResult]

    def __post_init__(self):
        self.results = sorted(self.results, key=lambda r: r.label)

    def to_dict(self) -> dict:
        """The verify document, built in one pass over the results, every
        list in label order (timing omitted on purpose): the labels that
        broke the theorem, failed, or fell below or at the threshold, the
        pass/fail tally of each verified statement, and the structures
        seen at the threshold."""
        counts = {
            name: {"pass": 0, "fail": 0}
            for name in ("classification_consistent", "below_implies_nilpotent", "at_implies_nilpotent_or_s3")
        }
        errors: dict[str, str] = {}
        inconsistent, below, at, entries = [], [], [], []
        at_structures: set[str] = set()
        for result in self.results:
            r = result.report
            if r is None:
                errors[result.label] = result.error
                continue
            c = r.classification
            counts["classification_consistent"]["pass" if c.theorem_consistent else "fail"] += 1
            if not c.theorem_consistent:
                inconsistent.append(r.label)
            if c.verdict == VERDICT_BELOW:
                below.append(r.label)
                counts["below_implies_nilpotent"]["pass" if r.profile.is_nilpotent else "fail"] += 1
            elif c.verdict == VERDICT_AT:
                at.append(r.label)
                ok = r.profile.is_nilpotent or c.structure == STRUCTURE_S3
                counts["at_implies_nilpotent_or_s3"]["pass" if ok else "fail"] += 1
                if c.structure == STRUCTURE_CYCLIC:
                    at_structures.add(f"Cyclic({r.order})")
                elif c.structure == STRUCTURE_OTHER:
                    at_structures.add(f"Other({r.label})")
                else:
                    at_structures.add(c.structure)
            entries.append(r.to_dict(include_timing=False))
        return {
            "corpus_size": len(self.results),
            "inconsistent": inconsistent,
            "errors": errors,
            "property_counts": counts,
            "below": below,
            "at_threshold": at,
            "at_threshold_structures": sorted(at_structures),
            "entries": entries,
        }


def _run_entry(payload: tuple[CorpusEntry, int, int]) -> EntryResult:
    (label, source), max_order, max_subgroups = payload
    try:
        if isinstance(source, GroupSpec):
            group = source.build(max_order)
        elif len(source) > max_order:
            raise OrderCapExceeded(f"order {len(source)} exceeds cap {max_order}")
        else:
            group = Group(source, label)
            group.validate()
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

    Entries may be processed by a pool of at most one worker per entry
    (forked pools start every worker at once); the summary keeps its
    results in label order, so it is identical regardless of scheduling.
    """
    payloads = [(entry, max_order, max_subgroups) for entry in entries]
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            results = list(pool.map(_run_entry, payloads, chunksize=4))
    else:
        results = [_run_entry(p) for p in payloads]
    return VerificationSummary(results=results)
