"""Exact subgroup-order sums and classification against the 2 + 4/n threshold.

Everything here is exact rational arithmetic; there is no tolerance anywhere,
because the classification hinges on deciding equality with 2 + 4/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import divisor_sigma, factorize, rank_bound_exceeds_threshold
from .errors import InvariantViolation
from .groups import Group
from .lattice import (
    STRUCTURE_CYCLIC,
    STRUCTURE_S3,
    STRUCTURE_Z2XZ2,
    STRUCTURE_Z3XZ3,
    Lattice,
    StructuralProfile,
)

VERDICT_BELOW = "BelowThreshold"
VERDICT_AT = "AtThreshold"
VERDICT_ABOVE = "AboveThreshold"


def sigma1(group: Group, lat: Lattice) -> Fraction:
    """Sum of |H| / |G| over every subgroup H, as an exact reduced rational."""
    total = sum(order * count for order, count in lat.census.items())
    return Fraction(total, group.order)


def threshold(n: int) -> Fraction:
    """The classification threshold 2 + 4/n."""
    return Fraction(2) + Fraction(4, n)


@dataclass(frozen=True)
class Classification:
    """Verdict of a group against the threshold, with its recognized structure.

    ``theorem_consistent`` records whether the (verdict, structure) pair is
    one the classification theorem permits: below the threshold only cyclic
    groups with sigma(n) < 2n + 4 and the rank-2 group of order 4; at the
    threshold only cyclic groups with sigma(n) = 2n + 4, the rank-2 group of
    order 9, and the nonabelian group of order 6.  The check is two-sided:
    a group whose structure predicts one verdict but lands at another is
    flagged inconsistent.
    """

    verdict: str
    structure: str
    theorem_consistent: bool
    sigma1: Fraction
    threshold: Fraction


def classify(group: Group, lat: Lattice, profile: StructuralProfile) -> Classification:
    """The verdict of ``group`` against 2 + 4/|G|; ``profile`` is
    ``recognize(group, lat)``.

    Raises InvariantViolation when a non-cyclic p-group whose rank lemma
    bound exceeds the threshold is not above it.
    """
    value = sigma1(group, lat)
    cut = threshold(group.order)
    if value < cut:
        verdict = VERDICT_BELOW
    elif value == cut:
        verdict = VERDICT_AT
    else:
        verdict = VERDICT_ABOVE
    p, k = profile.p_group_prime, profile.frattini_rank
    # the paper's rank lemma bounds sigma1 of a non-cyclic p-group from below
    # by its order and Frattini rank alone, never reading the census
    if p is not None and not profile.is_cyclic and verdict != VERDICT_ABOVE:
        n = factorize(group.order)[p]
        if rank_bound_exceeds_threshold(p, n, k):
            raise InvariantViolation(
                f"rank lemma: {group.label} of order {p}^{n} and Frattini rank {k} lies above "
                f"the threshold, but sigma1 = {value} is {verdict}"
            )
    structure = profile.structure
    # structure recognition runs independently of the verdict; consistency is
    # then a real check, capable of falsifying the classification
    if structure == STRUCTURE_CYCLIC:
        n = group.order
        diff = divisor_sigma(n) - (2 * n + 4)
        predicted = VERDICT_BELOW if diff < 0 else VERDICT_AT if diff == 0 else VERDICT_ABOVE
    elif structure == STRUCTURE_Z2XZ2:
        predicted = VERDICT_BELOW
    elif structure in (STRUCTURE_Z3XZ3, STRUCTURE_S3):
        predicted = VERDICT_AT
    else:
        predicted = VERDICT_ABOVE
    return Classification(
        verdict=verdict,
        structure=structure,
        theorem_consistent=(predicted == verdict),
        sigma1=value,
        threshold=cut,
    )
