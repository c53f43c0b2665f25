"""Exact subgroup-order sums and the classification theorem against 2 + 4/n.

Everything here is exact rational arithmetic; there is no tolerance anywhere,
because the classification hinges on deciding equality with 2 + 4/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import divisor_sigma, factorize, rank_bound_exceeds_threshold, threshold
from .errors import InvariantViolation
from .groups import Group
from .lattice import Lattice, StructuralProfile

VERDICT_BELOW = "BelowThreshold"
VERDICT_AT = "AtThreshold"
VERDICT_ABOVE = "AboveThreshold"

STRUCTURE_CYCLIC = "Cyclic"
STRUCTURE_Z2XZ2 = "Z2xZ2"
STRUCTURE_Z3XZ3 = "Z3xZ3"
STRUCTURE_S3 = "S3"
STRUCTURE_OTHER = "Other"

# The classification theorem: each structure, the name ``flags.recognized_as``
# prints for it, and the verdict it forces.  A cyclic group of order n has
# none fixed: it takes the sign of sigma(n) - (2n + 4).
THEOREM = {
    STRUCTURE_CYCLIC: ("CyclicN", None),
    STRUCTURE_Z2XZ2: ("Z2xZ2", VERDICT_BELOW),
    STRUCTURE_Z3XZ3: ("Z3xZ3", VERDICT_AT),
    STRUCTURE_S3: ("S3", VERDICT_AT),
    STRUCTURE_OTHER: ("None", VERDICT_ABOVE),
}


def sigma1(group: Group, lat: Lattice) -> Fraction:
    """Sum of |H| / |G| over every subgroup H, as an exact reduced rational."""
    total = sum(order * count for order, count in lat.census.items())
    return Fraction(total, group.order)


def _verdict(value, cut) -> str:
    """The verdict of ``value`` against ``cut``, by the sign of their difference."""
    return VERDICT_BELOW if value < cut else VERDICT_AT if value == cut else VERDICT_ABOVE


def _structure(group: Group, profile: StructuralProfile) -> str:
    """Which of the paper's named groups ``group`` is, by exact finite criteria."""
    if profile.is_cyclic:
        return STRUCTURE_CYCLIC
    # a group that is not cyclic is named by its order alone: of order p^2
    # it is abelian, so Zp x Zp, and of order 6 it is not abelian, since an
    # abelian group of order 6 is cyclic
    return {4: STRUCTURE_Z2XZ2, 9: STRUCTURE_Z3XZ3, 6: STRUCTURE_S3}.get(group.order, STRUCTURE_OTHER)


@dataclass(frozen=True)
class Classification:
    """Verdict of a group against the threshold, and the row of ``THEOREM``
    its structure falls in.

    ``theorem_consistent`` records whether the verdict is the one that row
    forces.  The check is two-sided: a group whose structure forces one
    verdict but lands at another is flagged inconsistent.
    """

    verdict: str
    structure: str
    theorem_consistent: bool
    sigma1: Fraction
    threshold: Fraction

    @property
    def recognized_as(self) -> str:
        return THEOREM[self.structure][0]


def classify(group: Group, lat: Lattice, profile: StructuralProfile) -> Classification:
    """The verdict of ``group`` against 2 + 4/|G| and the structure it is
    recognized as; ``profile`` is ``recognize(group, lat)``.

    The verdict reads sigma1 from the census, while the structure reads
    only the group and its profile, so the theorem check is a real one.
    Raises InvariantViolation when a non-cyclic p-group whose rank lemma
    bound exceeds the threshold is not above it.
    """
    value = sigma1(group, lat)
    cut = threshold(group.order)
    verdict = _verdict(value, cut)
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
    structure = _structure(group, profile)
    forced = THEOREM[structure][1] or _verdict(divisor_sigma(group.order), 2 * group.order + 4)
    return Classification(
        verdict=verdict,
        structure=structure,
        theorem_consistent=(forced == verdict),
        sigma1=value,
        threshold=cut,
    )
