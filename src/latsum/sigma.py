"""Exact subgroup-order sums and classification against the 2 + 4/n threshold.

Everything here is exact rational arithmetic; there is no tolerance anywhere,
because the classification hinges on deciding equality with 2 + 4/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import divisor_sigma
from .errors import NotCoprime, NotNormal, OrderCapExceeded
from .groups import DEFAULT_ORDER_CAP, Group, direct_product_group, quotient_group
from .lattice import (
    DEFAULT_MAX_SUBGROUPS,
    STRUCTURE_CYCLIC,
    STRUCTURE_S3,
    STRUCTURE_Z2XZ2,
    STRUCTURE_Z3XZ3,
    Lattice,
    StructuralProfile,
    enumerate_subgroups,
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
    ``recognize(group, lat)``."""
    value = sigma1(group, lat)
    cut = threshold(group.order)
    if value < cut:
        verdict = VERDICT_BELOW
    elif value == cut:
        verdict = VERDICT_AT
    else:
        verdict = VERDICT_ABOVE
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


def check_multiplicativity(
    parts: Sequence[Group],
    max_order: int = DEFAULT_ORDER_CAP,
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS,
) -> bool:
    """Whether sigma1 of the direct product equals the product of the parts' values.

    Requires pairwise coprime part orders; both sides are computed by full
    lattice enumeration and compared exactly.
    """
    orders = [g.order for g in parts]
    for i, a in enumerate(orders):
        for b in orders[i + 1:]:
            if math.gcd(a, b) != 1:
                raise NotCoprime(f"orders {a} and {b} share a factor")
    if math.prod(orders) > max_order:
        raise OrderCapExceeded(f"product order {math.prod(orders)} exceeds {max_order}")
    expected = Fraction(1)
    for g in parts:
        expected *= sigma1(g, enumerate_subgroups(g, max_subgroups))
    product = direct_product_group(list(parts))
    actual = sigma1(product, enumerate_subgroups(product, max_subgroups))
    return actual == expected


def check_quotient_monotonicity(
    group: Group,
    lat: Lattice,
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS,
) -> bool:
    """Whether sigma1(G) >= sigma1(G/N) holds for every normal subgroup N."""
    bound = sigma1(group, lat)
    for sub in lat.subgroups:
        try:  # quotient_group makes the one normality test
            quot = quotient_group(group, sub.mask)
        except NotNormal:
            continue
        if sigma1(quot, enumerate_subgroups(quot, max_subgroups)) > bound:
            return False
    return True
