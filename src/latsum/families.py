"""The sequence of non-nilpotent pq-groups whose subgroup-order sum tends to 2.

For the n-th prime p there is a prime q = 1 (mod p); the nonabelian group of
order p*q then has exactly one subgroup each of orders 1, q, and pq, plus q
subgroups of order p, giving sigma1 = 2 + (1 + 1/q)/p.  As p grows this
drops to 2 while every term stays strictly above 2, so no constant above 2
separates nilpotent groups from the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import analyze_group
from .arith import is_prime, nth_prime
from .errors import InvariantViolation, SearchCapExceeded
from .groups import DEFAULT_ORDER_CAP, semidirect_pq_group
from .lattice import DEFAULT_MAX_SUBGROUPS


def default_search_cap(p: int) -> int:
    """Generous bound for the smallest prime q = 1 (mod p); growth is mild."""
    return int(50 * p * math.log(p)) + 100


def dirichlet_search(p: int, search_cap: int | None = None) -> int:
    """Smallest prime q <= search_cap with q = 1 (mod p).

    Existence is guaranteed for every prime p, but not within any particular
    cap, so exhaustion raises SearchCapExceeded rather than extending silently.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    cap = default_search_cap(p) if search_cap is None else search_cap
    q = p + 1
    while q <= cap:
        if is_prime(q):
            return q
        q += p
    raise SearchCapExceeded(f"no prime q = 1 (mod {p}) found up to {cap}")


@dataclass
class PQWitness:
    """One member of the convergent family: the closed form, and the verdict
    when the member was enumerated; ``build_witness`` checks the rest."""

    index: int
    p: int
    q: int
    sigma1_formula: Fraction
    verdict: str | None

    @property
    def enumerated(self) -> bool:
        return self.verdict is not None

    @property
    def excess(self) -> Fraction:
        """sigma1 - 2 == (1 + 1/q)/p."""
        return self.sigma1_formula - 2


def build_witness(
    index: int,
    search_cap: int | None = None,
    max_order: int = DEFAULT_ORDER_CAP,
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS,
) -> PQWitness:
    """Construct the index-th family member (index >= 1, so index 1 uses p = 2).

    When p*q fits under the order cap the group is built and analyzed, and
    the closed forms are checked: the census must be {1: 1, p: q, q: 1, pq: 1},
    the lattice sum must equal the closed form, and the group must not be
    nilpotent; each check raises InvariantViolation, and the witness keeps
    only the verdict.  Larger members keep the closed-form value only.
    """
    if index < 1:
        raise ValueError(f"witness index must be >= 1, got {index}")
    p = nth_prime(index)
    q = dirichlet_search(p, search_cap)
    formula = 2 + Fraction(1 + Fraction(1, q), p)
    if p * q > max_order:
        return PQWitness(index, p, q, formula, None)
    report = analyze_group(semidirect_pq_group(p, q), max_subgroups)
    census, value, nilpotent = report.census, report.classification.sigma1, report.profile.is_nilpotent
    if census != {1: 1, p: q, q: 1, p * q: 1}:
        raise InvariantViolation(f"unexpected census for p={p}, q={q}: {census}")
    if value != formula:
        raise InvariantViolation(f"lattice sigma1 {value} != formula {formula}")
    if nilpotent:
        raise InvariantViolation(f"pq-group of order {p * q} must not be nilpotent")
    return PQWitness(index, p, q, formula, report.classification.verdict)


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[PQWitness, ...]
    observed_monotone: bool


def convergence_report(
    count: int,
    search_cap: int | None = None,
    max_order: int = DEFAULT_ORDER_CAP,
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS,
) -> ConvergenceReport:
    """First ``count`` family members, with the convergence bound checked.

    Every value is checked to be strictly above 2 and within 2/p of it, which
    forces the limit; strict step-to-step decrease is only observed and
    reported, not enforced.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rows = []
    for index in range(1, count + 1):
        w = build_witness(index, search_cap, max_order, max_subgroups)
        if w.sigma1_formula <= 2:
            raise InvariantViolation(f"sigma1 {w.sigma1_formula} of member {index} is not above 2")
        if w.excess > Fraction(2, w.p):
            raise InvariantViolation(f"sigma1 - 2 = {w.excess} of member {index} exceeds 2/{w.p}")
        rows.append(w)
    monotone = all(a.sigma1_formula > b.sigma1_formula for a, b in zip(rows, rows[1:]))
    return ConvergenceReport(rows=tuple(rows), observed_monotone=monotone)
