"""Correctness oracle: closed-form subgroup censuses and the committed answer table.

``oracle.json`` holds, for every group any seed can draw, its census, exact
``sigma1`` and verdict, and for every sieve limit any seed can draw, the
threshold-scan and odd-part-scan results. ``make_oracle.py`` generates it
from the closed forms below (and from brute force where no closed form
exists) and cross-checks every value against latsum. Checking a run against
the table therefore depends neither on the seed nor on the code under test.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

ORACLE_PATH = Path(__file__).with_name("oracle.json")

BELOW, AT, ABOVE = "BelowThreshold", "AtThreshold", "AboveThreshold"


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def census_cyclic(n: int) -> dict[int, int]:
    """One subgroup per divisor."""
    return {d: 1 for d in divisors(n)}


def census_dihedral(n: int) -> dict[int, int]:
    """Dihedral group of order 2n: tau(n) rotation subgroups and sigma(n) others.

    For each d | n there is one rotation subgroup of order d and n/d
    dihedral subgroups of order 2d.
    """
    out: Counter = Counter()
    for d in divisors(n):
        out[d] += 1
        out[2 * d] += n // d
    return dict(out)


def census_pq(p: int, q: int) -> dict[int, int]:
    """Nonabelian group of order pq: q Sylow p-subgroups, one Sylow q-subgroup."""
    return {1: 1, p: q, q: 1, p * q: 1}


def gaussian_binomial(k: int, i: int, p: int) -> int:
    num = den = 1
    for j in range(i):
        num *= p ** (k - j) - 1
        den *= p ** (j + 1) - 1
    return num // den


def census_elem(p: int, k: int) -> dict[int, int]:
    """Elementary abelian group of order p^k: Gaussian binomials per layer."""
    return {p**i: gaussian_binomial(k, i, p) for i in range(k + 1)}


def census_coprime_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Census of A x B for coprime |A|, |B|: every subgroup is H x K."""
    if math.gcd(max(a), max(b)) != 1:
        raise ValueError("orders are not coprime")
    out: Counter = Counter()
    for oa, ca in a.items():
        for ob, cb in b.items():
            out[oa * ob] += ca * cb
    return dict(out)


def census_of_spec(label: str) -> dict[int, int]:
    """Closed-form census of a spec string: cyclic, dihedral, pq, elem, or a
    product of such parts with pairwise coprime orders."""
    kind, _, rest = label.partition(":")
    if kind == "product":
        out = {1: 1}
        for part in rest.split("+"):
            out = census_coprime_product(out, census_of_spec(part))
        return out
    params = [int(v) for v in rest.split(",")]
    if kind == "cyclic":
        return census_cyclic(*params)
    if kind == "dihedral":
        return census_dihedral(*params)
    if kind == "pq":
        return census_pq(*params)
    if kind == "elem":
        return census_elem(*params)
    raise ValueError(f"no closed form for {label!r}")


def answer(census: dict[int, int]) -> dict:
    """(census, sigma1, verdict) in the form the oracle table stores."""
    n = max(census)
    value = Fraction(sum(order * count for order, count in census.items()), n)
    cut = 2 + Fraction(4, n)
    verdict = BELOW if value < cut else AT if value == cut else ABOVE
    return {
        "census": {str(k): v for k, v in sorted(census.items())},
        "sigma1": f"{value.numerator}/{value.denominator}",
        "verdict": verdict,
    }


def table_key(table: list[list[int]]) -> str:
    """Oracle key of a group given only as a table: order, abelian flag and
    element-order multiset. It separates every subgroup type of S2..S5."""
    n = len(table)
    orders: Counter = Counter()
    for a in range(n):
        k, x = 1, a
        while x != 0:
            x = table[x][a]
            k += 1
        orders[k] += 1
    abelian = all(table[a][b] == table[b][a] for a in range(n) for b in range(a))
    body = ",".join(f"{k}x{v}" for k, v in sorted(orders.items()))
    return f"table:{n}:{'abelian' if abelian else 'nonabelian'}:{body}"


class Oracle:
    """The committed answer table, with the comparisons a run makes against it."""

    def __init__(self, path: Path = ORACLE_PATH):
        doc = json.loads(path.read_text(encoding="utf-8"))
        self.groups: dict[str, dict] = doc["groups"]
        self.sigma_scan: dict[str, dict] = doc["sigma_scan"]

    def group_ok(self, key: str, census: dict, sigma1: str, verdict: str, consistent: bool) -> bool:
        want = self.groups.get(key)
        if want is None or consistent is not True:
            return False
        got = {str(k): v for k, v in sorted(census.items(), key=lambda kv: int(kv[0]))}
        return got == want["census"] and sigma1 == want["sigma1"] and verdict == want["verdict"]

    def report_ok(self, key: str, report) -> bool:
        c = report.classification
        sigma1 = f"{c.sigma1.numerator}/{c.sigma1.denominator}"
        return self.group_ok(key, report.census, sigma1, c.verdict, c.theorem_consistent)

    def json_ok(self, key: str, doc: dict) -> bool:
        sigma1 = f"{doc['sigma1']['numerator']}/{doc['sigma1']['denominator']}"
        return self.group_ok(key, doc["census"], sigma1, doc["verdict"], doc["theorem_consistent"])

    def scan_ok(self, limit: int, scan, odd) -> bool:
        want = self.sigma_scan.get(str(limit))
        return want is not None and (
            scan.limit == limit
            and scan.below_count == want["below"]
            and scan.above_count == want["above"]
            and list(scan.equal) == want["equal"]
            and odd.checked == want["odd_checked"]
            and list(odd.violations) == want["odd_violations"]
        )
