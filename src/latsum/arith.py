"""Number-theoretic backbone: divisor-sum sieve, Gaussian binomials, inequality scans."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import InvariantViolation, LimitTooLarge

# sigma(n) <= n * H_n < n * (1 + ln n), with H_n the n-th harmonic number, is
# at most 9.4e8 for n up to the cap, below 2**31; the scans' ramps 2n + 4 and
# 8n + 4 are smaller still.  So the sieve table is one int32 array, 4 bytes
# per integer, 200 MB at the cap, and the sieve and both scans run in int32.
# The sieve adds its odd divisor pairs SIEVE_BLOCK cofactors at a time and
# fills even n by in-place multiplies, and both scans work through
# SIEVE_BLOCK integers at a time, so their temporaries add a few MB to the
# table, not a multiple of it.
MAX_SIEVE_LIMIT = 50_000_000
SIEVE_BLOCK = 1 << 18
SIEVE_DTYPE = np.dtype(np.int32)


def sigma_upper_bound(n: int) -> float:
    """n * (1 + ln n), an upper bound on sigma(m) for every 1 <= m <= n."""
    return n * (1 + math.log(n))


# a real check, not an assert, so that it also runs under python -O
if max(sigma_upper_bound(MAX_SIEVE_LIMIT), 8 * MAX_SIEVE_LIMIT + 4) >= np.iinfo(SIEVE_DTYPE).max:
    raise InvariantViolation(f"sigma(n) for n <= {MAX_SIEVE_LIMIT} may overflow the {SIEVE_DTYPE} sieve table")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes() -> Iterator[int]:
    """Yield 2, 3, 5, ... indefinitely."""
    yield 2
    n = 3
    while True:
        if is_prime(n):
            yield n
        n += 2


def nth_prime(n: int) -> int:
    """The n-th prime, 1-indexed (nth_prime(1) == 2)."""
    if n < 1:
        raise ValueError(f"prime index must be positive, got {n}")
    return next(itertools.islice(primes(), n - 1, None))


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} by trial division, primes ascending; intended for n within group-order caps."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisor_sigma(n: int) -> int:
    """sigma(n): the sum of all positive divisors of n."""
    total = 1
    for p, a in factorize(n).items():
        total *= (p ** (a + 1) - 1) // (p - 1)
    return total


@dataclass
class SigmaSieve:
    """Table of sigma(n) for 1 <= n <= limit (index 0 unused)."""

    limit: int
    table: np.ndarray = field(repr=False)


def build_sieve(limit: int) -> SigmaSieve:
    """Compute sigma(n) for all n <= limit, 4 bytes per integer: a divisor-pair
    sieve over odd n, then a doubling pass for even n.

    The table starts at 1 + n, the pair (1, n).  For odd n every divisor
    pair d * k = n with 3 <= d <= k is odd and contributes d + k, added in
    strided steps of at most SIEVE_BLOCK odd cofactors k per odd
    d <= isqrt(limit); the square pair d * d counts d once.  Below limit
    3 * (2 * SIEVE_BLOCK + 3) every d takes a single step.  sigma is
    multiplicative, so each even n = 2^a * m with m odd then gets
    sigma(n) = (2^(a+1) - 1) * sigma(m): one in-place multiply per power
    of two reads the finished odd entries and writes each even entry once.
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise LimitTooLarge(
            f"sieve limit {limit} exceeds supported maximum {MAX_SIEVE_LIMIT}"
            f" (its table would take {SIEVE_DTYPE.itemsize * (limit + 1):,} bytes)"
        )
    table = np.arange(1, limit + 2, dtype=SIEVE_DTYPE)
    table[:2] = 0, 1
    for d in range(3, math.isqrt(limit) + 1, 2):
        # odd n = d * k gains d + k for each odd cofactor k from d to top, the
        # largest odd k <= limit // d, at most SIEVE_BLOCK cofactors per add
        k, top = d, (limit // d - 1) | 1
        while top - k >= 2 * SIEVE_BLOCK:
            table[d * k : d * (k + 2 * SIEVE_BLOCK) : 2 * d] += np.arange(
                k + d, k + d + 2 * SIEVE_BLOCK, 2, dtype=SIEVE_DTYPE
            )
            k += 2 * SIEVE_BLOCK
        table[d * k : d * top + 1 : 2 * d] += np.arange(k + d, top + d + 1, 2, dtype=SIEVE_DTYPE)
        table[d * d] -= d
    q = 2
    while q <= limit:
        # n = q * m with m odd: sigma(n) = (2q - 1) * sigma(m), read from the finished odd entries
        np.multiply(table[1 : limit // q + 1 : 2], 2 * q - 1, out=table[q :: 2 * q])
        q *= 2
    return SigmaSieve(limit=limit, table=table)


@dataclass(frozen=True)
class ThresholdScan:
    """Partition of 1..limit by the sign of sigma(n) - (2n + 4)."""

    limit: int
    below_count: int
    above_count: int
    equal: tuple[int, ...]


def scan_threshold(sieve: SigmaSieve) -> ThresholdScan:
    """Classify every n <= limit by sigma(n) versus 2n + 4."""
    below = 0
    equal: list[int] = []
    for lo in range(1, sieve.limit + 1, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, sieve.limit + 1)
        diff = np.arange(2 * lo + 4, 2 * hi + 4, 2, dtype=SIEVE_DTYPE)  # 2n + 4 for lo <= n < hi
        np.subtract(sieve.table[lo:hi], diff, out=diff)
        below += int(np.count_nonzero(diff < 0))
        equal += (np.flatnonzero(diff == 0) + lo).tolist()
    return ThresholdScan(sieve.limit, below, sieve.limit - below - len(equal), tuple(equal))


def gaussian_subgroup_count(k: int, p: int, i: int) -> int:
    """Number of subgroups of order p^i in the elementary abelian group of rank k.

    Evaluates the Gaussian binomial prod_{j=1}^{i} (p^(k-i+j) - 1) / (p^j - 1)
    with interleaved multiply/divide; every prefix is itself a Gaussian
    binomial, so each division is exact (checked).
    """
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    count = 1
    for j in range(1, i + 1):
        count *= p ** (k - i + j) - 1
        count, rem = divmod(count, p ** j - 1)
        if rem:
            raise InvariantViolation(f"non-integral Gaussian binomial prefix at k={k}, p={p}, i={i}, j={j}")
    return count


@dataclass(frozen=True)
class OddPartScanReport:
    """Result of checking 11*sigma(n') > 8n' + 4 over odd n' in (1, limit]."""

    limit: int
    checked: int
    violations: tuple[int, ...]


def odd_part_inequality_scan(limit: int, sieve: SigmaSieve | None = None) -> OddPartScanReport:
    """Verify 11*sigma(n') > 8n' + 4 (hence also != ) for every odd n' with 1 < n' <= limit.

    n' = 1 is excluded: it corresponds to the bare rank-2 group of order 4,
    which the classification handles separately.  For an integer sigma,
    11*sigma <= 8n' + 4 exactly when sigma <= (8n' + 4) // 11, so the test
    runs in the table's int32 without ever forming 11*sigma.
    """
    if sieve is None or sieve.limit < limit:
        sieve = build_sieve(limit)
    violations: list[int] = []
    for lo in range(3, limit + 1, 2 * SIEVE_BLOCK):
        hi = min(lo + 2 * SIEVE_BLOCK, limit + 1)  # one block of odd n: lo, lo + 2, ...
        rhs = np.arange(8 * lo + 4, 8 * hi + 4, 16, dtype=SIEVE_DTYPE)  # 8n + 4
        rhs //= 11
        violations += (np.flatnonzero(sieve.table[lo:hi:2] <= rhs) * 2 + lo).tolist()
    return OddPartScanReport(limit=limit, checked=len(range(3, limit + 1, 2)), violations=tuple(violations))


def threshold(n: int) -> Fraction:
    """The classification threshold 2 + 4/n."""
    return Fraction(2) + Fraction(4, n)


def rank_bound_exceeds_threshold(p: int, n: int, k: int) -> bool:
    """Evaluate the subgroup-order lower bound for a rank-k group of order p^n.

    Returns True when the bound strictly exceeds ``threshold(p**n)``, i.e.
    when a non-cyclic group with these parameters cannot sit at or below
    the threshold.  k is the minimal generator count (rank of the quotient
    by the Frattini subgroup); requires k >= 2 and n >= k.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 2 or n < k:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if k >= 3:
        # trivial subgroup, the rank-many smallest and largest proper layers, and the group
        a1 = (p**k - 1) // (p - 1)
        bound = Fraction(1 + a1 * p + a1 * p ** (k - 1) + p**k, p**k)
    elif n > 2:
        bound = Fraction(1 + (p + 1) * p ** (n - 1) + p ** (n - 2) + p**n, p**n)
    else:
        # k == n == 2: the exact value for the rank-2 group of order p^2
        bound = Fraction(1 + (p + 1) * p + p * p, p * p)
    return bound > threshold(p**n)
