import random
import tracemalloc

import pytest

from latsum import (
    LimitTooLarge,
    build_sieve,
    divisor_sigma,
    gaussian_subgroup_count,
    rank_bound_exceeds_threshold,
    odd_part_inequality_scan,
    scan_threshold,
)
from latsum.arith import MAX_SIEVE_LIMIT, factorize, is_prime, nth_prime, primes

from helpers import trial_division_sigma


def test_sigma_small_values():
    sieve = build_sieve(20)
    assert sieve.sigma(1) == 1
    assert sieve.sigma(6) == 12  # perfect
    assert sieve.sigma(12) == 28


def test_sieve_matches_trial_division(sieve_10k):
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randrange(1, 10_001)
        assert sieve_10k.sigma(n) == trial_division_sigma(n)


def test_sieve_multiplicative(sieve_10k):
    import math

    rng = random.Random(7)
    done = 0
    while done < 500:
        m = rng.randrange(2, 100)
        n = rng.randrange(2, 100)
        if math.gcd(m, n) != 1:
            continue
        assert sieve_10k.sigma(m * n) == sieve_10k.sigma(m) * sieve_10k.sigma(n)
        done += 1


def test_sieve_prime_values(sieve_10k):
    for p in (2, 3, 5, 7, 11, 97, 9973):
        assert sieve_10k.sigma(p) == p + 1


def test_sieve_rejects_silly_limits():
    with pytest.raises(ValueError):
        build_sieve(0)
    with pytest.raises(LimitTooLarge):
        build_sieve(10**9)


def test_sieve_matches_trial_division_at_sqrt_edges():
    # limits on both sides of squares and prime squares, the edges of any
    # sieve that stops its divisor loop at sqrt(limit)
    for limit in (1, 2, 3, 4, 8, 9, 10, 99, 100, 101, 10_201):
        table = build_sieve(limit).table
        assert len(table) == limit + 1
        if limit <= 101:
            ns = range(1, limit + 1)
        else:
            # 10201 = 101^2: the multiples of the last two d, and the tail
            ns = sorted({*range(100, limit + 1, 100), *range(101, limit + 1, 101), *range(limit - 100, limit + 1)})
        for n in ns:
            assert int(table[n]) == trial_division_sigma(n), (limit, n)
    sieve = build_sieve(10_201)
    assert all(sieve.sigma(n) == divisor_sigma(n) for n in range(1, 10_202))


def test_sieve_limit_checked_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(LimitTooLarge):
            build_sieve(MAX_SIEVE_LIMIT + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_scans_match_loop_and_return_python_ints():
    limit = 40_000
    sieve = build_sieve(limit)
    sigma = {n: sieve.sigma(n) for n in range(1, limit + 1)}
    scan = scan_threshold(sieve)
    assert scan.equal == (12, 70, 88, 1888, 4030, 5830, 32128)
    assert scan.equal == tuple(n for n, s in sigma.items() if s == 2 * n + 4)
    assert scan.below_count == sum(s < 2 * n + 4 for n, s in sigma.items())
    assert scan.above_count == sum(s > 2 * n + 4 for n, s in sigma.items())
    report = odd_part_inequality_scan(limit, sieve)
    assert report.checked == len(range(3, limit + 1, 2))
    assert report.violations == tuple(n for n in range(3, limit + 1, 2) if 11 * sigma[n] <= 8 * n + 4)
    values = [sigma[limit], scan.below_count, scan.above_count, *scan.equal, report.checked]
    assert all(type(v) is int for v in values)


def test_divisor_sigma_matches_oracle():
    for n in range(1, 300):
        assert divisor_sigma(n) == trial_division_sigma(n)


def test_scan_threshold_small():
    scan = scan_threshold(build_sieve(11))
    assert scan.equal == ()
    assert scan.below_count == 11
    scan1 = scan_threshold(build_sieve(1))
    assert scan1.below_count == 1 and scan1.equal == ()


def test_scan_threshold_100():
    scan = scan_threshold(build_sieve(100))
    assert scan.equal == (12, 70, 88)
    assert scan.below_count + scan.above_count + len(scan.equal) == 100


def test_gaussian_counts():
    for k in range(0, 6):
        for p in (2, 3, 5):
            assert gaussian_subgroup_count(k, p, 0) == 1
    # rank-1 layer is (p^k - 1) / (p - 1)
    assert gaussian_subgroup_count(2, 3, 1) == 4
    assert gaussian_subgroup_count(3, 2, 1) == 7
    assert gaussian_subgroup_count(3, 2, 2) == 7  # equals the rank-1 layer by duality
    assert gaussian_subgroup_count(2, 2, 1) == 3


def test_gaussian_symmetry():
    for p in (2, 3, 5):
        for k in range(0, 7):
            for i in range(0, k + 1):
                assert gaussian_subgroup_count(k, p, i) == gaussian_subgroup_count(k, p, k - i)


def test_gaussian_rejects_bad_args():
    with pytest.raises(ValueError):
        gaussian_subgroup_count(2, 3, 3)


def test_odd_part_scan_small():
    report = odd_part_inequality_scan(100)
    assert report.violations == ()
    assert report.checked == 49  # odd n in 3..99
    # spot values: 11*sigma(3) = 44 > 28, 11*sigma(9) = 143 > 76
    sieve = build_sieve(10)
    assert 11 * sieve.sigma(3) == 44
    assert 11 * sieve.sigma(9) == 143


def test_odd_part_scan_reports_violations_of_a_doctored_table():
    # a true sigma table has no violations, so plant some: 11 * 4 == 8 * 5 + 4
    # is one (the bound is strict), 11 * 7 > 8 * 9 + 4 is not, and even n are skipped
    sieve = build_sieve(1000)
    for n, doctored in ((3, 0), (4, 0), (5, 4), (9, 7), (501, 0), (999, 0)):
        sieve.table[n] = doctored
    assert odd_part_inequality_scan(999, sieve).violations == (3, 5, 501, 999)
    assert odd_part_inequality_scan(998, sieve).violations == (3, 5, 501)


def test_rank_bound_branches():
    # rank >= 3 always contradicts: the four-layer bound is 51/8 at (2,3,3)
    assert rank_bound_exceeds_threshold(2, 3, 3)
    # rank 2 with extra order also contradicts (7 > 4 at p=2, n=3)
    assert rank_bound_exceeds_threshold(2, 3, 2)
    # the surviving rank-2 squares: order 4 sits below, order 9 exactly at
    assert not rank_bound_exceeds_threshold(2, 2, 2)
    assert not rank_bound_exceeds_threshold(3, 2, 2)
    # every larger prime square is excluded
    for p in (5, 7, 11, 13):
        assert rank_bound_exceeds_threshold(p, 2, 2)


def test_rank_bound_validation():
    with pytest.raises(ValueError):
        rank_bound_exceeds_threshold(4, 2, 2)
    with pytest.raises(ValueError):
        rank_bound_exceeds_threshold(2, 2, 3)
    with pytest.raises(ValueError):
        rank_bound_exceeds_threshold(2, 3, 1)


def test_primality_and_primes():
    assert [p for _, p in zip(range(10), primes())] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert nth_prime(1) == 2
    assert nth_prime(100) == 541
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert not is_prime(1)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}
