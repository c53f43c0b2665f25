"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from latsum import (
    Group,
    GroupSpec,
    analyze_group,
    build_sieve,
    build_witness,
    classify,
    conjugates,
    convergence_report,
    cyclic_group,
    elementary_abelian_group,
    enumerate_subgroups,
    gaussian_subgroup_count,
    is_normal,
    maximal_subgroups,
    odd_part_inequality_scan,
    recognize,
    scan_threshold,
    semidirect_pq_group,
    sigma1,
)
from latsum.analysis import AnalysisReport, EntryResult, VerificationSummary
from latsum.arith import factorize, is_prime
from latsum.corpus import DEFAULT_VERIFY_MAX_SUBGROUPS, build_default_corpus
from latsum.lattice import all_maximals_normal, sylow_decomposition
from latsum.sigma import VERDICT_AT, VERDICT_BELOW

from helpers import (
    check_multiplicativity,
    check_quotient_monotonicity,
    is_normal_by_conjugation,
    normalizer,
    sylow_decomposition_by_normality_scan,
    trial_division_sigma,
)
from make_golden_lattices import GOLDEN_PATH, lattice_record


# sha256 of the stdout of `latsum verify --json` on the default corpus
VERIFY_JSON_SHA256 = "700a828e1ab78a431921a782cbae774db5488386915e462b35aa7f78543e7bbc"


def _report(criterion: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS {criterion} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{criterion} took {elapsed:.1f}s, budget {budget}s"


@pytest.fixture(scope="module")
def corpus_objects():
    """Every default-corpus group analyzed once: label -> (group, lattice, profile, classification)."""
    started = time.perf_counter()
    out = {}
    for label, source in build_default_corpus():
        if isinstance(source, GroupSpec):
            group = source.build()
        else:
            group = Group([list(row) for row in source], label)
        lat = enumerate_subgroups(group, DEFAULT_VERIFY_MAX_SUBGROUPS)
        profile = recognize(group, lat)
        out[label] = (group, lat, profile, classify(group, lat, profile))
    elapsed = time.perf_counter() - started
    return out, elapsed


def test_criterion_1_exact_fixture_values():
    started = time.perf_counter()
    fixtures = [
        ("elem:2,2", Fraction(11, 4)),
        ("elem:3,2", Fraction(22, 9)),
        ("pq:2,3", Fraction(8, 3)),
        ("cyclic:6", Fraction(2)),
    ]
    for spec_text, want in fixtures:
        group = GroupSpec.parse(spec_text).build()
        lat = enumerate_subgroups(group)
        assert sigma1(group, lat) == want, spec_text
    _report("criterion 1: exact fixture values", started, budget=1.0)


def test_criterion_2_cyclic_oracle_equivalence(sieve_10k):
    started = time.perf_counter()
    for n in range(1, 301):
        group = cyclic_group(n)
        lat = enumerate_subgroups(group)
        assert sigma1(group, lat) == Fraction(int(sieve_10k.table[n]), n), n
    rng = random.Random(20260810)
    for _ in range(1000):
        n = rng.randrange(301, 10_001)
        assert int(sieve_10k.table[n]) == trial_division_sigma(n), n
    _report("criterion 2: cyclic oracle equivalence", started, budget=30.0)


def test_criterion_3_corpus_verification(corpus_objects):
    objects, build_elapsed = corpus_objects
    started = time.perf_counter() - build_elapsed
    assert len(objects) > 300
    inconsistent = [label for label, (_, _, _, cls) in objects.items() if not cls.theorem_consistent]
    assert inconsistent == []
    at_hits = set()
    for label, (group, _, profile, cls) in objects.items():
        if cls.verdict == VERDICT_AT:
            if cls.structure == "Cyclic":
                at_hits.add(f"Cyclic({group.order})")
            else:
                at_hits.add(cls.structure)
    assert at_hits == {"Cyclic(12)", "Cyclic(70)", "Cyclic(88)", "Z3xZ3", "S3"}
    _report("criterion 3: corpus verification", started, budget=300.0)


def test_corpus_lattices_match_golden_file(corpus_objects):
    # the golden file was written by an earlier enumerator, one that extended
    # every subgroup and found maximals by a containment scan
    objects, _ = corpus_objects
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(objects)
    for label, (_, lat, _, _) in objects.items():
        assert lattice_record(lat, maximal_subgroups(lat)) == golden[label], label


def test_verify_json_matches_pinned_digest(corpus_objects):
    # the same document `latsum verify --json` prints, rebuilt from the
    # fixture's lattices instead of a second enumeration
    objects, _ = corpus_objects
    results = []
    for label, (group, lat, profile, cls) in objects.items():
        report = AnalysisReport(label, group.order, len(lat), dict(lat.census), cls, profile, timing_ms=0.0)
        results.append(EntryResult(label, report, None))
    stdout = json.dumps(VerificationSummary(results).to_dict(), indent=2) + "\n"
    assert hashlib.sha256(stdout.encode()).hexdigest() == VERIFY_JSON_SHA256


def test_abelian_maximal_and_sylow_subgroups_are_normal_by_conjugation(corpus_objects):
    # is_normal answers an abelian group without conjugating; the scan it skips agrees
    objects, _ = corpus_objects
    checked = 0
    for label, (group, lat, _, _) in objects.items():
        if not group.is_abelian:
            continue
        sylows = [s for p, a in factorize(group.order).items() for s in lat.subgroups_of_order(p**a)]
        for sub in maximal_subgroups(lat) + sylows:
            assert is_normal(group, sub.mask) and is_normal_by_conjugation(group, sub), (label, sub.order)
            checked += 1
    assert checked > 1000


def test_criterion_4_below_threshold_nilpotent(corpus_objects):
    objects, _ = corpus_objects
    started = time.perf_counter()
    for label, (_, _, profile, cls) in objects.items():
        if cls.verdict == VERDICT_BELOW:
            assert profile.is_nilpotent, label
        elif cls.verdict == VERDICT_AT:
            assert profile.is_nilpotent or cls.recognized_as == "S3", label
    # further restatements over the same corpus: the only non-cyclic group
    # below the threshold is the rank-2 group of order 4, and the only
    # nonabelian group at the threshold is the order-6 one; groups with
    # sigma1 <= 2 are all cyclic
    for label, (_, _, profile, cls) in objects.items():
        if cls.verdict == VERDICT_BELOW and not profile.is_cyclic:
            assert cls.structure == "Z2xZ2", label
        if cls.verdict == VERDICT_AT and not profile.is_abelian:
            assert cls.structure == "S3", label
        if cls.sigma1 <= 2:
            assert profile.is_cyclic, label
    _report("criterion 4: sub-threshold groups are nilpotent (or the order-6 exception)", started)


def test_criterion_5_elementary_abelian_censuses():
    started = time.perf_counter()
    checked = 0
    for p in range(2, 257):
        if not is_prime(p):
            continue
        k = 1
        while p**k <= 256:
            group = elementary_abelian_group(p, k)
            lat = enumerate_subgroups(group, DEFAULT_VERIFY_MAX_SUBGROUPS)
            for i in range(k + 1):
                assert lat.census.get(p**i, 0) == gaussian_subgroup_count(k, p, i), (p, k, i)
            checked += 1
            k += 1
    assert checked >= 60
    for p in (2, 3, 5):
        for k in range(0, 7):
            for i in range(k + 1):
                assert gaussian_subgroup_count(k, p, i) == gaussian_subgroup_count(k, p, k - i)
    _report("criterion 5: rank-k subgroup counts match the Gaussian binomials", started, budget=60.0)


def test_criterion_6_inequality_scans():
    started = time.perf_counter()
    sieve_1m = build_sieve(1_000_000)
    odd = odd_part_inequality_scan(1_000_000, sieve_1m)
    assert odd.violations == ()
    assert odd.checked == 499_999
    scan = scan_threshold(sieve_1m)
    assert scan.equal[:3] == (12, 70, 88)
    _report("criterion 6: proof inequality scans to 1e6", started, budget=30.0)


def test_criterion_7_convergent_family():
    started = time.perf_counter()
    for index in range(1, 7):
        w = build_witness(index)
        assert w.sigma1_formula == 2 + Fraction(1 + Fraction(1, w.q), w.p)
        if w.p * w.q <= 2000:
            assert w.enumerated
            report = analyze_group(semidirect_pq_group(w.p, w.q))
            assert report.classification.sigma1 == w.sigma1_formula
            assert report.census == {1: 1, w.p: w.q, w.q: 1, w.p * w.q: 1}
            assert report.profile.is_nilpotent is False
            assert report.classification.verdict == w.verdict
    report = convergence_report(100, max_order=1)
    assert len(report.rows) == 100
    for row in report.rows:
        assert row.sigma1_formula > 2
        assert row.excess <= Fraction(2, row.p)
    _report("criterion 7: non-nilpotent family converging to 2", started, budget=60.0)


def test_criterion_8_structural_cross_checks(corpus_objects):
    objects, _ = corpus_objects
    started = time.perf_counter()
    for label, (group, lat, _, _) in objects.items():
        sylows = sylow_decomposition(group, lat)
        assert all_maximals_normal(group, lat) == (sylows is not None), label
        # one census count per prime against is_normal on each subgroup of a Sylow order
        assert sylows == sylow_decomposition_by_normality_scan(group, lat), label
    for label, (group, lat, _, _) in objects.items():
        if group.order > 120:
            continue
        for sub in lat.subgroups:
            orbit = len(conjugates(group, sub.mask))
            assert orbit * normalizer(group, sub).order == group.order, label
    _report("criterion 8: nilpotency criteria agree; conjugate-count law holds", started)


def test_criterion_9_multiplicativity_and_quotients(corpus_objects):
    objects, _ = corpus_objects
    started = time.perf_counter()
    pairs = [
        ("cyclic:4", "cyclic:9"),
        ("cyclic:8", "cyclic:27"),
        ("cyclic:16", "cyclic:81"),
        ("cyclic:25", "cyclic:64"),
        ("cyclic:49", "cyclic:8"),
        ("cyclic:121", "cyclic:4"),
        ("elem:2,2", "cyclic:3"),
        ("elem:2,2", "cyclic:9"),
        ("elem:2,3", "elem:3,2"),
        ("elem:2,4", "cyclic:27"),
        ("elem:3,2", "cyclic:16"),
        ("elem:5,2", "cyclic:8"),
        ("pq:2,3", "cyclic:25"),
        ("pq:2,3", "cyclic:5"),
        ("pq:3,7", "cyclic:2"),
        ("pq:2,5", "cyclic:9"),
        ("dihedral:4", "cyclic:9"),
        ("dihedral:5", "cyclic:9"),
        ("sym:4", "cyclic:5"),
        ("sym:4", "cyclic:25"),
    ]
    assert len(pairs) == 20
    for left, right in pairs:
        parts = [GroupSpec.parse(left).build(), GroupSpec.parse(right).build()]
        assert math.prod(g.order for g in parts) <= 2000, (left, right)
        assert check_multiplicativity(parts), (left, right)
    for label, (group, lat, _, _) in objects.items():
        if group.order > 120:
            continue
        assert check_quotient_monotonicity(group, lat), label
    _report("criterion 9: multiplicativity and quotient monotonicity", started)
