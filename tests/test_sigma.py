from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latsum import (
    GroupSpec,
    NotCoprime,
    OrderCapExceeded,
    check_multiplicativity,
    check_quotient_monotonicity,
    classify,
    cyclic_group,
    enumerate_subgroups,
    sigma1,
    threshold,
    verify_classification,
)
from latsum.lattice import (
    STRUCTURE_CYCLIC,
    STRUCTURE_OTHER,
    STRUCTURE_S3,
    STRUCTURE_Z2XZ2,
    STRUCTURE_Z3XZ3,
)
from latsum.sigma import VERDICT_ABOVE, VERDICT_AT, VERDICT_BELOW

from helpers import trial_division_sigma


def analyze(spec: str):
    group = GroupSpec.parse(spec).build()
    lat = enumerate_subgroups(group)
    return group, lat


def test_sigma1_fixture_values():
    for spec, want in [
        ("cyclic:1", "1"),
        ("elem:2,2", "11/4"),
        ("elem:3,2", "22/9"),
        ("pq:2,3", "8/3"),
        ("cyclic:6", "2"),
        ("dihedral:4", "31/8"),
    ]:
        group, lat = analyze(spec)
        assert sigma1(group, lat) == Fraction(want), spec


def test_sigma1_is_reduced_fraction():
    group, lat = analyze("cyclic:6")
    value = sigma1(group, lat)
    assert (value.numerator, value.denominator) == (2, 1)


def test_threshold():
    assert threshold(6) == Fraction(8, 3)
    assert threshold(1) == 6


def test_classify_fixture_verdicts():
    for spec, verdict, structure in [
        ("cyclic:12", VERDICT_AT, STRUCTURE_CYCLIC),
        ("elem:2,2", VERDICT_BELOW, STRUCTURE_Z2XZ2),
        ("elem:3,2", VERDICT_AT, STRUCTURE_Z3XZ3),
        ("pq:2,3", VERDICT_AT, STRUCTURE_S3),
        ("dihedral:4", VERDICT_ABOVE, STRUCTURE_OTHER),
        ("cyclic:6", VERDICT_BELOW, STRUCTURE_CYCLIC),
        ("sym:4", VERDICT_ABOVE, STRUCTURE_OTHER),
    ]:
        group, lat = analyze(spec)
        got = classify(group, lat)
        assert (got.verdict, got.structure) == (verdict, structure), spec
        assert got.theorem_consistent, spec


def test_classify_exactness_at_threshold():
    # sigma(12) = 28 = 2*12 + 4, so Z12 sits exactly at the threshold
    group, lat = analyze("cyclic:12")
    got = classify(group, lat)
    assert got.sigma1 == got.threshold == Fraction(7, 3)
    assert trial_division_sigma(12) == 28


def test_sigma1_formula_for_cyclic_groups():
    for n in range(1, 80):
        group = cyclic_group(n)
        lat = enumerate_subgroups(group)
        assert sigma1(group, lat) == Fraction(trial_division_sigma(n), n)


def test_multiplicativity_examples():
    a = GroupSpec.parse("cyclic:4").build()
    b = GroupSpec.parse("cyclic:9").build()
    assert check_multiplicativity([a, b])
    la, lb = enumerate_subgroups(a), enumerate_subgroups(b)
    assert sigma1(a, la) * sigma1(b, lb) == Fraction(91, 36)

    k = GroupSpec.parse("elem:2,2").build()
    c3 = GroupSpec.parse("cyclic:3").build()
    assert check_multiplicativity([k, c3])
    assert sigma1(k, enumerate_subgroups(k)) * Fraction(4, 3) == Fraction(11, 3)

    trivial = GroupSpec.parse("cyclic:1").build()
    s3 = GroupSpec.parse("pq:2,3").build()
    assert check_multiplicativity([trivial, s3])


def test_multiplicativity_rejects_common_factors():
    a = cyclic_group(4)
    b = cyclic_group(6)
    with pytest.raises(NotCoprime):
        check_multiplicativity([a, b])
    with pytest.raises(OrderCapExceeded):
        check_multiplicativity([cyclic_group(100), cyclic_group(99)], max_order=2000)


def test_quotient_monotonicity():
    for spec in ["cyclic:24", "pq:2,3", "elem:2,2", "dihedral:6", "sym:4", "pq:3,7"]:
        group, lat = analyze(spec)
        assert check_quotient_monotonicity(group, lat), spec


def test_quotient_monotonicity_specific_values():
    group, lat = analyze("pq:2,3")
    value = sigma1(group, lat)
    sub = lat.subgroups_of_order(3)[0]
    from latsum import quotient_group

    quot = quotient_group(group, sub.mask)
    qv = sigma1(quot, enumerate_subgroups(quot))
    assert qv == Fraction(3, 2)
    assert value >= qv


def test_verify_classification_cyclic_range():
    entries = [(f"cyclic:{n}", GroupSpec.cyclic(n)) for n in range(1, 101)]
    summary = verify_classification(entries)
    assert not summary.errors
    assert not summary.inconsistent
    at_orders = sorted(r.order for r in summary.at_reports)
    assert at_orders == [12, 70, 88]


def test_verify_classification_named_trio():
    entries = [
        ("elem:2,2", GroupSpec.elementary_abelian(2, 2)),
        ("elem:3,2", GroupSpec.elementary_abelian(3, 2)),
        ("pq:2,3", GroupSpec.semidirect_pq(2, 3)),
    ]
    summary = verify_classification(entries)
    assert not summary.inconsistent
    verdicts = {r.label: r.verdict for r in summary.reports}
    assert verdicts == {
        "elem:2,2": VERDICT_BELOW,
        "elem:3,2": VERDICT_AT,
        "pq:2,3": VERDICT_AT,
    }


def test_verify_isolates_per_entry_failures():
    entries = [
        ("cyclic:6", GroupSpec.cyclic(6)),
        ("cyclic:9999", GroupSpec.cyclic(9999)),  # over the order cap
    ]
    summary = verify_classification(entries)
    assert len(summary.errors) == 1
    assert summary.errors[0].label == "cyclic:9999"
    assert "OrderCapExceeded" in summary.errors[0].error
    assert len(summary.reports) == 1


def test_verify_raw_table_over_order_cap_records_order_cap_exceeded():
    summary = verify_classification([("c6", cyclic_group(6).table)], max_order=4)
    assert [e.label for e in summary.errors] == ["c6"]
    assert summary.errors[0].error.startswith("OrderCapExceeded:")
    assert summary.reports == []


def test_reference_spot_check_sigma_at_most_2_is_cyclic():
    # groups with sigma1 <= 2 in a small zoo are all cyclic
    specs = (
        [GroupSpec.cyclic(n) for n in range(1, 60)]
        + [GroupSpec.elementary_abelian(2, 2), GroupSpec.elementary_abelian(3, 2)]
        + [GroupSpec.dihedral(n) for n in range(2, 10)]
        + [GroupSpec.semidirect_pq(2, 5), GroupSpec.semidirect_pq(3, 7)]
    )
    for spec in specs:
        group = spec.build()
        lat = enumerate_subgroups(group)
        if sigma1(group, lat) <= 2:
            assert group.is_cyclic, str(spec)


# -- properties ---------------------------------------------------------------

coprime_pairs = st.sampled_from(
    [
        ("cyclic:4", "cyclic:9"),
        ("cyclic:8", "cyclic:27"),
        ("elem:2,2", "cyclic:9"),
        ("elem:2,3", "elem:3,2"),
        ("pq:2,3", "cyclic:25"),
        ("dihedral:4", "cyclic:9"),
        ("pq:3,7", "cyclic:2"),
        ("sym:4", "cyclic:5"),
    ]
)


@settings(max_examples=8, deadline=None)
@given(coprime_pairs)
def test_property_multiplicativity(pair):
    parts = [GroupSpec.parse(s).build() for s in pair]
    assert check_multiplicativity(parts)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 40))
def test_property_verdict_trichotomy(n):
    group = cyclic_group(n)
    lat = enumerate_subgroups(group)
    got = classify(group, lat)
    cut = threshold(n)
    matches = [
        (got.verdict == VERDICT_BELOW) == (got.sigma1 < cut),
        (got.verdict == VERDICT_AT) == (got.sigma1 == cut),
        (got.verdict == VERDICT_ABOVE) == (got.sigma1 > cut),
    ]
    assert all(matches)
