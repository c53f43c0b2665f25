from dataclasses import astuple
from fractions import Fraction

import pytest

from latsum import (
    SearchCapExceeded,
    analyze_group,
    build_witness,
    convergence_report,
    dirichlet_search,
    semidirect_pq_group,
)
from latsum.families import default_search_cap


def test_dirichlet_search_values():
    assert dirichlet_search(2) == 3
    assert dirichlet_search(3) == 7
    assert dirichlet_search(5) == 11
    assert dirichlet_search(7) == 29
    assert dirichlet_search(11) == 23
    assert dirichlet_search(13) == 53


def test_dirichlet_search_cap_is_loud():
    with pytest.raises(SearchCapExceeded):
        dirichlet_search(7, search_cap=20)
    with pytest.raises(ValueError):
        dirichlet_search(4)


def test_default_search_cap_reasonable():
    for p in (2, 3, 5, 541):
        cap = default_search_cap(p)
        assert cap > p + 1
        assert dirichlet_search(p, cap)  # succeeds within the default cap


def test_first_witness_is_order_six():
    w = build_witness(1)
    assert (w.p, w.q) == (2, 3)
    assert w.sigma1_formula == Fraction(8, 3)
    report = analyze_group(semidirect_pq_group(w.p, w.q))
    assert w.enumerated and report.classification.sigma1 == Fraction(8, 3)
    assert report.census == {1: 1, 2: 3, 3: 1, 6: 1}
    assert w.verdict == report.classification.verdict == "AtThreshold"
    assert report.profile.is_nilpotent is False


def test_second_witness_values():
    w = build_witness(2)
    assert (w.p, w.q) == (3, 7)
    assert w.sigma1_formula == 2 + Fraction(8, 21) == Fraction(50, 21)
    report = analyze_group(semidirect_pq_group(w.p, w.q))
    assert report.census == {1: 1, 3: 7, 7: 1, 21: 1}
    assert w.verdict == report.classification.verdict == "AboveThreshold"


def test_third_witness_formula():
    w = build_witness(3)
    assert (w.p, w.q) == (5, 11)
    assert w.sigma1_formula == 2 + Fraction(12, 55)


def test_witness_skips_enumeration_above_cap():
    w = build_witness(4, max_order=100)  # order 203 stays formula-only
    assert not w.enumerated
    assert w.sigma1_formula == 2 + Fraction(30, 203)
    # the witness holds no lattice fact: only the closed form and a verdict of None
    assert astuple(w) == (4, 7, 29, 2 + Fraction(30, 203), None)


def test_witness_index_validation():
    with pytest.raises(ValueError):
        build_witness(0)


def test_convergence_report_first_rows():
    report = convergence_report(4)
    excesses = [r.excess for r in report.rows]
    assert excesses == [
        Fraction(2, 3),
        Fraction(8, 21),
        Fraction(12, 55),
        Fraction(30, 203),
    ]
    assert all(r.sigma1_formula > 2 for r in report.rows)
    assert all(r.excess <= Fraction(2, r.p) for r in report.rows)
    assert report.rows[0].verdict == "AtThreshold"
    assert all(r.verdict == "AboveThreshold" for r in report.rows[1:])


def test_convergence_bound_formula_only():
    report = convergence_report(40, max_order=1)
    assert all(not r.enumerated for r in report.rows)
    assert all(2 < r.sigma1_formula <= 2 + Fraction(2, r.p) for r in report.rows)


def test_convergence_count_validation():
    with pytest.raises(ValueError):
        convergence_report(0)
