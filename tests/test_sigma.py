from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latsum import (
    GroupSpec,
    classify,
    cyclic_group,
    enumerate_subgroups,
    recognize,
    sigma1,
    threshold,
    verify_classification,
)
import latsum.analysis as analysis
from latsum.analysis import EntryResult, VerificationSummary
from latsum.sigma import (
    STRUCTURE_CYCLIC,
    STRUCTURE_OTHER,
    STRUCTURE_S3,
    STRUCTURE_Z2XZ2,
    STRUCTURE_Z3XZ3,
    VERDICT_ABOVE,
    VERDICT_AT,
    VERDICT_BELOW,
)

from helpers import (
    check_multiplicativity,
    check_quotient_monotonicity,
    decimal_by_long_division,
    quotient_group,
    run_python,
    trial_division_sigma,
)


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
        got = classify(group, lat, recognize(group, lat))
        assert (got.verdict, got.structure) == (verdict, structure), spec
        assert got.theorem_consistent, spec


def test_classify_exactness_at_threshold():
    # sigma(12) = 28 = 2*12 + 4, so Z12 sits exactly at the threshold
    group, lat = analyze("cyclic:12")
    got = classify(group, lat, recognize(group, lat))
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


def test_quotient_monotonicity():
    for spec in ["cyclic:24", "pq:2,3", "elem:2,2", "dihedral:6", "sym:4", "pq:3,7"]:
        group, lat = analyze(spec)
        assert check_quotient_monotonicity(group, lat), spec


def test_quotient_monotonicity_specific_values():
    group, lat = analyze("pq:2,3")
    value = sigma1(group, lat)
    sub = lat.subgroups_of_order(3)[0]
    quot = quotient_group(group, sub.mask)
    qv = sigma1(quot, enumerate_subgroups(quot))
    assert qv == Fraction(3, 2)
    assert value >= qv


def test_verify_classification_cyclic_range():
    entries = [(f"cyclic:{n}", GroupSpec("cyclic", (n,))) for n in range(1, 101)]
    doc = verify_classification(entries).to_dict()
    assert doc["errors"] == {}
    assert doc["inconsistent"] == []
    assert doc["at_threshold"] == ["cyclic:12", "cyclic:70", "cyclic:88"]


def test_verify_classification_named_trio():
    entries = [
        ("elem:2,2", GroupSpec("elem", (2, 2))),
        ("elem:3,2", GroupSpec("elem", (3, 2))),
        ("pq:2,3", GroupSpec("pq", (2, 3))),
    ]
    doc = verify_classification(entries).to_dict()
    assert doc["inconsistent"] == []
    verdicts = {e["label"]: e["verdict"] for e in doc["entries"]}
    assert verdicts == {
        "elem:2,2": VERDICT_BELOW,
        "elem:3,2": VERDICT_AT,
        "pq:2,3": VERDICT_AT,
    }


def test_verify_starts_at_most_one_worker_per_entry(monkeypatch):
    # a stand-in for _run_processes that records the labels of each batch it
    # is given and runs them in this process, so no child process is started
    started = []

    def in_process(batches):
        started.append([[label for (label, _), _, _ in batch] for batch in batches])
        return [analysis._run_entry(p) for batch in batches for p in batch]

    monkeypatch.setattr(analysis, "_run_processes", in_process)
    # one batch per worker and at most one per entry, every entry in exactly one
    for size in (1, 3, 61):
        corpus = [(f"cyclic:{n}", GroupSpec("cyclic", (n,))) for n in range(1, size + 1)]
        serial = verify_classification(corpus).to_dict()
        for workers in (2, 3, 64):
            assert verify_classification(corpus, workers=workers).to_dict() == serial, (size, workers)
            if size == 1:  # one entry runs in this process, with no child
                assert started == []
                continue
            (batches,) = started
            started.clear()
            assert len(batches) == min(workers, size) and all(batches)
            assert sorted(label for batch in batches for label in batch) == sorted(label for label, _ in corpus)


def test_verify_isolates_per_entry_failures():
    entries = [
        ("cyclic:6", GroupSpec("cyclic", (6,))),
        ("cyclic:9999", GroupSpec("cyclic", (9999,))),  # over the order cap
    ]
    doc = verify_classification(entries).to_dict()
    assert list(doc["errors"]) == ["cyclic:9999"]
    assert "OrderCapExceeded" in doc["errors"]["cyclic:9999"]
    assert [e["label"] for e in doc["entries"]] == ["cyclic:6"]


def test_verify_raw_table_over_order_cap_records_order_cap_exceeded():
    doc = verify_classification([("c6", cyclic_group(6).table)], max_order=4).to_dict()
    assert list(doc["errors"]) == ["c6"]
    assert doc["errors"]["c6"].startswith("OrderCapExceeded:")
    assert doc["entries"] == []


def test_verify_reports_a_table_that_is_not_a_group_against_its_entry():
    # 1*(1*1) = 0 but (1*1)*1 = 2; unvalidated, element_orders walked the
    # powers of such a table forever, so the run happens in a child that
    # is killed if it outlives the timeout
    code, out, err = run_python("-c", """
from latsum import cyclic_group, verify_classification
bad = [[0, 1, 2], [1, 2, 0], [2, 2, 0]]
doc = verify_classification([("bad", bad), ("c3", cyclic_group(3).table)]).to_dict()
print(doc["errors"], [e["label"] for e in doc["entries"]])
""", timeout=10)
    assert (code, err) == (0, "")
    assert out == "{'bad': 'InvalidTable: associativity fails for g=1'} ['c3']\n"


def test_summary_keeps_its_results_in_label_order():
    results = [EntryResult(label, None, "E") for label in ("pq:3,7", "cyclic:10", "cyclic:9")]
    summary = VerificationSummary(results)
    assert [r.label for r in summary.results] == ["cyclic:10", "cyclic:9", "pq:3,7"]
    assert list(summary.to_dict()["errors"]) == ["cyclic:10", "cyclic:9", "pq:3,7"]
    assert [r.label for r in results] == ["pq:3,7", "cyclic:10", "cyclic:9"]  # the caller's list is left alone


@pytest.mark.parametrize(
    "value, shown",
    [
        (Fraction(251, 103), "2.436893203883"),
        (Fraction(264, 103), "2.563106796117"),
        (Fraction(277, 111), "2.495495495495"),
        (Fraction(2), "2.000000000000"),
        (Fraction(1, 2 * 10**12), "0.000000000000"),  # a tie rounds to even
        (Fraction(3, 2 * 10**12), "0.000000000002"),
    ],
)
def test_decimal_display_rounds_once_from_the_exact_value(value, shown):
    assert analysis.decimal_display(value) == shown


def test_decimal_display_matches_long_division():
    for b in range(1, 301):
        for a in range(b, 4 * b + 1):
            assert analysis.decimal_display(Fraction(a, b)) == decimal_by_long_division(a, b, analysis.DISPLAY_DIGITS), (a, b)


def test_reference_spot_check_sigma_at_most_2_is_cyclic():
    # groups with sigma1 <= 2 in a small zoo are all cyclic
    specs = (
        [GroupSpec("cyclic", (n,)) for n in range(1, 60)]
        + [GroupSpec("elem", (2, 2)), GroupSpec("elem", (3, 2))]
        + [GroupSpec("dihedral", (n,)) for n in range(2, 10)]
        + [GroupSpec("pq", (2, 5)), GroupSpec("pq", (3, 7))]
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
    got = classify(group, lat, recognize(group, lat))
    cut = threshold(n)
    matches = [
        (got.verdict == VERDICT_BELOW) == (got.sigma1 < cut),
        (got.verdict == VERDICT_AT) == (got.sigma1 == cut),
        (got.verdict == VERDICT_ABOVE) == (got.sigma1 > cut),
    ]
    assert all(matches)
