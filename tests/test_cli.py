import ast
import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import time
from pathlib import Path

import pytest

import latsum
import latsum.analysis
import latsum.cli
from latsum.cli import main

from helpers import python_child


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_cyclic_6(capsys):
    code, out, _ = run_cli(capsys, "analyze", "cyclic:6")
    assert code == 0
    assert "2/1" in out or "sigma1         2 " in out
    assert "BelowThreshold" in out


def test_analyze_s3_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "pq:2,3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma1"] == {"numerator": "8", "denominator": "3"}
    assert doc["verdict"] == "AtThreshold"
    assert doc["structure"] == "S3"
    assert doc["census"] == {"1": 1, "2": 3, "3": 1, "6": 1}
    assert list(doc["census"]) == sorted(doc["census"], key=int)
    assert doc["theorem_consistent"] is True
    assert "timing_ms" in doc


def test_analyze_dihedral_above(capsys):
    code, out, _ = run_cli(capsys, "analyze", "dihedral:4", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["sigma1"] == {"numerator": "31", "denominator": "8"}
    assert doc["verdict"] == "AboveThreshold"


def test_json_rationals_are_strings_never_floats(capsys):
    _, out, _ = run_cli(capsys, "analyze", "elem:3,2", "--json")
    doc = json.loads(out)
    for key in ("sigma1", "threshold"):
        assert isinstance(doc[key]["numerator"], str)
        assert isinstance(doc[key]["denominator"], str)
    # the only decimal rendering is the explicitly display-only field
    assert doc["sigma1_decimal_display"].count(".") == 1


def test_analyze_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "wat:7")
    assert code == 2
    assert "wat" in err


def test_analyze_product_with_an_empty_factor_exit_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "product:cyclic:2++cyclic:3")
    assert (code, out) == (2, "")
    assert "empty factor" in err


def test_analyze_cap_exit_3(capsys):
    code, _, err = run_cli(capsys, "analyze", "cyclic:9999")
    assert code == 3
    assert "cap" in err.lower()


def test_analyze_lattice_cap_exit_3(capsys):
    code, _, err = run_cli(capsys, "analyze", "elem:2,8", "--max-subgroups", "1000")
    assert code == 3


def test_analyze_bad_table_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 1\n1 1\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 4


def test_signed_table_entry_exit_4(tmp_path, capsys):
    # np.loadtxt reads +1 and -0 as 1 and 0, which would make this C2
    path = tmp_path / "signed.txt"
    path.write_text("2\n0 1\n+1 -0\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (4, "")
    assert err == f"{path}: table entries must be digits only, with no '+' or '-'\n"


@pytest.mark.parametrize("text", ["2\n0 1\n1 2\n", "2\n0 1\n1 -1\n", "2\n0 1 0\n1 0 1\n"])
def test_out_of_range_table_is_reported_as_out_of_range(tmp_path, capsys, text):
    # checked before the identity and the inverses are looked for, which
    # would otherwise report these tables as lacking them
    path = tmp_path / "range.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (4, "")
    assert err == f"{path}: table entries out of range\n"


def test_entry_that_wraps_into_range_in_int16_is_out_of_range(tmp_path, capsys):
    # 65536 + 3 is 3 in int16, which would make this table C4's own
    path = tmp_path / "wrap.txt"
    path.write_text("4\n0 1 2 3\n1 2 65539 0\n2 3 0 1\n3 0 1 2\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (4, "")
    assert err == f"{path}: table entries out of range\n"
    path.write_text(path.read_text().replace("65539", "3"))
    assert run_cli(capsys, "analyze", str(path))[0] == 0


def test_analyze_missing_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, "analyze", "/does/not/exist.txt")
    assert code == 2
    code, _, _ = run_cli(capsys, "analyze", "table:/does/not/exist.txt")
    assert code == 2
    code, _, _ = run_cli(capsys, "analyze", "/tmp")  # a directory, not a table
    assert code == 2


def test_spec_longer_than_a_file_name_is_analyzed(capsys):
    # 277 bytes, past the 255 a file name may have: the path probe fails
    # with ENAMETOOLONG, which means no such file
    spec = "product:" + "+".join(["cyclic:1"] * 30)
    assert len(spec) == 277
    code, out, _ = run_cli(
        capsys,
        "verify", "--cyclic-max", "0", "--elem-max", "0", "--dihedral-max", "0",
        "--pq-max", "0", "--ambient-sym", "0", "--extra", spec, "--json",
    )
    assert code == 0
    [entry] = json.loads(out)["entries"]
    code, out, _ = run_cli(capsys, "analyze", spec, "--json")
    assert code == 0
    assert json.loads(out)["census"] == entry["census"] == {"1": 1}
    assert run_cli(capsys, "dump-table", spec) == (0, "1\n0\n", "")


def test_missing_path_longer_than_a_file_name_exit_2(capsys):
    path = "/" + "x" * 299
    for command in ("analyze", "dump-table"):
        code, out, err = run_cli(capsys, command, path)
        assert (code, out) == (2, ""), command
        assert err == f"{path}: no such spec or file: {path}\n"


@pytest.mark.parametrize(
    "spec",
    [
        "sym:3000",
        "elem:2,20000",
        "product:cyclic:2+sym:3000",
        "elem:3,1000000000",
        pytest.param("cyclic:" + "9" * 5000, id="cyclic:9...9"),
        pytest.param("pq:2,3," + "9" * 5000, id="pq:2,3,9...9"),
    ],
)
def test_order_too_large_to_print_exits_3_at_once(capsys, spec):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", spec)
    assert (code, out) == (3, "")
    assert time.perf_counter() - started < 1.0
    assert "above" in err and len(err) < len(spec) + 200


def test_huge_rank_of_a_non_prime_is_not_walked(capsys):
    # 1^k never passes the cap, so its k factors must not be multiplied out
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "analyze", "elem:1,1000000000")
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (2, "elem:1,1000000000: p must be prime, got 1\n")


def test_table_order_of_5000_digits_exits_3(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("9" * 5000 + "\n0\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert err == f"{path}: a number of 5000 digits is above the cap 2000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma-scan", "1_000"],
        ["sigma-scan", "+30"],
        ["sigma-scan", "\u0663\u0660"],
        ["analyze", "cyclic:6", "--max-order", "1_0"],
        ["verify", "--workers", "\u0662"],
        ["verify", "--cyclic-max", "-5"],
        ["verify", "--pq-max", "1_0"],
        ["sequence", "9" * 5000],
    ],
    ids=lambda argv: " ".join(argv)[:40],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error: argument" in err


def test_dump_table_takes_only_max_order(capsys):
    for option in (["--json"], ["--max-subgroups", "10"]):
        assert run_cli(capsys, "dump-table", "pq:2,3", *option)[:2] == (2, "")
    code, out, err = run_cli(capsys, "dump-table", "pq:2,3", "--max-order", "5")
    assert (code, out, err) == (3, "", "pq:2,3: has order 6, above the cap 5\n")


def test_non_utf8_file_exit_4(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("1\n0\n# \u00e9\n".encode("latin-1"))
    for command in ("analyze", "dump-table"):
        for source in (str(path), f"table:{path}"):
            code, out, err = run_cli(capsys, command, source)
            assert (code, out) == (4, ""), (command, source)
            assert err.startswith(f"{source}: ") and "UTF-8" in err


def test_over_cap_table_file_exits_3_whatever_its_body(tmp_path, capsys):
    # line 1 is read and checked against the cap before the rest of the file
    path = tmp_path / "big.txt"
    path.write_bytes(b"\n 2100 \n" + "# \u00e9\n".encode("latin-1"))
    for source in (str(path), f"table:{path}"):
        code, out, err = run_cli(capsys, "analyze", source)
        assert (code, out) == (3, ""), source
        assert err == f"{source}: table order 2100 exceeds cap 2000\n", source


def test_dump_table_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "dump-table", "pq:2,3")
    assert code == 0
    path = tmp_path / "s3.txt"
    path.write_text(out)
    code, out1, _ = run_cli(capsys, "analyze", "pq:2,3", "--json")
    code, out2, _ = run_cli(capsys, "analyze", str(path), "--json")
    d1, d2 = json.loads(out1), json.loads(out2)
    for key in ("order", "census", "sigma1", "verdict", "structure", "subgroup_count"):
        assert d1[key] == d2[key]


def test_dump_table_error_exit_codes(tmp_path, capsys):
    code, out, err = run_cli(capsys, "dump-table", "wat:7")
    assert (code, out) == (2, "") and err.startswith("wat:7: ")
    code, out, err = run_cli(capsys, "dump-table", "sym:7")
    assert (code, out) == (3, "") and err.startswith("sym:7: ") and "cap" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 1\n1 1\n")
    code, out, err = run_cli(capsys, "dump-table", str(bad))
    assert (code, out) == (4, "") and err.startswith(f"{bad}: ")
    perm = tmp_path / "perm.txt"
    perm.write_text("perm 3\n(0 1)(1 2)\n")
    code, out, _ = run_cli(capsys, "dump-table", str(perm))
    assert (code, out) == (4, "")


def test_perm_file_analysis(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_text("perm 5\n(0 1 2 3 4)\n(1 4)(2 3)\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["order"] == 10


def test_perm_degree_does_not_bound_the_work(tmp_path, capsys):
    # a closure over every point of 0..degree-1 built 10^9-entry tuples
    path = tmp_path / "gens.txt"
    path.write_text("perm 1000000000\n(0 1)\n")
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["order"] == 2


def _one_line(cycles: str, degree: int) -> tuple[int, ...]:
    perm = list(range(degree))
    for body in cycles.replace(")", "").split("(")[1:]:
        pts = [int(v) for v in body.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    return tuple(perm)


@pytest.mark.parametrize(
    "text",
    [
        "perm 5\n(0 1 2 3 4)\n(1 4)(2 3)\n",
        "perm 9\n(2 7)(4 8)\n(1 7 4)\n",
        "perm 12\n(10 3 6)\n(0 11)(3 10)\n(5)\n",
        "perm 8\n(0 1 2 3)(4 5 6 7)\n(0 4)(1 5)(2 6)(3 7)\n",
        "perm 7\n(6 0)\n",
    ],
)
def test_perm_file_table_is_the_closure_on_every_point(tmp_path, capsys, text):
    # the closure runs on the points the generators name; run on the one-line
    # forms over all points, it numbers the elements and writes the table alike
    degree = int(text.split()[1])
    want = latsum.group_from_permutations(degree, [_one_line(ln, degree) for ln in text.splitlines()[1:]])
    path = tmp_path / "gens.txt"
    path.write_text(text)
    assert run_cli(capsys, "dump-table", str(path)) == (0, want.dump_table(), "")


@pytest.mark.parametrize(
    "text",
    [
        "perm ²\n(0 1)\n",  # str.isdigit accepts "²", which int() refuses
        "perm 11\n(0 1_0)\n",  # int() reads "1_0" as 10
        "perm 3\n(0 x)\n",
        "perm +3\n(0 1)\n",
        "perm 3 3\n(0 1)\n",
    ],
)
def test_bad_perm_file_numbers_exit_4(tmp_path, capsys, text):
    path = tmp_path / "gens.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (4, ""), err
    assert err.startswith(f"{path}: ")


@pytest.mark.parametrize("head", ["permx 3", "perm3", "permutation 3"])
def test_perm_header_word_must_be_exactly_perm_exit_4(tmp_path, capsys, head):
    # "permx 3\n(0 1)\n" was once read as a degree-3 generator file
    path = tmp_path / "gens.txt"
    path.write_text(f"{head}\n(0 1)\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (4, ""), err
    assert err.startswith(f"{path}: ")
    code, out, err = run_cli(capsys, "analyze", f"perm:{path}")
    assert (code, out) == (4, "") and "must start with 'perm <degree>'" in err


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (("analyze", "cyclic:12", "--json"), ""),
        (("analyze", "cyclic:12", "--json"), "1"),
        (("dump-table", "cyclic:300"), ""),
        (("dump-table", "cyclic:300"), "1"),
        (("--help",), ""),  # unbuffered, argparse swallows the write error and exits 0
    ],
)
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    # the reader is gone before the child writes: a buffered small report or
    # help text meets the closed pipe at the final flush, anything else on
    # its first write
    script = f"import sys, latsum.cli; sys.exit(latsum.cli.main({list(argv)!r}))"
    env = {"PYTHONUNBUFFERED": unbuffered}
    child = python_child("-c", script, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (141, "")


@pytest.mark.parametrize("head", ["1_0", "\uff11\uff10", "+10"])
def test_table_order_line_must_be_ascii_decimal_exit_4(tmp_path, capsys, head):
    # int() reads each of these as 10, and ten rows of C10 follow
    rows = latsum.cyclic_group(10).dump_table().split("\n", 1)[1]
    path = tmp_path / "c10.txt"
    path.write_text(f"{head}\n{rows}", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (4, "")
    assert err == f"{path}: first line must be the order, got {head!r}\n"
    path.write_text(f" 10 \n{rows}")
    assert run_cli(capsys, "analyze", str(path))[0] == 0


def test_sigma_scan(capsys):
    code, out, _ = run_cli(capsys, "sigma-scan", "100", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] == [12, 70, 88]
    assert doc["below_count"] == 80
    code, out, _ = run_cli(capsys, "sigma-scan", "11", "--json")
    assert json.loads(out)["equal"] == []
    code, out, _ = run_cli(capsys, "sigma-scan", "1", "--json")
    doc = json.loads(out)
    assert doc["equal"] == [] and doc["below_count"] == 1


def test_sigma_scan_json_serialises_python_ints(capsys):
    # json.dumps rejects numpy integers, so a leaked one would fail here
    code, out, _ = run_cli(capsys, "sigma-scan", "40000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] == [12, 70, 88, 1888, 4030, 5830, 32128]
    assert doc["below_count"] + doc["above_count"] + len(doc["equal"]) == 40000


def test_sigma_scan_json_matches_pinned_digest(capsys):
    # the 167-byte document as printed by an independent implementation, a
    # linear smallest-prime-factor sieve with per-n scan loops
    code, out, _ = run_cli(capsys, "sigma-scan", "1000000", "--json")
    assert code == 0
    data = out.encode()
    assert len(data) == 167
    assert hashlib.sha256(data).hexdigest() == "10c15e533a54bd46f1e3f9b49016cd89be0bb58b5bb9930011733fb5ddc37de8"


# `latsum analyze SPEC` as printed, less its `time` line
ANALYZE_TEXT = {
    "cyclic:12": """\
group          cyclic:12
order          12
subgroups      6
census         {1: 1, 2: 1, 3: 1, 4: 1, 6: 1, 12: 1}
sigma1         7/3 (~2.333333333333)
threshold      7/3 (2 + 4/12)
verdict        AtThreshold
structure      Cyclic (recognized: CyclicN)
flags          cyclic, abelian, nilpotent
consistent     True
""",
    "elem:2,2": """\
group          elem:2,2
order          4
subgroups      5
census         {1: 1, 2: 3, 4: 1}
sigma1         11/4 (~2.750000000000)
threshold      3 (2 + 4/4)
verdict        BelowThreshold
structure      Z2xZ2 (recognized: Z2xZ2)
flags          non-cyclic, abelian, nilpotent, 2-group(rank 2)
consistent     True
""",
    "elem:3,2": """\
group          elem:3,2
order          9
subgroups      6
census         {1: 1, 3: 4, 9: 1}
sigma1         22/9 (~2.444444444444)
threshold      22/9 (2 + 4/9)
verdict        AtThreshold
structure      Z3xZ3 (recognized: Z3xZ3)
flags          non-cyclic, abelian, nilpotent, 3-group(rank 2)
consistent     True
""",
    "pq:2,3": """\
group          pq:2,3
order          6
subgroups      6
census         {1: 1, 2: 3, 3: 1, 6: 1}
sigma1         8/3 (~2.666666666667)
threshold      8/3 (2 + 4/6)
verdict        AtThreshold
structure      S3 (recognized: S3)
flags          non-cyclic, non-abelian, non-nilpotent
consistent     True
""",
    "dihedral:4": """\
group          dihedral:4
order          8
subgroups      10
census         {1: 1, 2: 5, 4: 3, 8: 1}
sigma1         31/8 (~3.875000000000)
threshold      5/2 (2 + 4/8)
verdict        AboveThreshold
structure      Other (recognized: None)
flags          non-cyclic, non-abelian, nilpotent, 2-group(rank 2)
consistent     True
""",
}


@pytest.mark.parametrize("spec", sorted(ANALYZE_TEXT))
def test_analyze_text_is_pinned(capsys, spec):
    code, out, _ = run_cli(capsys, "analyze", spec)
    assert code == 0
    *lines, time_line = out.splitlines(keepends=True)
    assert time_line.startswith("time           ") and time_line.endswith(" ms\n")
    assert "".join(lines) == ANALYZE_TEXT[spec]


def test_sequence_json_matches_pinned_digest(capsys):
    code, out, _ = run_cli(capsys, "sequence", "8", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "acc62112c43d4f99db9e2b0c5540559407b38f6f3928b592490c08ab3a3dad03"


def test_sequence_text_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "sequence", "8")
    assert code == 0
    assert out == """\
  n      p        q       sigma1          decimal   sigma1-2 enum
  1      2        3          8/3   2.666666666667        2/3 yes
  2      3        7        50/21   2.380952380952       8/21 yes
  3      5       11       122/55   2.218181818182      12/55 yes
  4      7       29      436/203   2.147783251232     30/203 yes
  5     11       23      530/253   2.094861660079     24/253 yes
  6     13       53     1432/689   2.078374455733     54/689 yes
  7     17      103    3606/1751   2.059394631639   104/1751 yes
  8     19      191    7450/3629   2.052907136952   192/3629 no
observed strictly decreasing: True
"""


def test_verify_text_is_pinned(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--cyclic-max", "20", "--elem-max", "9", "--dihedral-max", "4",
        "--pq-max", "21", "--ambient-sym", "3", "--workers", "1",
    )
    assert (code, err) == (0, "")
    below = (
        "cyclic:1, cyclic:10, cyclic:11, cyclic:13, cyclic:14, cyclic:15, cyclic:16, cyclic:17, cyclic:18, "
        "cyclic:19, cyclic:2, cyclic:20, cyclic:3, cyclic:4, cyclic:5, cyclic:6, cyclic:7, cyclic:8, cyclic:9, "
        "dihedral:1, dihedral:2, elem:2,2, sym2-sub000-ord1, sym2-sub001-ord2, sym3-sub004-ord3"
    )
    assert out == f"""\
corpus size        35
errors             0
inconsistent       0
classification_consistent          pass    35   fail 0
below_implies_nilpotent            pass    25   fail 0
at_implies_nilpotent_or_s3         pass     5   fail 0
below threshold    25: {below}
at threshold       5: cyclic:12, dihedral:3, elem:3,2, pq:2,3, sym3-sub005-ord6
at structures      Cyclic(12), S3, Z3xZ3
note               cyclic at-threshold hits are artifact-derived witnesses
"""


def test_sigma_scan_limit_errors(capsys):
    code, _, _ = run_cli(capsys, "sigma-scan", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "sigma-scan", "999999999")
    assert code == 3
    assert "4,000,000,000 bytes" in err  # 4 bytes per integer


def test_sequence(capsys):
    code, out, _ = run_cli(capsys, "sequence", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert [r["p"] for r in rows] == [2, 3, 5, 7]
    assert [r["q"] for r in rows] == [3, 7, 11, 29]
    assert rows[0]["sigma1"] == {"numerator": "8", "denominator": "3"}
    assert [r["excess"] for r in rows] == [
        {"numerator": "2", "denominator": "3"},
        {"numerator": "8", "denominator": "21"},
        {"numerator": "12", "denominator": "55"},
        {"numerator": "30", "denominator": "203"},
    ]
    assert all(r["enumerated"] for r in rows)


def test_sequence_count_zero_usage_error(capsys):
    code, _, _ = run_cli(capsys, "sequence", "0")
    assert code == 2


def test_sequence_search_cap_exit_3(capsys):
    code, _, _ = run_cli(capsys, "sequence", "4", "--search-cap", "4")
    assert code == 3


def test_verify_small_corpus(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--cyclic-max", "20", "--elem-max", "9", "--dihedral-max", "4",
        "--pq-max", "21", "--ambient-sym", "3", "--workers", "1", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["inconsistent"] == []
    assert doc["errors"] == {}
    assert sorted(doc["at_threshold_structures"]) == ["Cyclic(12)", "S3", "Z3xZ3"]
    entry = doc["entries"][0]
    assert "timing_ms" not in entry


def test_verify_empty_corpus_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        "verify",
        "--cyclic-max", "0", "--elem-max", "0", "--dihedral-max", "0",
        "--pq-max", "0", "--ambient-sym", "0",
    )
    assert code == 2
    assert "empty corpus" in err


def test_verify_ambient_group_above_order_cap_exit_3(capsys):
    # the cap is checked before the order-120 table is built
    code, out, err = run_cli(
        capsys,
        "verify",
        "--cyclic-max", "0", "--elem-max", "0", "--dihedral-max", "0",
        "--pq-max", "0", "--ambient-sym", "5", "--max-order", "100",
    )
    assert (code, out) == (3, "")
    assert "sym:5 has order 120, above the cap 100" in err


def test_verify_p_group_slice(capsys):
    # with only elementary abelian groups, the sub-threshold hits are exactly
    # the order-4 rank-2 group (below) and the order-9 rank-2 group (at)
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--cyclic-max", "0", "--elem-max", "81", "--dihedral-max", "0",
        "--pq-max", "0", "--ambient-sym", "0", "--workers", "1", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["below"] == ["elem:2,2"]
    assert doc["at_threshold"] == ["elem:3,2"]


def test_verify_deterministic_output(capsys):
    args = [
        "verify",
        "--cyclic-max", "15", "--elem-max", "8", "--dihedral-max", "3",
        "--pq-max", "10", "--ambient-sym", "3", "--json",
    ]
    code1, out1, _ = run_cli(capsys, *args, "--workers", "2")
    code2, out2, _ = run_cli(capsys, *args, "--workers", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    # 26 entries in 12 batches of 2 or 3: a dropped or doubled tail entry shows
    code3, out3, _ = run_cli(capsys, *args, "--workers", "3")
    assert code3 == 0
    assert out3 == out1


def test_verify_extra_specs_and_error_isolation(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--cyclic-max", "6", "--elem-max", "0", "--dihedral-max", "0",
        "--pq-max", "0", "--ambient-sym", "0",
        "--extra", "pq:3,7", "--extra", "cyclic:99999",
        "--workers", "1", "--json",
    )
    assert code == 5  # the oversized entry is an infrastructure error
    doc = json.loads(out)
    assert "cyclic:99999" in doc["errors"]
    assert any(e["label"] == "pq:3,7" for e in doc["entries"])
    assert "cyclic:99999" in err


def test_verify_analyzes_a_repeated_label_once(capsys):
    # cyclic:3 is in the cyclic family, and cyclic:03 has the same label
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--cyclic-max", "3", "--elem-max", "0", "--dihedral-max", "0",
        "--pq-max", "0", "--ambient-sym", "0",
        "--extra", "cyclic:3", "--extra", "cyclic:03", "--workers", "1", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["corpus_size"] == 3
    assert [e["label"] for e in doc["entries"]] == ["cyclic:1", "cyclic:2", "cyclic:3"]
    assert doc["below"] == ["cyclic:1", "cyclic:2", "cyclic:3"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_records_unexpected_exception_against_its_entry(capsys, monkeypatch, workers):
    # the children are forked, so they see the patched analyze_group too
    analyze_group = latsum.analysis.analyze_group

    def broken_for_one(group, *args, label=None, **kwargs):
        if label == "cyclic:4":
            raise RuntimeError("injected")
        return analyze_group(group, *args, label=label, **kwargs)

    monkeypatch.setattr(latsum.analysis, "analyze_group", broken_for_one)
    code, out, err = run_cli(
        capsys,
        "verify", "--cyclic-max", "8", "--elem-max", "0", "--dihedral-max", "0",
        "--pq-max", "0", "--ambient-sym", "0", "--extra", "pq:3,7",
        "--workers", workers, "--json",
    )
    assert code == 5
    doc = json.loads(out)
    assert doc["errors"] == {"cyclic:4": "RuntimeError: injected"}
    want = sorted(f"cyclic:{n}" for n in range(1, 9) if n != 4) + ["pq:3,7"]
    assert [e["label"] for e in doc["entries"]] == want
    assert "cyclic:4: RuntimeError: injected" in err


_EXIT_9 = (lambda: os._exit(9), "WorkerDied: exit code 9")
_SIGKILL = (lambda: os.kill(os.getpid(), signal.SIGKILL), "WorkerDied: killed by SIGKILL")


@pytest.mark.parametrize("deaths", [
    {"cyclic:7": _EXIT_9},
    {"cyclic:7": _SIGKILL},
    # both are dealt to the first of the two round-robin batches
    {"cyclic:7": _EXIT_9, "cyclic:9": _SIGKILL},
], ids=["exit-9", "sigkill", "two-in-one-batch"])
def test_verify_reports_a_dead_worker_against_its_entry(capsys, monkeypatch, deaths):
    # the children are forked, so they see the patched analyze_group too; the
    # child that reaches a dying entry takes the rest of its batch down with it
    analyze_group = latsum.analysis.analyze_group
    errors = {label: error for label, (_, error) in deaths.items()}

    def dies_on_some(group, *args, label=None, **kwargs):
        if label in deaths:
            deaths[label][0]()
        return analyze_group(group, *args, label=label, **kwargs)

    monkeypatch.setattr(latsum.analysis, "analyze_group", dies_on_some)
    entries = [(f"cyclic:{n}", latsum.GroupSpec("cyclic", (n,))) for n in range(1, 61)]
    doc = latsum.verify_classification(entries, workers=2).to_dict()
    assert doc["errors"] == errors
    assert [e["label"] for e in doc["entries"]] == sorted(label for label, _ in entries if label not in deaths)
    code, out, err = run_cli(
        capsys,
        "verify", "--cyclic-max", "60", "--elem-max", "0", "--dihedral-max", "0",
        "--pq-max", "0", "--ambient-sym", "0", "--workers", "2", "--json",
    )
    assert code == 5
    assert json.loads(out)["errors"] == errors
    for label, error in errors.items():
        assert f"{label}: {error}" in err


_CYCLIC_6_DOC = (
    '{"label": "cyclic:6", "order": 6, "subgroup_count": 4, "census": {"1": 1, "2": 1, "3": 1, "6": 1}, '
    '"sigma1": {"numerator": "2", "denominator": "1"}, "sigma1_decimal_display": "2.000000000000", '
    '"threshold": {"numerator": "8", "denominator": "3"}, "verdict": "BelowThreshold", "structure": "Cyclic", '
    '"theorem_consistent": false, "flags": {"is_cyclic": true, "is_abelian": true, "is_nilpotent": true, '
    '"is_p_group": false, "p_group_prime": null, "frattini_rank": null, "recognized_as": "CyclicN"}}'
)
_PQ_3_7_DOC = (
    '{"label": "pq:3,7", "order": 21, "subgroup_count": 10, "census": {"1": 1, "3": 7, "7": 1, "21": 1}, '
    '"sigma1": {"numerator": "50", "denominator": "21"}, "sigma1_decimal_display": "2.380952380952", '
    '"threshold": {"numerator": "46", "denominator": "21"}, "verdict": "AboveThreshold", "structure": "Other", '
    '"theorem_consistent": false, "flags": {"is_cyclic": false, "is_abelian": false, "is_nilpotent": false, '
    '"is_p_group": false, "p_group_prime": null, "frattini_rank": null, "recognized_as": "None"}}'
)


@pytest.mark.parametrize("as_json", [True, False])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_reports_errors_then_inconsistencies_and_exits_1(capsys, monkeypatch, workers, as_json):
    # classify is patched to flag two entries; the children are forked, so
    # they see the patch too
    classify = latsum.analysis.classify

    def flag_two(group, lat, profile):
        c = classify(group, lat, profile)
        if group.label in ("cyclic:6", "pq:3,7"):
            return dataclasses.replace(c, theorem_consistent=False)
        return c

    monkeypatch.setattr(latsum.analysis, "classify", flag_two)
    code, out, err = run_cli(
        capsys,
        "verify", "--cyclic-max", "8", "--elem-max", "0", "--dihedral-max", "0",
        "--pq-max", "0", "--ambient-sym", "0", "--extra", "pq:3,7", "--extra", "cyclic:99999",
        "--workers", workers, *(["--json"] if as_json else []),
    )
    assert code == 1  # an inconsistency outranks an error
    assert err.splitlines() == [
        "cyclic:99999: OrderCapExceeded: cyclic:99999 has order 99999, above the cap 2000",
        f"cyclic:6: INCONSISTENT {_CYCLIC_6_DOC}",
        f"pq:3,7: INCONSISTENT {_PQ_3_7_DOC}",
    ]
    if as_json:
        doc = json.loads(out)
        assert doc["inconsistent"] == ["cyclic:6", "pq:3,7"]
        assert list(doc["errors"]) == ["cyclic:99999"]
        assert doc["property_counts"]["classification_consistent"] == {"pass": 7, "fail": 2}
    else:
        assert out.splitlines()[:4] == [
            "corpus size        10",
            "errors             1",
            "inconsistent       2",
            "classification_consistent          pass     7   fail 2",
        ]


def test_usage_error_on_unknown_command(capsys):
    code = main(["frobnicate"])
    assert code == 2


def test_unexpected_exception_exits_5_not_1(capsys, monkeypatch):
    # exit 1 is reserved for a classification violation
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(latsum.cli, "analyze_group", broken)
    monkeypatch.setattr(latsum.analysis, "analyze_group", broken)
    code, _, err = run_cli(capsys, "analyze", "cyclic:6")
    assert code == 5
    [line] = err.strip().splitlines()
    assert line.startswith("internal error: RuntimeError: injected (at test_cli.py:")
    code, _, err = run_cli(
        capsys,
        "verify", "--cyclic-max", "3", "--elem-max", "0", "--dihedral-max", "0",
        "--pq-max", "0", "--ambient-sym", "0", "--workers", "1",
    )
    assert code == 5
    assert "RuntimeError: injected" in err


def _program_files() -> tuple[Path, list[Path]]:
    """(the package directory, every .py file of src/latsum but __init__.py
    and of the benchmark's perfbench/)."""
    repo = Path(__file__).parents[1]
    package = repo / "src" / "latsum"
    paths = [*package.glob("*.py"), *(repo / "perfbench").glob("*.py")]
    return package, [path for path in paths if path != package / "__init__.py"]


def _names_used(node: ast.AST) -> tuple[set[str], set[str]]:
    """(the names, attribute names and imported names in ``node``, less the
    name of each function or class inside its own definition; the attribute
    names alone, on the same terms)."""
    names: set[str] = set()
    attributes: set[str] = set()
    for child in ast.iter_child_nodes(node):
        child_names, child_attributes = _names_used(child)
        names |= child_names
        attributes |= child_attributes
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
        attributes.add(node.attr)
    elif isinstance(node, ast.ImportFrom):
        names.update(alias.name for alias in node.names)
    elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names.discard(node.name)
        attributes.discard(node.name)
    return names, attributes


def test_every_public_definition_has_a_caller():
    # a public top-level function or class must be named as code outside its
    # own definition, and a public method or property of a public class must
    # be read as an attribute there: in another part of src/latsum (the
    # re-exports of __init__.py do not count) or in the benchmark's
    # perfbench/*.py
    package, paths = _program_files()
    referenced: set[str] = set()
    read: set[str] = set()
    defined: dict[str, str] = {}
    methods: dict[str, str] = {}
    for path in paths:
        tree = ast.parse(path.read_text())
        names, attributes = _names_used(tree)
        referenced |= names
        read |= attributes
        if path.parent != package:
            continue
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            defined[stmt.name] = path.name
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        methods[f"{stmt.name}.{item.name}"] = path.name
    assert len(defined) > 50 and len(methods) >= 19
    assert {"VerificationSummary.to_dict", "Lattice.subgroups_of_order"} <= set(methods)
    unused = {name: module for name, module in defined.items() if name not in referenced}
    unused |= {name: module for name, module in methods.items() if name.split(".")[1] not in read}
    assert unused == {}


def test_every_dataclass_field_is_read():
    # a field of a public dataclass in src/latsum must be read as an attribute
    # somewhere in src/latsum (the re-exports of __init__.py do not count) or
    # in perfbench/*.py: a stored value that no code reads is a second copy
    # of a fact, or none at all
    package, paths = _program_files()
    read: set[str] = set()
    fields: list[str] = []
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        if path.parent != package:
            continue
        for stmt in tree.body:
            if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in stmt.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            fields += [
                f"{stmt.name}.{item.target.id}"
                for item in stmt.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    assert len(fields) > 40
    assert [field for field in fields if field.split(".")[1] not in read] == []


def test_no_unused_imports():
    # every name a src/latsum module imports is used in that module;
    # __init__.py imports to re-export, so it is left out
    package, paths = _program_files()
    unused = {}
    for path in paths:
        if path.parent != package:
            continue
        tree = ast.parse(path.read_text())
        imported: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
