import hashlib
import json
import subprocess

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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_records_unexpected_exception_against_its_entry(capsys, monkeypatch, workers):
    # the pool forks its workers, so they see the patched analyze_group too
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
