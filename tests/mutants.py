"""Run one-line mutants of the checks in ``src/latsum/lattice.py`` against the tests.

    python tests/mutants.py [NAME ...]

Each mutant replaces one text, which must occur exactly once in
``lattice.py``, in a temporary copy of the checkout, and runs ``pytest -x
-q`` there with the lint tests of ``tests/test_cli.py`` deselected, since a
disabled check may leave a name or an import unread.  It prints one line
per mutant: its name, "killed" and the first failing test, or "survived".
A survivor is a check that no test shows to matter.  With NAMEs it runs
only those mutants.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET = Path("src/latsum/lattice.py")
LINT_TESTS = [
    "test_every_public_definition_has_a_caller",
    "test_library_has_no_assert_statement",
    "test_every_dataclass_field_is_read",
    "test_no_unused_imports",
]

# (name, old text, new text)
MUTANTS = [
    ("made-size", "if sub.order != order:", "if False:"),
    (
        "combine-maximals-unmade",
        "_made(group.order // whole.bit_count() * m.order, multiply([*wholes[:j], m.mask, *wholes[j + 1 :]]), "
        "group.label)",
        "Subgroup(multiply([*wholes[:j], m.mask, *wholes[j + 1 :]]))",
    ),
    ("lagrange-census", "if any(group.order % order for order in subs.census):", "if False:"),
    ("plan-vs-closed-form", "if offsets[-1] != n:", "if False:"),
    ("part-member-count", "if len(members) != q:", "if False:"),
    (
        "part-commute",
        "if not np.array_equal(arr[sylow[:, None], others], arr[others[:, None], sylow].T):",
        "if False:",
    ),
    ("solvability-guard", "if order % 2 or len(factorize(order)) < 3:", "if False:"),
    ("nilpotency-vote", "if not by_maximals == by_sylow == by_orders:", "if False:"),
    ("frattini-rank", "if k < 2 and not group.is_cyclic:", "if False:"),
    ("frattini-quotient-power", "if quotient_order % p:", "if False:"),
    ("recorded-maximals", "if lat.maximals is None:", "if False:"),
    ("class-representative-only", "[new_mask] if abelian else conjugates(group, new_mask)", "[new_mask]"),
]


def run(name: str, old: str, new: str) -> str:
    """The report line of one mutant, run in a fresh copy of the checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
        for tree in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        source = (copy / TARGET).read_text()
        if source.count(old) != 1:
            raise SystemExit(f"{name}: {old!r} occurs {source.count(old)} times in {TARGET}, not once")
        (copy / TARGET).write_text(source.replace(old, new))
        deselect = [arg for test in LINT_TESTS for arg in ("--deselect", f"tests/test_cli.py::{test}")]
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *deselect],
            cwd=copy, capture_output=True, text=True, timeout=1800,
        )
    if result.returncode == 0:
        return f"{name:26} survived"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.MULTILINE)
    return f"{name:26} killed    {failed.group(1) if failed else f'pytest exit {result.returncode}'}"


def main(names: list[str]) -> None:
    unknown = set(names) - {name for name, _, _ in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    for name, old, new in MUTANTS:
        if not names or name in names:
            print(run(name, old, new), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
