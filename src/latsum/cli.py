"""Command-line surface: analyze, verify, sigma-scan, sequence, dump-table.

Exit codes: 0 success, 1 classification violation, 2 parse/usage error,
3 cap exceeded, 4 invalid table, 5 infrastructure error, 141 standard
output closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from pathlib import Path

from .analysis import (
    AnalysisReport,
    analyze_group,
    decimal_display,
    fraction_dict,
    verify_classification,
)
from .arith import build_sieve, scan_threshold
from .corpus import (
    DEFAULT_AMBIENT_SYM,
    DEFAULT_CYCLIC_MAX,
    DEFAULT_DIHEDRAL_MAX,
    DEFAULT_ELEM_MAX,
    DEFAULT_PQ_MAX,
    DEFAULT_VERIFY_MAX_SUBGROUPS,
    build_default_corpus,
)
from .errors import (
    InvalidSpec,
    InvalidTable,
    LatsumError,
    LatticeTooLarge,
    LimitTooLarge,
    NotAPermutation,
    OrderCapExceeded,
    SearchCapExceeded,
)
from .families import convergence_report
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    GroupSpec,
    _decimal,
    group_from_file,
)
from .lattice import DEFAULT_MAX_SUBGROUPS

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_BAD_TABLE = 4
EXIT_INFRA = 5
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process ended by SIGPIPE

# the exit code of each library error, first match wins
_EXIT_CODES = (
    (InvalidSpec, EXIT_USAGE),
    ((InvalidTable, NotAPermutation), EXIT_BAD_TABLE),
    ((OrderCapExceeded, LatticeTooLarge, LimitTooLarge, SearchCapExceeded), EXIT_CAP),
    (LatsumError, EXIT_INFRA),
)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def load_group(source: str, max_order: int) -> Group:
    """Resolve a CLI group source: spec string, or a raw-table / generator file.
    A name the file system cannot look up (too long, say) names no file."""
    if ":" in source and not os.path.exists(source):
        return GroupSpec.parse(source).build(max_order)
    if not os.path.isfile(source):
        raise InvalidSpec(f"no such spec or file: {source}")
    return group_from_file(source, max_order=max_order, label=source)


def _print_report(report: AnalysisReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict(), indent=2))
        return
    c = report.classification
    p = report.profile
    print(f"group          {report.label}")
    print(f"order          {report.order}")
    print(f"subgroups      {report.subgroup_count}")
    print(f"census         {report.census}")
    print(f"sigma1         {c.sigma1} (~{decimal_display(c.sigma1)})")
    print(f"threshold      {c.threshold} (2 + 4/{report.order})")
    print(f"verdict        {c.verdict}")
    print(f"structure      {c.structure} (recognized: {c.recognized_as})")
    flags = []
    for name, value in [
        ("cyclic", p.is_cyclic),
        ("abelian", p.is_abelian),
        ("nilpotent", p.is_nilpotent),
    ]:
        flags.append(name if value else f"non-{name}")
    if p.is_p_group:
        flags.append(f"{p.p_group_prime}-group(rank {p.frattini_rank})")
    print(f"flags          {', '.join(flags)}")
    print(f"consistent     {c.theorem_consistent}")
    print(f"time           {report.timing_ms:.1f} ms")


def cmd_analyze(args) -> int:
    group = load_group(args.source, args.max_order)
    report = analyze_group(group, args.max_subgroups, label=args.source)
    _print_report(report, args.json)
    return EXIT_OK


def cmd_dump_table(args) -> int:
    sys.stdout.write(load_group(args.source, args.max_order).dump_table())
    return EXIT_OK


def cmd_verify(args) -> int:
    entries = build_default_corpus(
        cyclic_max=args.cyclic_max,
        elem_max=args.elem_max,
        dihedral_max=args.dihedral_max,
        pq_max=args.pq_max,
        ambient_sym=args.ambient_sym,
        extra_specs=[GroupSpec.parse(s) for s in args.extra],
        max_order=args.max_order,
    )
    doc = verify_classification(
        entries,
        max_order=args.max_order,
        max_subgroups=args.max_subgroups,
        workers=args.workers,
    ).to_dict()
    for label, error in doc["errors"].items():
        print(f"{label}: {error}", file=sys.stderr)
    for entry in doc["entries"]:
        if not entry["theorem_consistent"]:
            print(f"{entry['label']}: INCONSISTENT {json.dumps(entry)}", file=sys.stderr)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"corpus size        {doc['corpus_size']}")
        print(f"errors             {len(doc['errors'])}")
        print(f"inconsistent       {len(doc['inconsistent'])}")
        for name, tally in doc["property_counts"].items():
            print(f"{name:<34} pass {tally['pass']:>5}   fail {tally['fail']}")
        print(f"below threshold    {len(doc['below'])}: {', '.join(doc['below'])}")
        print(f"at threshold       {len(doc['at_threshold'])}: {', '.join(doc['at_threshold'])}")
        print(f"at structures      {', '.join(doc['at_threshold_structures'])}")
        # verify builds no sieve: the verdict forced on a cyclic group is the
        # sign of divisor_sigma(n) - (2n + 4), computed in sigma.classify
        print("note               cyclic at-threshold hits are artifact-derived witnesses")
    if doc["inconsistent"]:
        return EXIT_VIOLATION
    if doc["errors"]:
        return EXIT_INFRA
    return EXIT_OK


def cmd_sigma_scan(args) -> int:
    scan = scan_threshold(build_sieve(args.limit))
    if args.json:
        print(
            json.dumps(
                {
                    "limit": scan.limit,
                    "below_count": scan.below_count,
                    "above_count": scan.above_count,
                    "equal": list(scan.equal),
                },
                indent=2,
            )
        )
    else:
        print(f"limit        {scan.limit}")
        print(f"below 2n+4   {scan.below_count}")
        print(f"above 2n+4   {scan.above_count}")
        print(f"equal 2n+4   {len(scan.equal)}: {', '.join(map(str, scan.equal))}")
    return EXIT_OK


def cmd_sequence(args) -> int:
    report = convergence_report(
        args.count,
        search_cap=args.search_cap,
        max_order=args.max_order,
        max_subgroups=args.max_subgroups,
    )
    if args.json:
        rows = [
            {
                "index": r.index,
                "p": r.p,
                "q": r.q,
                "sigma1": fraction_dict(r.sigma1_formula),
                "sigma1_decimal_display": decimal_display(r.sigma1_formula),
                "excess": fraction_dict(r.excess),
                "enumerated": r.enumerated,
                "verdict": r.verdict,
            }
            for r in report.rows
        ]
        print(json.dumps({"rows": rows, "observed_monotone": report.observed_monotone}, indent=2))
    else:
        print(f"{'n':>3} {'p':>6} {'q':>8} {'sigma1':>12} {'decimal':>16} {'sigma1-2':>10} enum")
        for r in report.rows:
            print(
                f"{r.index:>3} {r.p:>6} {r.q:>8} {str(r.sigma1_formula):>12} "
                f"{decimal_display(r.sigma1_formula):>16} {str(r.excess):>10} "
                f"{'yes' if r.enumerated else 'no'}"
            )
        print(f"observed strictly decreasing: {report.observed_monotone}")
    return EXIT_OK


def _at_least(least: int):
    """The argparse type of an int >= ``least`` in ASCII decimal digits, read
    by the rule every number latsum reads follows (``groups._decimal``)."""

    def read(value: str) -> int:
        try:
            n = _decimal(value)
        except OrderCapExceeded:  # more digits than any number latsum reads
            n = None
        if n is None or n < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least} in ASCII decimal digits, got {value!r}")
        return n

    return read


_positive = _at_least(1)
_nonnegative = _at_least(0)  # a corpus family bound, where 0 disables the family


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parsing leaves it
    unchanged, and building it costs about a millisecond, a sizeable part of
    a small ``analyze`` request."""
    parser = argparse.ArgumentParser(
        prog="latsum",
        description="Exact subgroup-order sums over full subgroup lattices of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, subgroup_cap=DEFAULT_MAX_SUBGROUPS):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--max-order", type=_positive, default=DEFAULT_ORDER_CAP)
        p.add_argument("--max-subgroups", type=_positive, default=subgroup_cap)

    p = sub.add_parser("analyze", help="analyze one group")
    p.add_argument("source", help="spec string (cyclic:12, elem:3,2, pq:3,7, product:cyclic:4+cyclic:9, ...) or file path")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dump-table", help="print a group's raw multiplication table")
    p.add_argument("source")
    p.add_argument("--max-order", type=_positive, default=DEFAULT_ORDER_CAP)
    p.set_defaults(func=cmd_dump_table)

    p = sub.add_parser("verify", help="classify a corpus and check it against the threshold theorems")
    common(p, subgroup_cap=DEFAULT_VERIFY_MAX_SUBGROUPS)
    p.add_argument("--cyclic-max", type=_nonnegative, default=DEFAULT_CYCLIC_MAX, help="cyclic groups up to this order (0 disables)")
    p.add_argument("--elem-max", type=_nonnegative, default=DEFAULT_ELEM_MAX, help="elementary abelian groups up to this order (0 disables)")
    p.add_argument("--dihedral-max", type=_nonnegative, default=DEFAULT_DIHEDRAL_MAX, help="dihedral parameter bound (0 disables)")
    p.add_argument("--pq-max", type=_nonnegative, default=DEFAULT_PQ_MAX, help="pq-group order bound (0 disables)")
    p.add_argument("--ambient-sym", type=_nonnegative, default=DEFAULT_AMBIENT_SYM, help="include all subgroups of symmetric groups up to this degree (0 disables)")
    p.add_argument("--extra", action="append", default=[], metavar="SPEC", help="additional group spec (repeatable)")
    p.add_argument("--workers", type=_positive, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sigma-scan", help="list n with sigma(n) = 2n + 4 up to a limit")
    p.add_argument("limit", type=_positive)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sigma_scan)

    p = sub.add_parser("sequence", help="print the non-nilpotent family converging to 2")
    p.add_argument("count", type=_positive)
    common(p)
    p.add_argument("--search-cap", type=_positive, default=None)
    p.set_defaults(func=cmd_sequence)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (``latsum ... | head``): point stdout at devnull
        # so the exit flush cannot raise again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _dispatch(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # for main: a closed stdout is not an internal error
    except LatsumError as exc:
        code = next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
        source = getattr(args, "source", None)
        if source is None:
            return _fail(code, f"error: {exc}")
        # a spec's cap message starts with the spec itself: name it once
        return _fail(code, f"{source}: {str(exc).removeprefix(source + ' ')}")
    except Exception as exc:  # exit 1 is reserved for a classification violation
        at = traceback.extract_tb(exc.__traceback__)[-1]
        return _fail(EXIT_INFRA, f"internal error: {type(exc).__name__}: {exc} (at {Path(at.filename).name}:{at.lineno})")


if __name__ == "__main__":
    raise SystemExit(main())
