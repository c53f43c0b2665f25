"""Regenerate oracle.json: the answers for every input any seed can draw.

    python3 perfbench/make_oracle.py

Censuses come from closed forms (cyclic, dihedral, pq, elementary abelian,
coprime products) or, for the subgroups of the symmetric groups, from a
brute-force search by generating pairs. Sieve results come from a plain
numpy divisor-sum sieve. Every value is then cross-checked against latsum,
and any mismatch stops the script before it writes anything.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from oracle import ORACLE_PATH, answer, census_of_spec, table_key  # noqa: E402
from workloads import (  # noqa: E402
    ABELIAN_PRODUCTS,
    ELEM_MAX_ORDER,
    PERM_GROUPS,
    SIZES,
    TABLE_TWINS,
    VERIFY_CORPUS,
    abelian_presentation,
    perm_file_text,
    s3_key,
    sigma_menu,
)

import latsum  # noqa: E402
from latsum import GroupSpec, analyze_group, build_sieve, odd_part_inequality_scan, scan_threshold  # noqa: E402
from latsum.corpus import (  # noqa: E402
    DEFAULT_VERIFY_MAX_SUBGROUPS,
    build_default_corpus,
    elementary_abelian_specs,
    subgroup_as_group,
)
from latsum.groups import group_from_perm_file, symmetric_group  # noqa: E402


def closure(table: list[list[int]], gens: tuple[int, ...]) -> frozenset[int]:
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for y in frontier:
            for g in gens:
                z = table[y][g]
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)


def brute_force_census(table: list[list[int]]) -> dict[int, int]:
    """Every subgroup <a, b>, then a check that adding any one element to any
    of them gives nothing new, so the list is complete."""
    n = len(table)
    subs: dict[frozenset, tuple[int, ...]] = {}
    for a in range(n):
        for b in range(a, n):
            subs.setdefault(closure(table, (a, b)), (a, b))
    for members, gens in list(subs.items()):
        for c in range(n):
            if c not in members and closure(table, gens + (c,)) not in subs:
                raise SystemExit(f"a subgroup of order {n} needs three generators")
    census: dict[int, int] = {}
    for members in subs:
        census[len(members)] = census.get(len(members), 0) + 1
    return census


def cross_check(key: str, want: dict, group) -> None:
    report = analyze_group(group, DEFAULT_VERIFY_MAX_SUBGROUPS)
    got = {str(k): v for k, v in sorted(report.census.items())}
    c = report.classification
    sigma1 = f"{c.sigma1.numerator}/{c.sigma1.denominator}"
    if (got, sigma1, c.verdict) != (want["census"], want["sigma1"], want["verdict"]) or not c.theorem_consistent:
        raise SystemExit(f"{key}: latsum gives {got} {sigma1} {c.verdict}, oracle {want}")


def spec_answer(groups: dict, key: str, presentation: str | None = None) -> None:
    if key not in groups:
        groups[key] = answer(census_of_spec(key))
    cross_check(key, groups[key], GroupSpec.parse(presentation or key).build(2000))


def group_answers() -> dict:
    groups: dict[str, dict] = {}
    for size in SIZES:
        for label, source in build_default_corpus(elem_max=0, **VERIFY_CORPUS[size]):
            if not isinstance(source, list):
                spec_answer(groups, label)
        for spec in elementary_abelian_specs(ELEM_MAX_ORDER[size]):
            spec_answer(groups, str(spec))
        rng = random.Random(0)
        for p, k, m in ABELIAN_PRODUCTS[size]:
            key = f"product:elem:{p},{k}+cyclic:{m}"
            for _ in range(3):
                spec_answer(groups, key, abelian_presentation(rng, p, k, m))
        for m in TABLE_TWINS[size]:
            spec_answer(groups, f"cyclic:{6 * m}")
            spec_answer(groups, s3_key(m))
        for kind, d in PERM_GROUPS[size]:
            text, key = perm_file_text(kind, d, rng)
            if key not in groups:
                groups[key] = answer(census_of_spec(key))
            cross_check(key, groups[key], group_from_perm_file(text))
    # every subgroup of S2..S5, keyed by its table fingerprint
    for m in range(2, 6):
        ambient = symmetric_group(m)
        for sub in latsum.enumerate_subgroups(ambient).subgroups:
            group = subgroup_as_group(ambient, sub, "sub")
            key = table_key(group.table)
            if key not in groups:
                groups[key] = answer(brute_force_census(group.table))
            cross_check(key, groups[key], group)
    return dict(sorted(groups.items()))


def sigma_answers() -> dict:
    limits = sorted({n for size in SIZES for n in sigma_menu(size)})
    top = limits[-1]
    sigma = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, top + 1):
        sigma[d::d] += d
    n = np.arange(top + 1, dtype=np.int64)
    rng = random.Random(0)
    for x in [1, 2, 12, 70, 88] + [rng.randrange(1, top + 1) for _ in range(200)]:
        if sigma[x] != sum(d for d in range(1, x + 1) if x % d == 0):
            raise SystemExit(f"numpy sieve wrong at {x}")
    diff = sigma - 2 * n - 4
    out = {}
    for limit in limits:
        d = diff[1 : limit + 1]
        odd = n[3 : limit + 1 : 2]
        want = {
            "below": int((d < 0).sum()),
            "above": int((d > 0).sum()),
            "equal": [int(v) + 1 for v in np.nonzero(d == 0)[0]],
            "odd_checked": len(odd),
            "odd_violations": [int(v) for v in odd[11 * sigma[odd] <= 8 * odd + 4]],
        }
        sieve = build_sieve(limit)
        scan = scan_threshold(sieve)
        odd_scan = odd_part_inequality_scan(limit, sieve)
        got = {
            "below": scan.below_count,
            "above": scan.above_count,
            "equal": list(scan.equal),
            "odd_checked": odd_scan.checked,
            "odd_violations": list(odd_scan.violations),
        }
        if got != want:
            raise SystemExit(f"sigma-scan at {limit}: latsum gives {got}, oracle {want}")
        out[str(limit)] = want
    return out


def main() -> None:
    doc = {"groups": group_answers(), "sigma_scan": sigma_answers()}
    ORACLE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc['groups'])} groups and {len(doc['sigma_scan'])} sieve limits to {ORACLE_PATH.name}")


if __name__ == "__main__":
    main()
