"""Brute-force oracles, deliberately independent of the library's algorithms,
and the small group utilities that only the tests use."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np

from latsum import (
    Group,
    Lattice,
    Subgroup,
    direct_product_group,
    enumerate_subgroups,
    group_from_permutations,
    is_normal,
    sigma1,
)
from latsum.corpus import group_fingerprint, subgroup_as_group
from latsum.groups import _mask_members, conjugate_mask, generated_mask


def python_child(*args: str, env: dict[str, str] | None = None, **kwargs) -> subprocess.Popen:
    """Start ``python *args`` in a child that imports latsum from this checkout,
    with ``env`` added to this process's environment."""
    tests_dir = Path(__file__).parent
    path = [str(tests_dir.parent / "src"), str(tests_dir), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **(env or {}))
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def run_python(*args: str) -> tuple[int, str, str]:
    """Run ``python *args`` in such a child: its exit code, stdout and stderr."""
    child = python_child(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = child.communicate(timeout=60)
    return child.returncode, out, err


def trial_division_sigma(n: int) -> int:
    """Divisor sum by direct scan of every candidate divisor."""
    return sum(d for d in range(1, n + 1) if n % d == 0)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def brute_force_subgroup_masks(group: Group) -> set[int]:
    """All subgroup bitmasks by testing every identity-containing subset.

    Only subset sizes dividing the order are tried (Lagrange); intended for
    orders up to about 16.
    """
    n = group.order
    table = group.table
    masks = set()
    rest = list(range(1, n))
    for size in range(1, n + 1):
        if n % size != 0:
            continue
        for extra in combinations(rest, size - 1):
            subset = (0,) + extra
            member = set(subset)
            if all(table[a][b] in member for a in subset for b in subset):
                mask = 0
                for a in subset:
                    mask |= 1 << a
                masks.add(mask)
    return masks


def every_subgroup_worklist(group: Group) -> set[int]:
    """All subgroup bitmasks by cyclic extension of every subgroup found.

    Seeds with the cyclic subgroups <a> and inserts <H, x> for every known
    H and every coset representative x outside H until a fixpoint, with no
    use of conjugacy classes.  Cost grows with the whole lattice, so keep
    the groups small.
    """
    table = group.table
    n = group.order
    seen: dict[int, tuple[int, ...]] = {}
    for a in range(n):
        mask = 1
        x = a
        while x:
            mask |= 1 << x
            x = table[x][a]
        seen.setdefault(mask, (a,) if a else ())
    work = list(seen.items())
    full_mask = (1 << n) - 1
    for mask, gens in work:  # also visits the subgroups appended below
        if mask == full_mask:
            continue
        members = _mask_members(mask)
        covered = bytearray(n)
        for h in members:
            covered[h] = 1
        for x in range(1, n):
            if covered[x]:
                continue
            for h in members:
                covered[table[h][x]] = 1
            new_gens = gens + (x,)
            new_mask = generated_mask(group, new_gens, seed_mask=mask)
            if new_mask not in seen:
                seen[new_mask] = new_gens
                work.append((new_mask, new_gens))
    return set(seen)


def subspace_masks_by_loop(group: Group, p: int, k: int) -> list[int]:
    """Every subgroup mask of an elementary abelian group of order p^k, in
    (order, mask) order, by building each GF(p)-subspace element by element.

    Walks the reduced echelon forms over the greedy basis one free-slot
    assignment at a time, in plain Python, and builds the span of each
    form's rows from the list rows of the table.  The library instead
    intersects the kernels of functionals on the annihilator side, in
    numpy over ``group.array``, so the two share only the greedy basis.
    """
    table = group.table
    # greedy basis: elems[c] is the element whose coordinates are the base-p digits of c
    elems = [0]
    span_mask = 1
    for a in range(1, group.order):
        if span_mask >> a & 1:
            continue
        grown = list(elems)
        cur = elems
        for _ in range(p - 1):
            cur = [table[x][a] for x in cur]
            grown.extend(cur)
            for e in cur:
                span_mask |= 1 << e
        elems = grown
    assert len(elems) == p**k
    masks = []
    powers = [p**j for j in range(k)]
    for r in range(k + 1):
        for pivots in combinations(range(k), r):
            free_slots = [
                (row, col) for row in range(r) for col in range(pivots[row] + 1, k) if col not in pivots
            ]
            for assignment in product(range(p), repeat=len(free_slots)):
                rows = [powers[c] for c in pivots]
                for (row, col), val in zip(free_slots, assignment):
                    rows[row] += val * powers[col]
                span_elems = [0]
                for rc in rows:
                    v = elems[rc]
                    block = list(span_elems)
                    cur = span_elems
                    for _ in range(p - 1):
                        cur = [table[x][v] for x in cur]
                        block.extend(cur)
                    span_elems = block
                mask = 0
                for e in span_elems:
                    mask |= 1 << e
                masks.append(mask)
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def contains_subgroup(big: Subgroup, small: Subgroup) -> bool:
    return big.mask & small.mask == small.mask


def is_normal_by_conjugation(group: Group, sub: Subgroup) -> bool:
    """Normality by conjugating H by every generator of the parent, with no
    shortcut for abelian groups."""
    return all(conjugate_mask(group, sub.mask, x) == sub.mask for x in group.generating_set())


def normalizer(group: Group, sub: Subgroup) -> Subgroup:
    """The largest subgroup in which ``sub`` is normal, by conjugating it by
    every element."""
    mask = 0
    for x in range(group.order):
        if conjugate_mask(group, sub.mask, x) == sub.mask:
            mask |= 1 << x
    return Subgroup(mask)


def quotient_group(group: Group, normal_mask: int) -> Group:
    """Quotient by the normal subgroup with the given membership bitmask.

    Cosets are represented by their minimal member and indexed in ascending
    representative order, which puts the identity coset at index 0.  Raises
    ValueError when the mask lacks the identity or ``is_normal`` finds the
    subgroup is not normal.
    """
    arr = group.array
    members = _mask_members(normal_mask)
    if not normal_mask & 1:
        raise ValueError("subgroup mask does not contain the identity")
    if not is_normal(group, normal_mask):
        raise ValueError(f"subgroup of order {len(members)} is not normal in {group.label}")
    coset_of = np.full(group.order, -1, dtype=arr.dtype)
    reps: list[int] = []
    for a in range(group.order):
        if coset_of[a] < 0:
            coset_of[arr[members, a]] = len(reps)
            reps.append(a)
    return Group(coset_of[arr[np.ix_(reps, reps)]], f"{group.label}/(order {len(members)})")


def check_multiplicativity(parts: list[Group]) -> bool:
    """Whether sigma1 of the direct product equals the product of the parts'
    values, each side from its own full enumeration; the part orders should
    be pairwise coprime, or the two sides differ."""
    expected = Fraction(1)
    for g in parts:
        expected *= sigma1(g, enumerate_subgroups(g))
    product = direct_product_group(parts)
    return sigma1(product, enumerate_subgroups(product)) == expected


def check_quotient_monotonicity(group: Group, lat: Lattice) -> bool:
    """Whether sigma1(G) >= sigma1(G/N) holds for every normal subgroup N."""
    bound = sigma1(group, lat)
    for sub in lat.subgroups:
        try:  # quotient_group makes the one normality test
            quot = quotient_group(group, sub.mask)
        except ValueError:
            continue
        if sigma1(quot, enumerate_subgroups(quot)) > bound:
            return False
    return True


def is_abelian_by_scan(group: Group) -> bool:
    """Commutativity by comparing a*b with b*a for every pair of elements."""
    table = group.table
    return all(table[a][b] == table[b][a] for a in range(1, group.order) for b in range(1, a))


def element_orders_by_walk(group: Group) -> list[int]:
    """The order of each element by powering it on its own until the identity."""
    table = group.table
    orders = []
    for a in range(group.order):
        k, x = 1, a
        while x != 0:
            x = table[x][a]
            k += 1
        orders.append(k)
    return orders


def descending_maximal_scan(order: int, subgroups) -> list[Subgroup]:
    """Maximal subgroups by scanning ``subgroups`` in descending order.

    A proper subgroup is kept when no previously kept subgroup contains it;
    every maximal overgroup has strictly larger order, so it is kept before
    its subgroups are tested.  Sorted by (order, mask).
    """
    maximals: list[Subgroup] = []
    for sub in sorted(subgroups, key=lambda s: -s.order):
        if sub.order == order:
            continue
        if not any(contains_subgroup(m, sub) for m in maximals):
            maximals.append(sub)
    maximals.sort(key=lambda s: (s.order, s.mask))
    return maximals


def naive_permutation_closure(degree: int, gens) -> set[tuple[int, ...]]:
    """Repeated pairwise composition until the set stabilizes."""
    elems = {tuple(range(degree))}
    elems.update(tuple(g) for g in gens)
    while True:
        new = {tuple(a[x] for x in b) for a in elems for b in elems}
        if new <= elems:
            return elems
        elems |= new


def permutation_table_by_composition(degree: int, gens) -> list[list[int]]:
    """The Cayley table of the closure of ``gens``, with every one of the n^2
    products composed as a tuple and looked up, in the library's numbering:
    identity first, then breadth-first discovery, ties in lexicographic order."""
    gen_tuples = [tuple(g) for g in gens]
    ident = tuple(range(degree))
    elems, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        frontier = sorted({tuple(w[x] for x in g) for w in frontier for g in gen_tuples} - seen)
        seen.update(frontier)
        elems.extend(frontier)
    index = {perm: i for i, perm in enumerate(elems)}
    return [[index[tuple(pa[x] for x in pb)] for pb in elems] for pa in elems]


def naive_order_census(group: Group) -> dict[int, int]:
    """Subgroup census via the brute-force subset oracle."""
    census: dict[int, int] = {}
    for mask in brute_force_subgroup_masks(group):
        size = mask.bit_count()
        census[size] = census.get(size, 0) + 1
    return dict(sorted(census.items()))


def associativity_failure(table: list[list[int]]) -> tuple[int, int, int] | None:
    """The first triple (a, b, c) with (a*b)*c != a*(b*c), by scanning all n^3."""
    arr = np.asarray(table, dtype=np.int64)
    for a in range(len(table)):
        # (a*b)*c vs a*(b*c) for all b, c at once
        bad = np.argwhere(arr[arr[a]] != arr[a][arr])
        if len(bad):
            b, c = bad[0]
            return a, int(b), int(c)
    return None


def intercalates(table: list[list[int]]) -> list[tuple[int, int, int, int]]:
    """Every 2x2 Latin subsquare (r1, r2, c1, c2) that avoids row and column 0."""
    n = len(table)
    out = []
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                for c2 in range(c1 + 1, n):
                    if table[r1][c1] == table[r2][c2] and table[r1][c2] == table[r2][c1]:
                        out.append((r1, r2, c1, c2))
    return out


class CountingTable(list):
    """A Cayley table that counts in ``reads`` how often a row is read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


def relabelled(table: list[list[int]], rng: random.Random) -> list[list[int]]:
    """The same group with its non-identity elements renamed at random."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    pi = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[pi[a]][pi[b]] = pi[table[a][b]]
    return out


def swap_intercalate(table: list[list[int]], square: tuple[int, int, int, int]) -> list[list[int]]:
    """A copy of the table with the two symbols of one intercalate exchanged.

    The result is still a Latin square with the identity at 0, so only the
    associativity check can reject it.
    """
    r1, r2, c1, c2 = square
    out = [list(row) for row in table]
    out[r1][c1], out[r1][c2] = out[r1][c2], out[r1][c1]
    out[r2][c1], out[r2][c2] = out[r2][c2], out[r2][c1]
    return out


def power(group: Group, a: int, k: int) -> int:
    """a^k by square-and-multiply; negative k goes through the inverse."""
    if k < 0:
        a, k = group.inverse[a], -k
    out = 0
    row = a
    while k:
        if k & 1:
            out = group.table[out][row]
        k >>= 1
        row = group.table[row][row] if k else row
    return out


def subgroup_generators(group: Group, sub: Subgroup) -> tuple[int, ...]:
    """A greedy generating set of ``sub``: each member not yet in the span
    of those before it, until they span ``sub``."""
    gens: tuple[int, ...] = ()
    span = 1
    for a in sub.members():
        if span >> a & 1:
            continue
        gens = gens + (a,)
        span = generated_mask(group, gens)
        if span == sub.mask:
            break
    return gens


# The Sylow 2-subgroup of S8 and Sylow 3-subgroup of S9, which are iterated
# wreath products (Kaloujnine 1948), and C2 wr C4 in S8: (degree, generators
# in cycle notation)
SYLOW_WREATH_PRODUCTS = {
    "C2wrC2wrC2": (8, [[(0, 1)], [(0, 2), (1, 3)], [(0, 4), (1, 5), (2, 6), (3, 7)]]),
    "C3wrC3": (9, [[(0, 1, 2)], [(0, 3, 6), (1, 4, 7), (2, 5, 8)]]),
    "C2wrC4": (8, [[(0, 1)], [(0, 2, 4, 6), (1, 3, 5, 7)]]),
}


def permutation_from_cycles(degree: int, cycles) -> list[int]:
    """The one-line form of the product of disjoint ``cycles`` on 0..degree-1."""
    image = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a] = b
    return image


def sylow_wreath_product(name: str) -> Group:
    degree, gens = SYLOW_WREATH_PRODUCTS[name]
    return group_from_permutations(degree, [permutation_from_cycles(degree, c) for c in gens], label=name)


def subgroup_classes(group: Group) -> list[Group]:
    """One subgroup of ``group`` per (fingerprint, census) key, as a
    standalone group, in (order, mask) order; the last is the group itself.

    The census of H counts the subgroups of ``group`` that H contains; it
    keeps apart subgroups that the element orders alone would merge."""
    subs = sorted(enumerate_subgroups(group).subgroups, key=lambda s: (s.order, s.mask))
    kept: dict[tuple, Group] = {}
    for i, sub in enumerate(subs):
        census = Counter(k.order for k in subs if k.mask & sub.mask == k.mask)
        as_group = subgroup_as_group(group, sub, f"{group.label}-sub{i:03d}-ord{sub.order}")
        kept.setdefault((group_fingerprint(as_group), tuple(sorted(census.items()))), as_group)
    return list(kept.values())
