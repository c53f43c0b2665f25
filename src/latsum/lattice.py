"""Complete subgroup-lattice enumeration and the structural tests built on it."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

from .arith import factorize, gaussian_subgroup_count
from .errors import LatticeTooLarge, NotAPGroup
from .groups import Group, _mask_members, conjugate_mask, generated_mask

DEFAULT_MAX_SUBGROUPS = 100_000

# The structure names classify() reports, each mapped to the name that
# recognize() reports in ``recognized_as``: one name table for both.
STRUCTURE_CYCLIC = "Cyclic"
STRUCTURE_Z2XZ2 = "Z2xZ2"
STRUCTURE_Z3XZ3 = "Z3xZ3"
STRUCTURE_S3 = "S3"
STRUCTURE_OTHER = "Other"
RECOGNIZED_AS = {
    STRUCTURE_CYCLIC: "CyclicN",
    STRUCTURE_Z2XZ2: "Z2xZ2",
    STRUCTURE_Z3XZ3: "Z3xZ3",
    STRUCTURE_S3: "S3",
    STRUCTURE_OTHER: "None",
}


class Subgroup:
    """Subgroup of a fixed parent group, stored as a membership bitmask.

    Bit a of ``mask`` is set exactly when element a belongs to the subgroup;
    ``gens`` is an optional small generating set kept to speed up closures.
    """

    __slots__ = ("mask", "order", "gens")

    def __init__(self, mask: int, gens: tuple[int, ...] | None = None):
        self.mask = mask
        self.order = mask.bit_count()
        self.gens = gens

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and other.mask == self.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order})"

    def members(self) -> list[int]:
        return _mask_members(self.mask)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return self.mask & other.mask == other.mask


@dataclass
class Lattice:
    """All subgroups of a group, canonically sorted by (order, mask)."""

    group: Group
    subgroups: list[Subgroup]
    census: dict[int, int]

    def __post_init__(self):
        self._mask_set = frozenset(s.mask for s in self.subgroups)
        self._maximals: list[Subgroup] | None = None

    def __len__(self) -> int:
        return len(self.subgroups)

    def contains_mask(self, mask: int) -> bool:
        return mask in self._mask_set

    def subgroups_of_order(self, order: int) -> list[Subgroup]:
        return [s for s in self.subgroups if s.order == order]

    @property
    def trivial(self) -> Subgroup:
        return self.subgroups[0]

    @property
    def full(self) -> Subgroup:
        return self.subgroups[-1]


def enumerate_subgroups(group: Group, max_subgroups: int = DEFAULT_MAX_SUBGROUPS) -> Lattice:
    """Enumerate every subgroup of ``group`` exactly once.

    The general route seeds the worklist with all cyclic subgroups <a> and
    closes under single-element extensions: for each known subgroup H and
    each coset representative x outside H, insert <H, x> if new, until a
    fixpoint.  Elementary abelian groups of rank >= 2 instead enumerate
    subspaces by echelon-form bases over GF(p), which produces the identical
    lattice but scales to the rank-8 case over GF(2); the two routes are
    cross-checked in the test suite.

    Raises LatticeTooLarge when the subgroup count exceeds ``max_subgroups``.
    """
    rank = _elementary_abelian_rank(group)
    if rank is not None:
        subs = _enumerate_elementary_abelian(group, *rank, max_subgroups)
    else:
        subs = _enumerate_worklist(group, max_subgroups)
    subs.sort(key=lambda s: (s.order, s.mask))
    census = dict(sorted(Counter(s.order for s in subs).items()))
    assert all(group.order % order == 0 for order in census), "Lagrange violated"
    return Lattice(group=group, subgroups=subs, census=census)


def _enumerate_worklist(group: Group, max_subgroups: int) -> list[Subgroup]:
    table = group.table
    n = group.order
    seen: dict[int, tuple[int, ...]] = {}
    for a in range(n):
        mask = 1
        x = a
        while x:
            mask |= 1 << x
            x = table[x][a]
        if mask not in seen:
            seen[mask] = (a,) if a else ()
    if len(seen) > max_subgroups:
        raise LatticeTooLarge(f"more than {max_subgroups} subgroups")
    work = list(seen.items())
    i = 0
    full_mask = (1 << n) - 1
    while i < len(work):
        mask, gens = work[i]
        i += 1
        if mask == full_mask:
            continue
        members = _mask_members(mask)
        covered = bytearray(n)
        for h in members:
            covered[h] = 1
        for x in range(1, n):
            if covered[x]:
                continue
            # elements of the coset H*x all generate the same extension
            for h in members:
                covered[table[h][x]] = 1
            new_gens = gens + (x,)
            new_mask = generated_mask(group, new_gens, seed_mask=mask)
            if new_mask not in seen:
                seen[new_mask] = new_gens
                if len(seen) > max_subgroups:
                    raise LatticeTooLarge(f"more than {max_subgroups} subgroups")
                work.append((new_mask, new_gens))
    return [Subgroup(mask, gens) for mask, gens in seen.items()]


def _elementary_abelian_rank(group: Group) -> tuple[int, int] | None:
    """(p, k) when the group is elementary abelian of rank k >= 2, else None.

    Exponent p alone is not enough for p >= 3 (there are nonabelian groups
    of exponent p), so the abelian check is required; it runs second because
    the exponent scan is cheaper and usually rejects first.
    """
    fact = factorize(group.order)
    if len(fact) != 1:
        return None
    (p, k), = fact.items()
    if k < 2:
        return None
    table = group.table
    for a in range(1, group.order):
        x = a
        for _ in range(p - 1):
            x = table[x][a]
        if x != 0:
            return None
    return (p, k) if group.is_abelian else None


def _enumerate_elementary_abelian(group: Group, p: int, k: int, max_subgroups: int) -> list[Subgroup]:
    total = sum(gaussian_subgroup_count(k, p, i) for i in range(k + 1))
    if total > max_subgroups:
        raise LatticeTooLarge(f"{total} subgroups exceed the cap {max_subgroups}")
    table = group.table
    # greedy basis: every element outside the current span is independent
    basis: list[int] = []
    span = [0]
    span_mask = 1
    for a in range(1, group.order):
        if span_mask >> a & 1:
            continue
        basis.append(a)
        grown = list(span)
        cur = span
        for _ in range(p - 1):
            cur = [table[x][a] for x in cur]
            grown.extend(cur)
            for e in cur:
                span_mask |= 1 << e
        span = grown
    assert len(basis) == k, f"basis extraction found rank {len(basis)}, expected {k}"
    # elems[c] = element whose coordinates are the base-p digits of c
    elems = [0]
    for b in basis:
        block = list(elems)
        cur = elems
        for _ in range(p - 1):
            cur = [table[x][b] for x in cur]
            block.extend(cur)
        elems = block
    subs: list[Subgroup] = []
    powers = [p**j for j in range(k)]
    for r in range(k + 1):
        for pivots in combinations(range(k), r):
            pivot_set = set(pivots)
            free_slots = [
                (row, col)
                for row in range(r)
                for col in range(pivots[row] + 1, k)
                if col not in pivot_set
            ]
            base_rows = [powers[pivots[row]] for row in range(r)]
            for assignment in product(range(p), repeat=len(free_slots)):
                rows = list(base_rows)
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
                subs.append(Subgroup(mask, tuple(elems[rc] for rc in rows)))
    assert len(subs) == total
    return subs


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def conjugate_subgroup(group: Group, sub: Subgroup, x: int) -> Subgroup:
    """The conjugate x * H * x^-1."""
    return Subgroup(conjugate_mask(group, sub.mask, x))


def is_normal(group: Group, sub: Subgroup) -> bool:
    """True when x * H * x^-1 == H for every x.

    Conjugation stability under a generating set of the parent suffices:
    the normalizer is a subgroup, so containing the generators means it is
    the whole group.
    """
    return all(conjugate_mask(group, sub.mask, x) == sub.mask for x in group.generating_set())


def conjugates(group: Group, sub: Subgroup) -> list[Subgroup]:
    """All distinct conjugates of ``sub``, canonically sorted."""
    seen = {sub.mask: sub}
    frontier = [sub]
    while frontier:
        nxt = []
        for h in frontier:
            for x in group.generating_set():
                c = conjugate_subgroup(group, h, x)
                if c.mask not in seen:
                    seen[c.mask] = c
                    nxt.append(c)
        frontier = nxt
    return sorted(seen.values(), key=lambda s: s.mask)


def normalizer(group: Group, sub: Subgroup) -> Subgroup:
    """The largest subgroup in which ``sub`` is normal."""
    mask = 0
    for x in range(group.order):
        if conjugate_mask(group, sub.mask, x) == sub.mask:
            mask |= 1 << x
    return Subgroup(mask)


def maximal_subgroups(lat: Lattice) -> list[Subgroup]:
    """Proper subgroups with nothing strictly between them and the group.

    Scans subgroups by descending order and keeps those contained in no
    previously kept subgroup; every maximal overgroup has strictly larger
    order, so it has already been seen when its subgroups are tested.
    The result is cached on the lattice.
    """
    if lat._maximals is not None:
        return lat._maximals
    n = lat.group.order
    maximals: list[Subgroup] = []
    for sub in sorted(lat.subgroups, key=lambda s: -s.order):
        if sub.order == n:
            continue
        if not any(m.contains_subgroup(sub) for m in maximals):
            maximals.append(sub)
    maximals.sort(key=lambda s: (s.order, s.mask))
    lat._maximals = maximals
    return maximals


def frattini(lat: Lattice) -> Subgroup:
    """Intersection of all maximal subgroups (the whole group if none exist)."""
    maximals = maximal_subgroups(lat)
    if not maximals:
        return Subgroup(lat.full.mask)
    mask = maximals[0].mask
    for m in maximals[1:]:
        mask &= m.mask
    return Subgroup(mask)


def frattini_rank(group: Group, lat: Lattice) -> int:
    """Rank k with |G / Phi(G)| = p^k, for a p-group G."""
    p = group.p_group_prime()
    if p is None:
        raise NotAPGroup(f"{group.label} has order {group.order}, not a prime power")
    quotient_order = group.order // frattini(lat).order
    k = 0
    while quotient_order > 1:
        assert quotient_order % p == 0
        quotient_order //= p
        k += 1
    if not group.is_cyclic:
        assert k >= 2, "non-cyclic p-group must need at least two generators"
    return k


def sylow_decomposition(group: Group, lat: Lattice) -> list[Subgroup] | None:
    """One normal Sylow subgroup per prime, or None when some prime has no
    normal Sylow subgroup (the group is then not nilpotent)."""
    out: list[Subgroup] = []
    for p, a in sorted(factorize(group.order).items()):
        target = p**a
        normal = [s for s in lat.subgroups_of_order(target) if is_normal(group, s)]
        if not normal:
            return None
        assert len(normal) == 1, f"multiple normal subgroups of Sylow order {target}"
        out.append(normal[0])
    assert math.prod(s.order for s in out) == group.order
    return out


def all_maximals_normal(group: Group, lat: Lattice) -> bool:
    return all(is_normal(group, m) for m in maximal_subgroups(lat))


def is_nilpotent(group: Group, lat: Lattice) -> bool:
    """True when every maximal subgroup is normal.

    Cross-checked against the equivalent criterion that every Sylow subgroup
    is normal; disagreement would mean an enumeration bug, so it is asserted.
    """
    by_maximals = all_maximals_normal(group, lat)
    by_sylow = sylow_decomposition(group, lat) is not None
    assert by_maximals == by_sylow, (
        f"nilpotency criteria disagree on {group.label}: "
        f"maximals-normal={by_maximals}, sylow-normal={by_sylow}"
    )
    return by_maximals


@dataclass(frozen=True)
class StructuralProfile:
    """Structure flags plus recognition of the four named target groups."""

    is_cyclic: bool
    is_abelian: bool
    is_nilpotent: bool
    is_p_group: bool
    p_group_prime: int | None
    frattini_rank: int | None
    structure: str

    @property
    def recognized_as(self) -> str:
        return RECOGNIZED_AS[self.structure]


def recognize(group: Group, lat: Lattice) -> StructuralProfile:
    """Fill all structure flags; recognition uses exact finite criteria only."""
    n = group.order
    cyclic = group.is_cyclic
    abelian = group.is_abelian
    p = group.p_group_prime()
    rank = frattini_rank(group, lat) if p is not None else None
    structure = STRUCTURE_OTHER
    if cyclic:
        structure = STRUCTURE_CYCLIC
    elif n == 4 and group.exponent() == 2:
        structure = STRUCTURE_Z2XZ2
    elif n == 9 and group.exponent() == 3:
        structure = STRUCTURE_Z3XZ3
    elif n == 6 and not abelian:
        structure = STRUCTURE_S3
    return StructuralProfile(
        is_cyclic=cyclic,
        is_abelian=abelian,
        is_nilpotent=is_nilpotent(group, lat),
        is_p_group=p is not None,
        p_group_prime=p,
        frattini_rank=rank,
        structure=structure,
    )
