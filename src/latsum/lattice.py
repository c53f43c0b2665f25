"""Complete subgroup-lattice enumeration and the structural tests built on it."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arith import factorize, gaussian_subgroup_count, is_prime
from .errors import InvariantViolation, LatsumError, LatticeTooLarge, NotAPGroup
from .groups import Group, _mask_members, conjugate_mask, generated_mask

DEFAULT_MAX_SUBGROUPS = 100_000

# Rows of one echelon pivot pattern that the subspace route builds at a
# time; the numpy temporaries of a chunk stay near a megabyte at order 256.
SUBSPACE_CHUNK_ROWS = 4096

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
    The worklist route sets it on class representatives only.  The subspace
    route keeps bare masks and makes a Subgroup, with no ``gens``, each
    time ``Lattice.subgroups`` is read, so two reads of the same position
    give equal but distinct objects.
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


class _MaskView(Sequence):
    """Read-only Subgroup sequence over a list of masks: an index or an
    iteration makes each Subgroup on demand, and a slice is a list."""

    __slots__ = ("_masks",)

    def __init__(self, masks: list[int]):
        self._masks = masks

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [Subgroup(m) for m in self._masks[i]]
        return Subgroup(self._masks[i])

    def __iter__(self):
        return map(Subgroup, self._masks)


@dataclass
class Lattice:
    """All subgroups of a group, canonically sorted by (order, mask).

    ``subgroups`` is a plain list on the worklist route and a read-only
    view over the sorted masks on the subspace route.  ``census`` maps each
    order, ascending, to its number of subgroups; ``subgroups_of_order``
    reads its block straight from the census offsets, so a lattice built
    by hand must keep ``subgroups`` canonically sorted and its census
    matching.  ``maximals`` holds the maximal subgroups in the same order,
    as ``enumerate_subgroups`` records them; a lattice built by hand may
    leave it None, and ``maximal_subgroups`` then refuses it.
    """

    group: Group
    subgroups: Sequence[Subgroup]
    census: dict[int, int]
    maximals: list[Subgroup] | None = None

    def __len__(self) -> int:
        return len(self.subgroups)

    def subgroups_of_order(self, order: int) -> list[Subgroup]:
        start = 0
        for o, count in self.census.items():
            if o == order:
                return list(self.subgroups[start : start + count])
            start += count
        return []

    @property
    def trivial(self) -> Subgroup:
        return self.subgroups[0]

    @property
    def full(self) -> Subgroup:
        return self.subgroups[-1]


def enumerate_subgroups(group: Group, max_subgroups: int = DEFAULT_MAX_SUBGROUPS) -> Lattice:
    """Enumerate every subgroup of ``group`` exactly once, and record which
    of them are maximal.

    The general route is the cyclic extension method (Neubüser 1960): seed
    a worklist with the trivial subgroup, then for a queued subgroup H and
    each element x not yet covered, find <H, x>; the extensions of the
    trivial subgroup are the cyclic subgroups <x>.  For each such x it
    powers x until a power lands in H, which gives the least k with x^k
    in H.  Then every h*x^j with j coprime to k extends H to <H, x> too,
    since <H, h*x^j> holds x^j and x^k, hence x; so the cosets Hx^j for
    those j are covered from the walked powers, with one closure for all
    of them, and neither commutativity nor normality is needed.  Only one
    subgroup per conjugacy class is queued, but its whole class is recorded
    at once: the extensions of gHg^-1 are the conjugates of the extensions
    of H, so the lattice stays complete.  A queued H is maximal exactly
    when every extension <H, x> is the whole group, and then so is every
    conjugate of H.

    In an abelian group every class is a single subgroup, and the worklist
    extends only by prime steps.  Every subgroup K > 1 has a subgroup H of
    prime index p, and then K = H u Hx u ... u Hx^(p-1) for any x in K - H.
    So when k, now the order of Hx in G/H, is prime, the walk builds the k
    cosets straight from the Cayley table, with no closure, and covers all
    of them, since every element of K - H gives the same K.  A coset Hx of
    composite order k gives no prime step, and neither does any Hx^j with
    j coprime to k, which has order k as well: these cosets are covered as
    above, and nothing more is done.  An abelian group is nilpotent, so H
    is maximal exactly when its index is prime.

    Elementary abelian groups of rank >= 2 instead take the subspace
    route, which produces the identical lattice but scales to the rank-8
    case over GF(2).  For each reduced-echelon pivot pattern over GF(p) it
    builds the subspaces of that pattern in numpy, ``SUBSPACE_CHUNK_ROWS``
    at a time, growing the spans by gathers on the Cayley table, and sorts
    each order block as it goes, so only the worklist route's result needs
    sorting.  It keeps bare masks: ``subgroups`` is a read-only view that
    makes each Subgroup when it is read, and the census is the length of
    each order block.  Its maximal subgroups are the order-|G|/p block,
    the hyperplanes.  The two routes are cross-checked in the test suite.

    On the worklist route only class representatives keep ``gens``; the
    other subgroups, and every subgroup from the subspace route, carry
    None.  Raises LatticeTooLarge when the subgroup count exceeds
    ``max_subgroups``; the subspace route checks its closed-form count
    before it allocates anything.  Raises InvariantViolation when some
    order does not divide |G| (both routes), and on the subspace route
    when a row of a block does not have p^r elements or an order block
    does not hold the closed-form number of subspaces.
    """
    rank = _elementary_abelian_rank(group)
    if rank is not None:
        masks, census, maximals = _enumerate_elementary_abelian(group, *rank, max_subgroups)
        subs = _MaskView(masks)
    else:
        subs, maximals = _enumerate_worklist(group, max_subgroups)
        subs.sort(key=_canonical)
        maximals.sort(key=_canonical)
        census = dict(sorted(Counter(s.order for s in subs).items()))
    if any(group.order % order for order in census):
        raise InvariantViolation(f"Lagrange violated on {group.label}: census {census}")
    return Lattice(group=group, subgroups=subs, census=census, maximals=maximals)


def _canonical(sub: Subgroup) -> tuple[int, int]:
    return (sub.order, sub.mask)


def _enumerate_worklist(group: Group, max_subgroups: int) -> tuple[list[Subgroup], list[Subgroup]]:
    """(every subgroup, the maximal subgroups), extending one subgroup per
    class by one power walk per uncovered element."""
    table = group.table
    n = group.order
    full_mask = (1 << n) - 1
    abelian = group.is_abelian
    seen: dict[int, Subgroup] = {}
    work: list[tuple[Subgroup, list[Subgroup]]] = []

    def add_class(sub: Subgroup, orbit: list[Subgroup]) -> None:
        # seen stays closed under conjugation, so the whole class is new;
        # the orbit holds sub itself, the one member that keeps its gens
        for c in orbit:
            seen[c.mask] = c
        if len(seen) > max_subgroups:
            raise LatticeTooLarge(f"more than {max_subgroups} subgroups")
        work.append((sub, orbit))

    trivial = Subgroup(1, ())
    add_class(trivial, [trivial])
    maximals: list[Subgroup] = []
    for sub, orbit in work:  # also visits the classes appended below
        if sub.mask == full_mask:
            continue
        members = sub.members()
        covered = bytearray(n)
        for h in members:
            covered[h] = 1
        in_sub = bytes(covered)
        # an abelian G is nilpotent, so H is maximal exactly when its index is prime
        maximal = is_prime(n // sub.order) if abelian else True
        for x in range(1, n):
            if covered[x]:
                continue
            # x^k is the least power of x in H; powers[j - 1] is x^j
            powers, y = [x], table[x][x]
            while not in_sub[y]:
                powers.append(y)
                y = table[y][x]
            k = len(powers) + 1
            if abelian and is_prime(k):
                # K = H u Hx u ... u Hx^(k-1); every y in K - H extends H to K
                coset = [table[h][x] for h in members]
                mask = sub.mask
                for _ in range(k - 1):
                    for c in coset:
                        covered[c] = 1
                        mask |= 1 << c
                    coset = [table[c][x] for c in coset]
                if mask not in seen:
                    new = Subgroup(mask, sub.gens + (x,))
                    add_class(new, [new])
                continue
            # x^k lies in H, so for j coprime to k every h*x^j extends H to
            # <H, x>; in an abelian group Hx^j has order k, and gives no prime step
            for j, xj in enumerate(powers, 1):
                if math.gcd(j, k) == 1:
                    for h in members:
                        covered[table[h][xj]] = 1
            if abelian:
                continue
            new_gens = sub.gens + (x,)
            new_mask = generated_mask(group, new_gens, seed_mask=sub.mask)
            if new_mask not in seen:
                new = Subgroup(new_mask, new_gens)
                add_class(new, conjugates(group, new))
            if new_mask != full_mask:
                maximal = False
        if maximal:
            maximals.extend(orbit)
    return list(seen.values()), maximals


def _elementary_abelian_rank(group: Group) -> tuple[int, int] | None:
    """(p, k) when the group is elementary abelian of rank k >= 2, else None.

    Exponent p alone is not enough for p >= 3 (there are nonabelian groups
    of exponent p), so the abelian check is required; it runs second because
    the exponent reads the cached element orders, which ``recognize`` needs
    anyway, and usually rejects first.
    """
    fact = factorize(group.order)
    if len(fact) != 1:
        return None
    (p, k), = fact.items()
    if k < 2 or group.exponent() != p:
        return None
    return (p, k) if group.is_abelian else None


def _enumerate_elementary_abelian(
    group: Group, p: int, k: int, max_subgroups: int
) -> tuple[list[int], dict[int, int], list[Subgroup]]:
    """(every subspace's mask in (order, mask) order, the census, the
    hyperplanes), built in numpy row chunks per echelon pivot pattern."""
    counts = [gaussian_subgroup_count(k, p, r) for r in range(k + 1)]
    total = sum(counts)
    if total > max_subgroups:
        raise LatticeTooLarge(f"{total} subgroups exceed the cap {max_subgroups}")
    table = group.table
    # greedy basis: every element outside the current span is independent;
    # elems[c] is the element whose coordinates are the base-p digits of c
    basis: list[int] = []
    elems = [0]
    span_mask = 1
    for a in range(1, group.order):
        if span_mask >> a & 1:
            continue
        basis.append(a)
        grown = list(elems)
        cur = elems
        for _ in range(p - 1):
            cur = [table[x][a] for x in cur]
            grown.extend(cur)
            for e in cur:
                span_mask |= 1 << e
        elems = grown
    if len(basis) != k:
        raise InvariantViolation(f"basis extraction found rank {len(basis)}, expected {k}")
    cayley, coords = np.asarray(table), np.asarray(elems)
    nbytes = -(-group.order // 8)  # packbits pads each row to whole bytes
    masks: list[int] = []
    census: dict[int, int] = {}
    maximals: list[Subgroup] = []
    for r in range(k + 1):
        block: list[int] = []
        for pivots in combinations(range(k), r):
            free = [(row, col) for row in range(r) for col in range(pivots[row] + 1, k) if col not in pivots]
            pivot_codes = np.array([p**c for c in pivots], dtype=np.intp)
            rows = p ** len(free)
            for lo in range(0, rows, SUBSPACE_CHUNK_ROWS):
                # one row of echelon codes per assignment of the free slots
                index = np.arange(lo, min(lo + SUBSPACE_CHUNK_ROWS, rows))
                codes = np.tile(pivot_codes, (len(index), 1))
                for j, (row, col) in enumerate(free):
                    codes[:, row] += index // p**j % p * p**col
                span = np.zeros((len(index), 1), dtype=np.intp)
                for v in coords[codes].T:  # the span grows p-fold per basis row
                    parts = [span]
                    for _ in range(p - 1):
                        parts.append(cayley[parts[-1], v[:, None]])
                    span = np.concatenate(parts, axis=1)
                # packbits reads each row big-endian, so bit e of a mask is the e-th column from the right
                bits = np.zeros((len(index), 8 * nbytes), dtype=bool)
                np.put_along_axis(bits, 8 * nbytes - 1 - span, True, axis=1)
                # r independent rows span p^r distinct elements
                if (np.count_nonzero(bits, axis=1) != p**r).any():
                    raise InvariantViolation(f"a subspace of rank {r} in {group.label} does not have {p**r} elements")
                raw = np.packbits(bits, axis=1).tobytes()
                block += [int.from_bytes(raw[i : i + nbytes], "big") for i in range(0, len(raw), nbytes)]
        if len(block) != counts[r]:
            raise InvariantViolation(
                f"subspace route found {len(block)} subgroups of order {p**r}, expected {counts[r]}"
            )
        block.sort()
        census[p**r] = len(block)
        masks += block
        if r == k - 1:
            maximals = [Subgroup(m) for m in block]
    return masks, census, maximals


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


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
    frontier = [sub.mask]
    while frontier:
        nxt = []
        for h in frontier:
            for x in group.generating_set():
                c = conjugate_mask(group, h, x)
                if c not in seen:
                    seen[c] = Subgroup(c)
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
    """Proper subgroups with nothing strictly between them and the group,
    sorted by (order, mask), as ``enumerate_subgroups`` recorded them.

    Raises LatsumError on a lattice that carries no recorded maximals.
    """
    if lat.maximals is None:
        raise LatsumError(
            f"the lattice of {lat.group.label} has no recorded maximal subgroups; "
            "build it with enumerate_subgroups"
        )
    return lat.maximals


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
        if quotient_order % p:
            raise InvariantViolation(f"|G/Phi(G)| of {group.label} is not a power of {p}")
        quotient_order //= p
        k += 1
    if k < 2 and not group.is_cyclic:
        raise InvariantViolation(f"non-cyclic p-group {group.label} has Frattini rank {k}, expected >= 2")
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
        if len(normal) > 1:
            raise InvariantViolation(f"{group.label} has {len(normal)} normal subgroups of Sylow order {target}")
        out.append(normal[0])
    if math.prod(s.order for s in out) != group.order:
        raise InvariantViolation(f"the Sylow orders of {group.label} do not multiply to {group.order}")
    return out


def all_maximals_normal(group: Group, lat: Lattice) -> bool:
    return all(is_normal(group, m) for m in maximal_subgroups(lat))


def nilpotent_by_element_orders(group: Group) -> bool:
    """True when, for each prime p with p-part p^a of |G|, exactly p^a
    elements have order dividing p^a.

    Every p-element lies in some Sylow p-subgroup, so the count is p^a
    exactly when there is one Sylow p-subgroup, which is then normal.  This
    reads only the cached element orders, never the lattice.
    """
    orders = group.element_orders()
    return all(sum(p**a % o == 0 for o in orders) == p**a for p, a in factorize(group.order).items())


def is_nilpotent(group: Group, lat: Lattice) -> bool:
    """True when every maximal subgroup is normal.

    Cross-checked against two equivalent criteria: every Sylow subgroup is
    normal, and the p-element counts of ``nilpotent_by_element_orders``,
    the one that does not read the enumerated lattice.  Disagreement would
    mean an enumeration bug, so it raises InvariantViolation.
    """
    by_maximals = all_maximals_normal(group, lat)
    by_sylow = sylow_decomposition(group, lat) is not None
    by_orders = nilpotent_by_element_orders(group)
    if not by_maximals == by_sylow == by_orders:
        raise InvariantViolation(
            f"nilpotency criteria disagree on {group.label}: "
            f"maximals-normal={by_maximals}, sylow-normal={by_sylow}, p-element-counts={by_orders}"
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
