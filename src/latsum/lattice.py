"""Complete subgroup-lattice enumeration and the structural tests built on it."""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate, combinations, product
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .arith import factorize, gaussian_subgroup_count, is_prime
from .errors import InvariantViolation, LatsumError, LatticeTooLarge, NotAPGroup
from .groups import Group, _mask_members, generated_mask, is_normal

DEFAULT_MAX_SUBGROUPS = 100_000


class Subgroup:
    """Subgroup of a fixed parent group, stored as a membership bitmask.

    Bit a of ``mask`` is set exactly when element a belongs to the subgroup.
    Unless G is its own one part and the worklist enumerates it,
    ``Lattice.subgroups`` makes a Subgroup each time it is read, so two
    reads of the same position give equal but distinct objects, and checks
    its ``order`` against its block's (see ``_SubgroupView``).
    """

    __slots__ = ("mask", "order")

    def __init__(self, mask: int):
        self.mask = mask
        self.order = mask.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and other.mask == self.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order})"

    def members(self) -> list[int]:
        return _mask_members(self.mask)


class _SubgroupView(Sequence):
    """Subgroup sequence over masks that are made when they are read, in
    blocks of rows.  ``blocks[r]`` is (order, offsets, patterns), the shape
    ``_subspace_plan`` gives: every row of block r has ``order`` elements,
    and ``offsets`` holds where each pattern's rows start in the block, and
    then the block's number of rows.  A pattern holds one sequence per
    position, and its rows pick one entry of each, in ``itertools.product``
    order (the last position fastest); ``make(picks)`` returns a row's
    mask.

    The view is the one reader of every lazily made row, and it checks
    each one: it makes the row's Subgroup, which counts the row's bits
    once, and raises InvariantViolation, naming the order, ``label`` and
    the count, when the count is not the block's order, before any reader
    sees the row.  An index (a negative one counts from the end) or a slice
    finds each row's block and pattern by bisection; an iteration walks the
    blocks and patterns in order.  Each read makes a new Subgroup, the view
    keeps none, and a slice is a list."""

    __slots__ = ("_blocks", "_label", "_make", "_starts")

    def __init__(self, blocks: Sequence[tuple], make: Callable[[Sequence], int], label: str):
        self._blocks, self._make, self._label = blocks, make, label
        self._starts = list(accumulate((offsets[-1] for _, offsets, _ in blocks), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def _wrong_size(self, order: int, sub: Subgroup) -> InvariantViolation:
        return InvariantViolation(f"a subgroup of order {order} in {self._label} was made with {sub.order} elements")

    def _row(self, i: int) -> Subgroup:
        r = bisect_right(self._starts, i) - 1
        order, offsets, patterns = self._blocks[r]
        j = i - self._starts[r]
        a = bisect_right(offsets, j) - 1
        j, n = j - offsets[a], offsets[a + 1] - offsets[a]
        picks = []
        for entries in patterns[a]:  # digits from the most significant
            n //= len(entries)
            digit, j = divmod(j, n)
            picks.append(entries[digit])
        sub = Subgroup(self._make(picks))
        if sub.order != order:
            raise self._wrong_size(order, sub)
        return sub

    def __getitem__(self, i):
        indices = range(len(self))[i]
        if isinstance(i, slice):
            return [self._row(j) for j in indices]
        return self._row(indices)

    def __iter__(self):
        make = self._make
        for order, _, patterns in self._blocks:
            for pattern in patterns:
                for picks in product(*pattern):
                    sub = Subgroup(make(picks))
                    if sub.order != order:
                        raise self._wrong_size(order, sub)
                    yield sub


@dataclass
class Lattice:
    """All subgroups of a group, in blocks of ascending order.

    ``census`` maps each order, ascending, to its number of subgroups, and
    ``subgroups`` holds one block per census entry, in census order, each
    as long as its count; ``subgroups_of_order`` reads its block straight
    from the census offsets, so a lattice built by hand must keep its
    blocks matching its census.  Inside a block, subgroups keep the
    deterministic order in which enumeration found them; no reader may
    assume more.  ``subgroups`` is a plain list when G is its own one part
    and the worklist enumerates it.  Otherwise it is a view of blocks of
    rows, each made each time it is read and kept by no one: the subspace
    kernel's order blocks, or, with several parts, one block per order of
    G made from the parts' blocks.  Enumeration builds only the maximals'
    masks, which for a part on the subspace kernel are the kernels' masks
    its rows are made from.  The view checks every row it makes against
    its block's order, before any reader sees it.
    ``maximals`` holds the maximal subgroups as ``enumerate_subgroups``
    records them; a lattice built by hand may leave it None, and
    ``maximal_subgroups`` then refuses it.
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


def enumerate_subgroups(group: Group, max_subgroups: int = DEFAULT_MAX_SUBGROUPS) -> Lattice:
    """Enumerate every subgroup of ``group`` exactly once, and record which
    of them are maximal.

    Every group takes one pipeline: split G into parts, enumerate each part
    with one kernel, and combine the parts' lattices into G's.

    Parts (``_parts``).  Let p^a be the p-part of |G|.  The Sylow
    p-subgroup P is a direct factor exactly when p^a elements have order
    dividing p^a, so that P is the only Sylow p-subgroup and normal, and
    |G|/p^a elements have order prime to p.  For then P has a complement K
    (Schur-Zassenhaus), every element of K has order prime to p, so those
    |G|/p^a elements are K; K is a union of conjugacy classes, so it is
    normal, and two normal subgroups that meet in 1 commute, so G = P x K.
    ``_split_primes`` reads both counts from the element orders alone,
    when |G| has two or more primes.  The parts are each such P and one
    rest part, the elements whose order divides the product of the
    p-parts of the primes that do not split, which is then the
    intersection of the complements K and so a subgroup; a nilpotent
    group, where every Sylow subgroup splits, has no rest part.  G is the
    only part when no Sylow subgroup splits: a p-group, S3, S4, a dihedral
    group that is not a 2-group, or a direct product of Hall subgroups
    that are not Sylow subgroups, such as S3 x (C11 : C5), for which no
    count of element orders is known to make its parts subgroups.

    Kernels (``_enumerate_part``).  A part that is elementary abelian
    of rank >= 2 takes the subspace kernel, and every other part takes the
    worklist.  Either kernel reads only the part's members, with the part
    in place of G.

    The worklist is the cyclic extension method (Neubüser 1960): seed
    a worklist with the trivial subgroup, then for a queued subgroup H and
    each element x not yet covered, extend H by x.  Every group takes one
    walk per such x: it powers x until a power lands in H, which gives the
    least k with x^k in H, and covers the cells h*x^j for every h in H and
    every j coprime to k.  Each cell extends H to <H, x> too, since
    <H, h*x^j> holds x^j and x^k, hence x.  When k is prime and x
    normalizes H, <H, x> = H u Hx u ... u Hx^(k-1) and every j < k is
    coprime to k, so the cells are exactly <H, x> - H: the walk takes a
    prime step to H's mask with the cells set, with no closure.  Only one
    subgroup per conjugacy class is queued, but its whole class is
    recorded at once: the extensions of gHg^-1 are the conjugates of the
    extensions of H, so the lattice stays complete.

    Prime steps find every subgroup of a solvable group.  A subgroup K > 1
    of a solvable group is solvable, so it has a normal subgroup H of
    prime index p, found by induction on |K|; conjugate K so that H is
    its class's queued subgroup.  Every x in K - H normalizes H and has
    x^p in H, so x either is walked uncovered and steps to K, or was
    covered as a cell h*y^j of an earlier walk.  Then y^j = h^-1 x and
    y^k, hence y, normalize H, y has the same order p as x modulo H, and
    the step from y found <H, y> = <H, x> = K.  Every step is a normal extension of prime
    index, so the steps reach G exactly when G is solvable: reaching G is
    the solvability test.  In an abelian group every subgroup is normal,
    so the normalizer test is skipped, and every class is one subgroup.
    A step from H that reaches G makes H normal of prime index, so
    maximal, and a step to some K < G shows it is not.  If H takes no
    step, it is self-normalizing: were H < N_G(H), then N_G(H)/H would
    have an element yH of prime order (Cauchy), and y, or the y of the
    walk that covered it, would step, as above.  Its class is then maximal
    exactly when no subgroup found, other than G, contains H and is larger,
    one AND per subgroup once the walk is done.

    When the steps do not reach G, G is not solvable, and the walk runs
    again as the fallback, with a closure for <H, x> for every uncovered
    x, as in S5 and A5; then H is maximal when every extension found from
    it is G.  A group whose order is odd (Feit-Thompson) or has at most
    two primes (Burnside's p^a q^b theorem) is solvable, so the steps must
    reach it.

    The subspace kernel finds the same subgroups of an elementary abelian
    part, but scales to the rank-8 case over GF(2).  A rank-r subspace is
    the intersection of the kernels of a basis of its annihilator, a
    rank-(k - r) subspace of the dual, so each row of order block r is the
    AND of the kernels of the rows of one reduced echelon form of rank
    k - r, in the parent's bits.  The kernels are the hyperplanes, the
    maximal subgroups, and the only masks enumeration builds; the census
    is the closed-form count of each order block, and every row is made
    from the kernels when it is read and kept by no one (see
    ``_enumerate_elementary_abelian`` and ``_SubgroupView``).

    Combine (``_combine``).  With one part, G's lattice is that part's
    own.  Every subgroup H of a direct product of factors of coprime orders
    is the product of its intersections with the factors, since the
    component of each h in H in a factor is a power of h.  So each tuple
    (A_1, ..., A_r) with A_i a subgroup of part i gives the subgroup
    A_1...A_r, of order |A_1|...|A_r|; one of them is maximal exactly when
    one A_i is maximal in its part and every other A_j is its whole part.
    As the parts' orders are coprime, each order d of G is a product of
    one census order d_i per part in one way only, so G's block of order d
    is the product of the parts' blocks of orders d_i, and its count the
    product of theirs: the census and the blocks come from the parts'
    censuses, and no tuple is listed.  The maximals' masks are made at
    once, and ``subgroups`` is a view that keeps the parts' lattices and
    makes a product's mask only when it is read.  Walking one part at a
    time costs about |P_i| steps per subgroup of part i, where the
    worklist on the whole group costs about |G| per subgroup of G.
    The kernels and the split are cross-checked in the test suite.

    Inside each order block (see ``Lattice``) a part's subgroups come in
    discovery order from the worklist and in pivot-pattern order from the
    subspace kernel; with several parts, the tuples of a block come in
    the order of the parts' own blocks, the parts in the order of their
    smallest primes and the last part varying fastest.  The maximals come
    in the order they were recorded: by part, then in the order of the
    part's own maximals.

    Raises LatticeTooLarge when the subgroup count exceeds
    ``max_subgroups``: a part's, which the subspace kernel checks on its
    closed-form count before it allocates anything, or the product of the
    parts' counts, checked before any block is made.  Raises
    InvariantViolation when some order does not divide |G|; when the
    elements of order dividing the order q of a part are not q in number,
    or, in a group with a rest part, when the elements of order dividing
    p^a of a split prime p do not commute with those of order prime to p;
    in the worklist when the prime steps do not reach a part whose order
    is odd or has at most two primes; in the subspace kernel when the
    rows planned for an order block are not its closed-form number of
    subspaces (checked on every call, before any mask is built), or when
    a hyperplane does not have p^(k-1) bits set; and when a row that the
    view makes on read, a subspace or a product, does not have its block's
    order (checked on every row each time a read makes it, before it is
    returned).
    """
    parts = [_enumerate_part(group, members, max_subgroups) for members in _parts(group)]
    subs, census, maximals = _combine(group, parts, max_subgroups)
    if any(group.order % order for order in census):
        raise InvariantViolation(f"Lagrange violated on {group.label}: census {census}")
    return Lattice(group=group, subgroups=subs, census=census, maximals=maximals)


class _Part(NamedTuple):
    """One part's lattice, as its kernel enumerated it: ``subgroups`` in
    census order, so the whole part comes last and, inside each block, in
    the order the kernel found them; ``census``; and the maximal subgroups
    in the order the kernel recorded them."""

    subgroups: Sequence[Subgroup]
    census: dict[int, int]
    maximals: list[Subgroup]


def _parts(group: Group) -> list[Sequence[int]]:
    """The ascending member list of each part of G (see
    ``enumerate_subgroups``), the parts in the order of their smallest
    primes; ``range(|G|)`` alone when no Sylow subgroup splits."""
    split = _split_primes(group)
    if not split:
        return [range(group.order)]
    n, fact = group.order, factorize(group.order)  # ascending primes
    rest = n // math.prod(p ** fact[p] for p in split)
    arr, orders = group.array, np.array(group.element_orders())
    if rest > 1:
        # not nilpotent: each split Sylow p-subgroup must commute with its
        # complement, the elements of order prime to p
        for p in split:
            sylow, others = np.flatnonzero(p ** fact[p] % orders == 0), np.flatnonzero(orders % p)
            if not np.array_equal(arr[sylow[:, None], others], arr[others[:, None], sylow].T):
                raise InvariantViolation(
                    f"{group.label}: its {len(sylow)} elements of order dividing {p ** fact[p]} do not commute "
                    f"with its {len(others)} elements of order prime to {p}"
                )
    # part q holds the elements of order dividing q; the rest part comes
    # once, at its smallest prime
    parts = []
    for q in dict.fromkeys(p**a if p in split else rest for p, a in fact.items()):
        members = np.flatnonzero(q % orders == 0).tolist()
        if len(members) != q:
            raise InvariantViolation(f"{group.label} has {len(members)} elements of order dividing {q}, not {q}")
        parts.append(members)
    return parts


def _split_primes(group: Group) -> list[int]:
    """The primes p, ascending, whose Sylow p-subgroup is a direct factor
    of G, when |G| has two or more primes; else [].  Read from the counts
    of element orders alone (see ``enumerate_subgroups``)."""
    n = group.order
    fact = factorize(n)
    if len(fact) < 2:
        return []
    return [
        p
        for p, a in fact.items()
        if _count_dividing(group, p**a) == p**a and _count_dividing(group, n // p**a) == n // p**a
    ]


def _count_dividing(group: Group, q: int) -> int:
    """The number of elements of ``group`` whose order divides q."""
    return sum(c for d, c in group.order_counts().items() if q % d == 0)


def _enumerate_part(group: Group, members: Sequence[int], max_subgroups: int) -> _Part:
    """The lattice of the part of G with the ascending ``members``, by the
    subspace kernel when the part, of order p^k, is elementary abelian of
    rank k >= 2, else by the worklist.

    The exponent is read from the element orders: a part of prime-power
    order is G itself or its only Sylow p-subgroup, so it holds every
    element of G of order p, and it has exponent p exactly when G has
    p^k - 1 of them.  Exponent p alone is not enough for p >= 3 (there are
    nonabelian groups of exponent p), so the abelian check is required; it
    runs second because the exponent reads the cached counts of element
    orders, which ``recognize`` needs anyway, and usually rejects first.
    A part of an abelian G is abelian; in any other G its members must
    commute, one gather from ``Group.array`` against its transpose.
    """
    fact = factorize(len(members))
    if len(fact) == 1 and max(fact.values()) >= 2 and group.order_counts()[min(fact)] == len(members) - 1:
        (p, k), = fact.items()
        square = None if group.is_abelian else group.array[np.ix_(members, members)]
        if square is None or np.array_equal(square, square.T):
            return _enumerate_elementary_abelian(group, members, p, k, max_subgroups)
    return _enumerate_worklist(group, members, max_subgroups)


def _mask_of(group: Group, members: Sequence[int]) -> int:
    """The mask of a part: every bit below |G| when the part is G."""
    return (1 << group.order) - 1 if len(members) == group.order else sum(1 << x for x in members)


def _enumerate_worklist(group: Group, members: Sequence[int], max_subgroups: int) -> _Part:
    """The lattice of the part with the ascending ``members``, by the walk
    of ``enumerate_subgroups``: one subgroup H per class, one walk per
    uncovered x, and a prime step to <H, x> when the least k with x^k in H
    is prime and x normalizes H, tested as x*g*x^-1 in H for each
    generator g that the queue entry carries.  When the steps miss the
    whole part, it is not solvable, and the walk runs again with one
    closure per uncovered x; a miss on an order that is odd or has at most
    two primes raises InvariantViolation instead.  A part T that is a
    direct factor of G has the same subgroups and classes under G as
    under T, so T takes the place of G."""
    full_mask = _mask_of(group, members)
    seen, classes = _walk(group, max_subgroups, full_mask, members[1:], closures=False)
    if full_mask not in seen:
        order = len(members)
        if order % 2 or len(factorize(order)) < 3:
            raise InvariantViolation(
                f"prime steps did not reach the whole {'group' if order == group.order else 'part'} of order {order} "
                f"in {group.label}, which is solvable"
            )
        seen, classes = _walk(group, max_subgroups, full_mask, members[1:], closures=True)
    maximals: list[Subgroup] = []
    for h, orbit, maximal in classes:
        if maximal is None:  # self-normalizing: does a larger proper subgroup contain it?
            maximal = not any(m & h == h and m not in (h, full_mask) for m in seen)
        if maximal:
            maximals.extend(orbit)
    # the sort is stable, so each block keeps the order the walk found it in
    subs, census = sorted(seen.values(), key=attrgetter("order")), {}
    for s in subs:
        census[s.order] = census.get(s.order, 0) + 1
    return _Part(subs, census, maximals)


def _walk(
    group: Group, max_subgroups: int, full_mask: int, elements: Sequence[int], closures: bool
) -> tuple[dict[int, Subgroup], list[tuple[int, list[Subgroup], bool | None]]]:
    """(every subgroup found by mask, each class as (its representative's
    mask, the class, whether it is maximal or None when it took no step)),
    in work order, for ``_enumerate_worklist``: by prime steps or, with
    ``closures``, by one closure per uncovered x."""
    table, inverse, abelian = group.table, group.inverse, group.is_abelian
    seen: dict[int, Subgroup] = {}
    work: list[tuple[Subgroup, tuple[int, ...], list[Subgroup]]] = []
    classes: list[tuple[int, list[Subgroup], bool | None]] = []

    def add_class(sub: Subgroup, gens: tuple[int, ...], orbit: list[Subgroup]) -> None:
        # seen stays closed under conjugation, so the whole class is new
        for c in orbit:
            seen[c.mask] = c
        if len(seen) > max_subgroups:
            raise LatticeTooLarge(f"more than {max_subgroups} subgroups")
        work.append((sub, gens, orbit))

    trivial = Subgroup(1)
    add_class(trivial, (), [trivial])
    for sub, gens, orbit in work:  # also visits the classes appended below
        if sub.mask == full_mask:
            continue
        members = sub.members()
        covered = bytearray(group.order)
        for h in members:
            covered[h] = 1
        in_sub = bytes(covered)
        maximal = None  # until H takes a step or a closure
        for x in elements:
            if covered[x]:
                continue
            # x^k is the least power of x in H; powers[j - 1] is x^j
            powers, y = [x], table[x][x]
            while not in_sub[y]:
                powers.append(y)
                y = table[y][x]
            k = len(powers) + 1
            # x^k lies in H, so for j coprime to k every h*x^j extends H to <H, x>
            cells = [table[h][xj] for j, xj in enumerate(powers, 1) if math.gcd(j, k) == 1 for h in members]
            for c in cells:
                covered[c] = 1
            if closures:
                new_mask = generated_mask(group, gens + (x,), seed_mask=sub.mask)
            elif is_prime(k) and (abelian or all(in_sub[table[table[x][g]][inverse[x]]] for g in gens)):
                # x normalizes H, so <H, x> is H u Hx u ... u Hx^(k-1), and
                # every j < k is coprime to k: the cells are <H, x> - H
                new_mask = sub.mask | sum(1 << c for c in cells)
            else:
                continue
            if new_mask not in seen:
                new = Subgroup(new_mask)
                add_class(new, gens + (x,), [new] if abelian else conjugates(group, new))
            maximal = maximal is not False and new_mask == full_mask
        classes.append((sub.mask, orbit, maximal))
    return seen, classes


def _combine(
    group: Group, parts: list[_Part], max_subgroups: int
) -> tuple[Sequence[Subgroup], dict[int, int], list[Subgroup]]:
    """(every subgroup, the census, the maximal subgroups) of G from its
    parts' lattices: the one part's own when there is one, else the
    products A_1...A_r of one subgroup A_i of each part (see
    ``enumerate_subgroups``).  The parts' orders are coprime, so each order
    d of G is a product of one census order per part in one way only, and
    G's block of order d is the product of those parts' blocks: one
    pattern whose position j is part j's index range.  The census and the
    blocks come from the parts' censuses alone.  The view keeps the parts'
    lattices and builds the mask of a product only when it is read,
    reading each part's subgroup and listing its members at most once per
    lattice; the maximals' masks are built at once."""
    if len(parts) == 1:
        return parts[0].subgroups, parts[0].census, parts[0].maximals
    total = math.prod(len(part.subgroups) for part in parts)
    if total > max_subgroups:
        raise LatticeTooLarge(f"{total} subgroups exceed the cap {max_subgroups}")
    # (order d, count, pattern): the pattern holds the index ranges of the
    # parts' blocks whose orders multiply to d, part by part
    blocks = [(1, 1, ())]
    for part in parts:
        start, grown = 0, []
        for order, count in part.census.items():
            span = (range(start, start + count),)
            start += count
            grown += [(d * order, n * count, pattern + span) for d, n, pattern in blocks]
        blocks = grown
    blocks.sort()  # the orders d are distinct
    table = group.table
    # each part's subgroups read, and their members listed, once per lattice
    read_once = functools.cache(lambda j, i: parts[j].subgroups[i].mask)
    listed = functools.cache(_mask_members)

    def multiply(masks: list[int]) -> int:
        # the parts commute, so the product is that of the nontrivial
        # factors, in any order: a lone one is its own mask; otherwise its
        # members are listed factor by factor, each once, as the factors'
        # orders are coprime, so their bits add up to its mask
        nontrivial = [mask for mask in masks if mask != 1]
        if len(nontrivial) < 2:
            return nontrivial[0] if nontrivial else 1
        elements = [0]
        for mask in nontrivial:
            elements = [table[x][y] for x in elements for y in listed(mask)]
        return sum(1 << x for x in elements)

    def make(picks: Sequence[int]) -> int:
        # picks[j] is part j's subgroup; index 0 is a part's trivial
        # subgroup, which adds nothing to a product and is never read
        return multiply([read_once(j, i) for j, i in enumerate(picks) if i])

    # G is the tuple of the whole parts, and a maximal subgroup swaps one
    # part for a maximal subgroup of it, part by part
    wholes = [read_once(j, len(part.subgroups) - 1) for j, part in enumerate(parts)]
    maximals = [[*wholes[:j], m.mask, *wholes[j + 1 :]] for j, part in enumerate(parts) for m in part.maximals]
    view = _SubgroupView([(d, (0, n), (pattern,)) for d, n, pattern in blocks], make, group.label)
    return view, {d: n for d, n, _ in blocks}, [Subgroup(multiply(masks)) for masks in maximals]


@functools.cache
def _subspace_plan(p: int, k: int) -> tuple[np.ndarray, tuple[tuple[int, tuple[int, ...], tuple], ...]]:
    """(kernels, blocks): the geometry of GF(p)^k that the subspace kernel
    reads, the same for every group of rank k over GF(p), so it is worked
    out once per (p, k) and shared, read-only, by every call.

    Row i of ``kernels`` is the kernel of the i-th functional whose first
    nonzero digit is 1 (the functionals that head a row of a reduced
    echelon form), one bool per vector, vector x having the base-p digits
    of x as its coordinates; they are the hyperplanes, in block order.
    ``blocks[r]`` is (p^r, offsets, patterns) for order block r, one entry
    per pivot pattern of rank k - r, in block order: ``offsets`` holds
    where each pattern's rows start in the block, and then the block's
    number of rows, and each pattern is one tuple per pivot, the last
    pivot first, of the indices of the kernels of the rows headed at that
    pivot.  Each row of a pattern ANDs one kernel per pivot, the rows in
    ``itertools.product`` order over the tuples, so the first pivot's
    kernel varies fastest."""
    # row x: the base-p digits of x, in a dtype that holds a dot product of two rows
    digits = (np.arange(p**k)[:, None] // p ** np.arange(k) % p).astype(np.min_scalar_type(k * (p - 1) ** 2))
    forms = np.concatenate([p**c + p ** (c + 1) * np.arange(p ** (k - 1 - c)) for c in range(k)])
    kernels = digits[forms] @ digits.T % p == 0
    kernels.flags.writeable = False
    index = {form: i for i, form in enumerate(forms.tolist())}

    @functools.cache
    def headed(c: int, later: tuple[int, ...]) -> tuple[int, ...]:
        # the rows headed at c: p^c plus each free slot's (later
        # non-pivot column's) digit times p^column, the first slot fastest
        rows = [p**c]
        for col in range(c + 1, k):
            if col not in later:
                rows = [v + d * p**col for d in range(p) for v in rows]
        return tuple(index[v] for v in rows)

    blocks = []
    for r in range(k + 1):
        offsets, patterns = [0], []
        for pivots in combinations(range(k), k - r):
            patterns.append(tuple(headed(pivots[i], pivots[i + 1 :]) for i in reversed(range(k - r))))
            offsets.append(offsets[-1] + math.prod(map(len, patterns[-1])))
        blocks.append((p**r, tuple(offsets), tuple(patterns)))
    return kernels, tuple(blocks)


def _enumerate_elementary_abelian(group: Group, members: Sequence[int], p: int, k: int, max_subgroups: int) -> _Part:
    """The lattice of the elementary abelian part of order p^k with the
    ascending ``members``: a view of every subspace's mask, grouped into
    order blocks by rank, the census, and the hyperplanes.  Enumeration
    builds and checks the kernels' masks, which are the hyperplanes; every
    row is made from them when it is read: the view's blocks are the
    plan's, and its ``make`` ANDs the part's whole mask with the kernel
    mask of each pick; the view checks that the row has p^r elements.

    A rank-r subspace W of GF(p)^k is the intersection of the kernels of
    a basis of its annihilator W°, and W -> W° is a bijection onto the
    rank-(k - r) subspaces of the dual (Halmos, Finite-Dimensional Vector
    Spaces, section 17).  So block r has one row per reduced echelon form
    of rank k - r: the AND of the kernels of the form's rows, one kernel
    per pivot.  Which kernels each row ANDs depends only on (p, k) and
    comes from ``_subspace_plan``, whose rows per block are checked
    against the closed form on every call; only the kernels' masks depend
    on the part.  They hold the parent's bits, so a part's mask is G's
    mask of the same subgroup."""
    counts = [gaussian_subgroup_count(k, p, r) for r in range(k + 1)]
    total = sum(counts)
    if total > max_subgroups:
        raise LatticeTooLarge(f"{total} subgroups exceed the cap {max_subgroups}")
    kernels, blocks = _subspace_plan(p, k)
    # the plan's rows against the closed form, block by block, on every call
    for (order, offsets, _), n in zip(blocks, counts):
        if offsets[-1] != n:
            raise InvariantViolation(f"subspace kernel found {offsets[-1]} subgroups of order {order}, expected {n}")
    # the greedy basis: each member, ascending, that the span of those
    # before it does not reach, until the span has p^k elements (for G
    # itself, the basis of ``generating_set``).  elems[x] is the element
    # whose coordinates are the base-p digits of x, read from the array.  A
    # wrong product there repeats an element, so some coordinates reach no
    # bit below; the hyperplanes cover GF(p)^k, so then some hyperplane's
    # mask is short of p^(k-1) bits.
    elems, span = np.zeros(1, dtype=np.intp), {0}
    while len(elems) < len(members):
        a = next(x for x in members if x not in span)
        powers = [elems]
        for _ in range(p - 1):
            powers.append(group.array[powers[-1], a])
        elems = np.concatenate(powers)
        span = set(elems.tolist())
    # the kernels' masks, packed little-endian: bit e of a row is element e
    bits = np.zeros((len(kernels), group.order), dtype=bool)
    bits[:, elems] = kernels
    data, width = np.packbits(bits, axis=1, bitorder="little").tobytes(), -(-group.order // 8)
    masks = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    # the hyperplanes, their set bits counted at once
    hyperplanes = [Subgroup(mask) for mask in masks]
    if any(h.order != p ** (k - 1) for h in hyperplanes):
        raise InvariantViolation(f"a subspace of rank {k - 1} in {group.label} does not have {p ** (k - 1)} elements")
    whole = _mask_of(group, members)

    def make(picks: Sequence[int]) -> int:
        mask = whole
        for i in picks:
            mask &= masks[i]
        return mask

    census = {p**r: counts[r] for r in range(k + 1)}
    return _Part(_SubgroupView(blocks, make, group.label), census, hyperplanes)


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def conjugates(group: Group, sub: Subgroup) -> list[Subgroup]:
    """All distinct conjugates of ``sub``: ``sub`` itself first, then the
    others in the order the walk under the generating set finds them."""
    seen = {sub.mask: sub}
    frontier = [sub.members()]
    while frontier:
        nxt = []
        for members in frontier:
            for pi in group.conjugations():
                image = [pi[m] for m in members]
                c = sum(1 << m for m in image)
                if c not in seen:
                    seen[c] = Subgroup(c)
                    nxt.append(image)
        frontier = nxt
    return list(seen.values())


def maximal_subgroups(lat: Lattice) -> list[Subgroup]:
    """Proper subgroups with nothing strictly between them and the group,
    in the order in which ``enumerate_subgroups`` recorded them.

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
    mask = (1 << lat.group.order) - 1
    for m in maximal_subgroups(lat):
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
    """The Sylow subgroup of each prime, ascending, when each is normal;
    else None (the group is then not nilpotent).

    The Sylow p-subgroups are conjugate (Sylow), so one is normal exactly
    when it is the only subgroup of order p^a, the p-part of |G|: this
    reads one census count per prime, and no normality test; a block is
    read only once every count is 1."""
    orders = [p**a for p, a in factorize(group.order).items()]
    if any(lat.census.get(order) != 1 for order in orders):
        return None
    return [lat.subgroups_of_order(order)[0] for order in orders]


def all_maximals_normal(group: Group, lat: Lattice) -> bool:
    return all(is_normal(group, m.mask) for m in maximal_subgroups(lat))


def nilpotent_by_element_orders(group: Group) -> bool:
    """True when, for each prime p with p-part p^a of |G|, exactly p^a
    elements have order dividing p^a.

    Every p-element lies in some Sylow p-subgroup, so the count is p^a
    exactly when there is one Sylow p-subgroup, which is then normal.  This
    reads only the cached counts of element orders, never the lattice.
    """
    return all(_count_dividing(group, p**a) == p**a for p, a in factorize(group.order).items())


def is_nilpotent(group: Group, lat: Lattice) -> bool:
    """True when every maximal subgroup is normal.

    Cross-checked against two equivalent criteria: one Sylow subgroup per
    prime, one census count each (``sylow_decomposition``, which never
    reads the element orders), and the p-element counts of
    ``nilpotent_by_element_orders``, which never reads the lattice.
    Disagreement would mean an enumeration bug, so it raises
    InvariantViolation.
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
    """The structure flags that the group and its lattice decide;
    ``p_group_prime`` and ``frattini_rank`` are None unless |G| is a prime
    power.  Which structure of the classification theorem G has is
    ``classify``'s to say."""

    is_cyclic: bool
    is_abelian: bool
    is_nilpotent: bool
    p_group_prime: int | None
    frattini_rank: int | None

    @property
    def is_p_group(self) -> bool:
        return self.p_group_prime is not None


def recognize(group: Group, lat: Lattice) -> StructuralProfile:
    """The structure flags of ``group``, from exact finite criteria only:
    the Frattini rank reads the recorded maximals, and nilpotency is the
    three-way vote of ``is_nilpotent``: maximals normal, one census count
    per prime for the Sylow subgroups, and the element orders."""
    p = group.p_group_prime()
    rank = frattini_rank(group, lat) if p is not None else None
    return StructuralProfile(
        is_cyclic=group.is_cyclic,
        is_abelian=group.is_abelian,
        is_nilpotent=is_nilpotent(group, lat),
        p_group_prime=p,
        frattini_rank=rank,
    )
