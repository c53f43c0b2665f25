"""Complete subgroup-lattice enumeration and the structural tests built on it."""

from __future__ import annotations

import math
import mmap
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .arith import factorize, gaussian_subgroup_count, is_prime
from .errors import InvariantViolation, LatsumError, LatticeTooLarge, NotAPGroup
from .groups import Group, _mask_members, conjugate_mask, generated_mask, is_normal

DEFAULT_MAX_SUBGROUPS = 100_000


class Subgroup:
    """Subgroup of a fixed parent group, stored as a membership bitmask.

    Bit a of ``mask`` is set exactly when element a belongs to the subgroup.
    The subspace route keeps its masks packed in one numpy array and makes
    a Subgroup each time ``Lattice.subgroups`` is read, so two reads of the
    same position give equal but distinct objects.
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


class _MaskView(Sequence):
    """Subgroup sequence over packed masks: row i of the read-only uint8
    array is mask i, big-endian, with leading zero bytes up to a whole
    number of 64-bit words, and an index, a slice or an iteration makes a
    Subgroup from each row it reads; a slice is a list.  A read never
    writes."""

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_row_subgroup(row) for row in self._rows[i]]
        return _row_subgroup(self._rows[i])

    def __iter__(self):
        return map(_row_subgroup, self._rows)


def _mapped_rows(rows: int, width: int) -> np.ndarray:
    """A zeroed (rows, width) uint8 array in an anonymous private mapping of
    its own, faulted in when it is made (MAP_POPULATE, where the platform
    has it) rather than page by page as the rows are first written: for
    elem:2,8 that is 3,259 pages.  Dropping it unmaps the pages at once.
    From the malloc heap, one freed block of 13 MB (elem:2,8) was carved by
    the small allocations that came after it, the next same-sized block no
    longer fitted, and the heap grew by 9 MB more on some runs and not on
    others."""
    buf = mmap.mmap(-1, rows * width, flags=mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0))
    return np.frombuffer(buf, dtype=np.uint8).reshape(rows, width)


def _row_subgroup(row: np.ndarray) -> Subgroup:
    return Subgroup(int.from_bytes(row.tobytes(), "big"))


@dataclass
class Lattice:
    """All subgroups of a group, in blocks of ascending order.

    ``census`` maps each order, ascending, to its number of subgroups, and
    ``subgroups`` holds one block per census entry, in census order, each
    as long as its count; ``subgroups_of_order`` reads its block straight
    from the census offsets, so a lattice built by hand must keep its
    blocks matching its census.  Inside a block, subgroups keep the
    deterministic order in which their route found them; no reader may
    assume more.  ``subgroups`` is a plain list on the worklist route and,
    on the subspace route, a view over one read-only uint8 array of packed
    big-endian mask rows.
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

    @property
    def full(self) -> Subgroup:
        return self.subgroups[-1]


def enumerate_subgroups(group: Group, max_subgroups: int = DEFAULT_MAX_SUBGROUPS) -> Lattice:
    """Enumerate every subgroup of ``group`` exactly once, and record which
    of them are maximal.

    The general route is the cyclic extension method (Neubüser 1960): seed
    a worklist with the trivial subgroup, then for a queued subgroup H and
    each element x not yet covered, find <H, x>; the extensions of the
    trivial subgroup are the cyclic subgroups <x>.  Every group takes one
    walk per such x: it powers x until a power lands in H, which gives the
    least k with x^k in H, and covers the cells h*x^j for every h in H and
    every j coprime to k.  Each cell extends H to <H, x> too, since
    <H, h*x^j> holds x^j and x^k, hence x; neither commutativity nor
    normality is needed.  A nonabelian group takes one closure for <H, x>.
    Only one subgroup per conjugacy class is queued, but its whole class is
    recorded at once: the extensions of gHg^-1 are the conjugates of the
    extensions of H, so the lattice stays complete.  A queued H is maximal
    when every extension found from it is the whole group, and then so is
    every conjugate of H.

    In an abelian group every class is a single subgroup, and the worklist
    extends only by prime steps.  Every subgroup K > 1 has a subgroup H of
    prime index p, and then K = H u Hx u ... u Hx^(p-1) for any x in K - H.
    So when k, now the order of Hx in G/H, is prime, every j < k is coprime
    to k and the cells are exactly K - H: the new mask is H's with the
    cells set, with no closure.  A coset Hx of composite order k gives no
    prime step, and neither does any Hx^j with j coprime to k, which has
    order k as well: its cells are covered and nothing more is done.  The
    one maximality rule holds here too.  If |G/H| is composite, G/H has an
    element yH of prime order p < |G/H|.  A composite walk covers only
    elements of composite order mod H, so y is either reached uncovered
    and takes a prime step, or was covered by an earlier prime step whose
    K - H holds it; either step finds <H, y>, of order p|H| < |G|.

    Elementary abelian groups of rank >= 2 instead take the subspace
    route, which finds the same subgroups but scales to the rank-8
    case over GF(2).  It allocates one uint8 array, in a prefaulted
    anonymous mapping of its own, with a row of 8 * ceil(|G|/64) bytes, a
    whole number of 64-bit words, for each of the closed-form number of
    subspaces.  It reads the coordinates of every element from
    ``group.array`` over the greedy basis and packs the kernel of each
    functional over GF(p) once.  A rank-r subspace is the intersection of
    the kernels of a basis of its annihilator, a rank-(k - r) subspace of
    the dual, so each row of order block r is the AND of the kernels of
    the rows of one reduced echelon form of rank k - r.  numpy writes
    these ANDs straight into the rows of block r, one pivot pattern at a
    time, from the rows of the pattern with one pivot fewer, which are
    already in block r + 1.  Once a block's last pattern is written, its
    rows' set bits are counted, once per block, over 64-bit words, and
    once the last block is counted the array becomes read-only.
    ``subgroups`` is a view over the array that makes each Subgroup when
    it is read, and the census is the closed-form count of each order
    block.  Its maximal subgroups, the hyperplanes of order |G|/p, are the
    one block made into Subgroup objects.  The two routes are
    cross-checked in the test suite.

    Inside each order block (see ``Lattice``) the subgroups come in
    discovery order on the worklist route and in pivot-pattern order on
    the subspace route, and the maximals in the order they were recorded.

    Raises LatticeTooLarge when the subgroup count exceeds
    ``max_subgroups``; the subspace route checks its closed-form count
    before it allocates anything.  Raises InvariantViolation when some
    order does not divide |G| (both routes), and on the subspace route
    when the rows written to an order block are not its closed-form number
    of subspaces (checked before any write past the block's end), or when
    a row of a block as written does not have p^r bits set (checked after
    the count, and before the next block reads the block).
    """
    rank = _elementary_abelian_rank(group)
    if rank is not None:
        packed, census, maximals = _enumerate_elementary_abelian(group, *rank, max_subgroups)
        subs = _MaskView(packed)
    else:
        subs, maximals = _enumerate_worklist(group, max_subgroups)
        subs.sort(key=lambda s: s.order)
        census = dict(sorted(Counter(s.order for s in subs).items()))
    if any(group.order % order for order in census):
        raise InvariantViolation(f"Lagrange violated on {group.label}: census {census}")
    return Lattice(group=group, subgroups=subs, census=census, maximals=maximals)


def _enumerate_worklist(group: Group, max_subgroups: int) -> tuple[list[Subgroup], list[Subgroup]]:
    """(every subgroup, the maximal subgroups), extending one subgroup per
    class by one walk per uncovered element x: the powers of x, then the
    cells h*x^j that extend H to <H, x>.  H is maximal when every
    extension found from it is the whole group.  Each queue entry carries
    the generators of its class representative, from which the closures
    of its extensions start."""
    table = group.table
    n = group.order
    full_mask = (1 << n) - 1
    abelian = group.is_abelian
    seen: dict[int, Subgroup] = {}
    work: list[tuple[Subgroup, tuple[int, ...], list[Subgroup]]] = []

    def add_class(sub: Subgroup, gens: tuple[int, ...], orbit: list[Subgroup]) -> None:
        # seen stays closed under conjugation, so the whole class is new
        for c in orbit:
            seen[c.mask] = c
        if len(seen) > max_subgroups:
            raise LatticeTooLarge(f"more than {max_subgroups} subgroups")
        work.append((sub, gens, orbit))

    trivial = Subgroup(1)
    add_class(trivial, (), [trivial])
    maximals: list[Subgroup] = []
    for sub, gens, orbit in work:  # also visits the classes appended below
        if sub.mask == full_mask:
            continue
        members = sub.members()
        covered = bytearray(n)
        for h in members:
            covered[h] = 1
        in_sub = bytes(covered)
        maximal = True  # until an extension of H is not the whole group
        for x in range(1, n):
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
            if not abelian:
                new_mask = generated_mask(group, gens + (x,), seed_mask=sub.mask)
            elif is_prime(k):
                # every j < k is coprime to k: the cells are <H, x> - H
                new_mask = sub.mask | sum(1 << c for c in cells)
            else:
                continue  # Hx^j has composite order k in G/H: no prime step
            if new_mask not in seen:
                new = Subgroup(new_mask)
                add_class(new, gens + (x,), [new] if abelian else conjugates(group, new))
            maximal = maximal and new_mask == full_mask
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
) -> tuple[np.ndarray, dict[int, int], list[Subgroup]]:
    """(every subspace's mask as one packed row, grouped into order blocks
    by rank, the census, the hyperplanes), written straight into one
    preallocated array that is read-only once every block is checked.

    A rank-r subspace W of GF(p)^k is the intersection of the kernels of
    a basis of its annihilator W°, and W -> W° is a bijection onto the
    rank-(k - r) subspaces of the dual (Halmos, Finite-Dimensional Vector
    Spaces, section 17).  So block r has one row per reduced echelon form
    of rank k - r: the AND of the packed kernels of the form's rows.  The
    forms with pivots (c, *later) are the forms with pivots ``later``, each
    with one more row headed at column c.  So the blocks are written from
    the hyperplanes down, one pivot pattern at a time, each pattern's rows
    the AND of its later pattern's rows, already written to block r + 1,
    with the kernel of each row headed at c.  Each row is 8 * ceil(|G|/64)
    bytes, so a block is also a uint64 array, and its set bits are counted
    word by word once the block is written and before the next block
    reads it.  Inside a block the rows keep the order in which their pivot
    patterns were written."""
    counts = [gaussian_subgroup_count(k, p, r) for r in range(k + 1)]
    total = sum(counts)
    if total > max_subgroups:
        raise LatticeTooLarge(f"{total} subgroups exceed the cap {max_subgroups}")
    # the greedy generating set is a basis: each generator lies outside the
    # span of those before it
    basis = group.generating_set()
    if len(basis) != k:
        raise InvariantViolation(f"basis extraction found rank {len(basis)}, expected {k}")
    # elems[x] is the element whose coordinates are the base-p digits of x,
    # read from the array.  A wrong product there repeats an element, so some
    # coordinates reach no bit below; the hyperplanes cover GF(p)^k, so then
    # some hyperplane's row is short of p^(k-1) bits.
    elems = np.zeros(1, dtype=np.intp)
    for a in basis:
        powers = [elems]
        for _ in range(p - 1):
            powers.append(group.array[powers[-1], a])
        elems = np.concatenate(powers)
    # row x: the base-p digits of x, in a dtype that holds a dot product of two rows
    digits = (np.arange(p**k)[:, None] // p ** np.arange(k) % p).astype(np.min_scalar_type(k * (p - 1) ** 2))
    # the functionals that head a row of a reduced echelon form: first nonzero digit 1
    forms = np.concatenate([p**c + p ** (c + 1) * np.arange(p ** (k - 1 - c)) for c in range(k)])
    # hyper[f] is the kernel of f packed big-endian: bit e of a mask is bit
    # 8 * nbytes - 1 - e of its row, a whole number of 64-bit words whose
    # leading bits are zero
    nbytes = 8 * -(-group.order // 64)
    bits = np.zeros((len(forms), 8 * nbytes), dtype=bool)
    bits[:, 8 * nbytes - 1 - elems] = digits[forms] @ digits.T % p == 0
    hyper = np.zeros((p**k, nbytes), dtype=np.uint8)
    hyper[forms] = np.packbits(bits, axis=1)
    # row i is mask i; block r holds rows starts[r]..starts[r + 1]-1
    packed = _mapped_rows(total, nbytes)
    starts = list(accumulate(counts, initial=0))
    # (first row, rows) of each pattern written so far, by its pivots; the
    # one form of rank 0 has the whole group as its kernel: the low |G| bits
    packed[-1] = np.frombuffer(((1 << group.order) - 1).to_bytes(nbytes, "big"), dtype=np.uint8)
    patterns = {(): (total - 1, 1)}
    for r in range(k - 1, -1, -1):
        pos = starts[r]  # rows written so far
        for pivots in combinations(range(k), k - r):
            # the codes of the rows headed at c: p^c plus each free slot's
            # (later non-pivot column's) digit times p^column
            c, later = pivots[0], pivots[1:]
            lut = [p**c]
            for col in range(c + 1, k):
                if col not in later:
                    lut = [v + d * p**col for d in range(p) for v in lut]
            kernel = hyper[lut]
            first, n = patterns[later]
            rows = n * len(kernel)
            if pos + rows > starts[r + 1]:
                raise InvariantViolation(
                    f"subspace route found more than the expected {counts[r]} subgroups of order {p**r}"
                )
            out = packed[pos : pos + rows]
            np.bitwise_and(packed[first : first + n, None], kernel, out=out.reshape(n, -1, nbytes))
            patterns[pivots] = (pos, rows)
            pos += rows
        if pos != starts[r + 1]:
            raise InvariantViolation(
                f"subspace route found {pos - starts[r]} subgroups of order {p**r}, expected {counts[r]}"
            )
        # a rank-r subspace has p^r elements: the block's rows as written,
        # counted in 64-bit words before block r - 1 reads them
        block = packed[starts[r] : starts[r + 1]]
        words = np.bitwise_count(block.view(np.uint64))
        elements = words[:, 0].astype(np.min_scalar_type(group.order))
        for column in words.T[1:]:
            elements += column
        if (elements != p**r).any():
            raise InvariantViolation(f"a subspace of rank {r} in {group.label} does not have {p**r} elements")
    packed.flags.writeable = False
    census = {p**r: counts[r] for r in range(k + 1)}
    return packed, census, [_row_subgroup(row) for row in packed[starts[k - 1] : starts[k]]]


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def conjugates(group: Group, sub: Subgroup) -> list[Subgroup]:
    """All distinct conjugates of ``sub``: ``sub`` itself first, then the
    others in the order the walk under the generating set finds them."""
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
        normal = [s for s in lat.subgroups_of_order(target) if is_normal(group, s.mask)]
        if not normal:
            return None
        if len(normal) > 1:
            raise InvariantViolation(f"{group.label} has {len(normal)} normal subgroups of Sylow order {target}")
        out.append(normal[0])
    if math.prod(s.order for s in out) != group.order:
        raise InvariantViolation(f"the Sylow orders of {group.label} do not multiply to {group.order}")
    return out


def all_maximals_normal(group: Group, lat: Lattice) -> bool:
    return all(is_normal(group, m.mask) for m in maximal_subgroups(lat))


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
    three-way vote of ``is_nilpotent``."""
    p = group.p_group_prime()
    rank = frattini_rank(group, lat) if p is not None else None
    return StructuralProfile(
        is_cyclic=group.is_cyclic,
        is_abelian=group.is_abelian,
        is_nilpotent=is_nilpotent(group, lat),
        p_group_prime=p,
        frattini_rank=rank,
    )
