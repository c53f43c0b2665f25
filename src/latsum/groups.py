"""Finite groups as dense multiplication tables, plus the standard constructors.

Elements of a group of order n are the indices 0..n-1 with the identity
pinned at index 0; array[a, b] is the index of the product a*b.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path
from typing import Sequence

import numpy as np

from .arith import factorize, is_prime
from .errors import (
    InvalidSpec,
    InvalidTable,
    InvariantViolation,
    NotAPermutation,
    NotNormal,
    OrderCapExceeded,
)

DEFAULT_ORDER_CAP = 2000


class Group:
    """Finite group on elements 0..n-1 (identity 0) defined by its Cayley table.

    ``array`` is the one table: a read-only int16 numpy array (int32 above
    order 32,768) with array[a, b] the index of a*b.  Every constructor
    builds it directly; ``Group(rows)`` with a list of rows converts once.
    At construction the entries are checked to lie in 0..n-1 (before the
    cast, so none can wrap into range), row and column 0 to be the
    identity, and every row to hold a 0; then ``table``, the same table as
    list rows that share one int object per element for fast scalar reads,
    and ``inverse`` are derived from it.  A Group is never mutated.
    """

    __slots__ = ("order", "array", "table", "inverse", "label", "_element_orders", "_abelian", "_gens")

    def __init__(self, table, label: str = "group"):
        n = len(table)
        if n == 0:
            raise InvalidTable("empty table")
        try:
            arr = np.asarray(table)
        except (ValueError, OverflowError) as exc:  # ragged rows, or entries past int64
            raise InvalidTable("table entries out of range") from exc
        if arr.shape != (n, n) or arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= n:
            raise InvalidTable("table entries out of range")
        arr = arr.astype(_index_dtype(n), copy=False).view()
        arr.flags.writeable = False
        expected = np.arange(n)
        if (arr[0] != expected).any() or (arr[:, 0] != expected).any():
            raise InvalidTable("identity is not at index 0")
        inverse = np.argmin(arr, axis=1)  # the first 0 of each row, if it has one
        if (arr[expected, inverse] != 0).any():
            raise InvalidTable("some element has no inverse")
        self.order = n
        self.array = arr
        self.label = label
        if n <= 256:
            self.table = arr.tolist()  # CPython shares the ints up to 256
        else:
            # gathered from one int object per element, 64 rows at a time,
            # so the object temporary stays small
            pool = np.arange(n).astype(object)
            self.table = []
            for lo in range(0, n, 64):
                self.table += pool[arr[lo : lo + 64]].tolist()
        self.inverse = inverse.tolist()
        self._element_orders: tuple[int, ...] | None = None
        self._abelian: bool | None = None
        self._gens: tuple[int, ...] | None = None

    def __repr__(self) -> str:
        return f"Group({self.label!r}, order={self.order})"

    def element_orders(self) -> tuple[int, ...]:
        """Least k >= 1 with a^k = identity, for each a: one power walk per a
        that no earlier walk met, which also gives each a^j order k / gcd(j, k).
        Raises InvariantViolation when a walked k does not divide the order."""
        if self._element_orders is None:
            n, table = self.order, self.table
            orders = [1] + [0] * (n - 1)
            for a in range(1, n):
                if orders[a]:
                    continue
                powers, y = [a], table[a][a]
                while y != 0:
                    powers.append(y)
                    y = table[y][a]
                k = len(powers) + 1
                if n % k:
                    raise InvariantViolation(f"element order {k} does not divide {n}")
                for j, aj in enumerate(powers, 1):
                    orders[aj] = k // math.gcd(j, k)
            self._element_orders = tuple(orders)
        return self._element_orders

    def exponent(self) -> int:
        return math.lcm(*self.element_orders())

    @property
    def is_abelian(self) -> bool:
        """True when the elements of ``generating_set()`` commute in pairs: exact
        for a group table, since G = <gens>, and every group source gives one,
        the constructors by construction and ``group_from_raw_table`` after
        ``validate``."""
        if self._abelian is None:
            gens, table = self.generating_set(), self.table
            self._abelian = all(table[a][b] == table[b][a] for a, b in combinations(gens, 2))
        return self._abelian

    @property
    def is_cyclic(self) -> bool:
        return self.order in self.element_orders()

    def p_group_prime(self) -> int | None:
        """The prime p if the order is a power p^m with m >= 1, else None."""
        fact = factorize(self.order)
        if len(fact) == 1:
            return next(iter(fact))
        return None

    def generating_set(self) -> tuple[int, ...]:
        """A small generating set, chosen greedily over ascending element indices.

        Each element not yet reached by right multiplication from the identity
        becomes a generator.  Unlike ``generated_mask``, the closure is walked
        to the end: its half-group exit rests on Lagrange, and ``validate``
        uses this set before the table is known to be a group.
        """
        if self._gens is None:
            table = self.table
            reached = bytearray(self.order)
            reached[0] = 1
            members = [0]
            gens: list[int] = []
            for a in range(1, self.order):
                if reached[a]:
                    continue
                gens.append(a)
                for y in members:  # also visits the members appended below
                    for g in gens:
                        z = table[y][g]
                        if not reached[z]:
                            reached[z] = 1
                            members.append(z)
            self._gens = tuple(gens)
        return self._gens

    def dump_table(self) -> str:
        """Raw text format: first line n, then the n table rows."""
        lines = [str(self.order)]
        lines.extend(" ".join(map(str, row)) for row in self.table)
        return "\n".join(lines) + "\n"

    def validate(self) -> None:
        """Check associativity exactly.  The entry range, the two-sided
        identity and a right inverse for every element are checked at
        construction, and a monoid in which every element has a right
        inverse is a group, so every row and column is then a permutation.

        Associativity uses Light's test (Clifford & Preston, *The Algebraic
        Theory of Semigroups* I, 1961, section 1.2): the elements g with
        (x*g)*y == x*(g*y) for all x, y are closed under multiplication and
        include the identity, so it suffices to check every g in
        ``generating_set()``, whose right-multiplication closure from the
        identity is the whole table.  That is one n x n gather pair per
        generator.  Raises InvalidTable on the first failure.
        """
        arr = self.array
        for g in self.generating_set():
            # (x*g)*y vs x*(g*y) for all x, y at once
            if not (arr[arr[:, g]] == arr[:, arr[g]]).all():
                raise InvalidTable(f"associativity fails for g={g}")


def generated_mask(group: Group, gens: Sequence[int], seed_mask: int = 1) -> int:
    """Bitmask of the subgroup generated by ``gens`` (breadth-first closure).

    Closure under right multiplication by the generators, starting from the
    identity, reaches every word in the generators; inverses come free in a
    finite group.  Membership during the walk lives in a bytearray because
    single-bit tests on wide ints dominate the runtime for large groups.
    By Lagrange, a closure that grows past half the group must be the whole
    group, so it returns early at that point.
    """
    table = group.table
    n = group.order
    half = n // 2
    mask = seed_mask | 1
    seen = bytearray(n)
    frontier = _mask_members(mask)
    count = len(frontier)
    for y in frontier:
        seen[y] = 1
    if count > half:
        return (1 << n) - 1
    while frontier:
        nxt = []
        append = nxt.append
        for y in frontier:
            row = table[y]
            for g in gens:
                z = row[g]
                if not seen[z]:
                    seen[z] = 1
                    mask |= 1 << z
                    count += 1
                    append(z)
        if count > half:
            return (1 << n) - 1
        frontier = nxt
    return mask


def conjugate_mask(group: Group, mask: int, x: int) -> int:
    """Bitmask of x * H * x^-1, where ``mask`` is the bitmask of H."""
    table = group.table
    rowx = table[x]
    ix = group.inverse[x]
    out = 0
    for m in _mask_members(mask):
        out |= 1 << table[rowx[m]][ix]
    return out


def is_normal_mask(group: Group, mask: int) -> bool:
    """True when the subgroup with membership bitmask ``mask`` is normal.

    Every subgroup of an abelian group is normal, so there it reads only
    ``is_abelian``.  Otherwise it checks x * H * x^-1 == H for each x in
    ``generating_set()``: the normalizer is a subgroup, so containing the
    generators means it is the whole group.
    """
    return group.is_abelian or all(conjugate_mask(group, mask, x) == mask for x in group.generating_set())


def _mask_members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _index_dtype(n: int) -> type:
    """The dtype of an order-n Cayley array: int16 while it holds n - 1."""
    return np.int16 if n <= 1 << 15 else np.int32


def _cyclic_array(n: int, dtype: type) -> np.ndarray:
    """(a + b) mod n for all a, b: row a is a window at a over two copies of
    0..n-1, a read-only view of 2n entries."""
    base = np.arange(n, dtype=dtype)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([base, base]), n)[:n]


def _product_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The direct product's table, the pair (x, y) linearized as x * |B| + y."""
    na, nb = len(a), len(b)
    dtype = _index_dtype(na * nb)
    out = a.astype(dtype)[:, None, :, None] * nb + b.astype(dtype)[None, :, None, :]
    return out.reshape(na * nb, na * nb)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def cyclic_group(n: int, label: str | None = None) -> Group:
    if n < 1:
        raise InvalidSpec(f"cyclic order must be >= 1, got {n}")
    return Group(_cyclic_array(n, _index_dtype(n)), label or f"cyclic:{n}")


def elementary_abelian_group(p: int, k: int, label: str | None = None) -> Group:
    """Direct product of k copies of the cyclic group of prime order p; the
    element with base-p digits d_j is sum d_j * p^j."""
    if not is_prime(p):
        raise InvalidSpec(f"p must be prime, got {p}")
    if k < 1:
        raise InvalidSpec(f"rank must be >= 1, got {k}")
    cp = _cyclic_array(p, _index_dtype(p))
    arr = cp
    for _ in range(k - 1):
        arr = _product_array(arr, cp)
    return Group(arr, label or f"elem:{p},{k}")


def dihedral_group(n: int, label: str | None = None) -> Group:
    """Symmetries of the regular n-gon, order 2n; index r + n*s for rotation r, flip s."""
    if n < 1:
        raise InvalidSpec(f"dihedral parameter must be >= 1, got {n}")
    turn = _cyclic_array(n, _index_dtype(2 * n))  # r1 + r2 mod n
    back = turn[:, -np.arange(n) % n]  # r1 - r2 mod n
    return Group(np.block([[turn, turn + n], [back + n, back]]), label or f"dihedral:{n}")


def symmetric_group(m: int, label: str | None = None) -> Group:
    """All permutations of m points, indexed in lexicographic one-line order."""
    if m < 1:
        raise InvalidSpec(f"symmetric degree must be >= 1, got {m}")
    perms = np.array(list(permutations(range(m))), dtype=np.int8)
    # base-m codes of the one-line forms ascend in lexicographic order
    weights = m ** np.arange(m - 1, -1, -1)
    products = perms[:, perms]  # [a, b, x] = pa[pb[x]]
    return Group(np.searchsorted(perms @ weights, products @ weights), label or f"sym:{m}")


def smallest_order_p_residue(p: int, q: int) -> int:
    """Smallest t >= 2 of multiplicative order exactly p modulo q."""
    for t in range(2, q):
        if pow(t, p, q) == 1:
            return t
    raise InvalidSpec(f"no residue of order {p} modulo {q}")


def semidirect_pq_group(p: int, q: int, t: int | None = None, label: str | None = None) -> Group:
    """Nonabelian group of order p*q: pairs (x, y) in Z_q x Z_p, index x + q*y.

    The product is (x1, y1)(x2, y2) = (x1 + t^y1 * x2 mod q, y1 + y2 mod p)
    where t has multiplicative order exactly p modulo q.  Requires p, q prime
    with p dividing q - 1; when t is omitted the smallest valid t >= 2 is used.
    """
    if not is_prime(p) or not is_prime(q):
        raise InvalidSpec(f"p and q must be prime, got p={p}, q={q}")
    if (q - 1) % p != 0:
        raise InvalidSpec(f"p={p} must divide q-1={q - 1}")
    if t is None:
        t = smallest_order_p_residue(p, q)
    elif not 2 <= t < q or pow(t, p, q) != 1:
        # p is prime, so t^p = 1 with t != 1 means order exactly p
        raise InvalidSpec(f"t={t} does not have order exactly {p} modulo {q}")
    n = p * q
    dtype = _index_dtype(n)
    y = np.arange(p)
    scaled = np.array([pow(t, e, q) for e in range(p)])[:, None] * np.arange(q) % q  # [y1, x2]: t^y1 * x2
    new_x = _cyclic_array(q, dtype)[:, scaled].transpose(1, 0, 2)  # [y1, x1, x2]
    new_y = ((y[:, None] + y) % p * q).astype(dtype)  # [y1, y2]
    arr = np.add(new_x[:, :, None, :], new_y[:, None, :, None], order="C")  # [y1, x1, y2, x2]
    return Group(arr.reshape(n, n), label or f"pq:{p},{q}")


def direct_product_group(parts: Sequence[Group], label: str | None = None) -> Group:
    """Direct product; the pair (a, b) is linearized as a * |B| + b, left fold."""
    if not parts:
        raise InvalidSpec("direct product needs at least one factor")
    arr, name = parts[0].array, parts[0].label
    for nxt in parts[1:]:
        arr = _product_array(arr, nxt.array)
        name = f"({name})x({nxt.label})"
    return Group(arr, name if label is None else label)


def group_from_permutations(
    degree: int,
    gens: Sequence[Sequence[int]],
    max_order: int = DEFAULT_ORDER_CAP,
    label: str | None = None,
) -> Group:
    """Close a set of permutations of {0..degree-1} under composition.

    Elements are indexed deterministically: identity first, then breadth-first
    discovery order with lexicographic tie-breaking on the one-line form.
    The walk visits each element w once and forms w*g for every generator g,
    which gives R_g, right multiplication by g on the element indices.  Each
    element b after the identity was first found as w*g with w before it, so
    column b of the table is R_g applied to column w: one gather per column.
    """
    gen_tuples = []
    for g in gens:
        tg = tuple(g)
        if sorted(tg) != list(range(degree)):
            raise NotAPermutation(f"{g!r} is not a permutation of 0..{degree - 1}")
        gen_tuples.append(tg)
    ident = tuple(range(degree))
    index = {ident: 0}
    found_as = [(0, 0)]  # (w, generator number) with element b = w*g
    right: list[list[tuple[int, ...]]] = [[] for _ in gen_tuples]  # right[i][w] = w*g_i
    frontier = [ident]
    while frontier:
        new: dict[tuple[int, ...], tuple[int, int]] = {}
        for w in frontier:  # in index order, so right[i] is filled in index order
            iw = index[w]
            for i, g in enumerate(gen_tuples):
                u = tuple(w[x] for x in g)
                right[i].append(u)
                if u not in index and u not in new:
                    new[u] = (iw, i)
        frontier = sorted(new)
        for u in frontier:
            index[u] = len(index)
            found_as.append(new[u])
        if len(index) > max_order:
            raise OrderCapExceeded(
                f"permutation closure exceeded the order cap {max_order}"
            )
    n = len(index)
    dtype = _index_dtype(n)
    right_index = np.array([[index[u] for u in products] for products in right], dtype=dtype).reshape(-1, n)
    columns = np.empty((n, n), dtype=dtype)
    columns[0] = np.arange(n)
    for b in range(1, n):
        w, i = found_as[b]
        columns[b] = right_index[i][columns[w]]
    return Group(columns.T.copy(), label or f"perm-closure(deg {degree})")


def quotient_group(group: Group, normal_mask: int, label: str | None = None) -> Group:
    """Quotient by the normal subgroup with the given membership bitmask.

    Cosets are represented by their minimal member and indexed in ascending
    representative order, which puts the identity coset at index 0.  Raises
    NotNormal when ``is_normal_mask`` finds the subgroup is not normal.
    """
    arr = group.array
    members = _mask_members(normal_mask)
    if not normal_mask & 1:
        raise NotNormal("subgroup mask does not contain the identity")
    if not is_normal_mask(group, normal_mask):
        raise NotNormal(f"subgroup of order {len(members)} is not normal in {group.label}")
    coset_of = np.full(group.order, -1, dtype=arr.dtype)
    reps: list[int] = []
    for a in range(group.order):
        if coset_of[a] < 0:
            coset_of[arr[members, a]] = len(reps)
            reps.append(a)
    return Group(coset_of[arr[np.ix_(reps, reps)]], label or f"{group.label}/(order {len(members)})")


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def group_from_file(
    path: str, max_order: int = DEFAULT_ORDER_CAP, label: str | None = None, kind: str | None = None
) -> Group:
    """Read a raw-table (``kind`` "table") or generator ("perm") file; with
    no kind, a file whose first non-blank line has the first word "perm" is
    a generator file.

    The first non-blank line is read before the rest of the file, and a raw
    table's order on it is checked against ``max_order`` first, so an
    over-cap table raises OrderCapExceeded whatever its size or body.  An
    unreadable file is InvalidSpec, and text that is not UTF-8 InvalidTable.
    """
    try:
        with open(path, "rb") as f:
            head = ""
            for line in f:
                head = line.decode("utf-8")
                if head.strip():
                    break
            if kind is None:
                kind = "perm" if head.split()[:1] == ["perm"] else "table"
            if kind == "table" and head.strip():
                _table_order(next(ln for ln in head.splitlines() if ln.strip()), max_order)
            text = head + f.read().decode("utf-8")
    except OSError as exc:
        raise InvalidSpec(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidTable(f"{path!r} is not UTF-8 text: {exc}") from exc
    reader = group_from_raw_table if kind == "table" else group_from_perm_file
    return reader(text, max_order=max_order, label=label)


def _decimal(text: str) -> int | None:
    """The int that ``text`` spells in ASCII decimal digits once whitespace
    is stripped, else None: no sign, no underscore and no digit of another
    script, all of which ``int`` accepts."""
    digits = text.strip()
    return int(digits) if digits.isascii() and digits.isdigit() else None


def _table_order(line: str, max_order: int) -> int:
    """The order n on a raw table's first line, checked against ``max_order``."""
    n = _decimal(line)
    if n is None:
        raise InvalidTable(f"first line must be the order, got {line!r}")
    if n < 1:
        raise InvalidTable(f"order must be >= 1, got {n}")
    if n > max_order:
        raise OrderCapExceeded(f"table order {n} exceeds cap {max_order}")
    return n


def group_from_raw_table(text: str, max_order: int = DEFAULT_ORDER_CAP, label: str | None = None) -> Group:
    """Parse the raw table format: line 1 is n, then n rows of n indices.

    n is checked against ``max_order`` before any row is read.  The rows,
    whitespace-separated decimal integers with no comments, are parsed in one
    ``np.loadtxt`` pass into the array that ``Group`` checks to be n x n
    entries in 0..n-1 and keeps; ``Group.validate`` then checks the laws.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidTable("empty table file")
    n = _table_order(lines[0], max_order)
    # np.loadtxt only warns on empty input, so the row count is checked here
    if len(lines) != n + 1:
        raise InvalidTable(f"expected {n} table rows, got {len(lines) - 1}")
    try:
        arr = np.loadtxt(lines[1:], dtype=np.int64, ndmin=2, comments=None)
    except ValueError as exc:
        # numpy's hint after the ';' is about its own usecols argument
        raise InvalidTable(f"table rows must be whitespace-separated integers: {str(exc).partition(';')[0]}") from exc
    del lines  # validate allocates its own arrays; the text lines are no longer needed
    group = Group(arr, label or "raw-table")
    del arr
    group.validate()
    return group


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse disjoint-cycle notation like ``(0 1 2)(3 4)`` into one-line form."""
    stripped = text.strip()
    leftovers = _CYCLE_RE.sub("", stripped).strip()
    if leftovers:
        raise NotAPermutation(f"cannot parse cycle notation: {text!r}")
    perm = list(range(degree))
    for body in _CYCLE_RE.findall(stripped):
        pts = [_decimal(v) for v in body.replace(",", " ").split()]
        if not pts:
            continue
        if None in pts or any(not 0 <= v < degree for v in pts) or len(set(pts)) != len(pts):
            raise NotAPermutation(f"bad cycle {body!r} for degree {degree}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            if perm[a] != a:
                raise NotAPermutation(f"cycles are not disjoint in {text!r}")
            perm[a] = b
    return tuple(perm)


def group_from_perm_file(text: str, max_order: int = DEFAULT_ORDER_CAP, label: str | None = None) -> Group:
    """Parse the generator format: ``perm <degree>`` then one generator per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    parts = lines[0].split() if lines else []
    if parts[:1] != ["perm"]:
        raise InvalidTable("permutation file must start with 'perm <degree>'")
    degree = _decimal(parts[1]) if len(parts) == 2 else None
    if degree is None:
        raise InvalidTable(f"bad header {lines[0]!r}")
    if degree < 1:
        raise InvalidTable(f"degree must be >= 1, got {degree}")
    gens = [parse_cycles(ln, degree) for ln in lines[1:]]
    return group_from_permutations(degree, gens, max_order=max_order, label=label)


# ---------------------------------------------------------------------------
# declarative specs
# ---------------------------------------------------------------------------

# each parameterised kind: (constructor, allowed parameter counts, order
# computed from the parameters without building the group)
_FAMILIES = {
    "cyclic": (cyclic_group, (1,), lambda n: n),
    "elem": (elementary_abelian_group, (2,), lambda p, k: p**k),
    "dihedral": (dihedral_group, (1,), lambda n: 2 * n),
    "sym": (symmetric_group, (1,), math.factorial),
    "pq": (semidirect_pq_group, (2, 3), lambda p, q, t=None: p * q),
}
_SPEC_KINDS = (*_FAMILIES, "product", "table", "perm")


@dataclass(frozen=True)
class GroupSpec:
    """Declarative description of a group to construct."""

    kind: str
    params: tuple[int, ...] = ()
    parts: tuple["GroupSpec", ...] = ()
    path: str | None = None

    @classmethod
    def cyclic(cls, n: int) -> "GroupSpec":
        return cls("cyclic", (n,))

    @classmethod
    def elementary_abelian(cls, p: int, k: int) -> "GroupSpec":
        return cls("elem", (p, k))

    @classmethod
    def dihedral(cls, n: int) -> "GroupSpec":
        return cls("dihedral", (n,))

    @classmethod
    def symmetric(cls, m: int) -> "GroupSpec":
        return cls("sym", (m,))

    @classmethod
    def semidirect_pq(cls, p: int, q: int, t: int | None = None) -> "GroupSpec":
        return cls("pq", (p, q) if t is None else (p, q, t))

    def __str__(self) -> str:
        if self.kind == "product":
            return "product:" + "+".join(str(p) for p in self.parts)
        if self.kind in ("table", "perm"):
            return f"{self.kind}:{self.path}"
        return f"{self.kind}:{','.join(map(str, self.params))}"

    def predicted_order(self) -> int | None:
        """Order the built group will have, when known without construction."""
        if self.kind in _FAMILIES:
            return _FAMILIES[self.kind][2](*self.params)
        if self.kind == "product":
            orders = [p.predicted_order() for p in self.parts]
            if any(o is None for o in orders):
                return None
            return math.prod(orders)  # type: ignore[arg-type]
        return None

    def build(self, max_order: int = DEFAULT_ORDER_CAP) -> Group:
        """Construct the group; OrderCapExceeded comes before any table above
        ``max_order`` is allocated: from the predicted order, from the built
        parts' orders of a product, or from the file reader."""
        predicted = self.predicted_order()
        if predicted is not None and predicted > max_order:
            raise OrderCapExceeded(f"{self} has order {predicted}, above the cap {max_order}")
        if self.kind in _FAMILIES:
            return _FAMILIES[self.kind][0](*self.params)
        if self.kind == "product":
            built = [p.build(max_order) for p in self.parts]
            order = math.prod(g.order for g in built)
            if order > max_order:
                raise OrderCapExceeded(f"{self} has order {order}, above the cap {max_order}")
            return direct_product_group(built, label=str(self))
        if self.kind in ("table", "perm"):
            return group_from_file(self.path or "", max_order=max_order, label=str(self), kind=self.kind)
        raise InvalidSpec(f"unknown spec kind {self.kind!r}")

    @staticmethod
    def parse(text: str) -> "GroupSpec":
        """Parse the colon-separated spec mini-grammar (``cyclic:12``, ``pq:3,7`` ...)."""
        text = text.strip()
        if ":" not in text:
            raise InvalidSpec(f"not a group spec: {text!r}")
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        if kind not in _SPEC_KINDS:
            raise InvalidSpec(f"unknown spec kind {kind!r} in {text!r}")
        if kind == "product":
            part_texts = [p for p in rest.split("+") if p]
            if not part_texts:
                raise InvalidSpec(f"empty product spec: {text!r}")
            parts = tuple(GroupSpec.parse(p) for p in part_texts)
            if any(p.kind == "product" for p in parts):
                raise InvalidSpec("nested products are not supported")
            return GroupSpec("product", parts=parts)
        if kind in ("table", "perm"):
            if not rest:
                raise InvalidSpec(f"{kind} spec needs a file path")
            return GroupSpec(kind, path=rest)
        params = tuple(_decimal(v) for v in rest.split(","))
        if None in params:
            raise InvalidSpec(f"parameters must be decimal integers in {text!r}")
        if len(params) not in _FAMILIES[kind][1]:
            raise InvalidSpec(f"wrong parameter count for {kind} in {text!r}")
        if any(v < 1 for v in params):
            raise InvalidSpec(f"parameters must be positive in {text!r}")
        return GroupSpec(kind, params)
