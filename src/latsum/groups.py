"""Finite groups as dense multiplication tables, plus the standard constructors.

Elements of a group of order n are the indices 0..n-1 with the identity
pinned at index 0; table[a][b] is the index of the product a*b.
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
    """Finite group on elements 0..n-1 (identity 0) defined by its Cayley table."""

    __slots__ = ("order", "table", "inverse", "label", "_element_orders", "_abelian", "_gens")

    def __init__(self, table: list[list[int]], label: str = "group"):
        n = len(table)
        if n == 0:
            raise InvalidTable("empty table")
        if table[0] != list(range(n)) or any(table[a][0] != a for a in range(n)):
            raise InvalidTable("identity is not at index 0")
        self.order = n
        self.table = table
        self.label = label
        try:
            self.inverse = [row.index(0) for row in table]
        except ValueError as exc:
            raise InvalidTable("some element has no inverse") from exc
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
        """Check the Latin-square, identity, inverse, and associativity laws exactly.

        Associativity uses Light's test (Clifford & Preston, *The Algebraic
        Theory of Semigroups* I, 1961, section 1.2): the elements g with
        (x*g)*y == x*(g*y) for all x, y are closed under multiplication and
        include the identity, so it suffices to check every g in
        ``generating_set()``, whose right-multiplication closure from the
        identity is the whole table.  That is one n x n gather pair per
        generator.  Raises InvalidTable on the first failure; an entry out
        of 0..n-1 fails the Latin-square check.  ``group_from_raw_table``
        checks the range itself, before ``Group`` looks for the identity
        and the inverses.
        """
        n = self.order
        arr = np.asarray(self.table, dtype=np.int64)
        expected = np.arange(n, dtype=np.int64)
        if not (np.sort(arr, axis=1) == expected).all():
            raise InvalidTable("some row is not a permutation of 0..n-1")
        if not (np.sort(arr, axis=0) == expected[:, None]).all():
            raise InvalidTable("some column is not a permutation of 0..n-1")
        if not (arr[0] == expected).all() or not (arr[:, 0] == expected).all():
            raise InvalidTable("identity law fails at index 0")
        inv = np.asarray(self.inverse, dtype=np.int64)
        if not (arr[expected, inv] == 0).all():
            raise InvalidTable("inverse law fails")
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


def _rows_from_array(arr: np.ndarray) -> list[list[int]]:
    # share one int object per element index across the whole table
    pool = list(range(arr.shape[0]))
    return [[pool[v] for v in row] for row in arr.tolist()]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def cyclic_group(n: int, label: str | None = None) -> Group:
    if n < 1:
        raise InvalidSpec(f"cyclic order must be >= 1, got {n}")
    base = list(range(n))
    table = [base[a:] + base[:a] for a in range(n)]
    return Group(table, label or f"cyclic:{n}")


def elementary_abelian_group(p: int, k: int, label: str | None = None) -> Group:
    """Direct product of k copies of the cyclic group of prime order p."""
    if not is_prime(p):
        raise InvalidSpec(f"p must be prime, got {p}")
    if k < 1:
        raise InvalidSpec(f"rank must be >= 1, got {k}")
    n = p**k
    idx = np.arange(n)
    digits = np.empty((n, k), dtype=np.int64)
    rest = idx.copy()
    for j in range(k):
        digits[:, j] = rest % p
        rest //= p
    arr = np.zeros((n, n), dtype=np.int64)
    for j in range(k):
        dj = digits[:, j]
        arr += ((dj[:, None] + dj[None, :]) % p) * p**j
    return Group(_rows_from_array(arr), label or f"elem:{p},{k}")


def dihedral_group(n: int, label: str | None = None) -> Group:
    """Symmetries of the regular n-gon, order 2n; index r + n*s for rotation r, flip s."""
    if n < 1:
        raise InvalidSpec(f"dihedral parameter must be >= 1, got {n}")
    idx = np.arange(2 * n)
    r, s = idx % n, idx // n
    sign = np.where(s == 0, 1, -1)
    rot = (r[:, None] + sign[:, None] * r[None, :]) % n
    flip = (s[:, None] + s[None, :]) % 2
    return Group(_rows_from_array(rot + n * flip), label or f"dihedral:{n}")


def symmetric_group(m: int, label: str | None = None) -> Group:
    """All permutations of m points, indexed in lexicographic one-line order."""
    if m < 1:
        raise InvalidSpec(f"symmetric degree must be >= 1, got {m}")
    perms = list(permutations(range(m)))
    index = {perm: i for i, perm in enumerate(perms)}
    table = []
    for pa in perms:
        row = [index[tuple(pa[x] for x in pb)] for pb in perms]
        table.append(row)
    return Group(table, label or f"sym:{m}")


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
    idx = np.arange(n)
    x, y = idx % q, idx // q
    tpow = np.array([pow(t, int(e), q) for e in range(p)], dtype=np.int64)
    new_x = (x[:, None] + tpow[y][:, None] * x[None, :]) % q
    new_y = (y[:, None] + y[None, :]) % p
    return Group(_rows_from_array(new_x + q * new_y), label or f"pq:{p},{q}")


def direct_product_group(parts: Sequence[Group], label: str | None = None) -> Group:
    """Direct product; the pair (a, b) is linearized as a * |B| + b, left fold."""
    if not parts:
        raise InvalidSpec("direct product needs at least one factor")
    acc = parts[0]
    for nxt in parts[1:]:
        na, nb = acc.order, nxt.order
        idx = np.arange(na * nb)
        ia, ib = idx // nb, idx % nb
        ta = np.asarray(acc.table, dtype=np.int64)
        tb = np.asarray(nxt.table, dtype=np.int64)
        arr = ta[ia[:, None], ia[None, :]] * nb + tb[ib[:, None], ib[None, :]]
        acc = Group(_rows_from_array(arr), f"({acc.label})x({nxt.label})")
    if label is not None:
        acc.label = label
    return acc


def group_from_permutations(
    degree: int,
    gens: Sequence[Sequence[int]],
    max_order: int = DEFAULT_ORDER_CAP,
    label: str | None = None,
) -> Group:
    """Close a set of permutations of {0..degree-1} under composition.

    Elements are indexed deterministically: identity first, then breadth-first
    discovery order with lexicographic tie-breaking on the one-line form.
    """
    gen_tuples = []
    for g in gens:
        tg = tuple(g)
        if sorted(tg) != list(range(degree)):
            raise NotAPermutation(f"{g!r} is not a permutation of 0..{degree - 1}")
        gen_tuples.append(tg)
    ident = tuple(range(degree))
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new: set[tuple[int, ...]] = set()
        for w in frontier:
            for g in gen_tuples:
                u = tuple(w[x] for x in g)
                if u not in seen:
                    new.add(u)
        frontier = sorted(new)
        seen.update(frontier)
        elems.extend(frontier)
        if len(elems) > max_order:
            raise OrderCapExceeded(
                f"permutation closure exceeded the order cap {max_order}"
            )
    index = {perm: i for i, perm in enumerate(elems)}
    table = [[index[tuple(pa[x] for x in pb)] for pb in elems] for pa in elems]
    return Group(table, label or f"perm-closure(deg {degree})")


def quotient_group(group: Group, normal_mask: int, label: str | None = None) -> Group:
    """Quotient by the normal subgroup with the given membership bitmask.

    Cosets are represented by their minimal member and indexed in ascending
    representative order, which puts the identity coset at index 0.  Raises
    NotNormal when ``is_normal_mask`` finds the subgroup is not normal.
    """
    n = group.order
    table = group.table
    members = _mask_members(normal_mask)
    if not normal_mask & 1:
        raise NotNormal("subgroup mask does not contain the identity")
    if not is_normal_mask(group, normal_mask):
        raise NotNormal(f"subgroup of order {len(members)} is not normal in {group.label}")
    coset_of = [-1] * n
    reps: list[int] = []
    for a in range(n):
        if coset_of[a] != -1:
            continue
        cid = len(reps)
        reps.append(a)
        for h in members:
            coset_of[table[h][a]] = cid
    q_table = [[coset_of[table[ra][rb]] for rb in reps] for ra in reps]
    return Group(q_table, label or f"{group.label}/(order {len(members)})")


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def group_from_file(
    path: str, max_order: int = DEFAULT_ORDER_CAP, label: str | None = None, kind: str | None = None
) -> Group:
    """Read a raw-table (``kind`` "table") or generator ("perm") file; with
    no kind, a file whose first non-blank line starts with "perm" is a
    generator file.

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
                kind = "perm" if head.lstrip().startswith("perm") else "table"
            if kind == "table" and head.strip():
                _table_order(next(ln for ln in head.splitlines() if ln.strip()), max_order)
            text = head + f.read().decode("utf-8")
    except OSError as exc:
        raise InvalidSpec(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidTable(f"{path!r} is not UTF-8 text: {exc}") from exc
    reader = group_from_raw_table if kind == "table" else group_from_perm_file
    return reader(text, max_order=max_order, label=label)


def _table_order(line: str, max_order: int) -> int:
    """The order n on a raw table's first line, checked against ``max_order``."""
    try:
        n = int(line.strip())
    except ValueError as exc:
        raise InvalidTable(f"first line must be the order, got {line!r}") from exc
    if n < 1:
        raise InvalidTable(f"order must be >= 1, got {n}")
    if n > max_order:
        raise OrderCapExceeded(f"table order {n} exceeds cap {max_order}")
    return n


def group_from_raw_table(text: str, max_order: int = DEFAULT_ORDER_CAP, label: str | None = None) -> Group:
    """Parse the raw table format: line 1 is n, then n rows of n indices.

    n is checked against ``max_order`` before any row is read.  The rows,
    whitespace-separated decimal integers with no comments, are parsed in one
    ``np.loadtxt`` pass and checked to be n x n entries in 0..n-1 before
    ``Group`` reads them; ``Group.validate`` then checks the laws.
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
    if arr.shape != (n, n) or arr.min() < 0 or arr.max() >= n:
        raise InvalidTable("table entries out of range")
    group = Group(arr.tolist(), label or "raw-table")
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
        pts = [int(v) for v in body.replace(",", " ").split()]
        if not pts:
            continue
        if any(not 0 <= v < degree for v in pts) or len(set(pts)) != len(pts):
            raise NotAPermutation(f"bad cycle {body!r} for degree {degree}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            if perm[a] != a:
                raise NotAPermutation(f"cycles are not disjoint in {text!r}")
            perm[a] = b
    return tuple(perm)


def group_from_perm_file(text: str, max_order: int = DEFAULT_ORDER_CAP, label: str | None = None) -> Group:
    """Parse the generator format: ``perm <degree>`` then one generator per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("perm"):
        raise InvalidTable("permutation file must start with 'perm <degree>'")
    parts = lines[0].split()
    if len(parts) != 2 or not parts[1].isdigit():
        raise InvalidTable(f"bad header {lines[0]!r}")
    degree = int(parts[1])
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
        try:
            params = tuple(int(v) for v in rest.split(","))
        except ValueError as exc:
            raise InvalidSpec(f"non-integer parameters in {text!r}") from exc
        if len(params) not in _FAMILIES[kind][1]:
            raise InvalidSpec(f"wrong parameter count for {kind} in {text!r}")
        if any(v < 1 for v in params):
            raise InvalidSpec(f"parameters must be positive in {text!r}")
        return GroupSpec(kind, params)
