"""Builders for the default verification corpus."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .arith import is_prime
from .errors import InvalidSpec
from .groups import DEFAULT_ORDER_CAP, Group, GroupSpec
from .lattice import DEFAULT_MAX_SUBGROUPS, Subgroup, enumerate_subgroups

CorpusEntry = tuple[str, "GroupSpec | list[list[int]]"]
"""A labelled group to verify: either a declarative spec or a raw table."""

DEFAULT_CYCLIC_MAX = 200
DEFAULT_ELEM_MAX = 256
DEFAULT_DIHEDRAL_MAX = 30
DEFAULT_PQ_MAX = 500
DEFAULT_AMBIENT_SYM = 5

# the big elementary abelian 2-groups in the default corpus overflow the
# library-default subgroup cap, so corpus verification raises it
DEFAULT_VERIFY_MAX_SUBGROUPS = 500_000


def cyclic_specs(max_n: int) -> list[GroupSpec]:
    return [GroupSpec("cyclic", (n,)) for n in range(1, max_n + 1)]


def elementary_abelian_specs(max_order: int) -> list[GroupSpec]:
    """Every elementary abelian group of rank >= 2 and order <= max_order."""
    out = []
    p = 2
    while p * p <= max_order:
        if is_prime(p):
            k = 2
            while p**k <= max_order:
                out.append(GroupSpec("elem", (p, k)))
                k += 1
        p += 1
    return out


def dihedral_specs(max_n: int) -> list[GroupSpec]:
    return [GroupSpec("dihedral", (n,)) for n in range(1, max_n + 1)]


def pq_specs(max_order: int) -> list[GroupSpec]:
    """All (p, q) with p, q prime, p | q-1, and pq <= max_order."""
    out = []
    p = 2
    while p * (p + 1) <= max_order:
        if is_prime(p):
            q = p + 1
            while p * q <= max_order:
                if is_prime(q):
                    out.append(GroupSpec("pq", (p, q)))
                q += p
        p += 1
    return out


def group_fingerprint(group: Group) -> tuple:
    """Cheap isomorphism-invariant key: order, abelian flag, element-order multiset."""
    return (group.order, group.is_abelian, tuple(sorted(group.element_orders())))


def subgroup_as_group(parent: Group, sub: Subgroup, label: str) -> Group:
    """Reindex a subgroup's elements (ascending) into a standalone group."""
    members = sub.members()
    local = np.zeros(parent.order, dtype=parent.array.dtype)
    local[members] = np.arange(len(members))
    return Group(local[parent.array[np.ix_(members, members)]], label)


def ambient_subgroup_entries(max_degree: int, max_order: int = DEFAULT_ORDER_CAP) -> list[CorpusEntry]:
    """All distinct subgroups of the symmetric groups up to ``max_degree``,
    as standalone groups, deduplicated by fingerprint.

    Each symmetric group is checked against ``max_order`` before its table
    is allocated, and raises OrderCapExceeded above it.
    """
    entries: list[CorpusEntry] = []
    seen: set[tuple] = set()
    for m in range(2, max_degree + 1):
        ambient = GroupSpec("sym", (m,)).build(max_order)
        lat = enumerate_subgroups(ambient, DEFAULT_MAX_SUBGROUPS)
        for i, sub in enumerate(lat.subgroups):
            label = f"sym{m}-sub{i:03d}-ord{sub.order}"
            group = subgroup_as_group(ambient, sub, label)
            key = group_fingerprint(group)
            if key in seen:
                continue
            seen.add(key)
            entries.append((label, group.table))
    return entries


def build_default_corpus(
    cyclic_max: int = DEFAULT_CYCLIC_MAX,
    elem_max: int = DEFAULT_ELEM_MAX,
    dihedral_max: int = DEFAULT_DIHEDRAL_MAX,
    pq_max: int = DEFAULT_PQ_MAX,
    ambient_sym: int = DEFAULT_AMBIENT_SYM,
    extra_specs: Iterable[GroupSpec] = (),
    max_order: int = DEFAULT_ORDER_CAP,
) -> list[CorpusEntry]:
    """Assemble the labelled corpus, keeping the first entry of each label;
    raises InvalidSpec when it ends up empty, and OrderCapExceeded when an
    ambient symmetric group is above ``max_order``."""
    entries: list[CorpusEntry] = []
    specs: list[GroupSpec] = []
    specs.extend(cyclic_specs(cyclic_max))
    specs.extend(elementary_abelian_specs(elem_max))
    specs.extend(dihedral_specs(dihedral_max))
    specs.extend(pq_specs(pq_max))
    specs.extend(extra_specs)
    entries.extend((str(s), s) for s in specs)
    if ambient_sym >= 2:
        entries.extend(ambient_subgroup_entries(ambient_sym, max_order))
    if not entries:
        raise InvalidSpec("empty corpus: every family is disabled and no extra spec is given")
    by_label: dict[str, CorpusEntry] = {}
    for entry in entries:
        by_label.setdefault(entry[0], entry)
    return list(by_label.values())
