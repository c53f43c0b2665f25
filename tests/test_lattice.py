import math
import os
import random
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latsum import (
    Group,
    GroupSpec,
    LatsumError,
    Lattice,
    LatticeTooLarge,
    NotAPGroup,
    OrderCapExceeded,
    classify,
    conjugates,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    elementary_abelian_group,
    enumerate_subgroups,
    frattini,
    frattini_rank,
    gaussian_subgroup_count,
    group_from_permutations,
    is_nilpotent,
    is_normal,
    maximal_subgroups,
    recognize,
    semidirect_pq_group,
    symmetric_group,
    sylow_decomposition,
)
import latsum.lattice
from latsum.corpus import build_default_corpus, dihedral_specs, pq_specs, subgroup_as_group
from latsum.errors import InvariantViolation
from latsum.groups import generated_mask, group_from_raw_table
from latsum.analysis import analyze_group
from latsum.arith import factorize
from latsum.lattice import Subgroup, _enumerate_part, _enumerate_worklist, nilpotent_by_element_orders

from make_golden_lattices import masks_sha256
from helpers import (
    CountingTable,
    brute_force_subgroup_masks,
    conjugate_masks_by_walk,
    contains_subgroup,
    descending_maximal_scan,
    direct_factor_product_masks,
    divisors,
    every_subgroup_worklist,
    first_subgroup_of_each_order,
    is_normal_by_conjugation,
    is_solvable_by_derived_series,
    naive_order_census,
    normalizer,
    permutation_from_cycles,
    relabelled,
    run_python,
    subgroup_classes,
    subgroup_generators,
    subspace_masks_by_loop,
    sylow_decomposition_by_normality_scan,
    sylow_wreath_product,
)


def lat_of(spec: str, cap: int = 100_000):
    group = GroupSpec.parse(spec).build()
    return group, enumerate_subgroups(group, cap)


def test_trivial_lattice():
    _, lat = lat_of("cyclic:1")
    assert len(lat) == 1
    assert lat.census == {1: 1}


def test_s3_lattice():
    _, lat = lat_of("pq:2,3")
    assert len(lat) == 6
    assert lat.census == {1: 1, 2: 3, 3: 1, 6: 1}


def test_klein_lattice():
    _, lat = lat_of("elem:2,2")
    assert len(lat) == 5
    assert lat.census == {1: 1, 2: 3, 4: 1}


def test_cyclic_lattice_one_subgroup_per_divisor():
    for n in (1, 2, 12, 30, 60, 97):
        g = cyclic_group(n)
        lat = enumerate_subgroups(g)
        assert sorted(s.order for s in lat.subgroups) == divisors(n)


def test_lattice_matches_brute_force_small():
    for spec in ["cyclic:8", "cyclic:12", "elem:2,2", "elem:2,3", "dihedral:4", "pq:2,3", "dihedral:6", "sym:3"]:
        group, lat = lat_of(spec)
        assert {s.mask for s in lat.subgroups} == brute_force_subgroup_masks(group), spec


def test_d4_census_matches_oracle():
    group, lat = lat_of("dihedral:4")
    assert lat.census == naive_order_census(group) == {1: 1, 2: 5, 4: 3, 8: 1}


def test_fast_path_agrees_with_worklist():
    ranks = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]
    groups = [elementary_abelian_group(p, k) for p, k in ranks]
    # relabelled copies, whose greedy basis is not the constructor's digit order
    rng = random.Random(5)
    for p, k in [(3, 3), (2, 5)]:
        group = Group(relabelled(elementary_abelian_group(p, k).table, rng), f"relabelled elem:{p},{k}")
        group.validate()
        groups.append(group)
    for group in groups:
        fast = enumerate_subgroups(group)
        assert {s.mask for s in fast.subgroups} == every_subgroup_worklist(group), group.label
        want = descending_maximal_scan(group.order, fast.subgroups)
        assert sorted(m.mask for m in maximal_subgroups(fast)) == sorted(m.mask for m in want), group.label


def _subspace_kernel_groups():
    ranks = [(2, k) for k in range(2, 8)] + [(3, k) for k in range(2, 6)] + [(5, 2), (5, 3), (7, 2)]
    groups = [(elementary_abelian_group(p, k), p, k) for p, k in ranks]
    # relabelled copies, whose greedy basis is not the constructor's digit order
    rng = random.Random(17)
    for p, k in [(2, 6), (3, 4), (5, 3)]:
        group = Group(relabelled(elementary_abelian_group(p, k).table, rng), f"relabelled elem:{p},{k}")
        group.validate()
        groups.append((group, p, k))
    group = Group(relabelled(elementary_abelian_group(5, 2).table, random.Random(23)), "relabelled elem:5,2")
    group.validate()
    groups.append((group, 5, 2))
    return groups


def _by_order_and_mask(masks) -> list[int]:
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def _assert_blocks_match_census(lat) -> None:
    """The orders of ``lat.subgroups`` are the census blocks, in order."""
    orders = [s.order for s in lat.subgroups]
    assert orders == [order for order, count in lat.census.items() for _ in range(count)], lat.group.label
    assert list(lat.census) == sorted(lat.census), lat.group.label


def test_subspace_blocks_match_loop_oracle():
    # every order here but 64 and 128 is not a multiple of 64, so its mask
    # rows carry leading zero bits up to a whole 64-bit word.  Each
    # relabelled copy comes after the group of its (p, k), so its rows come
    # from the plan made then, and no new plan is made for it.
    plans = latsum.lattice._subspace_plan.cache_info
    for group, p, k in _subspace_kernel_groups():
        made = plans().misses
        lat = enumerate_subgroups(group)
        if group.label.startswith("relabelled"):
            assert plans().misses == made, group.label
        want = subspace_masks_by_loop(group, p, k)
        assert _by_order_and_mask(s.mask for s in lat.subgroups) == want, group.label
        _assert_blocks_match_census(lat)
        hyperplanes = [m for m in want if m.bit_count() * p == group.order]
        assert sorted(m.mask for m in maximal_subgroups(lat)) == hyperplanes, group.label


def test_subspace_view_matches_its_mask_list():
    # elem:3,5 has 243 elements, so its packed rows are 32 bytes wide, the
    # first 13 bits of each zero; D8 x C9 splits into two parts, whose
    # view builds each product's mask when it is read
    cases = []
    for p, k in [(3, 3), (3, 5)]:
        group = elementary_abelian_group(p, k)
        size = sum(gaussian_subgroup_count(k, p, r) for r in range(k + 1))
        cases.append((group, subspace_masks_by_loop(group, p, k), size))
    group = GroupSpec.parse("product:dihedral:4+cyclic:9").build()
    cases.append((group, _by_order_and_mask(every_subgroup_worklist(group)), 30))
    for group, masks, size in cases:
        lat = enumerate_subgroups(group)
        view = lat.subgroups
        assert not isinstance(view, list) and len(view) == len(masks) == len(lat) == size
        read = [s.mask for s in view]
        assert _by_order_and_mask(read) == masks
        _assert_blocks_match_census(lat)
        for i in (0, 1, 13, size - 1, -1, -2, -size):
            assert view[i].mask == read[i] and view[i].order == read[i].bit_count(), (group.label, i)
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                view[i]
        for part in (slice(None, 1), slice(2, None), slice(5, 9), slice(None, None, -3), slice(-4, None)):
            got = view[part]
            assert isinstance(got, list) and [s.mask for s in got] == read[part], (group.label, part)
        assert [s.mask for s in view[:1] + view[2:]] == read[:1] + read[2:]
        assert view[0].mask == masks[0] == 1 and view[-1].mask == masks[-1] == (1 << group.order) - 1


def test_subspace_rows_read_the_same_each_time():
    # the reader stores no row and makes each one from the kernels' masks
    # on every read, so two full iterations agree row for row
    group = elementary_abelian_group(2, 6)
    lat = enumerate_subgroups(group)
    first = [s.mask for s in lat.subgroups]
    assert [s.mask for s in lat.subgroups] == first
    assert len(set(first)) == len(first) == 2825


def test_subspace_kernel_peak_memory():
    # elem:2,8 has 417,199 subgroups, and enumeration stores none of their
    # rows: it builds the plan for (2, 8), its 255 x 256 kernel table, and
    # the kernels' 255 masks of 32 bytes, which are the hyperplanes.  Every
    # row is made from those masks when it is read, so a cold enumeration,
    # the plan made afresh, peaks far below the 13.3 MB the rows would hold.
    group = elementary_abelian_group(2, 8)
    latsum.lattice._subspace_plan.cache_clear()
    tracemalloc.start()
    try:
        lat = enumerate_subgroups(group, 500_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lat) == 417_199
    assert peak < 1 << 20, peak


def test_subspace_rows_written_on_read_peak_memory():
    # a streaming read of every row of elem:2,8 through the view: the reader
    # makes each row from the 255 kernels' masks and keeps none, so the
    # traced peak, rows included, is a few rows and the iterator's frames,
    # about 1.2 KiB, where the 417,199 rows of 32 bytes would hold 13.3 MB
    group = elementary_abelian_group(2, 8)
    lat = enumerate_subgroups(group, 500_000)
    tracemalloc.start()
    try:
        read = sum(1 for _ in lat.subgroups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read == 417_199
    assert peak < 16 << 10, peak


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads resident pages from /proc")
def test_subspace_reads_hold_no_rows():
    # a read of elem:2,8 makes its rows from the kernels' masks and keeps
    # none, so two streaming full reads, each with its lattice still held,
    # leave the resident set where it was; its 417,199 rows of 32 bytes
    # would hold 13.3 MB.  A first lattice, read in part and dropped, makes
    # the plan and warms the allocator before the resident set is taken.
    def resident_mb() -> float:
        return int(Path("/proc/self/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

    group = elementary_abelian_group(2, 8)
    enumerate_subgroups(group, 500_000).subgroups[:2048]
    before = resident_mb()
    for _ in range(2):
        lat = enumerate_subgroups(group, 500_000)
        for _ in lat.subgroups:
            pass
        assert resident_mb() - before < 1, resident_mb() - before


def test_subspace_block_count_checked_against_rows_written(monkeypatch):
    # a closed form one short or one too many of the 15 rows that the plan
    # lists for order 2 fires, before any mask is built
    group = elementary_abelian_group(2, 4)
    for off in [-1, 1]:
        count = lambda k, p, i, off=off: gaussian_subgroup_count(k, p, i) + off * (i == 1)
        monkeypatch.setattr(latsum.lattice, "gaussian_subgroup_count", count)
        message = f"subspace kernel found 15 subgroups of order 2, expected {15 + off}"
        with pytest.raises(InvariantViolation, match=message):
            enumerate_subgroups(group)


def test_subspace_closed_form_checked_on_a_warm_plan(monkeypatch):
    # the plan for (2, 4) is kept after the first call, and the closed form
    # is still checked against it on every call
    enumerate_subgroups(elementary_abelian_group(2, 4))
    test_subspace_block_count_checked_against_rows_written(monkeypatch)


def _one_product_off(spec: str, a: int, b: int) -> Group:
    # a * b sent to the identity, so the coordinates read from the array
    # reach one element twice and another never, and the first block
    # written, the hyperplanes, has a row short of p^(k-1) elements; the
    # list rows stay right, and the greedy basis with them
    group = GroupSpec.parse(spec).build()
    wrong = group.array.copy()
    wrong[a, b] = 0
    group.array = wrong
    return group


@pytest.mark.parametrize("spec, a, b, r", [("elem:2,4", 1, 2, 3), ("elem:3,3", 1, 3, 2), ("elem:2,8", 3, 4, 7)])
def test_repeated_span_element_raises(spec, a, b, r):
    group = _one_product_off(spec, a, b)
    p = GroupSpec.parse(spec).params[0]
    with pytest.raises(InvariantViolation, match=f"a subgroup of order {p**r} in {spec} was made with"):
        enumerate_subgroups(group, 500_000)


@pytest.mark.parametrize("spec", ["elem:2,5", "elem:3,3", "sym:4", "pq:3,7", "cyclic:12", "product:elem:2,2+cyclic:9"])
def test_subgroups_of_order_matches_filter_scan(spec):
    group, lat = lat_of(spec)
    for order in [*lat.census, group.order + 1]:
        want = [s.mask for s in lat.subgroups if s.order == order]
        assert [s.mask for s in lat.subgroups_of_order(order)] == want, (spec, order)
        assert len(want) == lat.census.get(order, 0), (spec, order)


def test_enumeration_makes_subgroups_only_for_what_is_read(monkeypatch):
    # elem:2,8 has 417,199 subgroups; an analysis reads its 255 hyperplanes,
    # one Sylow block of one subgroup, and the Frattini subgroup.  The
    # worklist passes bare masks, so enumerating S4, D32 and S5 makes one
    # Subgroup per maximal subgroup it records, and no other
    calls = 0
    init = Subgroup.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Subgroup, "__init__", counting_init)
    report = analyze_group(elementary_abelian_group(2, 8), 500_000)
    assert report.subgroup_count == 417_199
    assert calls <= 300
    for spec, maximals in [("sym:4", 8), ("dihedral:16", 3), ("sym:5", 22)]:
        group = GroupSpec.parse(spec).build()
        calls = 0
        lat = enumerate_subgroups(group)
        assert calls == len(lat.maximals) == maximals, (spec, calls)


def test_subspace_rows_below_the_hyperplanes_are_made_only_when_read(monkeypatch):
    # an analysis of elem:2,8 reads the hyperplanes, the Sylow block (the
    # whole group) and the census, and makes no row below the hyperplanes;
    # each read below them makes the rows it reads, and no others
    below = 417_199 - 256  # the last 256 rows are the hyperplanes and the whole group
    made = 0
    init = latsum.lattice._SubgroupView.__init__

    def counting(self, blocks, make, label):
        def counted(picks):
            nonlocal made
            mask = make(picks)
            made += mask.bit_count() < 128  # rows of order below 128 lie below the hyperplanes
            return mask

        init(self, blocks, counted, label)

    monkeypatch.setattr(latsum.lattice._SubgroupView, "__init__", counting)
    group = elementary_abelian_group(2, 8)
    analyze_group(group, 500_000)
    assert made == 0
    lat = enumerate_subgroups(group, 500_000)
    assert [s.order for s in lat.subgroups[-256:]] == [128] * 255 + [256] and made == 0
    # blocks 0 and 1 hold 256 rows, block 2 the next 10,795
    interior = lat.subgroups[1000]
    assert made == 1 and interior.order == 4
    assert lat.subgroups[0].mask == 1 and lat.subgroups[1].order == 2 and lat.subgroups[-2].order == 128
    assert made == 3
    masks = [s.mask for s in lat.subgroups]
    assert made == 3 + below
    assert masks[1000] == interior.mask and len(set(masks)) == len(masks) == 417_199


# (p, k, m) for elem:p,k x cyclic:m, the abelian products of the
# abelian-lattice benchmark workload
ABELIAN_BENCHMARK_PRODUCTS = [
    (5, 2, 7), (3, 2, 16), (3, 2, 19), (2, 3, 9), (2, 2, 25), (5, 2, 6),
    (2, 4, 3), (2, 2, 27), (2, 2, 29), (7, 2, 4), (2, 3, 11), (3, 2, 23),
    (2, 2, 31), (3, 2, 20), (2, 2, 33), (3, 2, 25), (2, 3, 13), (3, 3, 4),
    (2, 2, 47), (2, 2, 35), (3, 2, 22), (5, 2, 8), (2, 2, 37), (3, 3, 5),
]


def test_subspace_maximals_are_the_hyperplane_block_in_order():
    # enumeration takes the maximals from the kernels' masks, and the
    # reader makes the view's order-p^(k-1) block from the plan: the two
    # must agree in order, for every subspace-kernel group and for the
    # elementary abelian part of each abelian product of the benchmark
    for group, p, k in _subspace_kernel_groups():
        lat = enumerate_subgroups(group)
        block = [s.mask for s in lat.subgroups_of_order(p ** (k - 1))]
        assert [m.mask for m in maximal_subgroups(lat)] == block, group.label
    for p, k, m in ABELIAN_BENCHMARK_PRODUCTS:
        group = GroupSpec.parse(f"product:elem:{p},{k}+cyclic:{m}").build()
        (members,) = [members for members in latsum.lattice._parts(group) if len(members) == p**k]
        part = _enumerate_part(group, members, 100_000)
        census = part.subgroups.census
        start = sum(count for order, count in census.items() if order < p ** (k - 1))
        block = [s.mask for s in part.subgroups[start : start + census[p ** (k - 1)]]]
        assert [h.mask for h in part.maximals] == block, group.label


def test_direct_factor_view_matches_the_eager_product_oracle(monkeypatch):
    # the view's masks, in the lattice's order, against every product
    # built at once from the same parts, each part's subgroups in census
    # order, and sorted by order, stably: the entries of
    # the default corpus with two or more parts, the abelian products of
    # the benchmark in two layouts, and C2^6 x C3^2
    parts = []

    def recording(group, members, max_subgroups):
        part = _enumerate_part(group, members, max_subgroups)
        parts.append(list(part.subgroups))
        return part

    monkeypatch.setattr(latsum.lattice, "_enumerate_part", recording)
    groups = []
    for label, source in build_default_corpus():
        group = source.build() if isinstance(source, GroupSpec) else Group(source, label)
        if len(latsum.lattice._parts(group)) > 1:
            groups.append(group)
    assert len(groups) > 100
    for p, k, m in ABELIAN_BENCHMARK_PRODUCTS:
        groups.append(GroupSpec.parse(f"product:elem:{p},{k}+cyclic:{m}").build())
        groups.append(GroupSpec.parse(f"product:cyclic:{m}+elem:{p},{k}").build())
    groups.append(GroupSpec.parse("product:elem:2,6+elem:3,2").build())
    for group in groups:
        parts.clear()
        lat = enumerate_subgroups(group, 500_000)
        want = sorted(direct_factor_product_masks(group, parts), key=int.bit_count)
        assert [s.mask for s in lat.subgroups] == want, group.label
        assert {m.mask for m in maximal_subgroups(lat)} <= set(want), group.label


# sha256, by masks_sha256, of the sorted subgroup masks of C2^6 x C3^2 as
# every_subgroup_worklist finds them, which takes it about 20 s
ELEM_2_6_BY_ELEM_3_2_ORACLE_SHA256 = "1b0afb854a4962d351757c4c4856d336b71252ffa825f92124402ba614bce5d0"


def test_parts_by_kernel_match_the_every_subgroup_oracle():
    # the abelian products of the benchmark, whose elementary abelian part
    # takes the subspace kernel beside a cyclic part on the worklist, and
    # C2^4 x C3^2 and C2^6 x C3^2, both of whose parts take the subspace
    # kernel; the last against the oracle's recorded digest
    specs = [f"product:elem:{p},{k}+cyclic:{m}" for p, k, m in ABELIAN_BENCHMARK_PRODUCTS]
    for spec in [*specs, "product:elem:2,4+elem:3,2", "product:elem:2,6+elem:3,2"]:
        group, lat = lat_of(spec)
        masks = [s.mask for s in lat.subgroups]
        assert len(masks) == len(set(masks)), spec
        if spec == "product:elem:2,6+elem:3,2":
            assert len(masks) == 16_950 and masks_sha256(masks) == ELEM_2_6_BY_ELEM_3_2_ORACLE_SHA256
        else:
            assert set(masks) == every_subgroup_worklist(group), spec
        want = descending_maximal_scan(group.order, lat.subgroups)
        assert sorted(m.mask for m in maximal_subgroups(lat)) == sorted(m.mask for m in want), spec


def test_direct_factor_enumeration_keeps_no_per_tuple_state():
    # C2^7 x C3 has 29,212 x 2 = 58,424 subgroups; G's blocks, one per
    # order of G, come from the parts' censuses, so enumeration lists no
    # order or index per tuple of part subgroups
    group = GroupSpec.parse("product:elem:2,7+cyclic:3").build()
    enumerate_subgroups(group)  # makes the plan for (2, 7)
    group = GroupSpec.parse("product:elem:2,7+cyclic:3").build()
    tracemalloc.start()
    try:
        lat = enumerate_subgroups(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lat) == 58_424
    assert peak < 512 << 10, peak


def test_a_full_read_lists_each_part_subgroup_once(monkeypatch):
    # C2^6 x C3^2 has 2,825 x 6 = 16,950 subgroups, and both its parts take
    # the subspace kernel: enumerating it and reading its view twice reads
    # each nontrivial subgroup of its parts once and lists its members once,
    # however many products it is a factor of; a part's trivial subgroup,
    # below its hyperplanes, is never read
    listed, read = Counter(), Counter()
    members, item = latsum.lattice._mask_members, latsum.lattice._SubgroupView.__getitem__

    def listing(mask):
        listed[mask] += 1
        return members(mask)

    def reading(self, i):
        # the parts' views are read by index; the lattice's own is iterated
        read[id(self), i] += 1
        return item(self, i)

    monkeypatch.setattr(latsum.lattice, "_mask_members", listing)
    monkeypatch.setattr(latsum.lattice._SubgroupView, "__getitem__", reading)
    lat = enumerate_subgroups(GroupSpec.parse("product:elem:2,6+elem:3,2").build())
    masks = [s.mask for s in lat.subgroups]
    assert [s.mask for s in lat.subgroups] == masks and len(set(masks)) == 16_950
    assert len(listed) == 2824 + 5 and max(listed.values()) == 1
    assert len(read) == 2824 + 5 and max(read.values()) == 1 and 0 not in {i for _, i in read}


def _unitriangular_order_27():
    # (a, b, c) with (a1,b1,c1)(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2) mod 3
    def idx(a, b, c):
        return a + 3 * b + 9 * c

    table = [[0] * 27 for _ in range(27)]
    for a1 in range(3):
        for b1 in range(3):
            for c1 in range(3):
                for a2 in range(3):
                    for b2 in range(3):
                        for c2 in range(3):
                            table[idx(a1, b1, c1)][idx(a2, b2, c2)] = idx(
                                (a1 + a2) % 3, (b1 + b2) % 3, (c1 + c2 + a1 * b2) % 3
                            )
    return Group(table, "unitriangular-27")


ABELIAN_ORACLE_SPECS = [f"cyclic:{n}" for n in range(1, 65)] + [
    "cyclic:360",
    "cyclic:720",
    "cyclic:1920",
    # abelian p-groups that are not elementary, so they take the worklist
    "product:cyclic:2+cyclic:4+cyclic:8",
    "product:cyclic:9+cyclic:3",
    # mixed primes
    "product:elem:2,2+cyclic:9",
    "product:elem:3,2+cyclic:8",
]


# the quaternion group: 0..3 are 1, i, j, k and 4..7 their negatives
Q8_TABLE = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 4, 3, 6, 5, 0, 7, 2],
    [2, 7, 4, 1, 6, 3, 0, 5],
    [3, 2, 5, 4, 7, 6, 1, 0],
    [4, 5, 6, 7, 0, 1, 2, 3],
    [5, 0, 7, 2, 1, 4, 3, 6],
    [6, 3, 0, 5, 2, 7, 4, 1],
    [7, 6, 1, 0, 3, 2, 5, 4],
]


def _a4_times_s3():
    # A4 on the points 0..3 and S3 on 4..6: its subgroup C3 x C2, <(0 1 2),
    # (4 5)>, is its own normalizer yet lies in A4 x C2 and C3 x S3, so its
    # class takes no prime step and is not maximal
    cycles = [[(0, 1, 2)], [(0, 1), (2, 3)], [(4, 5, 6)], [(4, 5)]]
    return group_from_permutations(7, [permutation_from_cycles(7, c) for c in cycles], label="A4 x S3")


def _oracle_groups():
    groups = [spec.build() for spec in pq_specs(120) + dihedral_specs(30)]
    for text in [
        "sym:3",
        "sym:4",
        "product:pq:2,3+cyclic:5",
        "product:sym:4+cyclic:5",
        # nonabelian groups with elements of large composite order
        "dihedral:100",
        "product:sym:4+cyclic:25",
        # nonabelian nilpotent groups of two or more primes, which are
        # enumerated one Sylow subgroup, one part, at a time
        "product:dihedral:4+cyclic:3",
        "product:dihedral:8+cyclic:9",
        "product:dihedral:4+elem:3,2",
        # groups that are not nilpotent but split off a Sylow subgroup, whose
        # parts include a nonabelian rest part; the rest part of D10 x C3
        # comes first, that of F21 x C2 last
        "product:dihedral:5+cyclic:3",
        "product:pq:3,7+cyclic:2",
        "product:pq:2,3+cyclic:5+cyclic:7",
        # S3 x F55 splits off no Sylow subgroup, though it is the direct
        # product of two Hall subgroups
        "product:pq:2,3+pq:5,11",
        # S4 x F21, 380 subgroups, on the whole-group worklist
        "product:sym:4+pq:3,7",
        *ABELIAN_ORACLE_SPECS,
    ]:
        groups.append(GroupSpec.parse(text).build())
    q8 = Group(Q8_TABLE, "Q8")
    q8.validate()
    groups.append(direct_product_group([q8, cyclic_group(3)]))
    groups.append(direct_product_group([sylow_wreath_product("C2wrC2wrC2"), cyclic_group(3)]))
    groups.append(_a4_times_s3())
    # relabelled tables, whose element indices do not follow the powers of a
    # generator or the layout of a direct product
    for spec, seed in [
        ("product:cyclic:6+cyclic:12", 23),
        ("product:dihedral:4+cyclic:9", 29),
        ("product:pq:2,3+cyclic:35", 31),
    ]:
        group = Group(relabelled(GroupSpec.parse(spec).build().table, random.Random(seed)), f"relabelled {spec}")
        group.validate()
        groups.append(group)
    groups.append(_unitriangular_order_27())
    s5 = symmetric_group(5)
    for i, mask in enumerate(sorted(every_subgroup_worklist(s5))):
        groups.append(subgroup_as_group(s5, Subgroup(mask), f"sym5-sub{i:03d}"))
    return groups


def test_class_enumeration_matches_every_subgroup_oracle():
    groups = _oracle_groups()
    assert len(groups) > 156 + 30 + len(ABELIAN_ORACLE_SPECS)
    assert sum(g.is_abelian for g in groups) > len(ABELIAN_ORACLE_SPECS)
    for group in groups:
        lat = enumerate_subgroups(group)
        masks = [s.mask for s in lat.subgroups]
        assert len(masks) == len(set(masks)), group.label
        assert set(masks) == every_subgroup_worklist(group), group.label
        want = descending_maximal_scan(group.order, lat.subgroups)
        assert sorted(m.mask for m in maximal_subgroups(lat)) == sorted(m.mask for m in want), group.label
        # one census count per prime against is_normal on each subgroup of a Sylow order
        assert sylow_decomposition(group, lat) == sylow_decomposition_by_normality_scan(group, lat), group.label


@pytest.mark.parametrize("name, classes, nonabelian", [("C2wrC2wrC2", 35, 25), ("C3wrC3", 8, 3), ("C2wrC4", 16, 8)])
def test_sylow_wreath_product_subgroups_match_the_oracles(name, classes, nonabelian):
    # nonabelian p-groups of orders 128, 81 and 64; C2 wr C2 wr C2 has 31
    # fingerprints, and its census splits four of them in two
    group = sylow_wreath_product(name)
    kept = subgroup_classes(group)
    assert (len(kept), sum(not g.is_abelian for g in kept)) == (classes, nonabelian)
    assert np.array_equal(kept[-1].array, group.array)
    for sub in kept:
        lat = enumerate_subgroups(sub)
        masks = [s.mask for s in lat.subgroups]
        assert len(masks) == len(set(masks)), sub.label
        assert set(masks) == every_subgroup_worklist(sub), sub.label
        want = descending_maximal_scan(sub.order, lat.subgroups)
        assert sorted(m.mask for m in maximal_subgroups(lat)) == sorted(m.mask for m in want), sub.label
        assert sylow_decomposition(sub, lat) == sylow_decomposition_by_normality_scan(sub, lat), sub.label
        profile = recognize(sub, lat)
        assert profile.is_nilpotent and classify(sub, lat, profile).theorem_consistent, sub.label


def test_abelian_groups_run_no_closure_and_no_conjugation(monkeypatch):
    # abelian groups extend by prime steps, each a union of cosets read off
    # the Cayley table, and every class is a single subgroup
    groups = [GroupSpec.parse(spec).build() for spec in ["cyclic:360", "product:elem:2,2+cyclic:9"]]
    want = {g.label: every_subgroup_worklist(g) for g in groups}

    def forbidden(*args, **kwargs):
        raise AssertionError("called on an abelian group")

    monkeypatch.setattr(latsum.lattice, "generated_mask", forbidden)
    monkeypatch.setattr(latsum.lattice, "conjugates", forbidden)
    for group in groups:
        lat = enumerate_subgroups(group)
        assert {s.mask for s in lat.subgroups} == want[group.label], group.label
        maximals = descending_maximal_scan(group.order, lat.subgroups)
        assert sorted(m.mask for m in maximal_subgroups(lat)) == sorted(m.mask for m in maximals), group.label


def test_nonabelian_worklist_runs_one_closure_per_class_of_coset_powers(monkeypatch):
    # h*x^j with j coprime to the least k with x^k in H extends H to <H, x>,
    # so the coset powers of x are covered without a closure of their own.
    # dihedral:500 and pq:2,241 are solvable and take prime steps, which run
    # no closure at all; S5 is not, and its fallback walk runs the closures
    closures = 0

    def counting(*args, **kwargs):
        nonlocal closures
        closures += 1
        return generated_mask(*args, **kwargs)

    monkeypatch.setattr(latsum.lattice, "generated_mask", counting)
    for spec, bound in [("dihedral:500", 1300), ("pq:2,241", 260), ("sym:5", 353)]:
        closures = 0
        group, lat = lat_of(spec)
        assert not group.is_abelian
        assert closures <= bound, (spec, closures)
    # D_n has one cyclic subgroup of order d and n/d dihedral ones of order
    # 2d for each d | n: tau(n) + sigma(n) subgroups in all
    group, lat = lat_of("dihedral:500")
    want: dict[int, int] = {}
    for d in divisors(500):
        want[d] = want.get(d, 0) + 1
        want[2 * d] = want.get(2 * d, 0) + 500 // d
    assert lat.census == dict(sorted(want.items()))
    assert len(lat) == len(divisors(500)) + sum(divisors(500)) == 1104


def test_prime_step_covers_its_whole_extension():
    # the one prime step from the trivial subgroup of C_p gives the whole
    # group and covers all of it, so no other element is powered: the
    # Cayley table is read O(p) times, not once per power of every element
    group = cyclic_group(997)
    assert group.is_abelian
    group.table = CountingTable(group.table)
    lat = enumerate_subgroups(group)
    assert lat.census == {1: 1, 997: 1}
    assert [m.order for m in maximal_subgroups(lat)] == [1]
    assert group.table.reads < 3 * group.order


def test_composite_cosets_cover_every_generator_of_their_section():
    # a coset Hx of composite order k also covers every Hx^j with j coprime
    # to k, so no generator of <Hx> in G/H is powered again to its order k
    group = cyclic_group(1920)
    assert group.is_abelian
    group.table = CountingTable(group.table)
    lat = enumerate_subgroups(group)
    assert lat.census == {d: 1 for d in divisors(1920)}
    assert group.table.reads < 200_000


def test_nonabelian_exponent_p_group_avoids_subspace_kernel(monkeypatch):
    # exponent 3 but nonabelian: subgroups are NOT GF(3)-subspaces, so the
    # enumeration must take the worklist and find 4 (not 13) subgroups of
    # order 9
    group = _unitriangular_order_27()
    group.validate()
    assert math.lcm(*group.element_orders()) == 3 and not group.is_abelian

    def forbidden(*args):
        raise AssertionError("took the subspace kernel")

    monkeypatch.setattr(latsum.lattice, "_enumerate_elementary_abelian", forbidden)
    _enumerate_part(group, range(27), 100_000)
    lat = enumerate_subgroups(group)
    assert lat.census == {1: 1, 3: 13, 9: 4, 27: 1}
    assert gaussian_subgroup_count(3, 3, 2) == 13  # the rank-3 group differs here
    # so must the part of order 27 of U x C2, which the worklist walks
    product = direct_product_group([group, cyclic_group(2)])
    lat = enumerate_subgroups(product)
    assert lat.census == {1: 1, 2: 1, 3: 13, 6: 13, 9: 4, 18: 4, 27: 1, 54: 1}
    assert {s.mask for s in lat.subgroups} == every_subgroup_worklist(product)


def test_elementary_abelian_census_matches_gaussian():
    for p, k in [(2, 2), (2, 4), (2, 6), (3, 3), (5, 2)]:
        _, lat = lat_of(f"elem:{p},{k}")
        for i in range(k + 1):
            assert lat.census[p**i] == gaussian_subgroup_count(k, p, i), (p, k, i)


def test_lattice_blocks_ascend_and_repeat():
    # the worklist (dihedral:6), the subspace kernel (elem:2,4) and two
    # parts (product:dihedral:4+cyclic:9 and, with a
    # nonabelian rest part, product:pq:2,3+cyclic:5)
    for spec in ["dihedral:6", "elem:2,4", "product:dihedral:4+cyclic:9", "product:pq:2,3+cyclic:5"]:
        _, lat1 = lat_of(spec)
        _, lat2 = lat_of(spec)
        _assert_blocks_match_census(lat1)
        assert [s.mask for s in lat1.subgroups] == [s.mask for s in lat2.subgroups], spec
        assert [m.mask for m in maximal_subgroups(lat1)] == [m.mask for m in maximal_subgroups(lat2)], spec


def test_lattice_too_large():
    group = elementary_abelian_group(2, 6)
    with pytest.raises(LatticeTooLarge):
        enumerate_subgroups(group, max_subgroups=100)
    with pytest.raises(LatticeTooLarge):
        # the worklist must also respect the cap
        _enumerate_worklist(symmetric_group(4), range(24), 10)


@pytest.mark.parametrize(
    "spec, count",
    [
        ("pq:2,241", 244),
        ("product:cyclic:4+cyclic:4", 15),
        ("cyclic:720", 30),
        ("product:dihedral:4+cyclic:9", 30),
        ("product:pq:2,3+cyclic:25", 18),
    ],
)
def test_lattice_cap_boundary(spec, count):
    # a nonabelian group on the worklist, whose classes enter the count
    # whole; an abelian p-group on the worklist, where every class is a
    # single subgroup; and three groups of several parts, whose count is
    # the product of their parts' counts (cyclic:720
    # has 5 * 3 * 2 subgroups, D8 x C9 has 10 * 3, and S3 x C25 has 6 * 3)
    group = GroupSpec.parse(spec).build()
    with pytest.raises(LatticeTooLarge):
        enumerate_subgroups(group, max_subgroups=count - 1)
    assert len(enumerate_subgroups(group, max_subgroups=count)) == count


def test_groups_with_a_sylow_direct_factor_enumerate_one_part_at_a_time(monkeypatch):
    # one kernel per part: each Sylow subgroup that is a direct factor, and
    # one rest part at its smallest prime; a p-group and a group that
    # splits off no Sylow subgroup are their own one part.  An elementary
    # abelian part of rank >= 2 takes the subspace kernel, and every other
    # part the worklist: cyclic parts, parts of rank 1, abelian parts that
    # are not of exponent p, and the nonabelian part of exponent 3 of
    # U x C2, U the unitriangular group of order 27
    sizes = []

    def recording(kernel, name):
        def run(group, members, *args):
            sizes.append((len(members), name))
            return kernel(group, members, *args)

        monkeypatch.setattr(latsum.lattice, kernel.__name__, run)

    recording(_enumerate_worklist, "worklist")
    recording(latsum.lattice._enumerate_elementary_abelian, "subspace")
    unitriangular = _unitriangular_order_27()
    w, s = "worklist", "subspace"
    for source, want in [
        ("cyclic:720", [(16, w), (9, w), (5, w)]),
        ("product:dihedral:4+cyclic:9", [(8, w), (9, w)]),
        ("product:pq:2,3+cyclic:5", [(6, w), (5, w)]),
        ("product:sym:4+cyclic:25", [(24, w), (25, w)]),
        ("product:pq:3,7+cyclic:2", [(2, w), (21, w)]),
        ("dihedral:4", [(8, w)]),
        ("pq:2,3", [(6, w)]),
        ("pq:3,7", [(21, w)]),
        ("sym:4", [(24, w)]),
        ("product:pq:2,3+pq:5,11", [(330, w)]),
        ("elem:2,4", [(16, s)]),
        ("product:elem:2,2+cyclic:2", [(8, s)]),
        ("product:cyclic:9+cyclic:3", [(27, w)]),
        ("product:elem:2,3+cyclic:9", [(8, s), (9, w)]),
        ("product:cyclic:8+elem:3,2", [(8, w), (9, s)]),
        ("product:elem:2,2+elem:3,2+cyclic:5", [(4, s), (9, s), (5, w)]),
        ("product:elem:3,2+pq:2,5", [(10, w), (9, s)]),
        ("cyclic:6", [(2, w), (3, w)]),
        (unitriangular, [(27, w)]),
        (direct_product_group([unitriangular, cyclic_group(2)]), [(2, w), (27, w)]),
    ]:
        group = GroupSpec.parse(source).build() if isinstance(source, str) else source
        sizes.clear()
        enumerate_subgroups(group)
        assert sizes == want, group.label


def test_direct_factor_maximals_come_by_part_in_the_order_of_the_smallest_primes():
    # part q, the elements of order dividing q, is whole in every maximal
    # subgroup but those that swap it for one of its own maximals: those
    # come together, part after part, as many as the part built alone has
    relabelled_product = Group(
        relabelled(GroupSpec.parse("product:pq:2,3+cyclic:35").build().table, random.Random(31)),
        "relabelled product:pq:2,3+cyclic:35",
    )
    relabelled_product.validate()
    for group, sizes in [
        (GroupSpec.parse("cyclic:1680").build(), [16, 3, 5, 7]),
        (GroupSpec.parse("product:dihedral:4+cyclic:9").build(), [8, 9]),
        (GroupSpec.parse("product:pq:2,3+cyclic:5+cyclic:7").build(), [6, 5, 7]),
        (relabelled_product, [6, 5, 7]),
    ]:
        orders = group.element_orders()
        parts = [sum(1 << x for x in range(group.order) if q % orders[x] == 0) for q in sizes]
        owners = []
        for m in maximal_subgroups(enumerate_subgroups(group)):
            (owner,) = [i for i, part in enumerate(parts) if m.mask & part != part]
            owners.append(owner)
        assert owners == sorted(owners), group.label
        for i, part in enumerate(parts):
            alone = subgroup_as_group(group, Subgroup(part), f"part {i} of {group.label}")
            want = descending_maximal_scan(alone.order, map(Subgroup, every_subgroup_worklist(alone)))
            assert owners.count(i) == len(want), (group.label, sizes[i])


def test_split_primes_are_those_of_a_normal_sylow_subgroup_with_a_normal_complement():
    # the selector reads element-order counts only; the oracle reads the
    # normal subgroups of the brute-force lattice: normal subgroups of
    # orders p^a and |G|/p^a meet in 1 and so make G their direct product
    for spec in [
        "pq:2,3",
        "pq:3,7",
        "dihedral:6",
        "dihedral:15",
        "sym:4",
        "cyclic:12",
        "elem:2,3",
        "product:dihedral:4+cyclic:9",
        "product:pq:2,3+cyclic:5",
        "product:dihedral:5+cyclic:3",
        "product:pq:3,7+cyclic:2",
        "product:pq:2,3+cyclic:35",
        "product:sym:4+cyclic:5",
        "product:pq:2,3+pq:5,11",
    ]:
        group = GroupSpec.parse(spec).build()
        n = group.order
        masks = every_subgroup_worklist(group)
        normal = {mask.bit_count() for mask in masks if is_normal_by_conjugation(group, Subgroup(mask))}
        fact = sorted(factorize(n).items())
        want = [p for p, a in fact if p**a in normal and n // p**a in normal] if len(fact) > 1 else []
        assert latsum.lattice._split_primes(group) == want, spec


def test_every_part_of_a_solvable_group_takes_prime_steps(monkeypatch):
    # D8 x C9 and S3 x C5 are nonabelian, and so are some of their parts:
    # the Sylow 2-subgroups D8 and Q8 of D8 x C9 and Q8 x C3, the rest
    # parts S3 and D10 of S3 x C5 and D10 x C3.  Every part is solvable,
    # so every walk, abelian part or not, extends by prime steps and runs
    # no closure
    closures = 0
    per_part = []

    def counting(*args, **kwargs):
        nonlocal closures
        closures += 1
        return generated_mask(*args, **kwargs)

    def recording(group, members, max_subgroups):
        nonlocal closures
        closures = 0
        out = _enumerate_part(group, members, max_subgroups)
        per_part.append((len(members), closures))
        return out

    monkeypatch.setattr(latsum.lattice, "generated_mask", counting)
    monkeypatch.setattr(latsum.lattice, "_enumerate_part", recording)
    q8 = Group(Q8_TABLE, "Q8")
    q8.validate()
    for group, want in [
        (GroupSpec.parse("product:dihedral:4+cyclic:9").build(), [(8, 0), (9, 0)]),
        (GroupSpec.parse("product:pq:2,3+cyclic:5").build(), [(6, 0), (5, 0)]),
        (GroupSpec.parse("product:dihedral:5+cyclic:3").build(), [(10, 0), (3, 0)]),
        (direct_product_group([q8, cyclic_group(3)]), [(8, 0), (3, 0)]),
    ]:
        per_part.clear()
        lat = enumerate_subgroups(group)
        assert not group.is_abelian
        assert per_part == want, group.label
        assert {s.mask for s in lat.subgroups} == every_subgroup_worklist(group), group.label


def test_only_groups_that_are_not_solvable_run_closures(monkeypatch):
    # prime steps reach every subgroup of a solvable group, so a closure
    # runs only in the fallback walk of a group they do not reach: of the
    # oracle groups and the Sylow wreath products, only S5 and A5, which
    # the derived series calls not solvable
    closures = 0

    def counting(*args, **kwargs):
        nonlocal closures
        closures += 1
        return generated_mask(*args, **kwargs)

    monkeypatch.setattr(latsum.lattice, "generated_mask", counting)
    closed = []
    for group in _oracle_groups() + [sylow_wreath_product(name) for name in ("C2wrC2wrC2", "C3wrC3", "C2wrC4")]:
        closures = 0
        enumerate_subgroups(group)
        # an abelian group is solvable, and walks with no closure either way
        solvable = group.is_abelian or is_solvable_by_derived_series(group)
        assert (closures == 0) == solvable, (group.label, closures)
        if closures:
            closed.append(group.order)
    assert closed == [60, 120]
    closures = 0
    assert len(enumerate_subgroups(symmetric_group(5))) == 156
    assert closures > 0


def test_prime_steps_that_miss_a_solvable_group_raise_under_python_O():
    # prime steps doctored to never run: they miss F21 and the D8 part of
    # D8 x C9, whose orders have two primes or one, so both are solvable
    # (Burnside) and the walk raises; S5, order 2^3 * 3 * 5, may not be
    # solvable, so it falls back to closures and finds its 156 subgroups
    code = textwrap.dedent(
        """
        import latsum.lattice
        from latsum import GroupSpec, InvariantViolation, enumerate_subgroups

        print("debug", __debug__)
        latsum.lattice.is_prime = lambda k: False
        for spec in ("pq:3,7", "product:dihedral:4+cyclic:9", "sym:5"):
            try:
                print(spec, len(enumerate_subgroups(GroupSpec.parse(spec).build())))
            except InvariantViolation as exc:
                print("InvariantViolation:", exc)
        """
    )
    status, out, err = run_python("-O", "-c", code)
    assert status == 0, err
    assert out.splitlines() == [
        "debug False",
        "InvariantViolation: prime steps did not reach the whole group of order 21 in pq:3,7, which is solvable",
        "InvariantViolation: prime steps did not reach the whole part of order 8 in product:dihedral:4+cyclic:9, "
        "which is solvable",
        "sym:5 156",
    ]


def test_parts_check_their_split_under_python_O():
    # the selector, made to split S3 at 2: its elements of order dividing
    # 2 are the identity and three involutions, which do not commute with
    # the rotations, the elements of odd order; then made to call S3
    # nilpotent, so that its Sylow 2-part has four elements where a Sylow
    # 2-subgroup has two
    code = textwrap.dedent(
        """
        import latsum.lattice
        from latsum import GroupSpec, InvariantViolation, enumerate_subgroups

        print("debug", __debug__)
        for split in ([2], [2, 3]):
            latsum.lattice._split_primes = lambda group: split
            try:
                enumerate_subgroups(GroupSpec.parse("pq:2,3").build())
            except InvariantViolation as exc:
                print("InvariantViolation:", exc)
        """
    )
    status, out, err = run_python("-O", "-c", code)
    assert status == 0, err
    assert out.splitlines() == [
        "debug False",
        "InvariantViolation: pq:2,3: its 4 elements of order dividing 2 do not commute with its 3 elements "
        "of order prime to 2",
        "InvariantViolation: pq:2,3 has 4 elements of order dividing 2, not 2",
    ]


def test_subspace_kernel_cap_boundary():
    group = elementary_abelian_group(2, 6)
    with pytest.raises(LatticeTooLarge):
        enumerate_subgroups(group, max_subgroups=2824)
    assert len(enumerate_subgroups(group, max_subgroups=2825)) == 2825


def test_subspace_kernel_cap_checked_before_allocation():
    group = elementary_abelian_group(2, 8)
    tracemalloc.start()
    try:
        with pytest.raises(LatticeTooLarge):
            enumerate_subgroups(group, max_subgroups=417_198)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_raw_table_cap_checked_against_line_1_before_the_rows():
    with pytest.raises(OrderCapExceeded):
        group_from_raw_table("13\n", max_order=12)


def test_table_file_cap_checked_before_the_rest_is_read(tmp_path):
    path = tmp_path / "big.txt"
    path.write_bytes(b"2100\n" + b"\xff" * (4 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapExceeded, match="table order 2100 exceeds cap 2000"):
            GroupSpec.parse(f"table:{path}").build(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_product_of_table_files_cap_checked_before_allocation(tmp_path):
    path = tmp_path / "c50.txt"
    path.write_text(cyclic_group(50).dump_table())
    spec = GroupSpec.parse(f"product:table:{path}+table:{path}")
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapExceeded):
            spec.build(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_normality():
    group, lat = lat_of("pq:2,3")
    order3 = lat.subgroups_of_order(3)[0]
    assert is_normal(group, order3.mask)
    assert lat.subgroups[-1].order == 6 and is_normal(group, lat.subgroups[-1].mask)
    for sub in lat.subgroups_of_order(2):
        assert not is_normal(group, sub.mask)


@pytest.mark.parametrize("spec", ["elem:3,3", "cyclic:60", "product:elem:2,2+cyclic:9", "sym:4", "dihedral:5"])
def test_is_normal_matches_conjugation_scan(spec):
    group, lat = lat_of(spec)
    normal = [is_normal(group, s.mask) for s in lat.subgroups]
    assert normal == [is_normal_by_conjugation(group, s) for s in lat.subgroups], spec
    # every subgroup of an abelian group is normal; sym:4 and dihedral:5 are not abelian
    assert all(normal) == group.is_abelian, spec


def test_conjugates_and_normalizer_s3():
    group, lat = lat_of("pq:2,3")
    order2 = lat.subgroups_of_order(2)[0]
    conj = conjugates(group, order2.mask)
    assert len(conj) == 3
    assert set(conj) == {s.mask for s in lat.subgroups_of_order(2)}
    nz = normalizer(group, order2)
    assert nz.mask == order2.mask  # self-normalizing maximal subgroup
    assert normalizer(group, lat.subgroups[0]).order == 6
    assert normalizer(group, lat.subgroups_of_order(3)[0]).order == 6


def test_conjugates_pq37():
    group, lat = lat_of("pq:3,7")
    order3 = lat.subgroups_of_order(3)
    assert len(order3) == 7
    assert len(conjugates(group, order3[0].mask)) == 7


def test_conjugate_count_times_normalizer_is_order():
    for spec in ["pq:2,3", "dihedral:4", "sym:4", "pq:3,7", "cyclic:12", "elem:2,3"]:
        group, lat = lat_of(spec)
        for sub in lat.subgroups:
            conj = conjugates(group, sub.mask)
            assert len(conj) * normalizer(group, sub).order == group.order, spec
            # the discovery order, which neither the golden files nor the --json digest can see
            assert conj == conjugate_masks_by_walk(group, sub), spec


def test_maximal_subgroups():
    _, lat = lat_of("cyclic:12")
    assert sorted(m.order for m in maximal_subgroups(lat)) == [4, 6]
    _, lat = lat_of("pq:2,3")
    assert sorted(m.order for m in maximal_subgroups(lat)) == [2, 2, 2, 3]
    _, lat = lat_of("elem:3,2")
    assert sorted(m.order for m in maximal_subgroups(lat)) == [3, 3, 3, 3]


def test_maximal_subgroups_brute(seed=3):
    # maximality by direct containment scan over the whole lattice
    rng = random.Random(seed)
    for spec in ["dihedral:6", "sym:4", "cyclic:30", "pq:3,7"]:
        group, lat = lat_of(spec)
        want = []
        for sub in lat.subgroups:
            if sub.order == group.order:
                continue
            proper_over = [
                k for k in lat.subgroups
                if k.order != group.order and k.mask != sub.mask and contains_subgroup(k, sub)
            ]
            if not proper_over:
                want.append(sub.mask)
        assert sorted(want) == sorted(m.mask for m in maximal_subgroups(lat)), spec


def test_maximal_subgroups_need_recorded_maximals():
    group, lat = lat_of("sym:3")
    by_hand = Lattice(group=group, subgroups=lat.subgroups, census=lat.census)
    with pytest.raises(LatsumError, match="no recorded maximal subgroups"):
        maximal_subgroups(by_hand)


def test_invariant_violation_survives_python_O():
    # cyclic:6 without its order-2 subgroup: the maximals the scan finds in
    # what is left (the order-3 subgroup) are all normal, but there is no
    # Sylow 2-subgroup, so the two nilpotency criteria disagree.  Then an
    # unvalidated order-4 table in which element 1 has order 3.  Then the
    # three enumeration checks: elem:2,4 whose array sends 1*2 to 0, so
    # its coordinates reach 0 twice and 3 never, and a hyperplane's row
    # comes up short; elem:2,4 against a closed form that promises one
    # subgroup of order 2 too many; an unvalidated commutative order-5
    # table in which 1*1 = 0, so {0, 1} is a subgroup; and elem:2,5 with
    # element 4 dropped, after enumeration, from the mask of its kernel 1
    # (of x0 + x1), which the first row of order 4 holding 4 reads; no row
    # of order 1 or 2 reads that kernel and holds 4.  Last, elem:2,3 with its real profile but a lattice of
    # just the trivial group and itself: sigma1 = 9/8 is below the
    # threshold, which the rank lemma forbids for rank 3 and order 2^3.
    # Then build_witness(1), the group of order 6, with its analysis
    # doctored three ways: a census one subgroup short, sigma1 off by 1/6,
    # and the group called nilpotent.
    code = textwrap.dedent(
        """
        from collections import Counter
        import inspect
        import latsum.lattice
        from latsum import (
            Group, GroupSpec, InvariantViolation, Lattice, Subgroup, classify, enumerate_subgroups, is_nilpotent,
            recognize,
        )
        from latsum.arith import gaussian_subgroup_count
        from helpers import descending_maximal_scan

        group = GroupSpec.parse("cyclic:6").build()
        subs = [s for s in enumerate_subgroups(group).subgroups if s.order != 2]
        census = dict(sorted(Counter(s.order for s in subs).items()))
        maximals = descending_maximal_scan(group.order, subs)
        print("debug", __debug__, "maximal orders", [m.order for m in maximals])
        lat = Lattice(group=group, subgroups=subs, census=census, maximals=maximals)
        try:
            is_nilpotent(group, lat)
        except InvariantViolation as exc:
            print("InvariantViolation:", exc)
        bogus = Group([[0, 1, 2, 3], [1, 2, 0, 3], [2, 0, 1, 3], [3, 3, 3, 0]], "bogus")
        try:
            bogus.element_orders()
        except InvariantViolation as exc:
            print("InvariantViolation:", exc)

        elem = GroupSpec.parse("elem:2,4").build()
        one_product_off = elem.array.copy()
        one_product_off[1, 2] = 0
        elem.array = one_product_off
        z5 = [[(a + b) % 5 for b in range(5)] for a in range(5)]
        z5[1][1] = 0
        overcount = lambda k, p, i: gaussian_subgroup_count(k, p, i) + (i == 1)
        cases = [
            (elem, gaussian_subgroup_count),
            (GroupSpec.parse("elem:2,4").build(), overcount),
            (Group(z5, "bogus-5"), gaussian_subgroup_count),
        ]
        for group, count in cases:
            latsum.lattice.gaussian_subgroup_count = count
            try:
                enumerate_subgroups(group)
            except InvariantViolation as exc:
                print("InvariantViolation:", exc)

        latsum.lattice.gaussian_subgroup_count = gaussian_subgroup_count
        lat = enumerate_subgroups(GroupSpec.parse("elem:2,5").build())
        inspect.getclosurevars(lat.subgroups._make).nonlocals["masks"][1] &= ~(1 << 4)
        try:
            list(lat.subgroups)
        except InvariantViolation as exc:
            print("InvariantViolation:", exc)

        elem = GroupSpec.parse("elem:2,3").build()
        profile = recognize(elem, enumerate_subgroups(elem))
        ends = Lattice(group=elem, subgroups=[Subgroup(1), Subgroup(255)], census={1: 1, 8: 1})
        try:
            classify(elem, ends, profile)
        except InvariantViolation as exc:
            print("InvariantViolation:", exc)

        import dataclasses
        from fractions import Fraction
        import latsum.families

        analyze_group = latsum.families.analyze_group
        doctors = [
            lambda r: dataclasses.replace(r, census={**r.census, 2: 2}, subgroup_count=r.subgroup_count - 1),
            lambda r: dataclasses.replace(
                r, classification=dataclasses.replace(r.classification, sigma1=r.classification.sigma1 + Fraction(1, 6))
            ),
            lambda r: dataclasses.replace(r, profile=dataclasses.replace(r.profile, is_nilpotent=True)),
        ]
        for doctor in doctors:
            latsum.families.analyze_group = lambda group, *args: doctor(analyze_group(group, *args))
            try:
                latsum.families.build_witness(1)
            except InvariantViolation as exc:
                print("InvariantViolation:", exc)
            else:
                print("build_witness(1) raised nothing")
        """
    )
    status, out, err = run_python("-O", "-c", code)
    assert status == 0, err
    first, second, third, *enumeration, rank_lemma, census, sigma, nilpotent = out.splitlines()
    assert first == "debug False maximal orders [3]"
    assert second.startswith("InvariantViolation: nilpotency criteria disagree on cyclic:6"), second
    assert third == "InvariantViolation: element order 3 does not divide 4", third
    assert enumeration == [
        "InvariantViolation: a subgroup of order 8 in elem:2,4 was made with 2 elements",
        "InvariantViolation: subspace kernel found 15 subgroups of order 2, expected 16",
        "InvariantViolation: Lagrange violated on bogus-5: census {1: 1, 2: 1, 5: 1}",
        "InvariantViolation: a subgroup of order 4 in elem:2,5 was made with 3 elements",
    ], enumeration
    assert rank_lemma == (
        "InvariantViolation: rank lemma: elem:2,3 of order 2^3 and Frattini rank 3 lies above the threshold, "
        "but sigma1 = 9/8 is BelowThreshold"
    ), rank_lemma
    assert census == "InvariantViolation: unexpected census for p=2, q=3: {1: 1, 2: 2, 3: 1, 6: 1}", census
    assert sigma == "InvariantViolation: lattice sigma1 17/6 != formula 8/3", sigma
    assert nilpotent == "InvariantViolation: pq-group of order 6 must not be nilpotent", nilpotent


def test_product_rows_checked_on_read_under_python_O():
    # cyclic:15 is the product of its parts C3 and C5, and its last row,
    # C3 * C5, is multiplied out when it is read; with 5 * 3 sent to the
    # identity after enumeration, the row's bit sum carries into a mask of
    # 7 elements, which the view refuses however it is read
    code = textwrap.dedent(
        """
        from latsum import GroupSpec, InvariantViolation, enumerate_subgroups

        group = GroupSpec.parse("cyclic:15").build()
        lat = enumerate_subgroups(group)
        print("debug", __debug__, "census", lat.census)
        group.table[5][3] = 0
        for read in [lambda: lat.subgroups[-1], lambda: list(lat.subgroups)]:
            try:
                read()
            except InvariantViolation as exc:
                print("InvariantViolation:", exc)
            else:
                print("read without a fault")
        """
    )
    status, out, err = run_python("-O", "-c", code)
    assert status == 0, err
    message = "InvariantViolation: a subgroup of order 15 in cyclic:15 was made with 7 elements"
    assert out.splitlines() == ["debug False census {1: 1, 3: 1, 5: 1, 15: 1}", message, message], out


def test_product_maximals_checked_under_python_O():
    # cyclic:45 is the product of its parts C9 and C5, and its maximal
    # subgroup C3 * C5 is multiplied out during enumeration; with 15 * 9
    # sent to the identity first, that product has 14 elements, which
    # enumeration refuses before it records a maximal of the wrong order
    # or an analysis reaches a verdict
    code = textwrap.dedent(
        """
        from latsum import GroupSpec, InvariantViolation, analyze_group, enumerate_subgroups

        group = GroupSpec.parse("cyclic:45").build()
        group.table[15][9] = 0
        print("debug", __debug__)
        for run in [lambda: [m.order for m in enumerate_subgroups(group).maximals], lambda: analyze_group(group)]:
            try:
                print("ran without a fault:", run())
            except InvariantViolation as exc:
                print("InvariantViolation:", exc)
        """
    )
    status, out, err = run_python("-O", "-c", code)
    assert status == 0, err
    message = "InvariantViolation: a subgroup of order 15 in cyclic:45 was made with 14 elements"
    assert out.splitlines() == ["debug False", message, message], out


def test_frattini_rank_checked_under_python_O():
    # elem:2,2 with one of its three maximal subgroups recorded: the
    # Frattini subgroup is that one, of index 2, and a non-cyclic p-group
    # of Frattini rank 1 is refused.  Then elem:3,2 with one recorded
    # "maximal" of two elements: |G| // 2 = 4 is not a power of 3, which is
    # refused before any rank is counted
    code = textwrap.dedent(
        """
        from latsum import GroupSpec, InvariantViolation, Lattice, Subgroup, enumerate_subgroups, frattini_rank

        group = GroupSpec.parse("elem:2,2").build()
        lat = enumerate_subgroups(group)
        one = Lattice(group=group, subgroups=lat.subgroups, census=lat.census, maximals=lat.maximals[:1])
        elem = GroupSpec.parse("elem:3,2").build()
        elem_lat = enumerate_subgroups(elem)
        two = Lattice(group=elem, subgroups=elem_lat.subgroups, census=elem_lat.census, maximals=[Subgroup(0b11)])
        print("debug", __debug__, "rank", frattini_rank(group, lat))
        for g, bogus in [(group, one), (elem, two)]:
            try:
                print("rank", frattini_rank(g, bogus))
            except InvariantViolation as exc:
                print("InvariantViolation:", exc)
        """
    )
    status, out, err = run_python("-O", "-c", code)
    assert status == 0, err
    assert out.splitlines() == [
        "debug False rank 2",
        "InvariantViolation: non-cyclic p-group elem:2,2 has Frattini rank 1, expected >= 2",
        "InvariantViolation: |G/Phi(G)| of elem:3,2 is not a power of 3",
    ], out


def test_non_normal_maximals_self_normalize():
    for spec in ["pq:2,3", "sym:4", "dihedral:5", "pq:5,11"]:
        group, lat = lat_of(spec)
        for m in maximal_subgroups(lat):
            if not is_normal(group, m.mask):
                assert normalizer(group, m).mask == m.mask, spec


def test_frattini():
    _, lat = lat_of("elem:2,3")
    assert frattini(lat).order == 1
    _, lat = lat_of("elem:5,2")
    assert frattini(lat).order == 1
    g, lat = lat_of("cyclic:4")
    assert frattini(lat).order == 2
    _, lat = lat_of("cyclic:12")
    assert frattini(lat).order == 2
    _, lat = lat_of("cyclic:1")
    assert frattini(lat).order == 1  # no maximal subgroups: the whole (trivial) group


def test_frattini_rank():
    g, lat = lat_of("cyclic:8")
    assert frattini_rank(g, lat) == 1
    g, lat = lat_of("elem:2,2")
    assert frattini_rank(g, lat) == 2
    g, lat = lat_of("dihedral:4")
    assert frattini_rank(g, lat) == 2
    g, lat = lat_of("elem:3,4")
    assert frattini_rank(g, lat) == 4
    g, lat = lat_of("cyclic:12")
    with pytest.raises(NotAPGroup):
        frattini_rank(g, lat)


def test_sylow_decomposition():
    g, lat = lat_of("cyclic:12")
    syl = sylow_decomposition(g, lat)
    assert [s.order for s in syl] == [4, 3]
    g, lat = lat_of("pq:2,3")
    assert sylow_decomposition(g, lat) is None
    g, lat = lat_of("product:elem:2,2+cyclic:9")
    syl = sylow_decomposition(g, lat)
    assert [s.order for s in syl] == [4, 9]
    # S3 by hand, with two of its three subgroups of order 2: a Sylow order
    # that holds more than one subgroup has no normal Sylow subgroup
    g, lat = lat_of("pq:2,3")
    subs = [lat.subgroups_of_order(order)[:2] for order in lat.census]
    by_hand = Lattice(group=g, subgroups=sum(subs, []), census={1: 1, 2: 2, 3: 1, 6: 1})
    assert sylow_decomposition(g, by_hand) is None
    g, lat = lat_of("cyclic:1")
    assert sylow_decomposition(g, lat) == []


ONE_PER_ORDER_SPECS = ["pq:2,3", "pq:3,7", "sym:4", "dihedral:5"]


def test_a_lattice_short_of_conjugates_fails_the_nilpotency_vote():
    # only the first subgroup of each order kept: each Sylow order then
    # holds one subgroup, which the census criterion reads as normal, while
    # the element orders say that none of these groups is nilpotent; the
    # vote raises in this process and under python -O
    for spec in ONE_PER_ORDER_SPECS:
        g, lat = lat_of(spec)
        with pytest.raises(InvariantViolation, match="nilpotency criteria disagree"):
            is_nilpotent(g, first_subgroup_of_each_order(lat))
    code = textwrap.dedent(
        f"""
        from latsum import GroupSpec, InvariantViolation, enumerate_subgroups, is_nilpotent
        from helpers import first_subgroup_of_each_order

        print("debug", __debug__)
        for spec in {ONE_PER_ORDER_SPECS!r}:
            group = GroupSpec.parse(spec).build()
            try:
                print(spec, is_nilpotent(group, first_subgroup_of_each_order(enumerate_subgroups(group))))
            except InvariantViolation as exc:
                print("InvariantViolation:", exc)
        """
    )
    status, out, err = run_python("-O", "-c", code)
    assert status == 0, err
    first, *rest = out.splitlines()
    assert first == "debug False"
    assert len(rest) == len(ONE_PER_ORDER_SPECS)
    for spec, line in zip(ONE_PER_ORDER_SPECS, rest):
        assert line.startswith(f"InvariantViolation: nilpotency criteria disagree on {spec}: "), line


NILPOTENCY_CASES = [
    ("cyclic:12", True),
    ("elem:2,3", True),
    ("dihedral:4", True),  # a 2-group
    ("pq:2,3", False),
    ("pq:3,7", False),
    ("sym:4", False),
    ("dihedral:6", False),
    ("product:cyclic:4+cyclic:9", True),
]


def test_nilpotency():
    for spec, want in NILPOTENCY_CASES:
        g, lat = lat_of(spec)
        assert is_nilpotent(g, lat) is want, spec


def test_element_order_criterion_agrees_with_is_nilpotent():
    for spec, want in NILPOTENCY_CASES:
        g, lat = lat_of(spec)
        assert nilpotent_by_element_orders(g) is is_nilpotent(g, lat) is want, spec


def test_is_nilpotent_raises_when_both_lattice_criteria_are_wrong(monkeypatch):
    g, lat = lat_of("sym:3")
    monkeypatch.setattr(latsum.lattice, "all_maximals_normal", lambda group, lat: True)
    monkeypatch.setattr(latsum.lattice, "sylow_decomposition", lambda group, lat: [])
    with pytest.raises(InvariantViolation, match="p-element-counts=False"):
        is_nilpotent(g, lat)


def test_recognize():
    # recognize decides the flags; classify names the group from them
    def recognized(spec):
        g, lat = lat_of(spec)
        prof = recognize(g, lat)
        return prof, classify(g, lat, prof).recognized_as

    prof, name = recognized("cyclic:6")
    assert prof.is_cyclic and name == "CyclicN"
    assert recognized("pq:2,3")[1] == "S3"
    prof, name = recognized("elem:3,2")
    assert name == "Z3xZ3" and prof.is_abelian and not prof.is_cyclic
    assert recognized("elem:2,2")[1] == "Z2xZ2"
    assert recognized("dihedral:2")[1] == "Z2xZ2"  # order-4 group with exponent 2
    prof, name = recognized("dihedral:4")
    assert name == "None" and prof.is_p_group and prof.frattini_rank == 2


def test_intersection_closure_sampled():
    rng = random.Random(11)
    for spec in ["sym:4", "dihedral:10", "pq:3,7", "elem:2,4"]:
        _, lat = lat_of(spec)
        subs = lat.subgroups
        masks = {s.mask for s in subs}
        for _ in range(100):
            a, b = rng.choice(subs), rng.choice(subs)
            assert a.mask & b.mask in masks, spec


def test_subgroup_generators_regenerate():
    from latsum.groups import generated_mask

    group, lat = lat_of("sym:4")
    for sub in lat.subgroups:
        gens = subgroup_generators(group, sub)
        assert generated_mask(group, gens) == sub.mask


# -- property-based checks over a zoo of small groups ------------------------

small_specs = st.one_of(
    st.integers(1, 24).map(lambda n: GroupSpec("cyclic", (n,))),
    st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]).map(
        lambda pk: GroupSpec("elem", pk)
    ),
    st.integers(1, 8).map(lambda n: GroupSpec("dihedral", (n,))),
    st.integers(2, 4).map(lambda m: GroupSpec("sym", (m,))),
    st.sampled_from([(2, 3), (2, 5), (2, 7), (3, 7), (2, 11), (5, 11), (3, 13)]).map(
        lambda pq: GroupSpec("pq", pq)
    ),
)


@settings(max_examples=40, deadline=None)
@given(small_specs)
def test_property_lattice_laws(spec):
    group = spec.build()
    group.validate()
    lat = enumerate_subgroups(group)
    assert lat.subgroups[0].order == 1 and lat.subgroups[-1].order == group.order
    assert sum(lat.census.values()) == len(lat)
    orders = {s.order for s in lat.subgroups}
    assert all(group.order % o == 0 for o in orders)  # Lagrange
    masks = {s.mask for s in lat.subgroups}
    assert len(masks) == len(lat.subgroups)  # no duplicates


@settings(max_examples=25, deadline=None)
@given(small_specs)
def test_property_conjugacy_laws(spec):
    group = spec.build()
    lat = enumerate_subgroups(group)
    masks = {s.mask for s in lat.subgroups}
    for sub in lat.subgroups:
        orbit = conjugates(group, sub.mask)
        assert len(orbit) * normalizer(group, sub).order == group.order
        assert all(c in masks for c in orbit)
        assert (len(orbit) == 1) == is_normal(group, sub.mask)
