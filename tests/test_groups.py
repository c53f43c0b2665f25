import hashlib
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latsum import (
    Group,
    GroupSpec,
    InvalidSpec,
    InvalidTable,
    Lattice,
    NotAPermutation,
    OrderCapExceeded,
    analyze_group,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    elementary_abelian_group,
    enumerate_subgroups,
    group_from_permutations,
    group_from_raw_table,
    is_normal,
    semidirect_pq_group,
    symmetric_group,
)
import latsum.corpus
from latsum.corpus import ambient_subgroup_entries, build_default_corpus, group_fingerprint, subgroup_as_group
from latsum.groups import group_from_perm_file, parse_cycles, smallest_order_p_residue

from helpers import (
    CountingTable,
    associativity_failure,
    element_orders_by_walk,
    intercalates,
    is_abelian_by_scan,
    naive_permutation_closure,
    permutation_table_by_composition,
    power,
    quotient_group,
    relabelled,
    swap_intercalate,
)

# the order-5 Latin square with identity row and column that is not associative
LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def assert_valid(group):
    group.validate()


def test_trivial_group():
    g = GroupSpec("cyclic", (1,)).build()
    assert g.order == 1
    assert g.element_orders()[0] == 1
    assert_valid(g)


def test_cyclic_basics():
    g = cyclic_group(12)
    assert_valid(g)
    assert g.element_orders()[1] == 12
    assert g.is_cyclic and g.is_abelian
    assert g.inverse[5] == 7


def test_elementary_abelian_exponent():
    g = elementary_abelian_group(3, 2)
    assert_valid(g)
    assert g.order == 9 and math.lcm(*g.element_orders()) == 3
    assert all(g.element_orders()[a] == 3 for a in range(1, 9))


def test_semidirect_is_s3():
    g = semidirect_pq_group(2, 3, 2)
    assert_valid(g)
    assert sorted(g.element_orders()) == [1, 2, 2, 2, 3, 3]
    assert not g.is_abelian


def test_semidirect_canonical_t():
    assert smallest_order_p_residue(2, 3) == 2
    assert smallest_order_p_residue(3, 7) == 2
    assert smallest_order_p_residue(5, 11) == 3
    g = semidirect_pq_group(3, 7)
    assert_valid(g)
    assert not g.is_abelian
    # a unique subgroup of order q and exactly q subgroups of order p
    lat = enumerate_subgroups(g)
    assert lat.census == {1: 1, 3: 7, 7: 1, 21: 1}


def test_semidirect_validation():
    with pytest.raises(InvalidSpec):
        semidirect_pq_group(2, 4)
    with pytest.raises(InvalidSpec):
        semidirect_pq_group(3, 5)  # 3 does not divide 4
    with pytest.raises(InvalidSpec):
        semidirect_pq_group(3, 7, t=3)  # 3 has order 6 mod 7


def test_direct_product_order_and_element_orders():
    a = elementary_abelian_group(2, 2)
    b = cyclic_group(9)
    g = direct_product_group([a, b])
    assert_valid(g)
    assert g.order == 36 and g.is_abelian
    # element orders are lcms of the component orders
    want = Counter(
        math.lcm(oa, ob) for oa in a.element_orders() for ob in b.element_orders()
    )
    assert Counter(g.element_orders()) == want


def test_dihedral():
    g = dihedral_group(4)
    assert_valid(g)
    assert g.order == 8 and not g.is_abelian
    assert sorted(g.element_orders()) == [1, 2, 2, 2, 2, 2, 4, 4]
    # index r + n*s, and (r1, s1)(r2, s2) = (r1 + (-1)^s1 * r2 mod n, s1 + s2 mod 2)
    for n in range(1, 41):
        pairs = [(r, s) for s in range(2) for r in range(n)]
        want = [[(r1 + (-1) ** s1 * r2) % n + n * ((s1 + s2) % 2) for r2, s2 in pairs] for r1, s1 in pairs]
        assert dihedral_group(n).array.tolist() == want, n


def test_symmetric():
    g = symmetric_group(4)
    assert_valid(g)
    assert g.order == 24
    assert max(g.element_orders()) == 4


# sha256 of symmetric_group(m).array as little-endian int16: the element
# numbering of sym:m, which the corpus labels and the verify digest rest on
SYMMETRIC_ARRAY_SHA256 = {
    1: "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
    2: "d4591cb6ac4aec034ec1ffa1cabfbeab608a54a1d4de06bde427fe7ff7ff7e47",
    3: "b010f7c5a4fb881ba4e6f736a547d1a487eddb6a57f371e20659bb6c0cce4422",
    4: "3887b43148f002d148e396101fd3cac23671fb620e2f64bd194ca6a351cbf5a4",
    5: "ee5272bd3fad050213f147cdcf73cda771be35fad4b55fd23529d2b8d71eab23",
    6: "c12f0651d95dea1cc73406d9b46e1e6b24858ee9346e9e24ad16156ba6556b2f",
}


def test_symmetric_arrays_keep_their_bytes():
    for m, want in SYMMETRIC_ARRAY_SHA256.items():
        array = symmetric_group(m).array
        assert hashlib.sha256(array.astype("<i2").tobytes()).hexdigest() == want, m


def test_symmetric_build_peak_memory():
    # sym:6 keeps a 1 MB int16 array and 4 MB of shared-int rows; the whole
    # (720, 720, 6) gather widened to int64 for the codes peaked at 31 MB
    tracemalloc.start()
    try:
        group = symmetric_group(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order == 720
    assert peak < 8 << 20, peak


def test_permutation_closure_sizes():
    g = group_from_permutations(3, [(1, 2, 0), (1, 0, 2)])
    assert g.order == 6
    g = group_from_permutations(4, [(1, 0, 3, 2)])
    assert g.order == 2
    g = group_from_permutations(5, [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)])
    assert g.order == 10
    assert_valid(g)


def test_permutation_closure_matches_naive_oracle():
    gens = [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]
    assert group_from_permutations(5, gens).order == len(naive_permutation_closure(5, gens))
    gens = [(1, 2, 0, 4, 3)]
    assert group_from_permutations(5, gens).order == len(naive_permutation_closure(5, gens))


@settings(max_examples=80, deadline=None)
@given(degree=st.integers(1, 5), data=st.data())
def test_permutation_table_by_column_gathers_matches_composition(degree, data):
    gens = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
    assert group_from_permutations(degree, gens).table == permutation_table_by_composition(degree, gens)


def test_permutation_closure_deterministic():
    gens = [(1, 2, 0, 3), (1, 0, 2, 3)]
    a = group_from_permutations(4, gens)
    b = group_from_permutations(4, gens)
    assert a.table == b.table


def test_permutation_closure_caps_and_validation():
    with pytest.raises(NotAPermutation):
        group_from_permutations(3, [(0, 0, 1)])
    with pytest.raises(OrderCapExceeded):
        group_from_permutations(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], max_order=30)


def test_quotient_by_trivial_and_full():
    g = semidirect_pq_group(2, 3)
    q = quotient_group(g, 1)
    assert q.order == 6
    assert sorted(q.element_orders()) == sorted(g.element_orders())
    q = quotient_group(g, (1 << 6) - 1)
    assert q.order == 1


def test_quotient_s3_by_rotations():
    g = semidirect_pq_group(2, 3)
    mask = 0
    for a in range(6):
        if g.element_orders()[a] in (1, 3):
            mask |= 1 << a
    q = quotient_group(g, mask)
    assert q.order == 2
    assert q.table == [[0, 1], [1, 0]]


def test_quotient_rejects_non_normal():
    g = semidirect_pq_group(2, 3)
    lat = enumerate_subgroups(g)
    sub = lat.subgroups_of_order(2)[0]
    with pytest.raises(ValueError, match="not normal"):
        quotient_group(g, sub.mask)
    with pytest.raises(ValueError, match="identity"):
        quotient_group(g, sub.mask & ~1)


def test_quotient_order_multiplies_back():
    g = dihedral_group(6)
    lat = enumerate_subgroups(g)
    for sub in lat.subgroups:
        if is_normal(g, sub.mask):
            assert quotient_group(g, sub.mask).order * sub.order == g.order


def test_raw_table_round_trip():
    g = semidirect_pq_group(2, 3)
    again = group_from_raw_table(g.dump_table())
    assert again.table == g.table
    table = relabelled(GroupSpec.parse("product:pq:2,3+cyclic:73").build().table, random.Random(438))
    assert group_from_raw_table(Group(table).dump_table()).table == table


def test_raw_table_rejects_bad_input():
    with pytest.raises(InvalidTable):
        group_from_raw_table("")
    with pytest.raises(InvalidTable):
        group_from_raw_table("2\n0 1\n1 1\n")  # not a Latin square
    with pytest.raises(InvalidTable):
        group_from_raw_table("2\n1 0\n0 1\n")  # identity not at 0
    with pytest.raises(InvalidTable):
        group_from_raw_table("3\n0 1 2\n1 2 0\n")  # missing row
    c11 = cyclic_group(11).dump_table()
    for bad in (
        "3\n0 1 2\n1 2 0\n2 0\n",  # ragged row
        c11.replace("\n1 2 ", "\n1.0 2 ", 1),
        c11.replace("\n1 2 3 4 5 6 7 8 9 10 0\n", "\n1 2 3 4 5 6 7 8 9 10 0 # C11\n", 1),  # no comments
        "2\n0 1\n1 -1\n",
        "2\n0 1\n+1 0\n",  # np.loadtxt reads +1 as 1
        "2\n0 1\n1 -0\n",  # and -0 as 0
        "2\n0 1\n1 2\n",  # the value n
        f"2\n0 1\n1 {2**63 + 1}\n",  # above int64
        c11.replace("\n10 0 ", "\n1_0 0 ", 1),
    ):
        assert bad != c11
        with pytest.raises(InvalidTable):
            group_from_raw_table(bad)
    assert associativity_failure(LOOP_5) is not None
    with pytest.raises(InvalidTable):
        group_from_raw_table(Group(LOOP_5).dump_table())


def assert_array_is_the_table(group):
    n = group.order
    arr = group.array
    assert arr.dtype == np.int16 and arr.shape == (n, n) and not arr.flags.writeable
    assert arr.tolist() == group.table
    assert all(group.table[a][b] == 0 for a, b in enumerate(group.inverse))
    assert (arr[np.arange(n), group.inverse] == 0).all()
    # the rows share one int object per element
    assert len({id(v) for row in group.table for v in row}) == n


@pytest.mark.parametrize(
    "spec",
    ["cyclic:1", "cyclic:12", "cyclic:257", "cyclic:600", "elem:2,1", "elem:3,2", "elem:2,8", "elem:3,6",
     "dihedral:1", "dihedral:5", "dihedral:200", "sym:1", "sym:2", "sym:5", "sym:6", "pq:2,3", "pq:3,7,4",
     "pq:2,251", "product:cyclic:5", "product:sym:3+cyclic:2+dihedral:3", "product:elem:2,3+pq:3,13"],
)
def test_array_is_the_table_on_every_constructor(spec):
    group = GroupSpec.parse(spec).build()
    assert_array_is_the_table(group)
    group.validate()


def test_array_is_the_table_on_quotients_subgroups_and_files():
    g = dihedral_group(6)
    for sub in enumerate_subgroups(g).subgroups:
        if is_normal(g, sub.mask):
            assert_array_is_the_table(quotient_group(g, sub.mask))
    for m in range(2, 6):
        ambient = symmetric_group(m)
        for i, sub in enumerate(enumerate_subgroups(ambient).subgroups):
            assert_array_is_the_table(subgroup_as_group(ambient, sub, f"sym{m}-sub{i}"))
    assert_array_is_the_table(group_from_permutations(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]))
    table = relabelled(GroupSpec.parse("product:pq:2,3+cyclic:73").build().table, random.Random(7))
    group = group_from_raw_table(Group(table).dump_table())
    assert group.table == table
    assert_array_is_the_table(group)


def test_pq_build_peak_memory():
    # pq:2,997 keeps an 8 MB int16 array and 31 MB of shared-int rows, and
    # peaks at 43 MB; through int64 arrays and n^2 ints it peaked at 258 MB
    tracemalloc.start()
    try:
        group = GroupSpec.parse("pq:2,997").build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order == 1994
    assert peak < 48 << 20, peak


def test_validate_catches_tampering():
    table = cyclic_group(6).table
    table[3] = table[3][:]
    table[3][4] = 2  # break the Latin property
    g = Group(table)
    with pytest.raises(InvalidTable):
        g.validate()


def test_validate_cyclic_600_agrees_with_oracle():
    # above the old sampling cutoff of 512 the check is exact too
    g = cyclic_group(600)
    assert associativity_failure(g.table) is None
    g.validate()


def test_validate_catches_loop_times_cyclic_120():
    table = direct_product_group([Group(LOOP_5), cyclic_group(120)]).table
    assert len(table) == 600 and associativity_failure(table) is not None
    with pytest.raises(InvalidTable, match="associativity"):
        Group(table).validate()


def test_validate_catches_one_swapped_intercalate_in_cyclic_600():
    # rows r, r+300 and columns c, c+300 of Z_600 form an intercalate
    table = swap_intercalate(cyclic_group(600).table, (1, 301, 1, 301))
    assert associativity_failure(table) is not None
    with pytest.raises(InvalidTable, match="associativity"):
        Group(table).validate()


SMALL_GROUPS = [
    f"cyclic:{n}" for n in range(1, 13)
] + ["dihedral:2", "dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6", "elem:2,2", "elem:2,3",
     "elem:3,2", "sym:3", "pq:2,5", "product:cyclic:2+cyclic:6", "product:sym:3+cyclic:2"]


@settings(max_examples=120, deadline=None)
@given(
    spec=st.sampled_from(SMALL_GROUPS),
    seed=st.integers(0, 2**32 - 1),
    swap=st.booleans(),
)
def test_property_validate_matches_brute_force_associativity(spec, seed, swap):
    rng = random.Random(seed)
    table = relabelled(GroupSpec.parse(spec).build().table, rng)
    squares = intercalates(table)
    if swap and squares:
        table = swap_intercalate(table, rng.choice(squares))
    group = Group(table)
    if associativity_failure(table) is None:
        group.validate()
    else:
        with pytest.raises(InvalidTable, match="associativity"):
            group.validate()


@settings(max_examples=120, deadline=None)
@given(
    spec=st.sampled_from([s for s in SMALL_GROUPS if GroupSpec.parse(s).predicted_order() > 2]),
    seed=st.integers(0, 2**32 - 1),
    cells=st.integers(1, 3),
)
def test_property_validate_rejects_non_latin_tables(spec, seed, cells):
    # validate has no Latin-square check of its own: a table that keeps row
    # 0, column 0 and a 0 in every row passes construction, and Light's test
    # must then find that it is not a group
    rng = random.Random(seed)
    table = [row[:] for row in relabelled(GroupSpec.parse(spec).build().table, rng)]
    n = len(table)
    for _ in range(cells):
        r, c = rng.randrange(1, n), rng.randrange(1, n)
        if table[r][c]:  # keep the row's 0
            table[r][c] = rng.choice([v for v in range(n) if v != table[r][c]])
    full = set(range(n))
    assume(not all(set(row) == full for row in table) or not all(set(col) == full for col in zip(*table)))
    group = Group(table)
    with pytest.raises(InvalidTable):
        group.validate()


def test_parse_cycles():
    assert parse_cycles("(0 1 2)(3 4)", 5) == {0: 1, 1: 2, 2: 0, 3: 4, 4: 3}
    assert parse_cycles("", 4) == {}
    assert parse_cycles("(1 3)", 4) == {1: 3, 3: 1}
    with pytest.raises(NotAPermutation):
        parse_cycles("(0 1)(1 2)", 3)
    with pytest.raises(NotAPermutation):
        parse_cycles("(0 9)", 3)
    with pytest.raises(NotAPermutation):
        parse_cycles("0 1 2", 3)
    assert parse_cycles("( 0 , 1 )", 2) == {0: 1, 1: 0}
    # only ASCII decimal points: int() takes each of these
    for text in ["(0 1_0)", "(0 \uff11)", "(0 +1)", "(0 \u0661)"]:
        with pytest.raises(NotAPermutation, match="bad cycle"):
            parse_cycles(text, 11)


def test_perm_file_closes_over_the_named_points():
    # the label names the file's degree, not the number of points moved
    group = group_from_perm_file("perm 40\n(3 17)\n(5 39)\n")
    assert (group.order, group.label) == (4, "perm-closure(deg 40)")
    for text in ["perm 6\n", "perm 6\n()\n", "perm 6\n()\n( )\n"]:
        group = group_from_perm_file(text)
        assert (group.order, group.table, group.label) == (1, [[0]], "perm-closure(deg 6)"), text


def test_spec_parse_and_str_round_trip():
    for text in ["cyclic:12", "elem:3,2", "dihedral:4", "sym:4", "pq:3,7", "pq:3,7,4", "product:cyclic:4+cyclic:9"]:
        spec = GroupSpec.parse(text)
        assert str(spec) == text
        g = spec.build()
        assert g.order == spec.predicted_order()


def test_spec_parse_rejects_garbage():
    for text in ["bogus:1", "cyclic:", "cyclic:x", "cyclic:2,3", "elem:4", "pq:2", "pq:2,3,2,1", "product:", "cyclic:-3", "plain"]:
        with pytest.raises(InvalidSpec):
            GroupSpec.parse(text)
    # an empty factor is an error, not a factor left out: the spec would not round-trip
    for text in ["product:cyclic:2+", "product:+cyclic:3", "product:cyclic:2++cyclic:3"]:
        with pytest.raises(InvalidSpec, match="empty factor"):
            GroupSpec.parse(text)
    # int() takes each of these, so cyclic:1_2 used to build C12 under that label
    for text in ["cyclic:1_2", "cyclic:\uff11\uff12", "cyclic:+12", "cyclic:\u00b2", "elem:2,\u0663"]:
        with pytest.raises(InvalidSpec, match="decimal integers"):
            GroupSpec.parse(text)
    assert GroupSpec.parse(" pq: 3 , 7 ") == GroupSpec("pq", (3, 7))


def test_spec_order_cap():
    with pytest.raises(OrderCapExceeded):
        GroupSpec("sym", (7,)).build()
    with pytest.raises(OrderCapExceeded):
        GroupSpec("cyclic", (50,)).build(max_order=49)
    assert GroupSpec("sym", (6,)).predicted_order() == 720


def test_corpus_checks_the_order_cap_on_ambient_groups():
    # sym:5 has order 120
    with pytest.raises(OrderCapExceeded, match="sym:5"):
        build_default_corpus(ambient_sym=5, max_order=100)
    assert len(build_default_corpus(cyclic_max=0, elem_max=0, dihedral_max=0, pq_max=0, ambient_sym=5, max_order=120)) > 0


def test_fingerprint_classes_of_symmetric_subgroups_share_one_census():
    # ambient_subgroup_entries keeps one group per fingerprint; the fingerprint
    # is no isomorphism invariant, but over S2..S6 no class holds two censuses,
    # so the merge cannot change a sigma1 or a verdict
    censuses: dict[tuple, set] = {}
    for m in range(2, 7):
        ambient = symmetric_group(m)
        for i, sub in enumerate(enumerate_subgroups(ambient).subgroups):
            group = subgroup_as_group(ambient, sub, f"sym{m}-sub{i}")
            census = tuple(enumerate_subgroups(group).census.items())
            censuses.setdefault(group_fingerprint(group), set()).add(census)
    assert len(censuses) == 29
    assert all(len(found) == 1 for found in censuses.values())


def test_ambient_entries_do_not_depend_on_the_order_inside_an_order_block(monkeypatch):
    # the labels and the member kept for each fingerprint follow (order,
    # mask) order, which the lattice does not promise inside a block
    want = ambient_subgroup_entries(5)

    def reversed_blocks(group, *args):
        lat = enumerate_subgroups(group, *args)
        subs = [s for order in lat.census for s in reversed(lat.subgroups_of_order(order))]
        return Lattice(group=group, subgroups=subs, census=lat.census, maximals=lat.maximals)

    monkeypatch.setattr(latsum.corpus, "enumerate_subgroups", reversed_blocks)
    assert ambient_subgroup_entries(5) == want


def test_generating_set_spans():
    from latsum.groups import generated_mask

    for g in [cyclic_group(12), dihedral_group(5), symmetric_group(4)]:
        gens = g.generating_set()
        assert generated_mask(g, gens) == (1 << g.order) - 1
        assert len(gens) <= math.ceil(math.log2(max(g.order, 2)))


def test_conjugations_are_the_generators_conjugations_built_once():
    # dihedral:150 has order 300, above 256, where Group gathers its list
    # rows from one int object per element
    raw = Group(relabelled(GroupSpec.parse("product:pq:2,3+cyclic:7").build().table, random.Random(11))).dump_table()
    for group in [symmetric_group(4), semidirect_pq_group(3, 7), dihedral_group(150), group_from_raw_table(raw)]:
        table, inverse = group.table, group.inverse
        perms = group.conjugations()
        assert len(perms) == len(group.generating_set()), group.label
        for x, pi in zip(group.generating_set(), perms):
            assert pi == [table[table[x][a]][inverse[x]] for a in range(group.order)], group.label
        assert group.conjugations() is perms
    # an abelian group never builds them, whatever route its lattice takes
    for spec in ["cyclic:12", "elem:2,4", "product:cyclic:4+cyclic:9"]:
        group = GroupSpec.parse(spec).build()
        analyze_group(group)
        assert group._conjugations is None, spec


@pytest.fixture(scope="module")
def corpus_groups():
    groups = [
        source.build() if isinstance(source, GroupSpec) else Group(source, label)
        for label, source in build_default_corpus()
    ]
    # relabelled raw tables, whose greedy generating sets differ from the constructors'
    for spec, seed in [("product:pq:2,3+cyclic:7", 11), ("product:cyclic:6+cyclic:12", 23)]:
        table = relabelled(GroupSpec.parse(spec).build().table, random.Random(seed))
        groups.append(group_from_raw_table(Group(table).dump_table(), label=f"relabelled {spec}"))
    return groups


def test_is_abelian_from_generators_agrees_with_pairwise_scan(corpus_groups):
    assert len(corpus_groups) == 343
    flags = [g.is_abelian for g in corpus_groups]
    assert 0 < sum(flags) < len(flags)
    for group, flag in zip(corpus_groups, flags):
        assert flag is is_abelian_by_scan(group), group.label


def test_element_orders_from_shared_walks_agree_with_per_element_walks(corpus_groups):
    for group in corpus_groups:
        assert list(group.element_orders()) == element_orders_by_walk(group), group.label


def test_element_orders_walk_each_cyclic_subgroup_once():
    # one walk from the generator meets every element of C_1999 and sets its order
    group = cyclic_group(1999)
    group.table = CountingTable(group.table)
    assert Counter(group.element_orders()) == {1: 1, 1999: 1998}
    assert group.table.reads < 3 * group.order


def test_power():
    g = cyclic_group(10)
    assert power(g, 3, 0) == 0
    assert power(g, 3, 7) == 1
    assert power(g, 3, -1) == 7
