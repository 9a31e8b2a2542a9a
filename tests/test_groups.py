"""Tests for group construction, subgroups, cosets, and the table format."""

import itertools
import random
import time

import pytest

from nrtloops import groups
from nrtloops.flips import flip_loop, flip_sets
from nrtloops.groups import (
    CayleyFileError,
    FiniteGroup,
    GroupError,
    alternating_group,
    build_named_group,
    core,
    cyclic_group,
    dihedral_group,
    dumps_cayley,
    element_index,
    generated_subgroup,
    is_nilpotent,
    is_normal,
    is_solvable,
    load_cayley_file,
    loads_cayley,
    parse_subgroup,
    quotient,
    right_cosets,
    subgroup,
    symmetric_group,
)
from nrtloops.perms import CapExceededError, format_cycles, perm_parity
from nrtloops.rightloops import validate_right_loop


def steiner_loop_table():
    """Order-10 loop from the nine-point triple system: Latin, unit at 0,
    every element self-inverse, but not associative."""
    triples = [
        (1, 2, 3), (4, 5, 6), (7, 8, 9),
        (1, 4, 7), (2, 5, 8), (3, 6, 9),
        (1, 5, 9), (2, 6, 7), (3, 4, 8),
        (1, 6, 8), (2, 4, 9), (3, 5, 7),
    ]
    t = [[0] * 10 for _ in range(10)]
    for a in range(10):
        t[a][0] = t[0][a] = a
    for tri in triples:
        for a in tri:
            for b in tri:
                if a != b:
                    t[a][b] = next(c for c in tri if c not in (a, b))
    return t


def test_cyclic_group():
    G = cyclic_group(6)
    assert G.order == 6
    assert G.kind == "cyclic"
    assert G.names == ("0", "1", "2", "3", "4", "5")
    assert all(G.mul(a, b) == (a + b) % 6 for a in range(6) for b in range(6))
    assert G.element_order(1) == 6
    assert G.element_order(2) == 3
    assert G.inv(2) == 4
    with pytest.raises(GroupError):
        cyclic_group(0)


def test_dihedral_presentation():
    # index a*n + i stands for x^a y^i
    for n in range(2, 8):
        G = dihedral_group(n)
        assert G.order == 2 * n
        x, y = n, 1
        assert G.mul(x, x) == 0
        assert G.element_order(y) == n
        # x y x = y^-1
        assert G.mul(G.mul(x, y), x) == G.inv(y)
        # x^a y^i lands at index a*n + i
        for a in (0, 1):
            for i in range(n):
                e = a * n if a else 0
                for _ in range(i):
                    e = G.mul(e, y)
                assert e == a * n + i
        # every reflection is an involution
        for i in range(n):
            assert G.element_order(n + i) == 2
    G = dihedral_group(6)
    assert G.name_of(0) == "1"
    assert G.name_of(1) == "y"
    assert G.name_of(3) == "y^3"
    assert G.name_of(6) == "x"
    assert G.name_of(7) == "xy"
    assert G.name_of(10) == "xy^4"
    with pytest.raises(GroupError):
        dihedral_group(1)


def test_symmetric_group_layout():
    G = symmetric_group(3)
    assert G.order == 6
    assert G.names == ("I", "(2,3)", "(1,2)", "(1,2,3)", "(1,3,2)", "(1,3)")
    # the right factor acts first: (1,2) after (2,3) is the 3-cycle (1,2,3)
    assert G.mul(2, 1) == 3
    assert G.mul(1, 2) == 4
    assert G.inv(3) == 4
    assert symmetric_group(4).order == 24
    with pytest.raises(CapExceededError, match="of sym:9 exceeds the cap of 5040"):
        symmetric_group(9)
    with pytest.raises(GroupError, match="at least 1, got 0"):
        symmetric_group(0)


def test_named_constructors_check_the_order_cap(monkeypatch):
    assert groups.GROUP_ORDER_CAP == 5040
    for descriptor in ("sym:8", "alt:8", "cyclic:5041", "dihedral:2521"):
        with pytest.raises(CapExceededError, match=f"order of {descriptor} exceeds"):
            build_named_group(descriptor)
    # The constructors are cached, so these arguments are built by no other
    # test; a lowered cap must stop each one before it builds a table.
    monkeypatch.setattr(groups, "GROUP_ORDER_CAP", 100)
    for build, arg, descriptor in (
        (cyclic_group, 101, "cyclic:101"),
        (dihedral_group, 51, "dihedral:51"),
        (symmetric_group, 6, "sym:6"),
        (alternating_group, 6, "alt:6"),
    ):
        with pytest.raises(CapExceededError, match=f"order of {descriptor} exceeds"):
            build(arg)
    assert dihedral_group(50).order == 100


def _pairwise_table(perms):
    """The table of every ordered pair of sorted permutations, p o q at
    (p, q), q acting first."""
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[x] for x in q)] for q in perms) for p in perms)


@pytest.mark.parametrize(
    "kind, k",
    [("symmetric", k) for k in range(1, 7)] + [("alternating", k) for k in (3, 4, 5)],
)
def test_permutation_tables_match_the_pairwise_construction(kind, k):
    # built through _perm_group, not the cached constructors, whose sym:6
    # and alt:6 no other test may build
    perms = list(itertools.permutations(range(k)))
    if kind == "alternating":
        perms = [p for p in perms if perm_parity(p) == 0]
    G = groups._perm_group(perms, kind)
    assert G.table == _pairwise_table(perms)
    assert G.names == tuple(format_cycles(p) for p in sorted(perms))


def test_alternating_group():
    G = alternating_group(4)
    assert G.order == 12
    assert "(1,2)(3,4)" in G.names
    assert "(1,2)" not in G.names
    assert alternating_group(3).order == 3
    with pytest.raises(GroupError):
        alternating_group(0)


def test_group_methods():
    G = symmetric_group(3)
    # (1,2,3)^(1,2,3): conjugating (1,2) by (1,2,3) gives (1,3)
    assert G.conj(2, 3) == 5
    # [ (1,2,3), (1,2) ] = (1,2,3)
    assert G.commutator(3, 2) == 3
    assert G.element_order(3) == 3
    assert G.element_order(2) == 2
    H = FiniteGroup(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "abc")
    assert H.order == 3
    assert H.kind == "table"


def test_table_validation():
    with pytest.raises(GroupError, match="rows"):
        FiniteGroup(3, [[0, 1, 2], [1, 2, 0]])
    with pytest.raises(GroupError, match="row 1"):
        FiniteGroup(3, [[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    with pytest.raises(GroupError, match="column 1"):
        FiniteGroup(3, [[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(GroupError, match="identity"):
        FiniteGroup(3, [[1, 0, 2], [0, 2, 1], [2, 1, 0]])
    with pytest.raises(GroupError, match="inverse"):
        FiniteGroup(
            5,
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 3, 4, 0, 1],
                [3, 4, 1, 2, 0],
                [4, 2, 0, 1, 3],
            ],
        )
    # the first failing triple in lexicographic order
    with pytest.raises(GroupError, match=r"^associativity fails at \(1,2,4\)$"):
        FiniteGroup(10, steiner_loop_table())


def test_a_non_associative_table_of_order_70_is_rejected():
    # the Steiner loop times Z_7, (s, i) at index 7s + i: Latin, with unit 0
    # and two-sided inverses, but not associative
    steiner = steiner_loop_table()
    table = [
        [7 * steiner[a // 7][b // 7] + (a + b) % 7 for b in range(70)] for a in range(70)
    ]
    with pytest.raises(GroupError, match=r"^associativity fails at \(7,14,28\)$"):
        FiniteGroup(70, table)


def test_repeated_element_names_are_rejected():
    with pytest.raises(GroupError, match=r"^name 'a' is repeated$"):
        FiniteGroup(2, [[0, 1], [1, 0]], ["a", "a"])
    # the loader keeps its own message, which names the line
    with pytest.raises(CayleyFileError, match=r"^line 4: name 'a' is repeated$"):
        loads_cayley("2\n0 1\n1 0\nnames: a a\n")


def test_subgroup_and_generated():
    G = symmetric_group(3)
    H = subgroup(G, [0, 1])
    assert H.order == 2
    assert H.index == 3
    assert 1 in H and 2 not in H
    assert generated_subgroup(G, [3]).members == (0, 3, 4)
    assert generated_subgroup(G, [2, 1]).order == 6
    with pytest.raises(GroupError, match="identity"):
        subgroup(G, [1, 2])
    with pytest.raises(GroupError, match="closed"):
        subgroup(G, [0, 2, 3])
    with pytest.raises(GroupError, match="range"):
        subgroup(G, [0, 9])
    with pytest.raises(GroupError, match="range"):
        generated_subgroup(G, [-1])


def two_sided_closure(G, gens):
    """The smallest product-closed set holding 0 and gens, grown by
    multiplying every new element by every member on both sides."""
    members = {0, *gens}
    queue = list(members)
    while queue:
        a = queue.pop()
        for b in list(members):
            for c in (G.mul(a, b), G.mul(b, a)):
                if c not in members:
                    members.add(c)
                    queue.append(c)
    return tuple(sorted(members))


class _RecordingRow(tuple):
    """A table row that notes each right factor it is indexed by in seen."""

    def __new__(cls, row, seen):
        self = super().__new__(cls, row)
        self.seen = seen
        return self

    def __getitem__(self, b):
        self.seen.add(b)
        return super().__getitem__(b)


SWEEP_GROUPS = [
    "cyclic:1", "cyclic:6", "cyclic:12",
    "dihedral:2", "dihedral:3", "dihedral:8", "dihedral:16",
    "sym:1", "sym:3", "sym:4", "sym:5",
    "alt:3", "alt:4", "alt:5",
]


@pytest.mark.parametrize("descriptor", SWEEP_GROUPS)
def test_generated_subgroup_matches_the_two_sided_closure(descriptor):
    G = build_named_group(descriptor)
    rng = random.Random(descriptor)
    for _ in range(25):
        gens = [rng.randrange(G.order) for _ in range(rng.randrange(4))]
        H = generated_subgroup(G, gens)
        assert H.members == two_sided_closure(G, gens), gens
        assert subgroup(G, H.members) == H
    # the walk multiplies only by the generators
    seen = set()
    recording = FiniteGroup(G.order, G.table, G.names, G.kind)
    rows = tuple(_RecordingRow(row, seen) for row in G.table)
    object.__setattr__(recording, "table", rows)
    gens = [rng.randrange(G.order) for _ in range(2)]
    assert generated_subgroup(recording, gens).members == two_sided_closure(G, gens)
    assert seen <= set(gens)


def test_every_table_built_by_construction_passes_the_full_check():
    """The named constructors, quotient and flip_loop check nothing at run
    time, so their tables are checked here in full."""
    for descriptor in SWEEP_GROUPS:
        G = build_named_group(descriptor)
        assert FiniteGroup(G.order, G.table, G.names, G.kind) == G
        if G.kind in ("symmetric", "alternating"):
            perms = list(itertools.permutations(range(int(descriptor.partition(":")[2]))))
            if G.kind == "alternating":
                perms = [p for p in perms if perm_parity(p) == 0]
            assert G.table == _pairwise_table(perms)
            assert G.names == tuple(format_cycles(p) for p in sorted(perms))
        if G.order > 24:
            continue
        for members in sorted({generated_subgroup(G, [g]).members for g in range(G.order)}):
            N = subgroup(G, members)
            if not is_normal(G, N):
                continue
            Q, projection = quotient(G, N)
            assert FiniteGroup(Q.order, Q.table, Q.names, Q.kind) == Q
            for a, b in itertools.product(range(G.order), repeat=2):
                assert projection[G.mul(a, b)] == Q.mul(projection[a], projection[b])
    for n in range(1, 10):
        for B in flip_sets(n):
            loop = flip_loop(n, B)
            assert validate_right_loop(loop.table) == loop


def subgroups_one_generator_at_a_time(G):
    """Every subgroup of G, each reached from a smaller one by closing its
    generators together with one element outside it."""
    found = {(0,)}
    queue = [((0,), ())]
    while queue:
        members, gens = queue.pop()
        for g in sorted(set(range(G.order)) - set(members)):
            H = generated_subgroup(G, gens + (g,))
            if H.members not in found:
                found.add(H.members)
                queue.append((H.members, gens + (g,)))
    return found


@pytest.mark.parametrize("descriptor, count", [("dihedral:8", 19), ("sym:4", 30)])
def test_subgroup_counts_by_closing_one_generator_at_a_time(descriptor, count):
    G = build_named_group(descriptor)
    start = time.perf_counter()
    found = subgroups_one_generator_at_a_time(G)
    elapsed = time.perf_counter() - start
    assert len(found) == count
    assert elapsed < 0.1


def test_right_cosets_sym3():
    G = symmetric_group(3)
    H = subgroup(G, [0, 1])
    dec = right_cosets(G, H)
    assert dec.cosets == ((0, 1), (2, 4), (3, 5))
    assert dec.coset_of == (0, 0, 1, 2, 1, 2)
    # cosets partition the group
    assert sorted(x for c in dec.cosets for x in c) == list(range(6))


def test_core_and_normality():
    G = symmetric_group(3)
    H = subgroup(G, [0, 1])
    assert not is_normal(G, H)
    assert core(G, H).members == (0,)
    A3 = subgroup(G, [0, 3, 4])
    assert is_normal(G, A3)
    assert core(G, A3).members == (0, 3, 4)


def test_quotient():
    G = symmetric_group(3)
    A3 = subgroup(G, [0, 3, 4])
    Q, proj = quotient(G, A3)
    assert Q.order == 2
    assert Q.table == ((0, 1), (1, 0))
    assert proj == (0, 1, 1, 0, 0, 1)
    with pytest.raises(GroupError, match="normal"):
        quotient(G, subgroup(G, [0, 1]))


def test_nilpotent_solvable():
    assert is_nilpotent(cyclic_group(12))
    assert is_nilpotent(dihedral_group(4))
    assert not is_nilpotent(dihedral_group(3))
    assert not is_nilpotent(symmetric_group(4))

    assert is_solvable(symmetric_group(4))
    assert is_solvable(dihedral_group(7))
    assert not is_solvable(alternating_group(5))
    assert not is_solvable(symmetric_group(5))
    for trivial in (cyclic_group(1), symmetric_group(1)):
        assert is_solvable(trivial)


def test_cayley_round_trip():
    G = symmetric_group(3)
    H = loads_cayley(dumps_cayley(G))
    assert H.table == G.table
    assert H.names == G.names
    assert H.kind == "file"
    # without a names line
    K = loads_cayley("2\n0 1\n1 0\n")
    assert K.order == 2
    assert K.names is None


def test_loads_cayley_scans_associativity_once(monkeypatch):
    text = dumps_cayley(dihedral_group(4))
    scans = []
    scan = groups._associativity_failure

    def counted(table):
        scans.append(len(table))
        return scan(table)

    monkeypatch.setattr(groups, "_associativity_failure", counted)
    assert loads_cayley(text).table == dihedral_group(4).table
    assert scans == [8]


def test_cayley_identity_relabel():
    # identity sits at index 2 in the input; loading moves it to index 0
    text = "3\n1 2 0\n2 0 1\n0 1 2\nnames: a b e\n"
    G = loads_cayley(text)
    assert G.table == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert G.names == ("e", "b", "a")


def test_cayley_errors():
    with pytest.raises(CayleyFileError, match="empty"):
        loads_cayley("")
    with pytest.raises(CayleyFileError, match="element count"):
        loads_cayley("zebra\n0\n")
    with pytest.raises(CayleyFileError, match="positive"):
        loads_cayley("0\n")
    with pytest.raises(CayleyFileError, match="rows"):
        loads_cayley("3\n0 1 2\n1 2 0\n")
    # the order cap is checked on the first line; at the cap the rows are read
    with pytest.raises(CapExceededError, match="the table's order 5041 exceeds"):
        loads_cayley("5041\n")
    with pytest.raises(CayleyFileError, match="expected 5040 table rows, found 0"):
        loads_cayley("5040\n")
    err = None
    try:
        loads_cayley("2\n0 1\n1 0 0\n")
    except CayleyFileError as exc:
        err = exc
    assert err is not None and err.line == 3
    with pytest.raises(CayleyFileError, match="not an integer"):
        loads_cayley("2\n0 1\n1 q\n")
    with pytest.raises(CayleyFileError, match="out of range"):
        loads_cayley("2\n0 1\n1 7\n")
    with pytest.raises(CayleyFileError, match="names line"):
        loads_cayley("2\n0 1\n1 0\nnames: a\n")
    with pytest.raises(CayleyFileError, match="line 4: name 'a' is repeated"):
        loads_cayley("2\n0 1\n1 0\nnames: a a\n")
    with pytest.raises(CayleyFileError, match="extra line"):
        loads_cayley("2\n0 1\n1 0\n0 1\n")
    with pytest.raises(CayleyFileError, match="identity"):
        loads_cayley("3\n1 0 2\n0 2 1\n2 1 0\n")
    with pytest.raises(CayleyFileError, match="no such"):
        load_cayley_file("/nonexistent/table.txt")


def test_build_named_group(tmp_path):
    assert build_named_group("cyclic:7").order == 7
    assert build_named_group("dihedral:5").order == 10
    assert build_named_group("sym:3").order == 6
    assert build_named_group("alt:4").order == 12
    path = tmp_path / "z4.txt"
    path.write_text(dumps_cayley(cyclic_group(4)))
    G = build_named_group(f"file:{path}")
    assert G.order == 4
    assert G.table == cyclic_group(4).table
    for bad in ("sym3", "sym:x", "foo:3", "cyclic:"):
        with pytest.raises(GroupError):
            build_named_group(bad)


def test_element_index():
    S = symmetric_group(3)
    assert element_index(S, "I") == 0
    assert element_index(S, "(2,3)") == 1
    assert element_index(S, "(1,2)") == 2
    assert element_index(S, "(1, 2, 3)") == 3
    with pytest.raises(GroupError):
        element_index(S, "(1,2)(3,4)")
    with pytest.raises(GroupError):
        element_index(S, "")

    D = dihedral_group(6)
    assert element_index(D, "1") == 0
    assert element_index(D, "y") == 1
    assert element_index(D, "y^3") == 3
    assert element_index(D, "x") == 6
    assert element_index(D, "xy") == 7
    assert element_index(D, "xy^2") == 8
    assert element_index(D, "y^7") == 1
    with pytest.raises(GroupError):
        element_index(D, "z")
    with pytest.raises(GroupError):
        element_index(D, "yx")

    Z = cyclic_group(5)
    assert element_index(Z, "3") == 3
    with pytest.raises(GroupError):
        element_index(Z, "7")

    T = FiniteGroup(2, [[0, 1], [1, 0]])
    assert element_index(T, "1") == 1
    with pytest.raises(GroupError):
        element_index(T, "q")


@pytest.mark.parametrize("k", range(1, 7))
def test_cycle_tokens_parse_over_the_group_degree(k):
    """Every element name of sym:k and alt:k resolves to its own index, and a
    point past k is out of range 1..k (a trivial group's degree is moot)."""
    for G in (symmetric_group(k), alternating_group(k)):
        for index, name in enumerate(G.names):
            assert element_index(G, name) == index
        if G.order > 1:
            with pytest.raises(GroupError, match=rf"point {k + 1} out of range 1\.\.{k} "):
                element_index(G, f"(1,{k + 1})")


def test_element_index_rejects_a_caret_without_an_exponent():
    D = dihedral_group(6)
    for token in ("y^", "xy^", "^", "x^"):
        with pytest.raises(GroupError, match="bad dihedral element descriptor"):
            element_index(D, token)
    # the other spellings of a power still read as before
    assert element_index(D, "y3") == 3
    assert element_index(D, "xy^8") == 8


def test_parse_subgroup():
    S = symmetric_group(3)
    assert parse_subgroup(S, "(2,3)").members == (0, 1)
    assert parse_subgroup(S, "(1,2,3)").members == (0, 3, 4)
    assert parse_subgroup(S, "(1,2) (1,3)").order == 6
    D = dihedral_group(6)
    K = parse_subgroup(D, "x; y^3")
    assert K.members == (0, 3, 6, 9)
    assert K.order == 4
    with pytest.raises(GroupError):
        parse_subgroup(D, "   ")
