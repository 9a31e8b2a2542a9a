"""Tests for normalized right transversals and their induced right loops."""

from collections import Counter

import pytest

from nrtloops.checks import default_catalog
from nrtloops.groups import (
    GroupError,
    alternating_group,
    build_named_group,
    core,
    cyclic_group,
    dihedral_group,
    element_index,
    parse_subgroup,
    quotient,
    right_cosets,
    subgroup,
    symmetric_group,
)
from nrtloops.perms import CapExceededError
from nrtloops.rightloops import (
    group_torsion,
    left_nonsingular_elements,
    structure_flags,
)
from nrtloops.transversals import (
    enumerate_transversals,
    induced_right_loop,
    make_transversal,
    transversal_count,
    transversal_from_elements,
)


def two_point_stabilizer_setup():
    G = symmetric_group(3)
    return G, subgroup(G, [0, 1])


def test_transversal_count():
    G, H = two_point_stabilizer_setup()
    assert transversal_count(G, H) == 4
    A = alternating_group(4)
    assert transversal_count(A, parse_subgroup(A, "(1,2)(3,4)")) == 32
    D = dihedral_group(7)
    assert transversal_count(D, subgroup(D, [0, 7])) == 64
    assert transversal_count(G, subgroup(G, range(6))) == 1


@pytest.mark.parametrize("entry", default_catalog(), ids=lambda e: e.label)
def test_transversal_count_matches_the_enumeration(entry):
    G = build_named_group(entry.group)
    H = parse_subgroup(G, entry.subgroup)
    assert transversal_count(G, H) == sum(1 for _ in enumerate_transversals(G, H))


def test_enumeration_order_and_tables():
    """The four transversals of a two-point stabilizer on three points,
    in lexicographic representative order, with their induced tables."""
    G, H = two_point_stabilizer_setup()
    expected = [
        ((0, 2, 3), ((0, 1, 2), (1, 0, 0), (2, 2, 1))),
        ((0, 2, 5), ((0, 1, 2), (1, 0, 1), (2, 2, 0))),
        ((0, 4, 3), ((0, 1, 2), (1, 2, 0), (2, 0, 1))),
        ((0, 4, 5), ((0, 1, 2), (1, 2, 1), (2, 0, 0))),
    ]
    got = [
        (t.reps, induced_right_loop(t).table)
        for t in enumerate_transversals(G, H)
    ]
    assert got == expected


def test_transversal_labels():
    G, H = two_point_stabilizer_setup()
    labels = [t.label() for t in enumerate_transversals(G, H)]
    assert labels == [
        "I,(1,2),(1,2,3)",
        "I,(1,2),(1,3)",
        "I,(1,3,2),(1,2,3)",
        "I,(1,3,2),(1,3)",
    ]


def test_whole_group_has_one_transversal():
    G = symmetric_group(3)
    H = subgroup(G, range(6))
    ts = list(enumerate_transversals(G, H))
    assert len(ts) == 1
    assert ts[0].reps == (0,)
    assert induced_right_loop(ts[0]).order == 1


def test_make_transversal_validation():
    G, H = two_point_stabilizer_setup()
    t = make_transversal(G, H, (0, 4, 3))
    assert t.reps == (0, 4, 3)
    with pytest.raises(GroupError, match="representatives"):
        make_transversal(G, H, (0, 4))
    with pytest.raises(GroupError, match="identity"):
        make_transversal(G, H, (1, 4, 3))
    with pytest.raises(GroupError, match="coset"):
        make_transversal(G, H, (0, 3, 4))
    with pytest.raises(GroupError, match="coset"):
        make_transversal(G, H, (0, 9, 3))


def test_transversal_from_elements():
    G, H = two_point_stabilizer_setup()
    t = transversal_from_elements(G, H, [3, 4, 0])
    assert t == make_transversal(G, H, (0, 4, 3))
    assert hash(t) == hash(make_transversal(G, H, (0, 4, 3)))
    with pytest.raises(GroupError, match="twice"):
        transversal_from_elements(G, H, [0, 2, 4])
    with pytest.raises(GroupError, match="no representative"):
        transversal_from_elements(G, H, [0, 2])


def test_transversal_from_elements_checks_the_range():
    G = symmetric_group(3)
    H = parse_subgroup(G, "(2,3)")
    for bad in (9, -1):
        with pytest.raises(
            GroupError, match=f"^element index {bad} out of range for order 6$"
        ):
            transversal_from_elements(G, H, [0, bad, 2])


def test_enumeration_cap():
    A = alternating_group(4)
    H = parse_subgroup(A, "(1,2)(3,4)")
    with pytest.raises(CapExceededError, match="^32 transversals exceed the cap of 10"):
        enumerate_transversals(A, H, cap=10)
    assert len(list(enumerate_transversals(A, H, cap=32))) == 32


def test_coset_action_kernel_is_core():
    cases = []
    G, H = two_point_stabilizer_setup()
    cases.append((G, H))
    D = dihedral_group(6)
    cases.append((D, parse_subgroup(D, "x y^3")))
    for G, H in cases:
        # g acts trivially when right multiplication by g fixes every coset
        dec = right_cosets(G, H)
        kernel = {
            g
            for g in range(G.order)
            if all(dec.coset_of[G.mul(c[0], g)] == i for i, c in enumerate(dec.cosets))
        }
        assert kernel == set(core(G, H).members)


def test_double_swap_stabilizer_transversal():
    """A six-element transversal of a double-transposition subgroup on four
    points whose left-nonsingular part has exactly four elements."""
    A = alternating_group(4)
    H = parse_subgroup(A, "(1,2)(3,4)")
    names = ["I", "(1,2,3)", "(1,3,2)", "(1,3)(2,4)", "(1,4,2)", "(2,3,4)"]
    t = transversal_from_elements(A, H, [element_index(A, n) for n in names])
    loop = induced_right_loop(t)
    lns = left_nonsingular_elements(loop)
    lns_names = {A.name_of(t.reps[i]) for i in lns}
    assert lns_names == {"I", "(2,3,4)", "(1,3,2)", "(1,3)(2,4)"}
    assert group_torsion(loop).order == 2
    flags = structure_flags(loop)
    assert not flags.is_loop and not flags.is_group


def test_left_nonsingular_census_for_double_swap_stabilizer():
    A = alternating_group(4)
    H = parse_subgroup(A, "(1,2)(3,4)")
    hist = Counter(
        len(left_nonsingular_elements(induced_right_loop(t)))
        for t in enumerate_transversals(A, H)
    )
    assert dict(hist) == {4: 8, 2: 24}


def test_normal_subgroup_induces_the_quotient():
    C8 = cyclic_group(8)
    N = subgroup(C8, [0, 2, 4, 6])
    Q, _ = quotient(C8, N)
    for t in enumerate_transversals(C8, N):
        assert induced_right_loop(t).table == Q.table

    D = dihedral_group(6)
    N2 = parse_subgroup(D, "y^3")
    Q2, _ = quotient(D, N2)
    ts = list(enumerate_transversals(D, N2))
    assert len(ts) == 32
    for t in ts:
        loop = induced_right_loop(t)
        assert loop.table == Q2.table
        assert structure_flags(loop).is_group

