"""Tests for flip-set loops on residues and their dihedral realization."""

import pytest

from nrtloops.flips import (
    CensusResult,
    FlipSet,
    affine_families,
    affine_family,
    dihedral_transversal,
    families_json_obj,
    flip_loop,
    flip_mask,
    flip_sets,
    loop_transversal_census,
    predicted_left_nonsingular,
)
from nrtloops.groups import dihedral_group
from nrtloops.isotopy import are_isomorphic, are_isotopic, classify
from nrtloops.perms import CapExceededError
from nrtloops.rightloops import (
    left_nonsingular_elements,
    structure_flags,
    validate_right_loop,
)
from nrtloops.transversals import induced_right_loop


def test_flip_set_basics():
    B = FlipSet(5, (3, 1, 3))
    assert B.members == (1, 3)
    assert len(B) == 2
    assert list(B) == [1, 3]
    assert 1 in B and 2 not in B
    assert B.mask == 0b01010
    assert FlipSet.from_mask(5, B.mask) == B
    assert B.format() == "{1,3}"
    assert FlipSet.parse(5, "1, 3") == B
    assert FlipSet.parse(5, "") == FlipSet(5, ())
    assert FlipSet.parse(5, "{}").members == ()
    assert FlipSet(5, ()).format() == "{}"
    assert FlipSet.parse(5, " { 1, 3 } ") == B


def test_flip_set_parse_reads_format():
    for B in flip_sets(7):
        assert FlipSet.parse(7, B.format()) == B


def test_flip_set_errors():
    with pytest.raises(ValueError, match="1..4"):
        FlipSet(5, (0,))
    with pytest.raises(ValueError, match="1..4"):
        FlipSet(5, (5,))
    with pytest.raises(ValueError, match="positive"):
        FlipSet(0, ())
    with pytest.raises(ValueError):
        FlipSet.parse(5, "1,x")


def test_flip_set_parse_rejects_bad_tokens():
    for text, token in (("1 3", "1 3"), ("1,,2", ""), ("a", "a"), ("{1, 2 4}", "2 4")):
        with pytest.raises(ValueError) as info:
            FlipSet.parse(5, text)
        assert str(info.value) == (
            f"flip set member {token!r} in {text!r} is not an integer"
        )


def test_flip_loop_tables():
    assert flip_loop(3, ()).table == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert flip_loop(3, (1,)).table == ((0, 1, 2), (1, 0, 0), (2, 2, 1))
    assert flip_loop(3, (1, 2)).table == ((0, 1, 2), (1, 0, 1), (2, 2, 0))
    five = flip_loop(5, (1,))
    assert five.table[2][1] == 4
    assert five.table[2][3] == 0
    assert five.table[2][0] == 2
    # empty flip set gives the cyclic group table
    for n in range(2, 8):
        loop = flip_loop(n, ())
        assert structure_flags(loop).is_group
        assert loop.table[1][1] == 2 % n


def test_flip_loop_rejects_bad_sets():
    with pytest.raises(ValueError):
        flip_loop(5, (0,))
    with pytest.raises(ValueError, match="mod"):
        flip_loop(5, FlipSet(7, (1,)))


def test_dihedral_transversal_reps():
    t = dihedral_transversal(4, (1, 3))
    assert t.subgroup.members == (0, 4)
    assert t.reps == (0, 5, 2, 7)
    assert t.label() == "1,xy,y^2,xy^3"
    with pytest.raises(ValueError):
        dihedral_transversal(1, ())


def test_flip_mask_inverts_dihedral_transversal():
    for n in range(3, 8):
        for B in flip_sets(n):
            assert flip_mask(dihedral_transversal(n, B)) == B.mask


def test_flip_loops_are_the_induced_dihedral_loops():
    """Entrywise identification between the arithmetic table and the loop
    induced on the matching transversal of a reflection subgroup."""
    for n in range(2, 9):
        for B in flip_sets(n):
            induced = induced_right_loop(dihedral_transversal(n, B))
            assert induced.table == flip_loop(n, B).table


def test_predicted_left_nonsingular_matches_the_table():
    for n in range(2, 10):
        for B in flip_sets(n):
            predicted = predicted_left_nonsingular(n, B)
            scanned = left_nonsingular_elements(flip_loop(n, B))
            assert predicted == scanned, (n, B.members)


def test_predicted_left_nonsingular_examples():
    assert predicted_left_nonsingular(9, (1, 4, 7)) == (0, 3, 6)
    assert predicted_left_nonsingular(5, (1,)) == (0,)
    assert predicted_left_nonsingular(6, (1, 3, 5)) == (0, 1, 2, 3, 4, 5)
    assert predicted_left_nonsingular(4, (1, 3)) == (0, 1, 2, 3)


def test_all_odd_flips_give_a_loop_isomorphic_to_the_dihedral_group():
    loop = flip_loop(6, (1, 3, 5))
    assert structure_flags(loop).is_loop
    target = validate_right_loop(dihedral_group(3).table)
    assert are_isomorphic(loop, target) is not None


def test_flip_sets():
    assert [B.members for B in flip_sets(3)] == [(), (1,), (2,), (1, 2)]
    for n in range(1, 8):
        masks = [B.mask for B in flip_sets(n)]
        assert masks == [m << 1 for m in range(1 << (n - 1))]
    assert len(list(flip_sets(7, cap=64))) == 64
    # the cap is checked when the call is made, before any set is built
    with pytest.raises(CapExceededError, match="^64 transversals exceed the cap of 63"):
        flip_sets(7, cap=63)


def test_loop_transversal_census():
    expected = {
        3: [()],
        4: [(), (1, 3)],
        5: [()],
        6: [(), (1, 3, 5)],
        7: [()],
        8: [(), (1, 3, 5, 7)],
        9: [()],
    }
    for n, witnesses in expected.items():
        result = loop_transversal_census(n)
        assert isinstance(result, CensusResult)
        assert result.count == len(witnesses)
        assert [w.members for w in result.witnesses] == witnesses
    obj = loop_transversal_census(4).to_json_obj()
    assert obj == {"n": 4, "count": 2, "witnesses": [[], [1, 3]]}


def test_census_cap_and_arguments():
    with pytest.raises(CapExceededError, match="^256 transversals exceed the cap of"):
        loop_transversal_census(9, cap=100)
    with pytest.raises(ValueError):
        loop_transversal_census(1)


def test_affine_family_mod_three():
    fam = affine_family(3, (1,))
    assert fam == frozenset(
        {FlipSet(3, (1,)), FlipSet(3, (2,)), FlipSet(3, (1, 2))}
    )
    assert affine_family(3, ()) == frozenset({FlipSet(3, ())})


def test_affine_family_membership_is_symmetric():
    for p in (3, 5):
        for B in flip_sets(p):
            fam = affine_family(p, B)
            assert B in fam
            for member in fam:
                assert affine_family(p, member) == fam
                assert len(member) in (len(B), p - len(B))


def _set_based_family(p, B):
    """The family as defined: over every affine map f, f(B), replaced by
    its complement when it holds 0, built as sets."""
    family = set()
    for mu in range(1, p):
        for t in range(p):
            image = {(mu * b + t) % p for b in B}
            if 0 in image:
                image = set(range(p)) - image
            family.add(FlipSet(p, tuple(image)))
    return frozenset(family)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_affine_family_matches_the_set_based_family(p):
    for B in flip_sets(p):
        assert affine_family(p, B) == _set_based_family(p, B), B


def test_affine_family_requires_an_odd_prime():
    with pytest.raises(ValueError, match="odd prime"):
        affine_family(9, (1,))
    with pytest.raises(ValueError, match="odd prime"):
        affine_family(2, (1,))
    with pytest.raises(ValueError, match="odd prime"):
        affine_families(4)


def test_affine_families_partition():
    sizes = {3: [1, 3], 5: [1, 5, 10], 7: [1, 7, 21, 21, 14]}
    for p, expected in sizes.items():
        families = affine_families(p)
        assert [len(f) for f in families] == expected
        seen = [s.members for fam in families for s in fam]
        assert len(seen) == 1 << (p - 1)
        assert len(set(seen)) == len(seen)
        # the first family is the empty set alone
        assert families[0] == (FlipSet(p, ()),)
    obj = families_json_obj(3, affine_families(3))
    assert obj["n"] == 3
    assert [f["size"] for f in obj["families"]] == [1, 3]
    assert obj["families"][1]["members"] == [[1], [2], [1, 2]]


def test_affine_families_cap():
    # mod 7 there are 2^6 = 64 subsets to enumerate
    with pytest.raises(CapExceededError, match="^64 transversals exceed the cap of 63"):
        affine_families(7, cap=63)
    assert len(affine_families(7, cap=64)) == 5


def test_affine_families_agree_with_loop_isotopy():
    """Mod five: two flip loops are isotopic exactly when their flip sets
    lie in the same affine family."""
    p = 5
    subsets = list(flip_sets(p))
    loops = [flip_loop(p, B) for B in subsets]
    families = affine_families(p)
    family_of = {
        s.members: k for k, fam in enumerate(families) for s in fam
    }
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            related = are_isotopic(loops[i], loops[j]) is not None
            assert related == (family_of[a.members] == family_of[b.members])
    part = classify(loops, relation="isotopy")
    assert sorted(len(c) for c in part.classes) == [1, 5, 10]
