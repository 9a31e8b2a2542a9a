"""Tests for affine maps over a prime field and subset orbit counting."""

import itertools
from fractions import Fraction

import pytest

from nrtloops.burnside import (
    AFFINE_PRIME_CAP,
    NAIVE_SCAN_CAP,
    CycleIndex,
    affine_cycle_index,
    affine_maps,
    cycle_index_from_permutations,
    cycle_index_json_obj,
    dihedral_isotopy_count,
    euler_phi,
    evaluate_cycle_index,
    format_cycle_index,
    is_prime,
    subset_orbit_count,
    subset_orbit_count_naive,
)
from nrtloops.perms import CapExceededError

ODD_PRIMES_TO_CAP = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4
    ]
    assert euler_phi(31) == 30
    with pytest.raises(ValueError):
        euler_phi(0)


def test_affine_maps_enumeration():
    maps = affine_maps(5)
    assert len(maps) == 20
    assert len(set(maps)) == 20
    # mod three the affine maps exhaust the permutations of the residues
    assert sorted(affine_maps(3)) == sorted(itertools.permutations(range(3)))
    with pytest.raises(CapExceededError, match="affine_maps is capped at p = 31"):
        affine_maps(37)
    with pytest.raises(ValueError, match="odd prime"):
        affine_maps(9)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_affine_maps_are_closed_under_composition(p):
    maps = affine_maps(p)
    members = set(maps)
    assert len(members) == p * (p - 1)
    for f in maps:
        for g in maps:
            assert tuple(f[x] for x in g) in members


def test_affine_maps_are_permutations_in_mu_t_order():
    maps = affine_maps(5)
    assert maps[0] == (0, 1, 2, 3, 4)
    # x -> 2x + 1 comes after the five translations and one further shift
    assert maps[6] == (1, 3, 0, 2, 4)
    assert maps == tuple(
        tuple((mu * x + t) % 5 for x in range(5))
        for mu in range(1, 5)
        for t in range(5)
    )


def test_cycle_index_validation():
    with pytest.raises(ValueError, match="duplicate"):
        CycleIndex(2, ((((1, 2),), Fraction(1, 2)), (((1, 2),), Fraction(1, 2))))
    with pytest.raises(ValueError, match="weight"):
        CycleIndex(3, ((((1, 2),), Fraction(1),),))
    with pytest.raises(ValueError, match="sum"):
        CycleIndex(2, ((((1, 2),), Fraction(1, 3)),))
    with pytest.raises(ValueError, match="positive"):
        CycleIndex(2, ((((1, 2),), Fraction(0)), (((2, 1),), Fraction(1))))


def test_cycle_index_from_permutations():
    index = cycle_index_from_permutations([(0, 1), (1, 0)])
    assert index.degree == 2
    coefficients = dict(index.terms)
    assert coefficients.get(((1, 2),), 0) == Fraction(1, 2)
    assert coefficients.get(((2, 1),), 0) == Fraction(1, 2)
    assert coefficients.get(((1, 1),), 0) == 0
    assert evaluate_cycle_index(index, 2) == 3
    with pytest.raises(ValueError, match="at least one"):
        cycle_index_from_permutations([])
    with pytest.raises(ValueError, match="degree"):
        cycle_index_from_permutations([(0, 1), (0, 1, 2)])


def test_affine_cycle_index_matches_a_scan_of_every_divisor():
    """The divisors of p-1, found in pairs up to its square root, give the
    terms of a scan of every d in 2..p-1."""
    for p in filter(is_prime, range(3, 1000)):
        order = p * (p - 1)
        scanned = [(((1, p),), Fraction(1, order)), (((p, 1),), Fraction(p - 1, order))]
        scanned.extend(
            (((1, 1), (d, (p - 1) // d)), Fraction(p * euler_phi(d), order))
            for d in range(2, p)
            if (p - 1) % d == 0
        )
        assert affine_cycle_index(p).terms == CycleIndex(p, tuple(scanned)).terms, p


def test_affine_cycle_index_matches_brute_force():
    """The closed form agrees term by term with averaging cycle types over
    every affine permutation, for every odd prime up to the cap."""
    for p in ODD_PRIMES_TO_CAP:
        brute = cycle_index_from_permutations(affine_maps(p))
        closed = affine_cycle_index(p)
        assert closed.terms == brute.terms, p
        assert sum(c for _, c in closed.terms) == 1


def test_cycle_index_formatting():
    assert format_cycle_index(affine_cycle_index(3)) == "(1/6)(x1^3 + 3 x1 x2 + 2 x3)"
    assert (
        format_cycle_index(affine_cycle_index(5))
        == "(1/20)(x1^5 + 5 x1 x2^2 + 10 x1 x4 + 4 x5)"
    )
    assert (
        format_cycle_index(affine_cycle_index(7))
        == "(1/42)(x1^7 + 7 x1 x2^3 + 14 x1 x3^2 + 14 x1 x6 + 6 x7)"
    )


def test_cycle_index_json():
    obj = cycle_index_json_obj(3, affine_cycle_index(3))
    assert obj == {
        "p": 3,
        "terms": [
            {"type": [[1, 3]], "num": 1, "den": 6},
            {"type": [[1, 1], [2, 1]], "num": 1, "den": 2},
            {"type": [[3, 1]], "num": 1, "den": 3},
        ],
    }


def test_evaluation_at_two():
    expected = {3: 4, 5: 6, 7: 10, 11: 30, 13: 74}
    for p, value in expected.items():
        assert evaluate_cycle_index(affine_cycle_index(p), 2) == value
    # the substitution count is an even integer for every prime in range
    for p in ODD_PRIMES_TO_CAP:
        value = evaluate_cycle_index(affine_cycle_index(p), 2)
        assert value.denominator == 1
        assert value.numerator % 2 == 0


def test_dihedral_isotopy_count():
    assert dihedral_isotopy_count(3) == 2
    assert dihedral_isotopy_count(5) == 3
    assert dihedral_isotopy_count(7) == 5
    assert dihedral_isotopy_count(11) == 15
    assert dihedral_isotopy_count(13) == 37


def test_subset_orbit_count_matches_the_evaluation():
    for p in (3, 5, 7, 11, 13, 29, 31):
        assert subset_orbit_count(p) == evaluate_cycle_index(
            affine_cycle_index(p), 2
        )
    with pytest.raises(CapExceededError, match="affine_maps is capped at p = 31"):
        subset_orbit_count(37)


def test_naive_scan_agrees():
    for p in (3, 5, 7, 11):
        assert subset_orbit_count_naive(p) == subset_orbit_count(p)
    assert NAIVE_SCAN_CAP == 13
    with pytest.raises(CapExceededError, match="naive is capped at p = 13"):
        subset_orbit_count_naive(17)


def test_affine_prime_cap_constant():
    assert AFFINE_PRIME_CAP == 31
    assert len(affine_maps(31)) == 31 * 30
