"""Permutation primitives: composition order, cycles, parsing."""

import pytest

from nrtloops.perms import (
    compose,
    cycle_count,
    cycle_decomposition,
    cycle_type,
    format_cycles,
    identity_perm,
    invert,
    is_permutation,
    parse_cycles,
    perm_parity,
)


def test_identity_perm():
    assert identity_perm(4) == (0, 1, 2, 3)
    assert identity_perm(1) == (0,)


def test_compose_applies_right_factor_first():
    # p = (0 1), q = (1 2); compose(p, q) sends 2 -> q -> 1 -> p -> 0
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 2, 0)
    assert compose(q, p) == (2, 0, 1)


def test_compose_with_identity():
    p = (2, 0, 3, 1)
    e = identity_perm(4)
    assert compose(p, e) == p
    assert compose(e, p) == p


def test_invert():
    p = (2, 0, 3, 1)
    assert compose(p, invert(p)) == identity_perm(4)
    assert compose(invert(p), p) == identity_perm(4)
    assert invert(identity_perm(3)) == identity_perm(3)


def test_is_permutation():
    assert is_permutation((1, 0, 2), 3)
    assert not is_permutation((1, 1, 2), 3)
    assert not is_permutation((0, 1), 3)
    assert not is_permutation((0, 1, 3), 3)


def test_cycle_decomposition_and_type():
    p = (1, 0, 3, 4, 2, 5)
    cycles = cycle_decomposition(p)
    assert cycles == ((0, 1), (2, 3, 4), (5,))
    assert cycle_type(p) == ((1, 1), (2, 1), (3, 1))
    assert cycle_count(p) == 3
    assert cycle_count(identity_perm(5)) == 5
    assert cycle_type(identity_perm(4)) == ((1, 4),)


def test_perm_parity():
    assert perm_parity(identity_perm(4)) == 0
    assert perm_parity((1, 0, 2)) == 1
    assert perm_parity((1, 2, 0)) == 0
    assert perm_parity((1, 0, 3, 2)) == 0


def test_format_and_parse_cycles():
    p = parse_cycles("(1,2,3)", 4)
    assert p == (1, 2, 0, 3)
    assert format_cycles(p) == "(1,2,3)"
    assert format_cycles(identity_perm(3)) == "I"
    assert parse_cycles("I", 3) == identity_perm(3)
    assert parse_cycles("(1,2)(3,4)", 4) == (1, 0, 3, 2)


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1,2,9)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,1)", 4)


def test_parse_format_round_trip_exhaustive():
    """Every permutation of 4 points survives a format/parse round trip."""
    import itertools

    for p in itertools.permutations(range(4)):
        assert parse_cycles(format_cycles(p), 4) == p
