"""Tests for right-loop tables, structure flags, and translation groups."""

import pytest

from nrtloops import rightloops
from nrtloops.perms import CapExceededError
from nrtloops.rightloops import (
    ColumnNotBijectiveError,
    NotIdentityError,
    RightLoop,
    RightLoopError,
    close_permutations,
    group_torsion,
    is_associative,
    is_loop,
    left_nonsingular_elements,
    structure_flags,
    validate_right_loop,
)

# the four right loops induced on a two-point-stabilizer transversal in the
# symmetric group on three points, keyed by which rows stay bijective
CYCLIC3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
LOOPISH = ((0, 1, 2), (1, 2, 1), (2, 0, 0))
MIXED_A = ((0, 1, 2), (1, 0, 1), (2, 2, 0))
MIXED_B = ((0, 1, 2), (1, 0, 0), (2, 2, 1))


def steiner_loop_table():
    """Order-10 loop from the nine-point triple system: a proper loop that
    is not a group."""
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


def test_validate_accepts_right_loops():
    for table in (CYCLIC3, LOOPISH, MIXED_A, MIXED_B):
        loop = validate_right_loop(table)
        assert loop.order == 3
        assert loop.table == table
    one = validate_right_loop([[0]])
    assert one.order == 1
    assert left_nonsingular_elements(one) == (0,)


def test_loop_accessors():
    loop = validate_right_loop(LOOPISH)
    assert loop.table[1][2] == 1
    assert loop.table[2] == (2, 0, 0)
    assert loop.columns == ((0, 1, 2), (1, 2, 0), (2, 1, 0))


def test_validate_rejects_bad_column():
    err = None
    try:
        validate_right_loop([[0, 1, 2], [1, 1, 0], [2, 1, 1]])
    except ColumnNotBijectiveError as exc:
        err = exc
    assert err is not None
    assert err.column == 1


def test_validate_rejects_missing_identity():
    # columns are all bijections here, so the identity check is what fires
    err = None
    try:
        validate_right_loop([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    except NotIdentityError as exc:
        err = exc
    assert err is not None
    assert err.index == 1


def test_validate_rejects_malformed_tables():
    with pytest.raises(RightLoopError, match="at least one"):
        validate_right_loop([])
    with pytest.raises(RightLoopError, match="row 0 has 2"):
        validate_right_loop([[0, 1], [1, 0], [2, 2, 0]])
    with pytest.raises(RightLoopError, match="out of range"):
        validate_right_loop([[0, 1], [1, 5]])
    with pytest.raises(RightLoopError):
        validate_right_loop([[0, 1], [1, "x"]])
    with pytest.raises(RightLoopError, match="rows"):
        RightLoop(3, ((0, 1, 2), (1, 2, 0)))


def test_left_nonsingular_elements():
    assert left_nonsingular_elements(validate_right_loop(CYCLIC3)) == (0, 1, 2)
    for table in (LOOPISH, MIXED_A, MIXED_B):
        assert left_nonsingular_elements(validate_right_loop(table)) == (0,)


def test_structure_flags():
    assert is_associative(CYCLIC3)
    assert not is_associative(LOOPISH)

    flags = structure_flags(validate_right_loop(CYCLIC3))
    assert flags.is_loop and flags.is_group
    for table in (LOOPISH, MIXED_A, MIXED_B):
        flags = structure_flags(validate_right_loop(table))
        assert not flags.is_loop and not flags.is_group

    steiner = validate_right_loop(steiner_loop_table())
    flags = structure_flags(steiner)
    assert flags.is_loop and not flags.is_group
    assert left_nonsingular_elements(steiner) == tuple(range(10))
    assert not is_associative(steiner.table)


def test_is_loop_reads_the_rows_without_the_associativity_scan(monkeypatch):
    def refuse(table):
        raise AssertionError("associativity was scanned")

    monkeypatch.setattr(rightloops, "_associativity_failure", refuse)
    assert is_loop(validate_right_loop(CYCLIC3))
    assert is_loop(validate_right_loop(steiner_loop_table()))
    for table in (LOOPISH, MIXED_A, MIXED_B):
        assert not is_loop(validate_right_loop(table))


def test_close_permutations():
    assert close_permutations(3, [(1, 0, 2)]).order == 2
    assert close_permutations(3, [(1, 2, 0)]).order == 3
    full = close_permutations(3, [(1, 0, 2), (1, 2, 0)])
    assert full.order == 6
    # duplicate generators collapse
    assert close_permutations(3, [(1, 0, 2), (1, 0, 2)]).generators == ((1, 0, 2),)


def test_close_permutations_cap(monkeypatch):
    s3 = [(1, 0, 2), (1, 2, 0)]
    monkeypatch.setattr(rightloops, "CLOSURE_CAP", 6)
    assert close_permutations(3, s3).order == 6
    monkeypatch.setattr(rightloops, "CLOSURE_CAP", 5)
    with pytest.raises(CapExceededError, match="on 3 points has more than 5 elements"):
        close_permutations(3, s3)
    monkeypatch.setattr(rightloops, "CLOSURE_CAP", 1)
    with pytest.raises(CapExceededError):
        group_torsion(validate_right_loop(LOOPISH))


def test_torsion_detects_groups():
    for table in (CYCLIC3, LOOPISH, MIXED_A, MIXED_B):
        loop = validate_right_loop(table)
        trivial = group_torsion(loop).order == 1
        assert trivial == structure_flags(loop).is_group


def test_torsion_sizes_for_three_point_tables():
    assert group_torsion(validate_right_loop(CYCLIC3)).order == 1
    for table in (LOOPISH, MIXED_A, MIXED_B):
        assert group_torsion(validate_right_loop(table)).order == 2

