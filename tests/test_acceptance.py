"""Acceptance gate: one test per shipped criterion.

Each test prints a single summary line on success, so running this module
with `pytest -v` (or `-s`) yields one pass/fail line per criterion. The
exhaustive sweeps have no time bound and are kept exact rather than
sampled; the longest, criterion 8, decides every pair of its pools with
the brute-force oracle in about 5 seconds.
"""

import itertools
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

from nrtloops.burnside import (
    affine_cycle_index,
    affine_maps,
    cycle_index_from_permutations,
    dihedral_isotopy_count,
    evaluate_cycle_index,
    subset_orbit_count,
    subset_orbit_count_naive,
)
from nrtloops.checks import default_catalog, run_suite, suite_passed
from nrtloops.flips import (
    FlipSet,
    affine_families,
    flip_loop,
    flip_sets,
    loop_transversal_census,
    predicted_left_nonsingular,
)
from nrtloops.groups import (
    alternating_group,
    build_named_group,
    dihedral_group,
    element_index,
    parse_subgroup,
    symmetric_group,
)
from nrtloops.isotopy import (
    are_isomorphic,
    are_isotopic,
    brute_force_isotopy_oracle,
    classify,
)
from nrtloops.rightloops import (
    left_nonsingular_elements,
    structure_flags,
    validate_right_loop,
)
from nrtloops.transversals import (
    enumerate_transversals,
    induced_right_loop,
    transversal_from_elements,
)


def _transversal_loops(group_descriptor, subgroup_descriptor):
    G = build_named_group(group_descriptor)
    H = parse_subgroup(G, subgroup_descriptor)
    transversals = list(enumerate_transversals(G, H))
    return [induced_right_loop(t) for t in transversals]


def test_criterion_01_two_point_stabilizer_classification():
    start = time.monotonic()
    G = symmetric_group(3)
    H = parse_subgroup(G, "(2,3)")
    transversals = list(enumerate_transversals(G, H))
    assert len(transversals) == 4
    loops = [induced_right_loop(t) for t in transversals]
    partition = classify(loops, "isotopy")
    assert len(partition.classes) == 2
    assert sorted(len(c) for c in partition.classes) == [1, 3]
    loop_indices = [
        i for i, L in enumerate(loops) if structure_flags(L).is_loop
    ]
    assert len(loop_indices) == 1
    singleton = next(c for c in partition.classes if len(c) == 1)
    assert list(singleton) == loop_indices
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 1: pass ({elapsed:.2f}s) 4 transversals, 2 isotopy "
          "classes, lone loop transversal is the singleton class")


def test_criterion_02_double_swap_stabilizer_classification():
    start = time.monotonic()
    A = alternating_group(4)
    H = parse_subgroup(A, "(1,2)(3,4)")
    transversals = list(enumerate_transversals(A, H))
    assert len(transversals) == 32
    loops = [induced_right_loop(t) for t in transversals]
    assert len(classify(loops, "iso").classes) == 5
    assert len(classify(loops, "isotopy").classes) == 2
    names = ["I", "(1,2,3)", "(1,3,2)", "(1,3)(2,4)", "(1,4,2)", "(2,3,4)"]
    t1 = transversal_from_elements(
        A, H, [element_index(A, n) for n in names]
    )
    lns = left_nonsingular_elements(induced_right_loop(t1))
    lns_names = {A.name_of(t1.reps[i]) for i in lns}
    assert lns_names == {"I", "(2,3,4)", "(1,3,2)", "(1,3)(2,4)"}
    # no transversal of this subgroup has a three-element left-nonsingular
    # set; the exhaustive census gives counts 4 (8 times) and 2 (24 times)
    histogram = Counter(
        len(left_nonsingular_elements(L)) for L in loops
    )
    assert dict(histogram) == {4: 8, 2: 24}
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 2: pass ({elapsed:.2f}s) 32 transversals, 5 "
          "isomorphism classes, 2 isotopy classes, 4-element "
          "left-nonsingular set")


def test_criterion_03_dihedral_triple_agreement():
    start = time.monotonic()
    for p, expected in ((3, 2), (5, 3), (7, 5)):
        loops = [flip_loop(p, B) for B in flip_sets(p)]
        direct = len(classify(loops, "isotopy").classes)
        families = len(affine_families(p))
        formula = dihedral_isotopy_count(p)
        assert direct == families == formula == expected
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 3: pass ({elapsed:.2f}s) direct = families = formula "
          "= 2, 3, 5 for p = 3, 5, 7")


def test_criterion_04_cycle_index_identity():
    start = time.monotonic()
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for p in primes:
        closed = affine_cycle_index(p)
        brute = cycle_index_from_permutations(affine_maps(p))
        assert dict(closed.terms) == dict(brute.terms)
        assert sum(coeff for _, coeff in closed.terms) == Fraction(1)
        value = evaluate_cycle_index(closed, 2)
        assert value.denominator == 1
        assert value.numerator % 2 == 0
    assert evaluate_cycle_index(affine_cycle_index(3), 2) == 4
    assert evaluate_cycle_index(affine_cycle_index(13), 2) == 74
    elapsed = time.monotonic() - start
    print(f"criterion 4: pass ({elapsed:.2f}s) closed form matches the "
          f"brute-force cycle index term by term for {len(primes)} primes")


def test_criterion_05_burnside_cross_check():
    start = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        evaluated = evaluate_cycle_index(affine_cycle_index(p), 2)
        assert subset_orbit_count(p) == evaluated
        if p <= 11:
            assert subset_orbit_count_naive(p) == evaluated
    elapsed = time.monotonic() - start
    print(f"criterion 5: pass ({elapsed:.2f}s) orbit counts match the "
          "evaluated cycle index through p = 13, naive scan through p = 11")


def test_criterion_06_loop_transversal_census():
    start = time.monotonic()
    for n in (3, 5, 7, 9):
        result = loop_transversal_census(n)
        assert result.count == 1
        assert result.witnesses[0].members == ()
    for n in (4, 6, 8):
        result = loop_transversal_census(n)
        assert result.count == 2
        assert result.witnesses[0].members == ()
        assert result.witnesses[1].members == tuple(range(1, n, 2))
    odd = flip_loop(6, FlipSet(6, (1, 3, 5)))
    hexagon = validate_right_loop(dihedral_group(3).table)
    assert are_isomorphic(odd, hexagon) is not None
    elapsed = time.monotonic() - start
    print(f"criterion 6: pass ({elapsed:.2f}s) census counts 1/2 as "
          "expected; the odd-residue witness at n = 6 gives the order-6 "
          "dihedral group")


def test_criterion_07_criterion_soundness():
    start = time.monotonic()
    checked = 0
    for n in range(2, 13):
        for B in flip_sets(n):
            predicted = predicted_left_nonsingular(n, B)
            scanned = left_nonsingular_elements(flip_loop(n, B))
            assert predicted == scanned
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 7: pass ({elapsed:.2f}s) number-theoretic "
          f"left-nonsingular sets match table scans for {checked} flip "
          "loops up to modulus 12")


def test_criterion_08_oracle_equivalence():
    start = time.monotonic()
    pools = {}
    for entry in default_catalog():
        G = build_named_group(entry.group)
        H = parse_subgroup(G, entry.subgroup)
        order = H.index
        if order <= 5:
            for t in enumerate_transversals(G, H):
                pools.setdefault(order, []).append(induced_right_loop(t))
    pools[6] = _transversal_loops("alt:4", "(1,2)(3,4)")
    pools[7] = _transversal_loops("dihedral:7", "x")
    assert len(pools[6]) == 32
    assert len(pools[7]) == 64
    pairs = 0
    for order in sorted(pools):
        for L1, L2 in itertools.combinations_with_replacement(
            pools[order], 2
        ):
            witness = are_isotopic(L1, L2)
            if witness is not None:
                assert witness.verify(L1, L2)
            assert (witness is not None) == brute_force_isotopy_oracle(L1, L2)
            pairs += 1
    elapsed = time.monotonic() - start
    print(f"criterion 8: pass ({elapsed:.2f}s) search and brute-force "
          f"oracle agree on {pairs} pairs through order 7")


def test_criterion_09_property_suite():
    start = time.monotonic()
    reports = run_suite()
    assert suite_passed(reports)
    tally = Counter(r.verdict for r in reports)
    assert tally == Counter({"pass": 62, "vacuous": 28})
    by_id = {}
    for r in reports:
        by_id.setdefault(r.check_id, []).append(r)
    assert all(r.verdict == "pass" for r in by_id["prop3.2"])
    klein = [r for r in by_id["prop3.3"] if r.label == "dihedral6-klein"]
    assert len(klein) == 1 and klein[0].verdict == "pass"
    mirror = [r for r in by_id["prop3.7"] if r.label == "dihedral4-mirror"]
    assert len(mirror) == 1 and mirror[0].verdict == "pass"
    assert len(by_id["prop3.9"]) == 16
    assert all(r.verdict == "pass" for r in by_id["prop3.9"])
    result = subprocess.run(
        [sys.executable, "-m", "nrtloops", "verify", "--all"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    elapsed = time.monotonic() - start
    print(f"criterion 9: pass ({elapsed:.2f}s) 62 checks pass, 28 vacuous, "
          "verify --all exits 0")


def test_criterion_10_witness_integrity():
    start = time.monotonic()
    G = symmetric_group(3)
    H = parse_subgroup(G, "(2,3)")
    loops = [
        induced_right_loop(t) for t in enumerate_transversals(G, H)
    ]

    # every surfaced witness satisfies its defining identity on all pairs
    for L1, L2 in itertools.combinations_with_replacement(loops, 2):
        witness = are_isotopic(L1, L2)
        if witness is not None:
            assert witness.verify(L1, L2)
        phi = are_isomorphic(L1, L2)
        if phi is not None:
            n = L1.order
            assert all(
                L2.table[phi[x]][phi[y]] == phi[L1.table[x][y]]
                for x in range(n)
                for y in range(n)
            )

    # corrupt the isotopy target: swapping two entries of one column below
    # the identity row keeps a valid right loop but changes the operation
    witness = are_isotopic(loops[0], loops[1])
    assert witness is not None
    rows = [list(r) for r in loops[1].table]
    rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
    mutated = validate_right_loop(rows)
    assert mutated.table != loops[1].table
    assert not witness.verify(loops[0], mutated)

    # same injection against an isomorphism
    phi = are_isomorphic(loops[0], loops[3])
    assert phi == (0, 2, 1)
    rows = [list(r) for r in loops[3].table]
    rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
    corrupted = validate_right_loop(rows)
    assert not all(
        corrupted.table[phi[x]][phi[y]] == phi[loops[0].table[x][y]]
        for x in range(3)
        for y in range(3)
    )
    elapsed = time.monotonic() - start
    print(f"criterion 10: pass ({elapsed:.2f}s) witnesses verify "
          "exhaustively and fail after a table corruption")
