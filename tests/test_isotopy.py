"""Tests for isotopy witnesses, classification, and autotopy groups."""

import gc
import itertools
import math
import random
from collections import Counter

import pytest

from nrtloops import isotopy, rightloops
from nrtloops.burnside import dihedral_isotopy_count
from nrtloops.checks import default_catalog
from nrtloops.flips import affine_families, dihedral_transversal, flip_loop, flip_sets
from nrtloops.groups import build_named_group, cyclic_group, parse_subgroup
from nrtloops.isotopy import (
    AUTOTOPY_ORDER_CAP,
    ORACLE_ORDER_CAP,
    IsotopyWitness,
    NotLeftNonsingularError,
    are_isomorphic,
    are_isotopic,
    autotopy_group,
    brute_force_isotopy_oracle,
    classify,
    isomorphisms,
    principal_isotope_with_relabel,
    pseudo_automorphism_scan,
)
from nrtloops.perms import CapExceededError, cycle_type, invert
from nrtloops.rightloops import (
    left_nonsingular_elements,
    validate_right_loop,
)
from nrtloops.transversals import enumerate_transversals, induced_right_loop

# the four tables induced on two-point-stabilizer transversals over three
# points, in enumeration order
T0 = ((0, 1, 2), (1, 0, 0), (2, 2, 1))
T1 = ((0, 1, 2), (1, 0, 1), (2, 2, 0))
T2 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
T3 = ((0, 1, 2), (1, 2, 1), (2, 0, 0))


def loops4():
    return [validate_right_loop(t) for t in (T0, T1, T2, T3)]


def test_witness_basics():
    L0, L1, L2, L3 = loops4()
    e = IsotopyWitness.identity(3)
    assert e.is_isomorphism()
    assert e.verify(L3, L3)
    assert not e.verify(L3, L1)
    assert not e.verify(L3, validate_right_loop([[0, 1], [1, 0]]))
    bad = IsotopyWitness((0, 0, 1), (0, 1, 2), (0, 1, 2))
    assert not bad.verify(L3, L3)


def test_hand_built_witness():
    # swapping the two nontrivial points on one side and cycling on the
    # other two carries the third table onto the second
    L0, L1, L2, L3 = loops4()
    w = IsotopyWitness((0, 2, 1), (1, 2, 0), (1, 2, 0))
    assert w.verify(L3, L1)
    assert not w.is_isomorphism()
    assert w.inverse().verify(L1, L3)
    round_trip = w.then(w.inverse())
    assert round_trip.verify(L3, L3)
    assert w.inverse().then(w).verify(L1, L1)


def test_are_isomorphic():
    L0, L1, L2, L3 = loops4()
    assert are_isomorphic(L0, L3) == (0, 2, 1)
    assert are_isomorphic(L1, L0) is None
    assert are_isomorphic(L1, L3) is None
    assert are_isomorphic(L2, L0) is None
    assert are_isomorphic(L2, L2) == (0, 1, 2)
    # every returned map is a table isomorphism
    for f in isomorphisms(L0, L3):
        assert all(
            L3.table[f[a]][f[b]] == f[L0.table[a][b]]
            for a in range(3)
            for b in range(3)
        )


def test_principal_isotope_identity_pair():
    for loop in loops4():
        iso, principal = principal_isotope_with_relabel(loop, 0, 0)
        assert iso.table == loop.table
        assert principal == IsotopyWitness.identity(3)


def test_principal_isotope_of_a_group_is_the_group():
    z3 = validate_right_loop(T2)
    for a in range(3):
        for b in range(3):
            assert principal_isotope_with_relabel(z3, a, b)[0].table == z3.table


def test_principal_isotope_requires_bijective_row():
    L3 = validate_right_loop(T3)
    with pytest.raises(NotLeftNonsingularError):
        principal_isotope_with_relabel(L3, 1, 0)
    z3 = validate_right_loop(T2)
    for a in (-1, 3):
        with pytest.raises(NotLeftNonsingularError):
            principal_isotope_with_relabel(z3, a, 0)


def test_principal_isotope_rejects_b_out_of_range():
    z3 = validate_right_loop(T2)
    for b in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            principal_isotope_with_relabel(z3, 0, b)


@pytest.mark.parametrize(
    "group, sub", [("dihedral:7", "x"), ("alt:4", "(1,2)(3,4)"), ("sym:4", "(1,2)")]
)
def test_principal_isotopes_are_right_loops(group, sub):
    """Principal isotopes skip validation; checking them all again finds the
    same right loops."""
    rng = random.Random(14)
    for loop in rng.sample(transversal_loops(group, sub), 4):
        for a in left_nonsingular_elements(loop):
            for b in range(loop.order):
                isotope, principal = principal_isotope_with_relabel(loop, a, b)
                assert isotope == validate_right_loop(isotope.table)
                assert all(type(row) is tuple for row in isotope.table)
                assert principal.verify(loop, isotope)


def test_principal_isotopes_stay_isotopic():
    L3 = validate_right_loop(T3)
    for a in left_nonsingular_elements(L3):
        for b in range(3):
            iso = principal_isotope_with_relabel(L3, a, b)[0]
            assert are_isotopic(iso, L3) is not None


def test_are_isotopic():
    L0, L1, L2, L3 = loops4()
    for a, b in itertools.combinations((L0, L1, L3), 2):
        w = are_isotopic(a, b)
        assert w is not None and w.verify(a, b)
    assert are_isotopic(L2, L3) is None
    assert are_isotopic(L2, L0) is None
    assert are_isotopic(L2, validate_right_loop([[0, 1], [1, 0]])) is None


def test_are_isotopic_on_equal_tables_builds_no_isotope(monkeypatch):
    def no_isotope(*args):
        raise AssertionError("an isotope was built")

    monkeypatch.setattr(isotopy, "principal_isotope_with_relabel", no_isotope)
    for entry in default_catalog():
        loop = transversal_loops(entry.group, entry.subgroup)[-1]
        copy = validate_right_loop(loop.table)
        assert are_isotopic(loop, copy) == IsotopyWitness.identity(loop.order)


def test_oracle_agreement_on_three_points():
    loops = loops4()
    for a in loops:
        for b in loops:
            assert brute_force_isotopy_oracle(a, b) == (
                are_isotopic(a, b) is not None
            )


def test_oracle_cap():
    assert ORACLE_ORDER_CAP == 7
    big = validate_right_loop(cyclic_group(8).table)
    with pytest.raises(CapExceededError, match="oracle is capped at order 7, got 8"):
        brute_force_isotopy_oracle(big, big)
    assert not brute_force_isotopy_oracle(
        validate_right_loop(T0), validate_right_loop([[0, 1], [1, 0]])
    )


def test_oracle_edge_cases():
    one = validate_right_loop([[0]])
    two = validate_right_loop([[0, 1], [1, 0]])  # the one right loop of order 2
    assert brute_force_isotopy_oracle(one, one)
    assert brute_force_isotopy_oracle(two, two)
    assert not brute_force_isotopy_oracle(one, two)
    assert not brute_force_isotopy_oracle(two, one)
    loops = loops4()
    assert not brute_force_isotopy_oracle(one, loops[0])
    assert not brute_force_isotopy_oracle(loops[0], two)
    for a in loops:
        for b in loops:
            assert brute_force_isotopy_oracle(a, b) == brute_force_isotopy_oracle(b, a)


def _reference_oracle(L1, L2):
    """The oracle's answer by a slower route, without the set-conjugation
    test: for every alpha, gamma runs over the columns of the row-reindexed
    table and beta is rebuilt column by column."""
    n = L1.order
    if L2.order != n:
        return False
    t1, t2 = L1.table, L2.table
    rng = range(n)
    cols1 = [tuple(t1[x][y] for x in rng) for y in rng]
    for alpha in itertools.permutations(rng):
        m_rows = [t2[a] for a in alpha]
        col_keys = [tuple(row[y] for row in m_rows) for y in rng]
        col_index = {key: y for y, key in enumerate(col_keys)}
        for gamma in col_keys:
            betas = set()
            ok = True
            for y in rng:
                target = tuple(gamma[v] for v in cols1[y])
                hit = col_index.get(target)
                if hit is None:
                    ok = False
                    break
                betas.add(hit)
            if ok and len(betas) == n:
                return True
    return False


def _passes_fixed_point_filter(L1, L2):
    """Whether some z gives R2(z)^-1 o C2 the sorted fixed-point counts of
    C1, the test the oracle makes before its scan over alpha."""
    n = L1.order
    cols1 = [tuple(L1.table[x][y] for x in range(n)) for y in range(n)]
    cols2 = [tuple(L2.table[x][y] for x in range(n)) for y in range(n)]
    want = sorted(sum(c[x] == x for x in range(n)) for c in cols1)
    return any(
        sorted(sum(c[x] == r[x] for x in range(n)) for c in cols2) == want
        for r in cols2
    )


def test_oracle_matches_the_reference_oracle():
    rng = random.Random(10)
    loops = loops4()
    samples = {"loops4": list(itertools.product(loops, repeat=2))}
    for group, sub in [("alt:4", "(1,2)(3,4)"), ("dihedral:7", "x")]:
        pool = transversal_loops(group, sub)
        samples[group] = [tuple(rng.sample(pool, 2)) for _ in range(20)]
    for name, pairs in samples.items():
        scanned_false = 0
        for a, b in pairs:
            answer = brute_force_isotopy_oracle(a, b)
            assert answer == _reference_oracle(a, b), (name, a.table, b.table)
            if not answer and _passes_fixed_point_filter(a, b):
                scanned_false += 1
        if name != "loops4":
            # non-isotopic pairs that reach the scan over alpha
            assert scanned_false > 0, name


def test_order_four_census_matches_classify():
    loops = transversal_loops("sym:4", "(1,2) (1,2,3)")
    assert len(loops) == len({loop.table for loop in loops}) == 216
    part = classify(loops, "isotopy")
    assert len(part.classes) == 18
    class_of = [part.class_of(i) for i in range(len(loops))]
    for i, j in itertools.combinations(range(len(loops)), 2):  # 23,220 pairs
        assert brute_force_isotopy_oracle(loops[i], loops[j]) == (
            class_of[i] == class_of[j]
        ), (i, j)


def _brute_force_isomorphisms(loop):
    """Map each table onto the maps f with f[0] = 0 and f(x*y) = f(x)*f(y)
    that carry loop onto it, in lexicographic order: f is such a map onto
    L2 exactly when L2's table is the image of loop's table under f."""
    n = loop.order
    t = loop.table
    found = {}
    for rest in itertools.permutations(range(1, n)):
        f = (0, *rest)
        image = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                image[f[x]][f[y]] = f[t[x][y]]
        found.setdefault(tuple(map(tuple, image)), []).append(f)
    return found


def test_isomorphisms_match_brute_force():
    loops = transversal_loops("sym:4", "(1,2) (1,2,3)")
    assert len(loops) == 216
    d5 = transversal_loops("dihedral:5", "x")
    rng = random.Random(17)
    pairs = list(itertools.product(loops, repeat=2))  # 46,656 ordered pairs
    pairs += [tuple(rng.choice(d5) for _ in range(2)) for _ in range(80)]
    expected = {a.table: _brute_force_isomorphisms(a) for a in loops + d5}
    isomorphic = 0
    for a, b in pairs:
        got = list(isomorphisms(a, b))
        assert len(set(got)) == len(got), (a.table, b.table)
        # the search fixes the least unassigned point first and tries its
        # images in ascending order, so it yields the maps in sorted order
        assert got == expected[a.table].get(b.table, []), (a.table, b.table)
        isomorphic += bool(got)
    assert 0 < isomorphic < len(pairs)


def test_signatures_separate_positions_as_before():
    """The one-pass signatures induce the equality relation of the old
    definition on (loop, position) pairs, within a loop and across loops."""

    def old_signatures(loop):
        t = loop.table
        return [
            (
                tuple(sorted(Counter(t[x]).values())),
                cycle_type(loop.columns[x]),
                t[x][x] == x,
            )
            for x in range(loop.order)
        ]

    pools = [
        ("dihedral:7", "x"),
        ("alt:4", "(1,2)(3,4)"),
        ("sym:4", "(1,2)"),
        # every right loop of order 4; the only pool here on which the
        # number of distinct row values is coarser than the multiplicities
        ("sym:4", "(1,2) (1,2,3)"),
    ]
    old, new = [], []
    for group, sub in pools:
        for loop in transversal_loops(group, sub):
            old += old_signatures(loop)
            new += loop.signatures
    assert len(old) == len(new) == 64 * 7 + 32 * 6 + 2048 * 12 + 216 * 4
    # equal under one definition exactly when equal under the other
    assert len(set(zip(old, new))) == len(set(old)) == len(set(new))


READ_OFF_POOLS = [
    ("dihedral:5", "x"),
    ("alt:4", "(1,2)(3,4)"),
    ("sym:4", "(1,2) (1,2,3)"),
    ("dihedral:6", "y^3"),
    ("dihedral:6", "y^3 x"),
]


def test_principal_signatures_are_the_built_isotopes():
    """For every loop of the pools and every left non-singular a and every
    b, the signatures read off the loop are the built isotope's."""
    cases = 0
    counts = set()
    for group, sub in READ_OFF_POOLS:
        for loop in transversal_loops(group, sub):
            lns = left_nonsingular_elements(loop)
            counts.add((loop.order, len(lns)))
            pairs = []
            for a, b, signatures in isotopy._principal_signatures(loop):
                isotope = principal_isotope_with_relabel(loop, a, b)[0]
                assert tuple(signatures()) == isotope.signatures, (group, sub, a, b)
                pairs.append((a, b))
            assert pairs == [(a, b) for a in lns for b in range(loop.order)]
            cases += len(pairs)
    assert cases == 2956
    # left non-singular counts 1, 2, 4 at order 4 and 1 and n elsewhere
    assert counts == {
        (3, 1), (3, 3), (4, 1), (4, 2), (4, 4), (5, 1), (5, 5),
        (6, 2), (6, 4), (6, 6),
    }


def test_are_isotopic_builds_only_isotopes_whose_key_matches(monkeypatch):
    """An isotope table is built only for an (a, b) whose read-off sorted
    signatures equal the target's; a pair with no such (a, b) builds
    none."""
    built = []

    def counted(loop, a, b):
        built.append((a, b))
        return principal_isotope_with_relabel(loop, a, b)

    monkeypatch.setattr(isotopy, "principal_isotope_with_relabel", counted)
    rng = random.Random(21)
    loops = transversal_loops("dihedral:7", "x")
    never = 0
    for _ in range(80):
        L1, L2 = rng.sample(loops, 2)
        key = sorted(L2.signatures)
        matching = [
            (a, b)
            for a, b, signatures in isotopy._principal_signatures(L1)
            if sorted(signatures()) == key
        ]
        built.clear()
        witness = are_isotopic(L1, L2)
        if witness is None:
            assert built == matching
        else:
            # the search stops at the first isotope that carries an isotopy
            assert built and built == matching[: len(built)]
        never += not matching
    assert never > 0


def test_classify_computes_each_loops_signatures_once(monkeypatch):
    """Signatures are cached on the loop: classifying one tuple of loops
    under isotopy and then under isomorphism makes one signature pass per
    loop, and none over an isotope table."""
    passes = Counter()
    original = rightloops._table_signatures

    def counted(loop):
        passes[id(loop)] += 1
        return original(loop)

    monkeypatch.setattr(rightloops, "_table_signatures", counted)
    loops = tuple(transversal_loops("dihedral:7", "x"))
    assert len(classify(loops, "isotopy").classes) == 5
    assert len(classify(loops, "iso").classes) == 14
    assert passes == Counter(id(loop) for loop in loops)


def test_classify_isotopy():
    part = classify(loops4(), relation="isotopy")
    assert part.classes == ((0, 1, 3), (2,))
    assert part.representatives[0].table == T0
    assert part.representatives[1].table == T2
    assert part.class_of(1) == 0
    assert part.class_of(2) == 1
    with pytest.raises(IndexError):
        part.class_of(9)


def test_classify_isomorphism():
    part = classify(loops4(), relation="iso")
    assert part.classes == ((0, 3), (1,), (2,))
    assert [r.table for r in part.representatives] == [T0, T1, T2]


def transversal_loops(group, sub):
    G = build_named_group(group)
    H = parse_subgroup(G, sub)
    return [induced_right_loop(t) for t in enumerate_transversals(G, H)]


def relabelled(loop, sigma):
    """The copy of loop that the bijection sigma (fixing 0) carries it to."""
    n = loop.order
    inv = invert(sigma)
    t = loop.table
    return validate_right_loop(
        [[sigma[t[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "group, sub", [("dihedral:7", "x"), ("alt:4", "(1,2)(3,4)")]
)
def test_relabelling_and_principal_isotope_land_in_the_class(group, sub, seed):
    rng = random.Random(seed)
    loops = transversal_loops(group, sub)
    k = rng.randrange(len(loops))
    loop = loops[k]
    rest = list(range(1, loop.order))
    rng.shuffle(rest)
    image = relabelled(loop, (0, *rest))
    a = rng.choice(left_nonsingular_elements(loop))
    isotope = principal_isotope_with_relabel(loop, a, rng.randrange(loop.order))[0]
    for target in (image, isotope):
        witness = are_isotopic(loop, target)
        assert witness is not None and witness.verify(loop, target)
    f = are_isomorphic(loop, image)
    assert f is not None and IsotopyWitness(f, f, f).verify(loop, image)

    n = len(loops)
    part = classify(loops + [image, isotope], "isotopy")
    assert part.class_of(n) == part.class_of(n + 1) == part.class_of(k)
    part = classify(loops + [image], "iso")
    assert part.class_of(n) == part.class_of(k)


@pytest.mark.parametrize(
    "group, sub", [("dihedral:7", "x"), ("alt:4", "(1,2)(3,4)")]
)
def test_principal_isotopy_carries_the_loop_onto_its_isotope(group, sub):
    rng = random.Random(5)
    loops = transversal_loops(group, sub)
    for loop in rng.sample(loops, 6):
        a = rng.choice(left_nonsingular_elements(loop))
        b = rng.randrange(loop.order)
        isotope, principal = principal_isotope_with_relabel(loop, a, b)
        assert principal.verify(loop, isotope)
        swap = list(range(loop.order))
        e = loop.table[a][b]
        swap[0], swap[e] = e, 0
        assert principal.gamma == tuple(swap)


def test_autotopy_automorphisms_are_the_isomorphisms_onto_itself():
    rng = random.Random(11)
    for entry in default_catalog():
        loops = transversal_loops(entry.group, entry.subgroup)
        for loop in rng.sample(loops, min(3, len(loops))):
            automorphisms = autotopy_group(loop).automorphisms
            assert sorted(automorphisms) == sorted(isomorphisms(loop, loop))


def test_isotopies_match_the_old_construction():
    """autotopy_group and are_isotopic read one enumerator of isotopies; they
    give what the separate scans gave before it."""

    def old_autotopies(loop):
        found = set()
        for a in left_nonsingular_elements(loop):
            for b in range(loop.order):
                isotope, principal = principal_isotope_with_relabel(loop, a, b)
                for f in isomorphisms(loop, isotope):
                    found.add(IsotopyWitness(f, f, f).then(principal.inverse()))
        return tuple(sorted(found, key=lambda w: (w.alpha, w.beta, w.gamma)))

    def old_are_isotopic(L1, L2):
        for a in left_nonsingular_elements(L1):
            for b in range(L1.order):
                isotope, principal = principal_isotope_with_relabel(L1, a, b)
                f = are_isomorphic(L2, isotope)
                if f is not None:
                    f_inv = invert(f)
                    return principal.then(IsotopyWitness(f_inv, f_inv, f_inv))
        return None

    rng = random.Random(13)
    loops = [flip_loop(5, B) for B in flip_sets(5)]
    for entry in default_catalog():
        pool = transversal_loops(entry.group, entry.subgroup)
        if pool[0].order <= 8:
            loops += rng.sample(pool, min(2, len(pool)))
    for loop in loops:
        assert autotopy_group(loop).elements == old_autotopies(loop)

    d7 = transversal_loops("dihedral:7", "x")
    # distinct tables, so are_isotopic's equal-table shortcut never answers
    assert len({loop.table for loop in d7}) == len(d7)
    classes = [c for c in classify(d7, "isotopy").classes if len(c) > 1]
    pairs = [rng.sample(range(len(d7)), 2) for _ in range(15)]
    pairs += [rng.sample(rng.choice(classes), 2) for _ in range(15)]
    isotopic = 0
    for i, j in pairs:
        witness = are_isotopic(d7[i], d7[j])
        assert witness == old_are_isotopic(d7[i], d7[j])
        isotopic += witness is not None
    assert 15 <= isotopic < len(pairs)


def test_classify_does_not_depend_on_input_order():
    loops = transversal_loops("dihedral:7", "x")
    order = list(range(len(loops)))
    random.Random(7).shuffle(order)

    def classes(part, original):
        return {
            frozenset(original[m] for m in members): rep.table
            for members, rep in zip(part.classes, part.representatives)
        }

    for relation in ("iso", "isotopy"):
        base = classify(loops, relation)
        shuffled = classify([loops[i] for i in order], relation)
        assert classes(shuffled, order) == classes(base, range(len(loops)))


def reference_scan(loops, relation):
    """The scan classify made before its index: each loop is compared with
    the first member of each earlier class with as many left non-singular
    elements (Prop 3.2)."""
    test = are_isotopic if relation == "isotopy" else are_isomorphic
    classes, by_count = [], {}
    for i, loop in enumerate(loops):
        candidates = by_count.setdefault(len(left_nonsingular_elements(loop)), [])
        for members in candidates:
            if test(loops[members[0]], loop) is not None:
                members.append(i)
                break
        else:
            candidates.append([i])
            classes.append(candidates[-1])
    reps = [min((loops[i] for i in m), key=lambda l: l.table) for m in classes]
    return tuple(map(tuple, classes)), reps


@pytest.mark.parametrize("relation", ["iso", "isotopy"])
@pytest.mark.parametrize(
    "group, sub, seed",
    [("dihedral:7", "x", None), ("alt:4", "(1,2)(3,4)", None), ("dihedral:6", "y^3 x", 3)],
)
def test_classify_matches_the_reference_scan(group, sub, seed, relation):
    loops = transversal_loops(group, sub)
    if seed is not None:
        random.Random(seed).shuffle(loops)
    classes, reps = reference_scan(loops, relation)
    part = classify(loops, relation)
    assert part.classes == classes
    assert all(a is b for a, b in zip(part.representatives, reps, strict=True))


def test_classify_takes_any_iterable():
    loops = transversal_loops("dihedral:7", "x")
    for relation in ("iso", "isotopy"):
        part = classify(tuple(loops), relation)
        assert classify((loop for loop in loops), relation) == part
        assert sum(map(len, part.classes)) == len(loops)


def test_dihedral_eleven_isotopy_classes_are_the_affine_families():
    p = 11
    G = build_named_group(f"dihedral:{p}")
    transversals = list(enumerate_transversals(G, parse_subgroup(G, "x")))
    part = classify((induced_right_loop(t) for t in transversals), "isotopy")
    got = {frozenset(transversals[i].reps for i in members) for members in part.classes}
    want = {
        frozenset(dihedral_transversal(p, B).reps for B in family)
        for family in affine_families(p)
    }
    assert got == want
    assert len(part.classes) == dihedral_isotopy_count(p) == 15


def test_sym4_point_stabiliser_class_counts():
    loops = transversal_loops("sym:4", "(1,2)")
    assert len(loops) == 2048
    assert len(classify(loops, "iso").classes) == 576
    assert len(classify(loops, "isotopy").classes) == 76


def test_classify_argument_errors():
    with pytest.raises(ValueError, match="relation"):
        classify(loops4(), relation="homotopy")
    with pytest.raises(ValueError, match="equal order"):
        classify([validate_right_loop(T0), validate_right_loop([[0, 1], [1, 0]])])
    with pytest.raises(ValueError, match="equal order"):
        classify(iter([validate_right_loop(T0), validate_right_loop([[0, 1], [1, 0]])]))
    assert classify([]).classes == ()
    assert classify(iter(())).classes == ()


def test_autotopy_group_of_cyclic_three():
    z3 = validate_right_loop(cyclic_group(3).table)
    ag = autotopy_group(z3)
    assert (ag.u_size, ag.a1_size, ag.a2_size, ag.aut_size) == (18, 6, 6, 2)
    assert set(ag.automorphisms) == {(0, 1, 2), (0, 2, 1)}
    for w in ag.elements:
        assert w.verify(z3, z3)


def test_autotopy_group_of_cyclic_five():
    z5 = validate_right_loop(cyclic_group(5).table)
    ag = autotopy_group(z5)
    assert (ag.u_size, ag.a1_size, ag.a2_size, ag.aut_size) == (100, 20, 20, 4)
    # automorphisms are exactly the multiplication maps
    assert sorted(ag.automorphisms) == sorted(
        tuple((k * x) % 5 for x in range(5)) for k in range(1, 5)
    )
    # stabilizer indices match the order and the left-nonsingular count
    assert ag.a1_size // ag.aut_size == 5
    assert ag.a2_size // ag.aut_size == 5


def test_autotopy_group_of_a_non_loop():
    L3 = validate_right_loop(T3)
    ag = autotopy_group(L3)
    assert (ag.u_size, ag.a1_size, ag.a2_size, ag.aut_size) == (2, 2, 1, 1)
    assert ag.automorphisms == ((0, 1, 2),)


def _closed_under_all_pairs(found):
    return all(w1.then(w2) in found for w1 in found for w2 in found)


def test_closure_walk_matches_the_all_pairs_definition():
    group = autotopy_group(validate_right_loop(cyclic_group(5).table)).elements
    identity = IsotopyWitness.identity(5)
    rng = random.Random(15)
    dropped = rng.choice([w for w in group if w != identity])
    samples = {
        "group": (list(group), True),
        "group minus one element": ([w for w in group if w != dropped], False),
        "group without the identity": ([w for w in group if w != identity], False),
    }
    for name, (witnesses, closed) in samples.items():
        found = set(witnesses)
        assert _closed_under_all_pairs(found) == closed, name
        if closed:
            isotopy._check_closed(found, witnesses, 5)
        else:
            with pytest.raises(AssertionError, match="not closed under composition"):
                isotopy._check_closed(found, witnesses, 5)


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("cyclic:3", (18, 6, 6, 2)),
        ("cyclic:5", (100, 20, 20, 4)),
        ("cyclic:6", (72, 12, 12, 2)),
        ("cyclic:7", (294, 42, 42, 6)),
        ("dihedral:3", (216, 36, 36, 6)),
        ("dihedral:4", (512, 64, 64, 8)),
    ],
)
def test_autotopy_groups_of_group_tables(name, sizes):
    loop = validate_right_loop(build_named_group(name).table)
    ag = autotopy_group(loop)
    assert (ag.u_size, ag.a1_size, ag.a2_size, ag.aut_size) == sizes
    if ag.u_size <= 100:  # the all-pairs test is quadratic
        assert _closed_under_all_pairs(set(ag.elements))


def test_searches_leave_no_reference_cycles():
    """A finished search frees its state by reference counting alone."""
    loops = transversal_loops("dihedral:5", "x")[:6]
    for loop in loops:
        loop.columns  # cached on first use, outside the measured region
    gc.collect()
    gc.disable()
    try:
        for a, b in itertools.product(loops, repeat=2):
            are_isotopic(a, b)
            list(isomorphisms(a, b))
        classify(loops, "isotopy")
        classify(loops, "iso")
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_autotopy_cap():
    assert AUTOTOPY_ORDER_CAP == 8
    big = validate_right_loop(cyclic_group(9).table)
    with pytest.raises(CapExceededError, match="capped at order 8, got 9"):
        autotopy_group(big)


def _pseudo_automorphism_holds(t, eta, c, side):
    """eta fixes 0 and eta(x*y) * c = eta(x) * (eta(y) * c) on the right,
    or c * eta(x*y) = (c * eta(x)) * eta(y) on the left."""
    pairs = list(itertools.product(range(len(t)), repeat=2))
    if side == "right":
        identity = all(t[eta[t[x][y]]][c] == t[eta[x]][t[eta[y]][c]] for x, y in pairs)
    else:
        identity = all(t[c][eta[t[x][y]]] == t[t[c][eta[x]]][eta[y]] for x, y in pairs)
    return eta[0] == 0 and identity


def _pseudo_autotopy_triple(t, eta, c, side):
    """(eta, R(c) o eta, R(c) o eta) on the right, (L(c) o eta, eta,
    L(c) o eta) on the left."""
    if side == "right":
        shifted = tuple(t[y][c] for y in eta)
        return IsotopyWitness(eta, shifted, shifted)
    shifted = tuple(t[c][y] for y in eta)
    return IsotopyWitness(shifted, eta, shifted)


def test_pseudo_automorphism_check():
    """The scan's holds on known cases: the inversion of Z3 with every
    companion on both sides, not the inversion of T3 at companion 0, never
    an eta that moves 0, and no left case at a left singular companion."""
    z3 = validate_right_loop(cyclic_group(3).table)
    holds = {
        (e, c, s): h
        for e, c, s, h, _ in pseudo_automorphism_scan(autotopy_group(z3))
    }
    inversion = (0, 2, 1)
    for c in range(3):
        assert holds[inversion, c, "right"]
        assert holds[inversion, c, "left"]
    # eta must fix the identity
    assert not holds[(1, 0, 2), 0, "right"]
    assert not any(h for (eta, _, _), h in holds.items() if eta[0] != 0)
    L3 = validate_right_loop(T3)
    holds = {
        (e, c, s): h
        for e, c, s, h, _ in pseudo_automorphism_scan(autotopy_group(L3))
    }
    assert not holds[inversion, 0, "right"]
    assert (inversion, 0, "left") in holds
    assert (inversion, 1, "left") not in holds
    assert (inversion, 2, "left") not in holds


def test_pseudo_autotopy_triple_matches_the_check():
    """On Z5, for every eta fixing 0, each companion and both sides, the
    triple is an autotopy exactly when eta is a pseudo-automorphism."""
    z5 = validate_right_loop(cyclic_group(5).table)
    cases = [
        case
        for case in pseudo_automorphism_scan(autotopy_group(z5))
        if case[0][0] == 0
    ]
    assert len(cases) == math.factorial(4) * 5 * 2
    for eta, c, side, holds, is_autotopy in cases:
        triple = _pseudo_autotopy_triple(z5.table, eta, c, side)
        assert triple.verify(z5, z5) == holds, (eta, c, side)
        assert is_autotopy == holds, (eta, c, side)


def test_pseudo_automorphism_scan_matches_the_public_functions():
    """Case by case and in order, against holds and is_autotopy as the
    scan documents them: every eta in permutation order, each companion,
    right before left, left only at left non-singular ones."""
    L3 = validate_right_loop(T3)
    assert left_nonsingular_elements(L3) == (0,)
    loops = [flip_loop(5, B) for B in flip_sets(5)]
    loops += [validate_right_loop(cyclic_group(5).table), L3]
    seen = set()
    for loop in loops:
        n, t = loop.order, loop.table
        expected = [
            (
                eta,
                c,
                side,
                _pseudo_automorphism_holds(t, eta, c, side),
                _pseudo_autotopy_triple(t, eta, c, side).verify(loop, loop),
            )
            for eta in itertools.permutations(range(n))
            for c in range(n)
            for side in (("right", "left") if len(set(t[c])) == n else ("right",))
        ]
        assert list(pseudo_automorphism_scan(autotopy_group(loop))) == expected
        seen |= {(side, holds) for _, _, side, holds, _ in expected}
    # the identity holds in some cases and fails in others, on both sides
    assert seen == {(s, h) for s in ("right", "left") for h in (False, True)}


@pytest.mark.parametrize("descriptor", ["cyclic:5", "sym:3"])
def test_pseudo_automorphisms_of_a_group_are_its_automorphisms(descriptor):
    t = build_named_group(descriptor).table
    n = len(t)
    cases = list(pseudo_automorphism_scan(autotopy_group(validate_right_loop(t))))
    assert len(cases) == math.factorial(n) * n * 2
    for eta, c, side, holds, _ in cases:
        automorphism = all(
            eta[t[x][y]] == t[eta[x]][eta[y]] for x in range(n) for y in range(n)
        )
        assert holds == automorphism, (eta, c, side)


def test_oracle_pairs_do_pinned_work(monkeypatch):
    """The pairs (i, i+1) and (i, i+32) mod 64 of the dihedral:7 x loops,
    each decided by the search and by the oracle, as one round of the
    oracle benchmark workload does: 64 signature passes (one per loop), 25
    principal-isotope tables and 25 isomorphism searches, 128 oracle calls.
    Both find the same 24 pairs isotopic."""
    G = build_named_group("dihedral:7")
    loops = [
        induced_right_loop(t)
        for t in enumerate_transversals(G, parse_subgroup(G, "x"))
    ]
    work = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            work[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    names = (
        (rightloops, "_table_signatures"),
        (isotopy, "principal_isotope_with_relabel"),
        (isotopy, "_isomorphisms"),
        (isotopy, "brute_force_isotopy_oracle"),
    )
    for module, name in names:
        count(module, name)
    pairs = [(i, (i + d) % 64) for i in range(64) for d in (1, 32)]
    searched, decided = set(), set()
    for a, b in pairs:
        if isotopy.are_isotopic(loops[a], loops[b]) is not None:
            searched.add((a, b))
        if isotopy.brute_force_isotopy_oracle(loops[a], loops[b]):
            decided.add((a, b))
    assert tuple(work[name] for _, name in names) == (64, 25, 25, 128)
    assert len(searched) == 24 and searched == decided
