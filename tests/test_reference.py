"""The brute-force oracle in nrtloops.reference: its independence from the
search path, and its positive answers through a non-trivial conjugation."""

import ast
import random
from collections import Counter
from pathlib import Path

from nrtloops import reference
from nrtloops.checks import default_catalog
from nrtloops.flips import affine_families, flip_loop
from nrtloops.groups import build_named_group, parse_subgroup
from nrtloops.isotopy import classify
from nrtloops.perms import compose, invert
from nrtloops.reference import brute_force_isotopy_oracle
from nrtloops.rightloops import validate_right_loop
from nrtloops.transversals import enumerate_transversals, induced_right_loop

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nrtloops"


def _package_imports(path):
    """Names of the package modules that the module at path imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "nrtloops":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "nrtloops" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_reference_imports_nothing_from_isotopy():
    reached, todo = set(), ["reference"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_package_imports(PACKAGE / f"{name}.py"))
    assert "perms" in reached
    assert "isotopy" not in reached, sorted(reached)


def relabelled(loop, f):
    """f . loop: the table that the bijection f, with f(0) = 0, carries
    loop onto."""
    n = loop.order
    inv = invert(f)
    t = loop.table
    return validate_right_loop([[f[t[inv[x]][inv[y]]] for y in range(n)] for x in range(n)])


def random_relabelling(rng, n):
    rest = list(range(1, n))
    rng.shuffle(rest)
    return (0, *rest)


def needs_a_conjugation(L1, L2):
    """Whether no target set R2(z)^-1 o C2 of the oracle equals C1 itself,
    so that a True answer must come through some alpha other than the
    identity."""
    cols1, cols2 = set(L1.columns), L2.columns
    return all({compose(invert(r), c) for c in cols2} != cols1 for r in cols2)


def test_oracle_is_true_through_a_conjugation_on_dihedral_seven():
    rng = random.Random(12)
    families = affine_families(7)
    for _ in range(6):
        family, other = rng.sample(families, 2)
        loop = flip_loop(7, rng.choice(family))
        image = relabelled(loop, random_relabelling(rng, 7))
        assert needs_a_conjugation(loop, image)
        assert brute_force_isotopy_oracle(loop, image)
        assert brute_force_isotopy_oracle(image, loop)
        stranger = relabelled(flip_loop(7, rng.choice(other)), random_relabelling(rng, 7))
        assert not brute_force_isotopy_oracle(loop, stranger)
        assert not brute_force_isotopy_oracle(image, stranger)


def test_oracle_is_true_through_a_conjugation_on_alt_four():
    rng = random.Random(13)
    G = build_named_group("alt:4")
    H = parse_subgroup(G, "(1,2)(3,4)")
    loops = [induced_right_loop(t) for t in enumerate_transversals(G, H)]
    part = classify(loops, "isotopy")
    assert len(part.classes) > 1
    for _ in range(6):
        members, others = rng.sample(part.classes, 2)
        loop = loops[rng.choice(members)]
        image = relabelled(loop, random_relabelling(rng, 6))
        assert needs_a_conjugation(loop, image)
        assert brute_force_isotopy_oracle(loop, image)
        stranger = relabelled(loops[rng.choice(others)], random_relabelling(rng, 6))
        assert not brute_force_isotopy_oracle(loop, stranger)


def test_oracle_premise_holds_on_every_catalog_pool():
    """The early stop of the oracle's set test rests on two facts, checked
    here on every pool of the default catalog, dihedral:7 x and alt:4
    (1,2)(3,4): a loop's columns are pairwise distinct, and each target
    R2(z)^-1 o C2 holds exactly n maps."""
    pools = [(e.group, e.subgroup) for e in default_catalog()]
    pools += [("dihedral:7", "x"), ("alt:4", "(1,2)(3,4)")]
    checked = 0
    for descriptor, subgroup in dict.fromkeys(pools):
        G = build_named_group(descriptor)
        for t in enumerate_transversals(G, parse_subgroup(G, subgroup)):
            loop = induced_right_loop(t)
            n, cols = loop.order, loop.columns
            assert len(set(cols)) == n, (descriptor, subgroup)
            for r in cols:
                assert len({compose(invert(r), c) for c in cols}) == n
            checked += 1
    assert checked > 64


def test_oracle_scan_stops_at_the_first_column_outside_the_target(monkeypatch):
    """On the 128 pairs of test_oracle_pairs_do_pinned_work (the pairs
    (i, i+1) and (i, i+32) mod 64 of the dihedral:7 x loops), the oracle tries
    16,439 alpha and builds 33,559 conjugated columns, not all 7 columns
    of each alpha (115,073)."""
    G = build_named_group("dihedral:7")
    loops = [
        induced_right_loop(t)
        for t in enumerate_transversals(G, parse_subgroup(G, "x"))
    ]
    work = Counter()
    conjugates = reference._conjugates

    def counted(getters, alpha):
        work["alpha"] += 1
        for c in conjugates(getters, alpha):
            work["columns"] += 1
            yield c

    monkeypatch.setattr(reference, "_conjugates", counted)
    pairs = [(i, (i + d) % 64) for i in range(64) for d in (1, 32)]
    decided = [(a, b) for a, b in pairs if brute_force_isotopy_oracle(loops[a], loops[b])]
    assert len(decided) == 24
    assert (work["alpha"], work["columns"]) == (16_439, 33_559)
