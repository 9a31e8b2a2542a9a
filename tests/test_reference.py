"""The brute-force oracle in nrtloops.reference: its independence from the
search path, and its positive answers through a non-trivial conjugation."""

import ast
import random
from pathlib import Path

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
