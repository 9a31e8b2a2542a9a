"""The benchmark workloads: how each builds its inputs, runs one round of
work, and checks that round's output against a computation made apart
from the classifier.

A workload object has
  setup(pkg, seed) -> inputs    build the inputs (part of setup_s)
  run(inputs) -> Round          one round of work (the timed region)
  check(inputs, output)         problems found in a round's output
The inputs carry ``items``, the number of items every round attempts, so
that a round that raises counts all of them as failed.

The classify and verify workloads call ``nrtloops.cli.main`` in-process,
as a user runs them, with ``--format json`` so that the output can be
checked. The oracle workload calls the library, since the oracle has no
command.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from types import SimpleNamespace


@dataclass(frozen=True)
class Round:
    items: int
    failed: int
    output: object


def _cli(pkg, argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = pkg.cli.main(argv)
    return code, buffer.getvalue()


def _reps(G, label: str) -> list[int]:
    """Element indices of a transversal label as the CLI prints it."""
    index = {name: i for i, name in enumerate(G.names)}
    return [index[token] for token in label.split(",")]


class Classify:
    """``nrtloops classify --relation isotopy --jobs 1`` on one group and
    subgroup; one item is one transversal loop classified."""

    def __init__(self, group: str, subgroup: str, check):
        self.group = group
        self.subgroup = subgroup
        self._check = check

    def setup(self, pkg, seed):
        G = pkg.groups.build_named_group(self.group)
        H = pkg.groups.parse_subgroup(G, self.subgroup)
        argv = [
            "classify",
            "--group", self.group,
            "--subgroup", self.subgroup,
            "--relation", "isotopy",
            "--jobs", "1",
            "--format", "json",
        ]
        count = pkg.transversals.transversal_count(G, H)
        return SimpleNamespace(pkg=pkg, G=G, H=H, argv=argv, items=count)

    def run(self, inputs) -> Round:
        code, text = _cli(inputs.pkg, inputs.argv)
        return Round(inputs.items, 0 if code == 0 else inputs.items, (code, text))

    def check(self, inputs, output) -> list[str]:
        code, text = output
        if code != 0:
            return [f"classify exited {code}"]
        obj = json.loads(text)
        labels = [label for c in obj["classes"] for label in c["members"]]
        problems = []
        if obj["transversals"] != inputs.items or len(set(labels)) != inputs.items:
            problems.append(
                f"{len(set(labels))} distinct transversals reported, "
                f"expected {inputs.items}"
            )
        return problems + self._check(inputs, obj)


def _check_mirror(inputs, obj) -> list[str]:
    """dihedral:p with H = <x>: the classes are the affine families of the
    flip sets, and their number is the paper's count."""
    pkg, G = inputs.pkg, inputs.G
    p = G.order // 2
    problems = []
    got = []
    for c in obj["classes"]:
        masks = []
        for label in c["members"]:
            reps = _reps(G, label)
            if any(r % p != i for i, r in enumerate(reps)):
                problems.append(f"{label} is not a transversal of <x>")
            # the coset of y^i is represented by x y^i exactly when i flips
            masks.append(sum(1 << i for i, r in enumerate(reps) if r >= p))
        got.append(sorted(masks))
    want = [sorted(s.mask for s in fam) for fam in pkg.flips.affine_families(p)]
    if sorted(got) != sorted(want):
        problems.append("classes differ from the affine families")
    counts = {
        "classes": obj["class_count"],
        "formula": pkg.burnside.dihedral_isotopy_count(p),
        "orbits/2": pkg.burnside.subset_orbit_count(p) // 2,
        "families": len(want),
    }
    if len(set(counts.values())) != 1:
        problems.append(f"class counts disagree: {counts}")
    return problems


def _check_normal(inputs, obj) -> list[str]:
    """A normal subgroup: every induced table is the table of G/H, so
    there is one class."""
    pkg, G = inputs.pkg, inputs.G
    Q, projection = pkg.groups.quotient(G, inputs.H)
    problems = []
    if obj["class_count"] != 1:
        problems.append(f"{obj['class_count']} classes, expected 1")
    for c in obj["classes"]:
        if tuple(map(tuple, c["representative_table"])) != Q.table:
            problems.append("a representative table differs from G/H")
        for label in c["members"]:
            reps = _reps(G, label)
            if [projection[r] for r in reps] != list(range(Q.order)):
                problems.append(f"{label} is not a transversal")
                break
            table = tuple(
                tuple(projection[G.mul(a, b)] for b in reps) for a in reps
            )
            if table != Q.table:
                problems.append(f"the table of {label} differs from G/H")
                break
    return problems


class Verify:
    """``nrtloops verify --all``; one item is one check report. The built-in
    catalog and p = 3, 5, 7 give ``REPORTS`` reports."""

    REPORTS = 90

    def setup(self, pkg, seed):
        catalog = pkg.checks.default_catalog()
        for entry in catalog:
            G = pkg.groups.build_named_group(entry.group)
            pkg.groups.parse_subgroup(G, entry.subgroup)
        return SimpleNamespace(
            pkg=pkg, argv=["verify", "--all", "--format", "json"], items=self.REPORTS
        )

    def run(self, inputs) -> Round:
        code, text = _cli(inputs.pkg, inputs.argv)
        reports = json.loads(text)
        failed = sum(1 for r in reports if r["verdict"] == "fail")
        return Round(len(reports), failed, (code, text))

    def check(self, inputs, output) -> list[str]:
        code, text = output
        reports = json.loads(text)
        problems = [
            f"{r['check']} {r['label']} failed"
            for r in reports
            if r["verdict"] == "fail"
        ]
        if len(reports) != inputs.items:
            problems.append(f"{len(reports)} reports, expected {inputs.items}")
        missing = set(inputs.pkg.checks.CHECK_IDS) - {r["check"] for r in reports}
        if missing:
            problems.append(f"no report for {sorted(missing)}")
        if code != 0 and not problems:
            problems.append(f"verify exited {code}")
        return problems


class Oracle:
    """A seeded sample of pairs of dihedral:7 x loops, each decided by
    ``are_isotopic`` and by ``brute_force_isotopy_oracle``; one item is one
    pair. Every loop is the first of one isotopic and one non-isotopic
    pair and the second of one of each, and the seed picks the partners
    and the order, so the mix and the cost of a round barely depend on the
    seed. Whether a pair is isotopic is known from the affine families of
    the flip sets (Theorem 4.1), apart from the isotopy module."""

    p = 7

    def setup(self, pkg, seed):
        p = self.p
        G = pkg.groups.build_named_group(f"dihedral:{p}")
        H = pkg.groups.parse_subgroup(G, "x")
        transversals = list(pkg.transversals.enumerate_transversals(G, H))
        loops = [pkg.transversals.induced_right_loop(t) for t in transversals]
        masks = [
            sum(1 << i for i, r in enumerate(t.reps) if r >= p) for t in transversals
        ]
        position = {m: i for i, m in enumerate(masks)}
        rng = random.Random(seed)
        # Lay the loops out family by family, each family shuffled. The
        # isotopic partner is the next loop of the same family; the other
        # partner sits half the layout away, which is in another family
        # because no family holds more than half of the loops.
        layout, family_of = [], {}
        for k, family in enumerate(pkg.flips.affine_families(p)):
            members = [position[s.mask] for s in family]
            rng.shuffle(members)
            family_of.update((i, k) for i in members)
            layout.extend((i, members[(j + 1) % len(members)]) for j, i in enumerate(members))
        half = len(layout) // 2
        pairs = []
        for j, (a, same) in enumerate(layout):
            other = layout[(j + half) % len(layout)][0]
            if family_of[other] == family_of[a]:
                raise RuntimeError("a flip family holds more than half of the loops")
            pairs.append((a, same, True))
            pairs.append((a, other, False))
        rng.shuffle(pairs)
        return SimpleNamespace(pkg=pkg, loops=loops, pairs=pairs, items=len(pairs))

    def run(self, inputs) -> Round:
        isotopy = inputs.pkg.isotopy
        loops = inputs.loops
        decisions = []
        for a, b, _ in inputs.pairs:
            witness = isotopy.are_isotopic(loops[a], loops[b])
            decided = isotopy.brute_force_isotopy_oracle(loops[a], loops[b])
            decisions.append((witness, decided))
        return Round(inputs.items, 0, tuple(decisions))

    def check(self, inputs, output) -> list[str]:
        problems = []
        for (a, b, family), (witness, decided) in zip(inputs.pairs, output):
            if (witness is not None) != decided or decided != family:
                problems.append(
                    f"pair {a},{b}: search {witness is not None}, "
                    f"oracle {decided}, families {family}"
                )
            elif witness is not None and not witness.verify(
                inputs.loops[a], inputs.loops[b]
            ):
                problems.append(f"pair {a},{b}: the witness does not verify")
        if len(output) != len(inputs.pairs):
            problems.append(f"{len(output)} decisions for {len(inputs.pairs)} pairs")
        return problems


WORKLOADS = {
    "classify-d11-mirror": Classify("dihedral:11", "x", _check_mirror),
    "classify-d16-normal": Classify("dihedral:16", "y^4", _check_normal),
    "verify-all": Verify(),
    "oracle-d7": Oracle(),
}
