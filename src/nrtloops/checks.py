"""Executable checks of structural facts about transversal loops, run over
a built-in catalog of (group, subgroup) pairs.

Each check id names one verifiable statement. A check returns its verdict
with details, and run_suite labels each result with its catalog entry or
prime and builds the report. Implication-shaped statements are checked as
implications: when the hypothesis fails on an entry the report says
"vacuous" rather than silently passing. An equivalence is checked both
ways (see check "prop3.7"). Failing reports always carry a concrete
counterexample.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

from .burnside import dihedral_isotopy_count, subset_orbit_count
from .flips import FlipSet, _family_masks, _family_walk, flip_loop, flip_mask, flip_sets
from .groups import (
    build_named_group,
    core,
    dihedral_group,
    generated_subgroup,
    is_nilpotent,
    is_normal,
    is_solvable,
    parse_subgroup,
    quotient,
    subgroup,
)
from .isotopy import (
    are_isotopic,
    autotopy_group,
    classify,
    isomorphisms,
    pseudo_automorphism_scan,
)
from .rightloops import is_loop, left_nonsingular_elements
from .transversals import enumerate_transversals, induced_right_loop

# each fact key a catalog entry may declare, with how it is computed
_FACTS = {
    "normal": lambda data: is_normal(data.group, data.subgroup),
    "isotopy_classes": lambda data: len(data.partition("isotopy").classes),
    "isomorphism_classes": lambda data: len(data.partition("iso").classes),
    "loop_transversals": lambda data: sum(map(is_loop, data.loops)),
}

DEFAULT_PRIMES = (3, 5, 7)

# Most transversals of a catalog entry, as its pools are held while it runs.
ENTRY_POOL_CAP = 1 << 15

# Largest prime whose flip loops thm4.1 and the direct thm4.2 count classify.
FLIP_CLASS_PRIME_CAP = 7


@dataclass(frozen=True)
class CatalogEntry:
    """One (group, subgroup) pair with optional expected facts."""

    label: str
    group: str
    subgroup: str
    facts: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.facts.items():
            if key not in _FACTS:
                raise ValueError(f"unknown fact key {key!r}")
            # exact types, as bool is an int subclass and 0 == False
            wanted = bool if key == "normal" else int
            if type(value) is not wanted or value < 0:
                raise ValueError(
                    f"catalog entry {self.label!r} has a fact {key!r} that is not "
                    + ("a boolean" if wanted is bool else "a non-negative integer")
                )


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    label: str
    verdict: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "vacuous"):
            raise ValueError(f"bad verdict {self.verdict!r}")

    def to_json_obj(self) -> dict:
        return {
            "check": self.check_id,
            "label": self.label,
            "verdict": self.verdict,
            "details": _jsonable(self.details),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def default_catalog() -> tuple[CatalogEntry, ...]:
    """The built-in (group, subgroup) pairs with their expected facts."""
    keys = ("normal", "isotopy_classes", "isomorphism_classes", "loop_transversals")
    rows = (
        ("sym3-point-swap", "sym:3", "(2,3)", False, 2, 3, 1),
        ("alt4-double-swap", "alt:4", "(1,2)(3,4)", False, 2, 5, 0),
        ("dihedral3-mirror", "dihedral:3", "x", False, 2, 3, 1),
        ("dihedral4-mirror", "dihedral:4", "x", False, 4, 6, 2),
        ("dihedral5-mirror", "dihedral:5", "x", False, 3, 6, 1),
        ("dihedral6-mirror", "dihedral:6", "x", False, 8, 20, 2),
        ("dihedral7-mirror", "dihedral:7", "x", False, 5, 14, 1),
        ("dihedral3-rotations", "dihedral:3", "y", True, 1, 1, 3),
        ("dihedral6-center", "dihedral:6", "y^3", True, 1, 1, 32),
        ("dihedral6-klein", "dihedral:6", "y^3 x", False, 2, 3, 4),
        ("cyclic8-even", "cyclic:8", "2", True, 1, 1, 4),
    )
    return tuple(
        CatalogEntry(label, group, sub, dict(zip(keys, facts)))
        for label, group, sub, *facts in rows
    )


def load_catalog(path) -> tuple[CatalogEntry, ...]:
    """Read a catalog from a JSON file: a list of {label, group, subgroup,
    facts?} objects with distinct labels, which name their reports."""
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, list):
        raise ValueError("catalog file must hold a JSON list")
    entries = []
    labels = set()
    for index, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ValueError(f"catalog entry {index} is not an object")
        for key in ("label", "group", "subgroup"):
            if key not in item:
                raise ValueError(f"catalog entry {index} lacks {key!r}")
            if not isinstance(item[key], str):
                raise ValueError(
                    f"catalog entry {index} has a {key!r} that is not a string"
                )
        if item["label"] in labels:
            raise ValueError(
                f"catalog entry {index} repeats the label {item['label']!r}"
            )
        labels.add(item["label"])
        facts = item.get("facts", {})
        if not isinstance(facts, dict):
            raise ValueError(f"catalog entry {index} has facts that are not an object")
        entries.append(
            CatalogEntry(item["label"], item["group"], item["subgroup"], facts)
        )
    return tuple(entries)


class _EntryData:
    """Lazily computed artifacts for one catalog entry."""

    def __init__(self, entry: CatalogEntry):
        self.entry = entry
        self.group = build_named_group(entry.group)
        self.subgroup = parse_subgroup(self.group, entry.subgroup)
        self._partitions = {}

    @cached_property
    def transversals(self):
        return tuple(enumerate_transversals(self.group, self.subgroup, ENTRY_POOL_CAP))

    @cached_property
    def loops(self):
        return tuple(induced_right_loop(t) for t in self.transversals)

    def partition(self, relation: str):
        if relation not in self._partitions:
            self._partitions[relation] = classify(self.loops, relation)
        return self._partitions[relation]


def _is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _check_facts(data: _EntryData):
    expected = data.entry.facts
    if not expected:
        return "vacuous", {"declared": 0}
    computed = {key: fact(data) for key, fact in _FACTS.items() if key in expected}
    mismatches = {
        key: {"expected": expected[key], "computed": computed[key]}
        for key in computed
        if computed[key] != expected[key]
    }
    if mismatches:
        return "fail", mismatches
    return "pass", computed


def _named_pair(data: _EntryData, first: int, second: int) -> dict:
    """Failure details naming two of an entry's transversals."""
    labels = data.transversals
    return {"first": labels[first].label(), "second": labels[second].label()}


def _check_prop32(data: _EntryData):
    """Isotopic right loops have equally many left non-singular elements:
    every member of an isotopy class has its first member's count, and the
    first members of classes with different counts are not isotopic.
    Isotopy is symmetric, so each pair is searched from the loop with the
    lower count, which has fewer principal isotopes."""
    classes = data.partition("isotopy").classes
    firsts = [data.loops[members[0]] for members in classes]
    counts = [len(left_nonsingular_elements(loop)) for loop in firsts]
    for members, count in zip(classes, counts):
        for m in members[1:]:
            if len(left_nonsingular_elements(data.loops[m])) != count:
                return "fail", _named_pair(data, members[0], m)
    for i, j in itertools.combinations(range(len(firsts)), 2):
        if counts[i] == counts[j]:
            continue
        low, high = sorted((i, j), key=counts.__getitem__)
        if are_isotopic(firsts[low], firsts[high]) is not None:
            return "fail", _named_pair(data, classes[i][0], classes[j][0])
    profiles = [
        {"size": len(members), "lns": count, "loop": count == loop.order}
        for members, count, loop in zip(classes, counts, firsts)
    ]
    return "pass", {"classes": profiles}


def _check_prop33(data: _EntryData):
    """The isotopy class count is unchanged by factoring out the core. On a
    trivial core the quotient is the group itself, so its transversals and
    loops are the entry's and are neither induced nor classified again."""
    G = data.group
    N = core(G, data.subgroup)
    upstairs = len(data.partition("isotopy").classes)
    if N.order == 1:
        downstairs = upstairs
    else:
        Q, projection = quotient(G, N)
        HQ = subgroup(Q, {projection[h] for h in data.subgroup.members})
        loops = (induced_right_loop(t) for t in enumerate_transversals(Q, HQ))
        downstairs = len(classify(loops, "isotopy").classes)
    details = {
        "core_order": N.order,
        "itp": upstairs,
        "itp_quotient": downstairs,
    }
    return ("pass" if upstairs == downstairs else "fail"), details


def _check_prop35(data: _EntryData):
    """With a corefree subgroup and a single isotopy class, no transversal
    is a loop transversal and every transversal generates the group. The
    trivial subgroup is excluded: its only transversal is the group."""
    if data.subgroup.order == 1:
        return "vacuous", {"subgroup_order": 1}
    N = core(data.group, data.subgroup)
    itp = len(data.partition("isotopy").classes)
    if N.order != 1 or itp != 1:
        return "vacuous", {"core_order": N.order, "itp": itp}
    for t, loop in zip(data.transversals, data.loops):
        if is_loop(loop):
            return "fail", {"loop_transversal": t.label()}
        if generated_subgroup(data.group, t.reps).order != data.group.order:
            return "fail", {"proper_span": t.label()}
    return "pass", {"transversals": len(data.loops)}


def _check_prop37(data: _EntryData):
    """For a nilpotent group, the subgroup is normal exactly when there is a
    single isotopy class. A pass reads "direct" on one class and
    "contrapositive" on several."""
    if not is_nilpotent(data.group):
        return None
    normal = is_normal(data.group, data.subgroup)
    itp = len(data.partition("isotopy").classes)
    details = {"normal": normal, "itp": itp}
    if (itp == 1) != normal:
        return "fail", details
    details["reading"] = "direct" if itp == 1 else "contrapositive"
    return "pass", details


def _one_class_forces_normality(data: _EntryData):
    itp = len(data.partition("isotopy").classes)
    if itp != 1:
        return "vacuous", {"itp": itp}
    normal = is_normal(data.group, data.subgroup)
    return ("pass" if normal else "fail"), {"itp": itp, "normal": normal}


def _check_prop38(data: _EntryData):
    """For a solvable group with |H| coprime to the index, a single isotopy
    class forces normality."""
    index = data.group.order // data.subgroup.order
    if not (is_solvable(data.group) and math.gcd(data.subgroup.order, index) == 1):
        return None
    return _one_class_forces_normality(data)


def _check_cor38(data: _EntryData):
    """For a group of squarefree order, a single isotopy class forces
    normality."""
    if not _is_squarefree(data.group.order):
        return None
    return _one_class_forces_normality(data)


def _prop39_failure(group) -> dict | None:
    """The first counterexample to prop3.9 on the loop of an autotopy group:
    an autotopy whose three right (or left) conditions disagree, else the
    first eta and companion c, right before left, whose pseudo-automorphism
    identity disagrees with the triple's membership of the group. Both read
    one scan; it has both cases of each autotopy, since the row of alpha(0)
    is gamma o beta^-1, so alpha(0) is left non-singular."""
    holding, mismatch = set(), None  # the cases whose identity holds
    for eta, c, side, holds, is_autotopy in pseudo_automorphism_scan(group):
        if holds:
            holding.add((eta, c, side))
        if holds != is_autotopy and mismatch is None:
            mismatch = {"eta": eta, "companion": c, "side": side}
    for w in group.elements:
        right = (
            w.alpha[0] == 0,
            w.beta == w.gamma,
            (w.alpha, w.beta[0], "right") in holding,
        )
        left = (
            w.beta[0] == 0,
            w.alpha == w.gamma,
            (w.beta, w.alpha[0], "left") in holding,
        )
        if len(set(right)) != 1 or len(set(left)) != 1:
            return {"autotopy": repr(w), "right": right, "left": left}
    return mismatch


def _check_prop39():
    """Autotopy / pseudo-automorphism correspondence on the mod-5 flip
    loops: for every autotopy (alpha, beta, gamma), alpha fixing 0, beta
    equalling gamma, and alpha being a right pseudo-automorphism with
    companion beta(0) are equivalent (dually on the left); and for every
    bijection eta and companion c, the pseudo-automorphism identity holds
    exactly when the associated triple is an autotopy."""
    for B in flip_sets(5):
        label = f"mod5 B={B.format()}"
        group = autotopy_group(flip_loop(5, B))
        failure = _prop39_failure(group)
        if failure is not None:
            yield label, "fail", failure
        else:
            yield label, "pass", {
                "autotopies": group.u_size,
                "a1": group.a1_size,
                "a2": group.a2_size,
                "aut": group.aut_size,
            }


def _aut_transitive(loop) -> bool:
    """Whether the automorphism group acts transitively on the non-identity
    positions."""
    n = loop.order
    if n <= 2:
        return True
    # automorphisms preserve signatures, so one orbit has one signature
    if len(set(loop.signatures[1:])) > 1:
        return False
    # the automorphisms form a group, so the orbit of 1 is its set of images
    return len({f[1] for f in isomorphisms(loop, loop)}) == n - 1


def _check_thm312(data: _EntryData):
    """Isotopic right loops whose automorphism groups act transitively on
    non-identity elements must be isomorphic. Isomorphism is transitive, so
    each transitive member is compared with its class's first one."""
    partition = data.partition("isotopy")
    loops = data.loops
    pairs = 0
    transitive_total = 0
    for members in partition.classes:
        transitive = [m for m in members if _aut_transitive(loops[m])]
        transitive_total += len(transitive)
        if len(transitive) < 2:
            continue
        pairs += len(transitive) * (len(transitive) - 1) // 2
        iso = data.partition("iso")
        for b in transitive[1:]:
            if iso.class_of(b) != iso.class_of(transitive[0]):
                return "fail", _named_pair(data, transitive[0], b)
    if pairs == 0:
        return "vacuous", {"transitive_members": transitive_total}
    return "pass", {"pairs": pairs, "transitive_members": transitive_total}


def _flip_mask_classes(data: _EntryData) -> list[frozenset[int]]:
    """The isotopy classes of a D_2p entry's <x> pool, as sets of flip masks."""
    masks = [flip_mask(t) for t in data.transversals]
    classes = data.partition("isotopy").classes
    return [frozenset(masks[m] for m in members) for members in classes]


class FlipClassCounts:
    """The mod-p flip loops' isotopy classes and their count found three
    ways: the cycle-index formula, the Burnside count of orbits on subsets
    (which counts each class twice, once with its complement), and for p up
    to FLIP_CLASS_PRIME_CAP direct classification (None above that). Each
    is computed when first read, so the checks of one run_suite call share
    one classification per prime: that of the transversals of <x> in D_2p,
    which run_suite stores from the matching catalog entry, else built here."""

    def __init__(self, p: int):
        self.p = p

    @cached_property
    def classes(self) -> list[frozenset[int]] | None:
        """The isotopy classes of the 2^(p-1) flip loops, each as the set of
        its flip-set masks, or None when p exceeds FLIP_CLASS_PRIME_CAP."""
        p = self.p
        if p > FLIP_CLASS_PRIME_CAP:
            return None
        pool = _EntryData(CatalogEntry(f"D{p}", f"dihedral:{p}", "x"))
        return _flip_mask_classes(pool)

    @cached_property
    def orbit_count(self) -> int:
        return subset_orbit_count(self.p)

    @cached_property
    def formula(self) -> int:
        return dihedral_isotopy_count(self.p)

    @property
    def direct(self) -> int | None:
        return None if self.classes is None else len(self.classes)

    @property
    def agree(self) -> bool:
        # the orbit count hits the affine-map cap before the formula builds 2^p
        halved = self.orbit_count == 2 * self.formula
        return halved and self.direct in (None, self.formula)

    def __repr__(self):
        return (
            f"FlipClassCounts(p={self.p}, formula={self.formula}, "
            f"orbit_count={self.orbit_count}, direct={self.direct})"
        )


def _check_thm41(counts: FlipClassCounts):
    """For an odd prime modulus, two flip loops are isotopic exactly when
    each flip set lies in the other's affine family: the families, on masks,
    are symmetric and equal the isotopy classes."""
    p = counts.p
    classes = counts.classes
    if classes is None:
        return "vacuous", {
            "note": f"direct classification capped at p={FLIP_CLASS_PRIME_CAP}"
        }
    class_of = {B: members for members in classes for B in members}
    subsets = sorted(class_of)
    families = {B: _family_masks(p, B) for B in subsets}
    for B in subsets:
        for C in sorted(families[B]):
            if B not in families[C]:
                pair = [FlipSet.from_mask(p, m).format() for m in (B, C)]
                return "fail", {"asymmetric": pair}
    for B in subsets:
        if class_of[B] != families[B]:
            C = min(class_of[B] ^ families[B])
            return "fail", {
                "B": FlipSet.from_mask(p, B).format(),
                "C": FlipSet.from_mask(p, C).format(),
                "family_predicts": C in families[B],
                "isotopic": C in class_of[B],
            }
    return "pass", {"subsets": len(subsets)}


def _check_thm42(counts: FlipClassCounts):
    """The isotopy class count of mod-p flip loops from the cycle-index
    formula agrees with the Burnside orbit count, the family census, and
    (for p up to FLIP_CLASS_PRIME_CAP) direct classification."""
    details = {
        "orbit_count": counts.orbit_count,
        "formula": counts.formula,
        "families": sum(1 for _ in _family_walk(counts.p)),
    }
    if counts.direct is not None:
        details["direct"] = counts.direct
    agree = counts.agree and details["families"] == counts.formula
    return ("pass" if agree else "fail"), details


# each check id, in report order, with its kind: an "entry" check returns
# (verdict, details) for one catalog entry, or None where it does not apply;
# a "prime" check does so for one FlipClassCounts; a "suite" check yields
# (label, verdict, details) for each of its reports
_CHECKS = {
    "facts": ("entry", _check_facts),
    "prop3.2": ("entry", _check_prop32),
    "prop3.3": ("entry", _check_prop33),
    "prop3.5": ("entry", _check_prop35),
    "prop3.7": ("entry", _check_prop37),
    "prop3.8": ("entry", _check_prop38),
    "cor3.8": ("entry", _check_cor38),
    "prop3.9": ("suite", _check_prop39),
    "thm3.12": ("entry", _check_thm312),
    "thm4.1": ("prime", _check_thm41),
    "thm4.2": ("prime", _check_thm42),
}

CHECK_IDS = tuple(_CHECKS)


def run_suite(catalog=None, check_ids=None, ps=DEFAULT_PRIMES) -> list[CheckReport]:
    """Run the requested checks (all by default; an empty selection is a
    ValueError) over the catalog entries and the standalone
    prime-parameterized checks; reports come back in catalog order within
    check-id order. Every entry's group and subgroup are built first, so a
    bad descriptor fails before any pool; then the entry checks run entry
    by entry, each entry's pools dropped before the next's are built and
    the last entry's before the prime and suite checks run."""
    if catalog is None:
        catalog = default_catalog()
    if check_ids is None:
        requested = list(CHECK_IDS)
    else:
        requested = list(check_ids)
        if not requested:
            raise ValueError("no check ids given")
        unknown = sorted(set(requested) - set(CHECK_IDS))
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(unknown)}")
        requested = [c for c in CHECK_IDS if c in requested]
    rows = {check_id: [] for check_id in requested}
    entry_checks = [c for c in requested if _CHECKS[c][0] == "entry"]
    pending = [_EntryData(entry) for entry in catalog][::-1]
    primes = [FlipClassCounts(p) for p in ps]
    # an entry that holds a prime's D_2p pool hands it its isotopy classes
    lend = any(_CHECKS[c][0] == "prime" for c in requested)
    borrowers = [q for q in primes if lend and 1 < q.p <= FLIP_CLASS_PRIME_CAP]
    while pending:
        data = pending.pop()  # rebinding drops the previous entry
        for check_id in entry_checks:
            result = _CHECKS[check_id][1](data)
            if result is not None:
                rows[check_id].append((data.entry.label, *result))
        for q in borrowers:
            if data.subgroup.members == (0, q.p) and data.group == dihedral_group(q.p):
                q.classes = _flip_mask_classes(data)
    data = None  # drops the last entry
    for check_id in requested:
        kind, check = _CHECKS[check_id]
        if kind == "prime":
            rows[check_id].extend((f"p={q.p}", *check(q)) for q in primes)
        elif kind == "suite":
            rows[check_id].extend(check())
    return [CheckReport(c, *row) for c in requested for row in rows[c]]


def suite_passed(reports) -> bool:
    return all(r.verdict != "fail" for r in reports)
