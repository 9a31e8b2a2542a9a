"""Tests for the structural check suite and its catalog."""

import dataclasses
import gc
import json
import tracemalloc
from collections import Counter

import pytest

from nrtloops import checks, flips, isotopy, rightloops
from nrtloops.checks import (
    CHECK_IDS,
    CatalogEntry,
    CheckReport,
    FlipClassCounts,
    default_catalog,
    load_catalog,
    run_suite,
    suite_passed,
)
from nrtloops.flips import FlipSet, flip_loop, flip_sets
from nrtloops.groups import build_named_group, core, parse_subgroup, quotient, subgroup
from nrtloops.isotopy import (
    AutotopyGroup,
    IsotopyWitness,
    are_isotopic,
    classify,
    isomorphisms,
)
from nrtloops.rightloops import left_nonsingular_elements
from nrtloops.transversals import enumerate_transversals, induced_right_loop

EXPECTED_LABELS = [
    "sym3-point-swap",
    "alt4-double-swap",
    "dihedral3-mirror",
    "dihedral4-mirror",
    "dihedral5-mirror",
    "dihedral6-mirror",
    "dihedral7-mirror",
    "dihedral3-rotations",
    "dihedral6-center",
    "dihedral6-klein",
    "cyclic8-even",
]


def test_catalog_entries():
    catalog = default_catalog()
    assert [e.label for e in catalog] == EXPECTED_LABELS
    for entry in catalog:
        facts = entry.facts_dict()
        assert set(facts) == {
            "normal",
            "isotopy_classes",
            "isomorphism_classes",
            "loop_transversals",
        }
    by_label = {e.label: e.facts_dict() for e in catalog}
    assert by_label["sym3-point-swap"]["isotopy_classes"] == 2
    assert by_label["alt4-double-swap"]["isomorphism_classes"] == 5
    assert by_label["alt4-double-swap"]["loop_transversals"] == 0
    assert by_label["dihedral6-center"]["loop_transversals"] == 32
    assert by_label["dihedral7-mirror"]["isotopy_classes"] == 5


def test_catalog_entry_validation():
    entry = CatalogEntry("demo", "sym:3", "(2,3)", {"normal": False})
    assert entry.facts == (("normal", False),)
    with pytest.raises(ValueError, match="fact key"):
        CatalogEntry("demo", "sym:3", "(2,3)", {"color": "red"})


def test_check_report_validation():
    report = CheckReport("facts", "demo", "pass", {"b": 2, "a": 1})
    assert report.details == (("a", 1), ("b", 2))
    assert report.details_dict() == {"a": 1, "b": 2}
    obj = report.to_json_obj()
    assert obj == {
        "check": "facts",
        "label": "demo",
        "verdict": "pass",
        "details": {"a": 1, "b": 2},
    }
    with pytest.raises(ValueError, match="verdict"):
        CheckReport("facts", "demo", "maybe")
    # non-JSON detail values are stringified
    odd = CheckReport("facts", "demo", "pass", {"x": frozenset({1})})
    assert isinstance(odd.to_json_obj()["details"]["x"], str)


def test_full_suite_verdicts():
    reports = run_suite()
    assert suite_passed(reports)
    tally = Counter(r.verdict for r in reports)
    assert tally == {"pass": 62, "vacuous": 28}
    by_check = Counter(r.check_id for r in reports)
    assert by_check == {
        "facts": 11,
        "prop3.2": 11,
        "prop3.3": 11,
        "prop3.5": 11,
        "prop3.7": 2,
        "prop3.8": 6,
        "cor3.8": 5,
        "prop3.9": 16,
        "thm3.12": 11,
        "thm4.1": 3,
        "thm4.2": 3,
    }
    per_check = {}
    for r in reports:
        per_check.setdefault(r.check_id, Counter())[r.verdict] += 1
    assert per_check["facts"] == {"pass": 11}
    assert per_check["prop3.2"] == {"pass": 11}
    assert per_check["prop3.3"] == {"pass": 11}
    assert per_check["prop3.5"] == {"vacuous": 11}
    assert per_check["prop3.7"] == {"pass": 2}
    assert per_check["prop3.8"] == {"pass": 1, "vacuous": 5}
    assert per_check["cor3.8"] == {"pass": 1, "vacuous": 4}
    assert per_check["prop3.9"] == {"pass": 16}
    assert per_check["thm3.12"] == {"pass": 3, "vacuous": 8}

    transitive_passes = [
        r.label for r in reports if r.check_id == "thm3.12" and r.verdict == "pass"
    ]
    assert transitive_passes == [
        "dihedral3-rotations",
        "dihedral6-klein",
        "cyclic8-even",
    ]
    nilpotent_rows = [(r.label, r.verdict) for r in reports if r.check_id == "prop3.7"]
    assert nilpotent_rows == [
        ("dihedral4-mirror", "pass"),
        ("cyclic8-even", "pass"),
    ]


def test_counting_check_details():
    reports = run_suite(check_ids=["thm4.2"])
    assert [r.label for r in reports] == ["p=3", "p=5", "p=7"]
    assert [r.verdict for r in reports] == ["pass", "pass", "pass"]
    expected = {
        "p=3": {"direct": 2, "families": 2, "formula": 2, "orbit_count": 4},
        "p=5": {"direct": 3, "families": 3, "formula": 3, "orbit_count": 6},
        "p=7": {"direct": 5, "families": 5, "formula": 5, "orbit_count": 10},
    }
    for r in reports:
        assert r.details_dict() == expected[r.label]


def test_prime_parameter():
    reports = run_suite(check_ids=["thm4.1", "thm4.2"], ps=(3, 11))
    rows = {(r.check_id, r.label): r for r in reports}
    assert rows[("thm4.1", "p=3")].verdict == "pass"
    # flip loops are classified only up to p = 7, larger primes report vacuous
    assert rows[("thm4.1", "p=11")].verdict == "vacuous"
    assert rows[("thm4.2", "p=11")].verdict == "pass"
    assert rows[("thm4.2", "p=11")].details_dict() == {
        "families": 15,
        "formula": 15,
        "orbit_count": 30,
    }


def test_check_id_selection():
    reports = run_suite(check_ids=["thm4.2", "facts"])
    # reports follow the canonical check order, not the requested order
    assert [r.check_id for r in reports] == ["facts"] * 11 + ["thm4.2"] * 3
    with pytest.raises(ValueError, match="unknown check ids: nope"):
        run_suite(check_ids=["nope"])
    assert CHECK_IDS[0] == "facts"
    assert suite_passed([])


def test_load_catalog(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(
        json.dumps(
            [
                {
                    "label": "one",
                    "group": "sym:3",
                    "subgroup": "(2,3)",
                    "facts": {"isotopy_classes": 2},
                },
                {"label": "two", "group": "cyclic:4", "subgroup": "2"},
            ]
        )
    )
    catalog = load_catalog(path)
    assert len(catalog) == 2
    assert catalog[0].label == "one"
    assert catalog[1].facts == ()
    reports = run_suite(catalog=catalog, check_ids=["facts"])
    assert [r.verdict for r in reports] == ["pass", "vacuous"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x"}))
    with pytest.raises(ValueError, match="JSON list"):
        load_catalog(bad)


def test_load_catalog_rejects_a_repeated_label(tmp_path):
    # two reports with one label could not be told apart
    path = tmp_path / "twice.json"
    entry = {"label": "a", "group": "sym:3", "subgroup": "(2,3)"}
    other = {**entry, "group": "cyclic:4", "subgroup": "2"}
    path.write_text(json.dumps([entry, other]))
    with pytest.raises(ValueError, match="catalog entry 1 repeats the label 'a'"):
        load_catalog(path)


def test_wrong_fact_is_reported(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(
        json.dumps(
            [
                {
                    "label": "wrong",
                    "group": "sym:3",
                    "subgroup": "(2,3)",
                    "facts": {"isotopy_classes": 3, "normal": False},
                }
            ]
        )
    )
    reports = run_suite(catalog=load_catalog(path), check_ids=["facts"])
    assert len(reports) == 1
    report = reports[0]
    assert report.verdict == "fail"
    assert report.details_dict() == {
        "isotopy_classes": {"expected": 3, "computed": 2}
    }
    assert not suite_passed(reports)


def test_prop32_fails_when_counts_are_crossed(monkeypatch):
    # classify puts the four sym:3 loops into two classes with 1 and 3 left
    # non-singular elements; a wrong isotopy answer across them must fail
    witness = IsotopyWitness.identity(3)
    monkeypatch.setattr("nrtloops.checks.are_isotopic", lambda L1, L2: witness)
    catalog = [e for e in default_catalog() if e.label == "sym3-point-swap"]
    (report,) = run_suite(catalog=catalog, check_ids=["prop3.2"])
    assert report.verdict == "fail"
    assert report.details_dict() == {
        "first": "I,(1,2),(1,2,3)",
        "second": "I,(1,3,2),(1,2,3)",
    }


def test_thm41_fails_when_families_miss_a_class_member(monkeypatch):
    monkeypatch.setattr("nrtloops.checks._family_masks", lambda p, B: frozenset([B]))
    (report,) = run_suite(check_ids=["thm4.1"], ps=(5,))
    assert report.verdict == "fail"
    assert report.details_dict() == {
        "B": "{1}",
        "C": "{2}",
        "family_predicts": False,
        "isotopic": True,
    }
    B, C = FlipSet.parse(5, "1"), FlipSet.parse(5, "2")
    assert are_isotopic(flip_loop(5, B), flip_loop(5, C)) is not None


def test_thm41_reports_an_asymmetric_family(monkeypatch):
    # the empty flip set has mask 0
    monkeypatch.setattr(
        "nrtloops.checks._family_masks",
        lambda p, B: flips._family_masks(p, B) | {0},
    )
    (report,) = run_suite(check_ids=["thm4.1"], ps=(5,))
    assert report.verdict == "fail"
    # the family of {1} gained the empty set, whose family lacks {1}
    assert report.details_dict() == {"asymmetric": ["{1}", "{}"]}


def test_thm41_and_thm42_build_no_flip_set_when_they_pass(monkeypatch):
    # the checks read masks, and the classes are read off the catalog's
    # transversals, so only a failure, to name its sets, builds a flip set
    built = Counter()
    post_init = FlipSet.__post_init__

    def counting(self):
        built[self.n] += 1
        post_init(self)

    monkeypatch.setattr(FlipSet, "__post_init__", counting)
    reports = run_suite(check_ids=["thm4.1", "thm4.2"])
    assert [r.verdict for r in reports] == ["pass"] * 6
    assert built == {}


def _flip_loop_classes(p):
    """The isotopy classes of the mod-p flip loops as sets of masks, by
    classifying the flip loops themselves."""
    subsets = list(flip_sets(p))
    partition = classify((flip_loop(p, B) for B in subsets), "isotopy")
    return {
        frozenset(subsets[m].mask for m in members) for members in partition.classes
    }


@pytest.mark.parametrize("p", [3, 5, 7])
def test_flip_classes_are_the_classes_of_the_flip_loops(monkeypatch, p):
    reference = _flip_loop_classes(p)
    assert set(FlipClassCounts(p).classes) == reference
    # the classes run_suite reads off the catalog entry of the same pool
    lent = []
    check = checks._check_thm41

    def recorded(counts):
        lent.append((counts.entry.entry.label, set(counts.classes)))
        return check(counts)

    monkeypatch.setitem(checks._CHECKS, "thm4.1", ("prime", recorded))
    assert suite_passed(run_suite(check_ids=["thm4.1"], ps=(p,)))
    assert lent == [(f"dihedral{p}-mirror", reference)]


def test_a_suite_round_classifies_each_flip_pool_once(monkeypatch):
    calls = Counter()

    def counted(loops, relation):
        loops = list(loops)
        calls[relation, loops[0].order] += 1
        return classify(loops, relation)

    monkeypatch.setattr(checks, "classify", counted)
    assert suite_passed(run_suite())
    # the D_2p pools are the only ones of order 5 and 7; order 3 has
    # dihedral3-mirror, sym3-point-swap, dihedral6-klein and its quotient
    assert calls["isotopy", 3] == 4
    assert calls["isotopy", 5] == calls["isotopy", 7] == 1


@pytest.mark.parametrize("labels", [(), ("sym3-point-swap",)])
def test_flip_checks_build_their_pools_without_a_dihedral_entry(labels):
    flip_checks = ["thm4.1", "thm4.2"]
    assert run_suite(_catalog(*labels), flip_checks) == run_suite(None, flip_checks)


def test_flip_class_cap_is_one_constant(monkeypatch):
    assert checks.FLIP_CLASS_PRIME_CAP == 7
    assert FlipClassCounts(7).direct == 5
    monkeypatch.setattr("nrtloops.checks.FLIP_CLASS_PRIME_CAP", 5)
    (report,) = run_suite(check_ids=["thm4.1"], ps=(7,))
    assert report.verdict == "vacuous"
    assert report.details_dict() == {"note": "direct classification capped at p=5"}
    assert FlipClassCounts(7).direct is None
    assert FlipClassCounts(5).direct == 3


def test_thm312_fails_when_transitive_members_are_not_isomorphic(monkeypatch):
    original = checks._EntryData.partition

    def split_rotations(self, relation):
        partition = original(self, relation)
        if relation != "iso" or self.entry.label != "dihedral3-rotations":
            return partition
        return dataclasses.replace(
            partition,
            classes=tuple((m,) for m in range(len(self.loops))),
            representatives=self.loops,
        )

    monkeypatch.setattr(checks._EntryData, "partition", split_rotations)
    reports = run_suite(check_ids=["thm3.12"])
    failed = [r for r in reports if r.verdict == "fail"]
    assert [r.label for r in failed] == ["dihedral3-rotations"]
    # all three rotation-subgroup loops are transitive; the first two are named
    assert failed[0].details_dict() == {"first": "1,x", "second": "1,xy"}


def _orbit_walk_transitive(loop):
    """Whether the orbit of 1, grown by applying every automorphism to each
    newly reached point, is every non-identity position."""
    n = loop.order
    if n <= 2:
        return True
    maps = tuple(isomorphisms(loop, loop))
    reached = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for f in maps:
            if f[x] not in reached:
                reached.add(f[x])
                frontier.append(f[x])
    return len(reached) == n - 1


@pytest.mark.parametrize(
    "group, sub, transitive", [("dihedral:5", "x", 2), ("sym:4", "(1,2)", 0)]
)
def test_aut_transitive_matches_the_orbit_walk(group, sub, transitive):
    G = build_named_group(group)
    H = parse_subgroup(G, sub)
    loops = [induced_right_loop(t) for t in enumerate_transversals(G, H)]
    verdicts = [checks._aut_transitive(loop) for loop in loops]
    assert verdicts == [_orbit_walk_transitive(loop) for loop in loops]
    assert sum(verdicts) == transitive


def _catalog(*labels):
    return [e for e in default_catalog() if e.label in labels]


def _one_isotopy_class(monkeypatch):
    """Make every entry's isotopy partition a single class."""
    original = checks._EntryData.partition

    def merged(self, relation):
        partition = original(self, relation)
        if relation != "isotopy":
            return partition
        return dataclasses.replace(
            partition,
            classes=(tuple(range(len(self.loops))),),
            representatives=(self.loops[0],),
        )

    monkeypatch.setattr(checks._EntryData, "partition", merged)


def test_prop35_reports_when_one_class_is_forced(monkeypatch):
    _one_isotopy_class(monkeypatch)
    # no alt:4 transversal is a loop, and six elements span no proper subgroup
    assert run_suite(_catalog("alt4-double-swap"), ["prop3.5"]) == [
        CheckReport("prop3.5", "alt4-double-swap", "pass", {"transversals": 32})
    ]
    # the rotation subgroup of sym:3 is a loop transversal
    assert run_suite(_catalog("sym3-point-swap"), ["prop3.5"]) == [
        CheckReport(
            "prop3.5",
            "sym3-point-swap",
            "fail",
            {"loop_transversal": "I,(1,3,2),(1,2,3)"},
        )
    ]
    # with no loop transversals left, the same transversal spans only itself
    monkeypatch.setattr("nrtloops.checks.is_loop", lambda loop: False)
    assert run_suite(_catalog("sym3-point-swap"), ["prop3.5"]) == [
        CheckReport(
            "prop3.5", "sym3-point-swap", "fail", {"proper_span": "I,(1,3,2),(1,2,3)"}
        )
    ]


@pytest.mark.parametrize("group", ["cyclic:4", "cyclic:1"])
def test_prop35_is_vacuous_on_the_trivial_subgroup(group):
    # the only transversal of the trivial subgroup is the group itself
    entry = CatalogEntry("trivial", group, "0", {})
    assert run_suite([entry], ["prop3.5"]) == [
        CheckReport("prop3.5", "trivial", "vacuous", {"subgroup_order": 1})
    ]


def test_prop33_fails_when_the_core_is_the_whole_group(monkeypatch):
    monkeypatch.setattr(
        "nrtloops.checks.core", lambda G, H: subgroup(G, range(G.order))
    )
    assert run_suite(_catalog("sym3-point-swap"), ["prop3.3"]) == [
        CheckReport(
            "prop3.3",
            "sym3-point-swap",
            "fail",
            {"core_order": 6, "itp": 2, "itp_quotient": 1},
        )
    ]


def test_prop33_reuses_an_identical_classification(monkeypatch):
    """Where the quotient induces the entry's tables, in order, prop3.3
    reads the entry's classification: 15 classify calls instead of 22, the
    4 entries with a non-trivial core still classifying downstairs, and the
    reports of the check classifying both sides every time."""
    expected = []
    for entry in default_catalog():
        G = build_named_group(entry.group)
        H = parse_subgroup(G, entry.subgroup)
        N = core(G, H)
        Q, projection = quotient(G, N)
        HQ = subgroup(Q, {projection[h] for h in H.members})
        counts = [
            len(classify(map(induced_right_loop, enumerate_transversals(K, L))).classes)
            for K, L in ((G, H), (Q, HQ))
        ]
        expected.append(
            CheckReport(
                "prop3.3",
                entry.label,
                "pass" if counts[0] == counts[1] else "fail",
                {"core_order": N.order, "itp": counts[0], "itp_quotient": counts[1]},
            )
        )
    calls = []

    def counted(loops, relation):
        calls.append(relation)
        return classify(loops, relation)

    monkeypatch.setattr("nrtloops.checks.classify", counted)
    assert run_suite(check_ids=["prop3.3"]) == expected
    assert calls == ["isotopy"] * 15
    assert sum(r.details_dict()["core_order"] == 1 for r in expected) == 7


def test_one_class_checks_fail_on_a_non_normal_subgroup(monkeypatch):
    _one_isotopy_class(monkeypatch)
    failed = {"itp": 1, "normal": False}
    assert run_suite(_catalog("dihedral4-mirror"), ["prop3.7"]) == [
        CheckReport("prop3.7", "dihedral4-mirror", "fail", failed)
    ]
    assert run_suite(_catalog("sym3-point-swap"), ["prop3.8", "cor3.8"]) == [
        CheckReport("prop3.8", "sym3-point-swap", "fail", failed),
        CheckReport("cor3.8", "sym3-point-swap", "fail", failed),
    ]



def test_prop37_fails_when_a_normal_subgroup_has_several_classes(monkeypatch):
    original = checks._EntryData.partition

    def split(self, relation):
        partition = original(self, relation)
        if relation != "isotopy":
            return partition
        return dataclasses.replace(
            partition,
            classes=tuple((m,) for m in range(len(self.loops))),
            representatives=self.loops,
        )

    monkeypatch.setattr(checks._EntryData, "partition", split)
    reports = run_suite(_catalog("cyclic8-even"), ["facts", "prop3.7"])
    assert [(r.check_id, r.verdict) for r in reports] == [
        ("facts", "fail"),
        ("prop3.7", "fail"),
    ]
    assert reports[1].details_dict() == {"itp": 4, "normal": True}


def test_prop32_fails_on_a_class_member_with_another_count(monkeypatch):
    # the merged sym:3 class has members with 1, 1, 3 and 1 left
    # non-singular elements; the third is named against the first
    _one_isotopy_class(monkeypatch)
    assert run_suite(_catalog("sym3-point-swap"), ["prop3.2"]) == [
        CheckReport(
            "prop3.2",
            "sym3-point-swap",
            "fail",
            {"first": "I,(1,2),(1,2,3)", "second": "I,(1,3,2),(1,2,3)"},
        )
    ]


def test_prop33_induces_nothing_on_the_corefree_entries(monkeypatch):
    """On a trivial core the quotient map is the identity onto the entry's
    group, so prop3.3 induces no loop there; the four entries with a
    non-trivial core induce their quotient's."""
    entries = [checks._EntryData(entry) for entry in default_catalog()]
    for data in entries:
        assert data.loops  # the entry's own loops, which every check shares
    induced = []

    def counted(T):
        induced.append(T)
        return induced_right_loop(T)

    monkeypatch.setattr(checks, "induced_right_loop", counted)
    corefree = 0
    for data in entries:
        induced.clear()
        verdict, details = checks._check_prop33(data)
        assert verdict == "pass"
        if details["core_order"] == 1:
            corefree += 1
            assert induced == []
        else:
            assert induced
    assert corefree == 7


def test_prop32_searches_from_the_lower_count(monkeypatch):
    counts = []

    def recorded(L1, L2):
        counts.append(
            (len(left_nonsingular_elements(L1)), len(left_nonsingular_elements(L2)))
        )
        return are_isotopic(L1, L2)

    monkeypatch.setattr(checks, "are_isotopic", recorded)
    reports = run_suite(check_ids=["prop3.2"])
    assert [r.verdict for r in reports] == ["pass"] * len(default_catalog())
    assert counts and all(low < high for low, high in counts)


def test_one_suite_round_does_pinned_work(monkeypatch):
    """One run_suite() call induces 222 loops (215 for the catalog entries
    and 7 for the quotients of the 4 with a non-trivial core), builds 536
    principal-isotope tables and makes 232 signature passes over a table.
    thm4.1 and thm4.2 classify no loop of their own: they read the classes
    of the dihedral3-, dihedral5- and dihedral7-mirror entries.
    The counts are deterministic, so repeated work shows here without any
    timing."""
    work = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            work[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(checks, "induced_right_loop")
    count(isotopy, "principal_isotope_with_relabel")
    count(rightloops, "_table_signatures")
    assert suite_passed(run_suite())
    assert work == {
        "induced_right_loop": 222,
        "principal_isotope_with_relabel": 536,
        "_table_signatures": 232,
    }


def test_run_suite_holds_one_entry_at_a_time():
    """The entry checks run entry by entry, and each entry's pools are
    dropped before the next entry's are built, so two entries peak near the
    larger one alone. The margin covers the first entry's freed tables,
    which stay in CPython's tuple free lists, where tracemalloc counts
    them."""
    entry_checks = [c for c in CHECK_IDS if checks._CHECKS[c][0] == "entry"]
    smaller = CatalogEntry("d8", "dihedral:8", "x")
    larger = CatalogEntry("d9", "dihedral:9", "x")

    def traced_peak(catalog):
        # builds and caches the groups, but no pool, outside the trace
        run_suite(catalog, ["facts"])
        gc.collect()
        tracemalloc.start()
        try:
            run_suite(catalog, entry_checks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak([smaller, larger]) <= 1.25 * traced_peak([larger])


def test_flip_checks_classify_once_per_prime(monkeypatch):
    calls = []

    def counted(loops, relation):
        calls.append(relation)
        return classify(loops, relation)

    monkeypatch.setattr("nrtloops.checks.classify", counted)
    reports = run_suite(check_ids=["thm4.1", "thm4.2"])
    assert [r.verdict for r in reports] == ["pass"] * 6
    # one classification for each of the three default primes
    assert calls == ["isotopy"] * 3


def test_thm42_fails_when_the_formula_disagrees(monkeypatch):
    monkeypatch.setattr("nrtloops.checks.dihedral_isotopy_count", lambda p: 4)
    assert run_suite(check_ids=["thm4.2"], ps=(5,)) == [
        CheckReport(
            "thm4.2",
            "p=5",
            "fail",
            {"direct": 3, "families": 3, "formula": 4, "orbit_count": 6},
        )
    ]


def test_prop39_reports_a_failing_autotopy_before_any_eta(monkeypatch):
    real = checks.pseudo_automorphism_scan

    def scan(group):
        for eta, c, side, _, is_autotopy in real(group):
            yield eta, c, side, False, is_autotopy

    monkeypatch.setattr("nrtloops.checks.pseudo_automorphism_scan", scan)
    reports = run_suite(check_ids=["prop3.9"])
    assert len(reports) == 16
    assert {r.verdict for r in reports} == {"fail"}
    identity = IsotopyWitness.identity(5)
    assert reports[0] == CheckReport(
        "prop3.9",
        "mod5 B={}",
        "fail",
        {
            "autotopy": repr(identity),
            "left": (True, True, False),
            "right": (True, True, False),
        },
    )


def test_prop39_fails_when_the_group_misses_an_autotopy(monkeypatch):
    """The scan reads autotopy membership from the group: drop from each
    loop's group its first non-identity autotopy with alpha fixing 0, and
    that triple's eta, a pseudo-automorphism, is reported at its companion
    beta(0) on the right."""
    real = checks.autotopy_group
    dropped = []

    def autotopy_group(loop):
        group = real(loop)
        w = next(w for w in group.elements[1:] if w.alpha[0] == 0)
        dropped.append(w)
        return AutotopyGroup(loop, tuple(v for v in group.elements if v != w))

    monkeypatch.setattr("nrtloops.checks.autotopy_group", autotopy_group)
    reports = run_suite(check_ids=["prop3.9"])
    assert len(reports) == len(dropped) == 16
    for report, w in zip(reports, dropped):
        assert report.verdict == "fail"
        assert report.details_dict() == {
            "companion": w.beta[0],
            "eta": w.alpha,
            "side": "right",
        }
    # on the group Z5 the dropped autotopy is (id, R(1), R(1))
    assert reports[0].details_dict()["eta"] == (0, 1, 2, 3, 4)
    assert reports[0].details_dict()["companion"] == 1


def _misreported_triples(monkeypatch, wrong):
    """Make the scan report the triples for which wrong(eta, c, side) holds
    as autotopies exactly when the real ones are not."""
    real = checks.pseudo_automorphism_scan

    def scan(group):
        for eta, c, side, holds, is_autotopy in real(group):
            if wrong(eta, c, side):
                is_autotopy = not is_autotopy
            yield eta, c, side, holds, is_autotopy

    monkeypatch.setattr("nrtloops.checks.pseudo_automorphism_scan", scan)


def test_prop39_reports_the_first_failing_eta_on_the_right(monkeypatch):
    _misreported_triples(
        monkeypatch, lambda eta, c, side: side == "right" and eta != (0, 1, 2, 3, 4)
    )
    reports = run_suite(check_ids=["prop3.9"])
    assert len(reports) == 16
    # etas run in permutation order, each through every companion
    assert reports[0] == CheckReport(
        "prop3.9",
        "mod5 B={}",
        "fail",
        {"companion": 0, "eta": (0, 1, 2, 4, 3), "side": "right"},
    )


def test_prop39_reports_the_first_failing_eta_on_the_left(monkeypatch):
    _misreported_triples(monkeypatch, lambda eta, c, side: side == "left" and c == 1)
    reports = run_suite(check_ids=["prop3.9"])
    assert len(reports) == 16
    # the right side of companion 1 is checked, and holds, before its left side
    assert reports[0] == CheckReport(
        "prop3.9",
        "mod5 B={}",
        "fail",
        {"companion": 1, "eta": (0, 1, 2, 3, 4), "side": "left"},
    )
