"""End-to-end tests that drive the command line through ``cli.main`` in
this process, with stdout and stderr captured and argparse's exits caught.
A few tests run ``python -m nrtloops`` as a subprocess, so that the
module entry point and a closed output pipe are covered too."""

import contextlib
import csv
import gc
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from nrtloops import checks, cli, isotopy, rightloops
from nrtloops.isotopy import classify
from nrtloops.perms import CapExceededError
from nrtloops.transversals import Transversal


def run_cli(*argv):
    """Run the command line in-process; the result has the returncode,
    stdout and stderr that ``python -m nrtloops`` would give."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(argv, code, stdout.getvalue(), stderr.getvalue())


def test_help_lists_subcommands():
    result = subprocess.run(
        [sys.executable, "-m", "nrtloops", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "usage: nrtloops" in result.stdout
    for name in ("group", "nrt", "classify", "dihedral", "cycle-index", "verify"):
        assert name in result.stdout


def test_group_show_table():
    result = run_cli("group", "show", "--group", "cyclic:3")
    assert result.returncode == 0
    assert result.stdout == "3\n0 1 2\n1 2 0\n2 0 1\nnames: 0 1 2\n"


def test_group_show_json():
    result = run_cli("group", "show", "--group", "sym:3", "--format", "json")
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert obj["descriptor"] == "sym:3"
    assert obj["order"] == 6
    assert obj["names"][0] == "I"
    assert obj["table"][0] == [0, 1, 2, 3, 4, 5]
    assert sorted(obj["table"][3]) == [0, 1, 2, 3, 4, 5]


def test_group_show_csv():
    result = run_cli("group", "show", "--group", "cyclic:4", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == (
        "order,4\n"
        "names,0,1,2,3\n"
        "0,1,2,3\n"
        "1,2,3,0\n"
        "2,3,0,1\n"
        "3,0,1,2\n"
    )


def test_group_show_unnamed_table(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    descriptor = f"file:{path}"
    table = run_cli("group", "show", "--group", descriptor)
    assert (table.returncode, table.stdout) == (0, "3\n0 1 2\n1 2 0\n2 0 1\n")
    as_json = run_cli("group", "show", "--group", descriptor, "--format", "json")
    assert as_json.returncode == 0
    assert json.loads(as_json.stdout)["names"] == ["0", "1", "2"]
    as_csv = run_cli("group", "show", "--group", descriptor, "--format", "csv")
    assert as_csv.returncode == 0
    assert as_csv.stdout.splitlines()[1] == "names,0,1,2"


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "table.txt"
    result = run_cli("group", "show", "--group", "cyclic:3", "--output", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    assert target.read_text() == "3\n0 1 2\n1 2 0\n2 0 1\nnames: 0 1 2\n"


def test_bad_group_descriptor_exits_two():
    result = run_cli("group", "show", "--group", "nope:7")
    assert result.returncode == 2
    assert result.stderr.startswith("error:")


def test_enumerate_text():
    result = run_cli("nrt", "enumerate", "--group", "sym:3", "--subgroup", "(2,3)")
    assert result.returncode == 0
    assert result.stdout == (
        "4 transversals of (2,3) in sym:3\n"
        "  {I,(1,2),(1,2,3)}\n"
        "  {I,(1,2),(1,3)}\n"
        "  {I,(1,3,2),(1,2,3)} loop group\n"
        "  {I,(1,3,2),(1,3)}\n"
    )


def test_enumerate_limit():
    result = run_cli(
        "nrt", "enumerate",
        "--group", "sym:3",
        "--subgroup", "(2,3)",
        "--limit", "2",
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "4 transversals of (2,3) in sym:3"
    assert len(lines) == 3


def test_enumerate_json():
    result = run_cli(
        "nrt", "enumerate",
        "--group", "sym:3",
        "--subgroup", "(2,3)",
        "--format", "json",
    )
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert obj["group"] == "sym:3"
    assert obj["subgroup"] == "(2,3)"
    assert obj["count"] == 4
    assert len(obj["transversals"]) == 4
    third = obj["transversals"][2]
    assert third["reps"] == [0, 4, 3]
    assert third["is_loop"] and third["is_group"]


def test_enumerate_csv():
    result = run_cli(
        "nrt", "enumerate",
        "--group", "sym:3",
        "--subgroup", "(2,3)",
        "--format", "csv",
    )
    assert result.returncode == 0
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert rows[0] == ["label", "is_loop", "is_group"]
    assert rows[3] == ["I,(1,3,2),(1,2,3)", "True", "True"]
    assert len(rows) == 5


def test_enumerate_cap_exits_three():
    result = run_cli(
        "nrt", "enumerate",
        "--group", "alt:4",
        "--subgroup", "(1,2)(3,4)",
        "--cap", "10",
    )
    assert result.returncode == 3
    assert result.stderr == "error: 32 transversals exceed the cap of 10\n"


def test_enumerate_negative_limit_exits_two():
    result = run_cli(
        "nrt", "enumerate",
        "--group", "sym:3",
        "--subgroup", "(2,3)",
        "--limit", "-1",
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "argument --limit: invalid non-negative int value: '-1'" in result.stderr


def test_cycle_points_range_over_the_group_degree():
    for group, token, degree in (("sym:3", "(1,9)", 3), ("alt:4", "(1,5)", 4)):
        result = run_cli("nrt", "enumerate", "--group", group, "--subgroup", token)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: bad cycle descriptor {token!r}: "
            f"point {token[3]} out of range 1..{degree} in {token!r}\n"
        )


def test_enumerate_stops_at_the_limit(monkeypatch):
    """`--limit 3` takes three of the pool's 331,776 transversals."""
    taken = Counter()
    original = cli.enumerate_transversals

    def counted(*args, **kwargs):
        for t in original(*args, **kwargs):
            taken["transversals"] += 1
            yield t

    monkeypatch.setattr(cli, "enumerate_transversals", counted)
    result = run_cli(
        "nrt", "enumerate",
        "--group", "sym:5",
        "--subgroup", "(1,2) (1,2,3,4)",
        "--limit", "3",
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == (
        "331776 transversals of (1,2) (1,2,3,4) in sym:5"
    )
    assert len(result.stdout.splitlines()) == 4
    assert taken["transversals"] <= 3


@pytest.mark.parametrize("limit", [None, "0", "1"])
def test_enumerate_json_is_one_dump(limit):
    """The rows are written as they are made, in the bytes that one
    json.dump of the whole object gives, an empty list included."""
    argv = ["--group", "sym:3", "--subgroup", "(2,3)", "--format", "json"]
    result = run_cli("nrt", "enumerate", *argv, *(["--limit", limit] if limit else []))
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert len(obj["transversals"]) == (4 if limit is None else int(limit))
    assert result.stdout == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_closed_pipe_exits_141_in_silence(fmt):
    """A reader that stops after one line closes the pipe while rows are
    still to come. The command then exits 141, as a shell reports a process
    ended by SIGPIPE, and writes nothing on stderr."""
    command = [
        sys.executable, "-m", "nrtloops", "nrt", "enumerate",
        "--group", "dihedral:13",
        "--subgroup", "x",
        "--format", fmt,
    ]
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert stderr == b""


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_enumerate_memory_does_not_grow_with_the_pool(tmp_path, fmt):
    """dihedral:13 x has four times the transversals of dihedral:11 x. Rows
    are written as they are made, so the traced peak barely grows."""

    def traced_peak(group):
        argv = [
            "nrt", "enumerate",
            "--group", group,
            "--subgroup", "x",
            "--format", fmt,
            "--output", str(tmp_path / "out"),
        ]
        # the group is built and cached, and a full collection empties
        # CPython's free lists, outside the trace
        assert cli.main([*argv, "--limit", "1"]) == 0
        gc.collect()
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak("dihedral:13") <= 1.5 * traced_peak("dihedral:11")


@pytest.mark.parametrize("command", ["classify", "nrt enumerate"])
def test_a_command_over_the_cap_writes_nothing(tmp_path, command):
    target = tmp_path / "F"
    result = run_cli(
        *command.split(),
        "--group", "alt:4",
        "--subgroup", "(1,2)(3,4)",
        "--cap", "0",
        "--output", str(target),
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == "error: 32 transversals exceed the cap of 0\n"
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("command", ["classify", "nrt enumerate"])
def test_output_file_gets_the_stdout_bytes(tmp_path, command, fmt):
    argv = (
        *command.split(),
        "--group", "alt:4",
        "--subgroup", "(1,2)(3,4)",
        "--format", fmt,
    )
    target = tmp_path / "out"
    shown = run_cli(*argv)
    written = run_cli(*argv, "--output", str(target))
    assert shown.returncode == written.returncode == 0
    assert written.stdout == ""
    assert target.read_bytes() == shown.stdout.encode()


def test_negative_cap_exits_two():
    for argv in (
        ("nrt", "enumerate", "--group", "sym:3", "--subgroup", "(2,3)"),
        ("classify", "--group", "sym:3", "--subgroup", "(2,3)"),
        ("dihedral", "census", "--n", "4"),
    ):
        result = run_cli(*argv, "--cap", "-5")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "argument --cap: invalid non-negative int value: '-5'" in result.stderr
    # a cap of zero is allowed, and every enumeration exceeds it
    zero = run_cli("classify", "--group", "sym:3", "--subgroup", "(2,3)", "--cap", "0")
    assert zero.returncode == 3
    assert zero.stderr == "error: 4 transversals exceed the cap of 0\n"


def test_classify_rejects_a_caret_without_an_exponent():
    for subgroup in ("y^", "xy^"):
        result = run_cli("classify", "--group", "dihedral:3", "--subgroup", subgroup)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: bad dihedral element descriptor {subgroup!r}\n"
        )


def test_output_bytes_are_pinned():
    """The exact stdout of some commands, pinned by digest: a change that
    alters any byte of the reports, the classes, or the table and CSV
    output written line by line fails here."""
    for argv, digest in (
        (
            ("verify", "--all", "--format", "json"),
            "8bf756ed3aa673cf135c8ae5a05fc7ab48d4a057054a4173f33296763351df5a",
        ),
        (
            ("classify", "--group", "dihedral:11", "--subgroup", "x",
             "--format", "json"),
            "d870dc8c5bd459ffbf31b9157d0125ac7498600317137ddc66431b0dd93f63a9",
        ),
        (
            ("classify", "--group", "dihedral:11", "--subgroup", "x",
             "--relation", "iso", "--format", "json"),
            "14a61be0ceb0b30264dcbdba3b69fcd74b5b0e1cf21fb92ae88bbfbb2b0ed852",
        ),
        (
            ("nrt", "enumerate", "--group", "sym:4", "--subgroup", "(1,2)"),
            "b80d4a89e03ee1a7cefb32f3197dc05a37283d70499a5caecaf58ce94e4c6824",
        ),
        (
            ("nrt", "enumerate", "--group", "sym:4", "--subgroup", "(1,2)",
             "--format", "csv"),
            "cf1b0df670f3dd5b28f4e98f6ca9fa6090228c33f5b0271cd58270bd1d05e382",
        ),
        (
            ("nrt", "enumerate", "--group", "sym:4", "--subgroup", "(1,2)",
             "--limit", "3", "--format", "json"),
            "f1ea178e7ac69383041c7f27dceba8fc80bf8d10e4e05f660c0f1349d157548a",
        ),
        (
            ("dihedral", "families", "--p", "7"),
            "180d888bf9475fd33cfda3b4047bf1d1bc7233d6cd259793f9ef1d8b10b1d64c",
        ),
        (
            ("group", "show", "--group", "sym:4"),
            "07e9780b036f909bd4a763ab0bd61c53d80ce66157feb6bcee29949abf140d78",
        ),
        (
            ("group", "show", "--group", "sym:4", "--format", "csv"),
            "d081534ee9b95c8b699589192267641a679cb24ec1f5e1008f5099483a28b140",
        ),
    ):
        result = run_cli(*argv)
        assert result.returncode == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest, argv


def test_classify_text():
    expected = (
        "2 isotopy classes over 4 transversals of (2,3) in sym:3\n"
        "class 0: size 3, left-nonsingular 1/3\n"
        "  {I,(1,2),(1,2,3)}\n"
        "  {I,(1,2),(1,3)}\n"
        "  {I,(1,3,2),(1,3)}\n"
        "class 1: size 1, left-nonsingular 3/3, loop, group\n"
        "  {I,(1,3,2),(1,2,3)}\n"
    )
    result = run_cli("classify", "--group", "sym:3", "--subgroup", "(2,3)")
    assert result.returncode == 0
    assert result.stdout == expected
    parallel = run_cli(
        "classify", "--group", "sym:3", "--subgroup", "(2,3)", "--jobs", "2"
    )
    assert parallel.returncode == 0
    assert parallel.stdout == expected


def test_classify_isomorphism_text():
    result = run_cli(
        "classify",
        "--group", "sym:3",
        "--subgroup", "(2,3)",
        "--relation", "iso",
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "3 iso classes over 4 transversals of (2,3) in sym:3"
    assert lines[1] == "class 0: size 2, left-nonsingular 1/3"
    assert lines[4] == "class 1: size 1, left-nonsingular 1/3"
    assert lines[6] == "class 2: size 1, left-nonsingular 3/3, loop, group"


def test_classify_csv():
    result = run_cli(
        "classify",
        "--group", "sym:3",
        "--subgroup", "(2,3)",
        "--format", "csv",
    )
    assert result.returncode == 0
    assert result.stdout == (
        "class_id,size,is_loop,n_left_nonsingular\n"
        "0,3,False,1\n"
        "1,1,True,3\n"
    )


def test_classify_json():
    result = run_cli(
        "classify",
        "--group", "sym:3",
        "--subgroup", "(2,3)",
        "--format", "json",
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "relation": "isotopy",
        "group": "sym:3",
        "subgroup": "(2,3)",
        "transversals": 4,
        "class_count": 2,
        "classes": [
            {
                "representative_table": [[0, 1, 2], [1, 0, 0], [2, 2, 1]],
                "members": ["I,(1,2),(1,2,3)", "I,(1,2),(1,3)", "I,(1,3,2),(1,3)"],
                "size": 3,
            },
            {
                "representative_table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                "members": ["I,(1,3,2),(1,2,3)"],
                "size": 1,
            },
        ],
    }


def test_classify_keeps_no_transversals(monkeypatch, capsys):
    """When classification ends, the command holds at most the transversal
    being streamed, not a list of all of them."""

    def live_transversals():
        return sum(isinstance(o, Transversal) for o in gc.get_objects())

    held = []

    def counting_classify(loops, relation):
        partition = classify(loops, relation)
        held.append(live_transversals() - before)
        return partition

    monkeypatch.setattr(cli, "classify", counting_classify)
    before = live_transversals()
    assert cli.main(["classify", "--group", "dihedral:5", "--subgroup", "x"]) == 0
    assert capsys.readouterr().out.startswith("3 isotopy classes over 16 transversals")
    assert len(held) == 1 and held[0] <= 1


def test_classify_dihedral_mirror():
    result = run_cli("classify", "--group", "dihedral:7", "--subgroup", "x")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "5 isotopy classes over 64 transversals of x in dihedral:7"
    class_lines = [line for line in lines if line.startswith("class ")]
    assert len(class_lines) == 5


def test_dihedral_count_text():
    for p, expected in ((3, "2 = 2 = 2"), (5, "3 = 3 = 3"), (11, "15 = 15")):
        result = run_cli("dihedral", "count", "--p", str(p))
        assert result.returncode == 0
        assert result.stdout == expected + "\n"


def test_dihedral_count_json():
    result = run_cli("dihedral", "count", "--p", "7", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "p": 7,
        "formula": 5,
        "burnside": 5,
        "direct": 5,
    }


def test_dihedral_count_csv():
    result = run_cli("dihedral", "count", "--p", "11", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == "p,formula,burnside\n11,15,15\n"


def test_dihedral_count_rejects_bad_p():
    result = run_cli("dihedral", "count", "--p", "9")
    assert result.returncode == 2
    assert result.stderr == "error: --p must be an odd prime, got 9\n"
    missing = run_cli("dihedral", "count")
    assert missing.returncode == 2
    assert missing.stderr.startswith("error:")


def test_dihedral_families_text():
    result = run_cli("dihedral", "families", "--p", "3")
    assert result.returncode == 0
    assert result.stdout == "2 families mod 3\n  {}\n  {1} {2} {1,2}\n"
    picked = run_cli("dihedral", "families", "--p", "3", "--B", "2")
    assert picked.returncode == 0
    assert picked.stdout == "1 families mod 3\n  {1} {2} {1,2}\n"
    listed = run_cli("dihedral", "families", "--p", "5", "--B", "1,2")
    braced = run_cli("dihedral", "families", "--p", "5", "--B", "{1,2}")
    assert listed.returncode == 0
    assert braced.returncode == 0
    assert braced.stdout == listed.stdout


def test_dihedral_families_rejects_space_separated_subset():
    result = run_cli("dihedral", "families", "--p", "17", "--B", "1 3")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: flip set member '1 3' in '1 3' is not an integer\n"
    empty = run_cli("dihedral", "families", "--p", "5", "--B", "1,,2")
    assert empty.returncode == 2
    assert empty.stderr == "error: flip set member '' in '1,,2' is not an integer\n"


def test_dihedral_families_csv():
    result = run_cli("dihedral", "families", "--p", "3", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == (
        "family,subset\n"
        "0,{}\n"
        "1,{1}\n"
        "1,{2}\n"
        '1,"{1,2}"\n'
    )


def test_dihedral_families_json():
    result = run_cli("dihedral", "families", "--p", "3", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "n": 3,
        "families": [
            {"size": 1, "members": [[]]},
            {"size": 3, "members": [[1], [2], [1, 2]]},
        ],
    }


def test_dihedral_families_cap_exits_three():
    result = run_cli("dihedral", "families", "--p", "7", "--cap", "10")
    assert result.returncode == 3
    assert result.stderr == "error: 64 transversals exceed the cap of 10\n"


def test_closure_cap_exits_three(monkeypatch, capsys):
    def too_large(args):
        raise CapExceededError(
            "the permutation group on 9 points has more than 5 elements"
        )

    monkeypatch.setattr(cli, "cmd_verify", too_large)
    assert cli.main(["verify", "--all"]) == 3
    assert capsys.readouterr().err == (
        "error: the permutation group on 9 points has more than 5 elements\n"
    )


def test_size_caps_exit_three(tmp_path, capsys):
    # a table file is capped on its first line, before any row is read
    big = tmp_path / "big.txt"
    big.write_text("5041\n")
    for argv, message in (
        (["dihedral", "count", "--p", "37"], "affine_maps is capped at p = 31"),
        (
            ["dihedral", "families", "--p", "37", "--B", "1"],
            "affine_maps is capped at p = 31",
        ),
        (
            ["verify", "--check", "thm4.2", "--p", "29"],
            "268435456 transversals exceed the cap of 1048576",
        ),
        (
            ["group", "show", "--group", "sym:9"],
            "the order of sym:9 exceeds the cap of 5040",
        ),
        (
            ["group", "show", "--group", f"file:{big}"],
            "the table's order 5041 exceeds the cap of 5040",
        ),
    ):
        assert cli.main(argv) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert cli.main(["dihedral", "count", "--p", "29"]) == 0
    assert capsys.readouterr() == ("331185 = 331185\n", "")


def test_dihedral_count_checks_the_cap_before_the_formula(monkeypatch, capsys):
    def formula(p):
        raise AssertionError(f"the formula ran at p = {p}")

    monkeypatch.setattr("nrtloops.checks.dihedral_isotopy_count", formula)
    for argv in (
        ["dihedral", "count", "--p", "100000007"],
        ["verify", "--check", "thm4.2", "--p", "100000007"],
    ):
        assert cli.main(argv) == 3
        assert capsys.readouterr() == ("", "error: affine_maps is capped at p = 31\n")



def test_dihedral_count_above_the_class_cap_reads_no_classes(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("classes or families were read")

    monkeypatch.setattr("nrtloops.checks.classify", refuse)
    monkeypatch.setattr("nrtloops.checks._family_walk", refuse)
    monkeypatch.setattr("nrtloops.checks._family_masks", refuse)
    assert cli.main(["dihedral", "count", "--p", "31"]) == 0
    assert capsys.readouterr() == ("1155735 = 1155735\n", "")


def test_dihedral_count_reports_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr("nrtloops.checks.dihedral_isotopy_count", lambda p: 4)
    assert cli.main(["dihedral", "count", "--p", "5"]) == 1
    assert capsys.readouterr() == (
        "mismatch: FlipClassCounts(p=5, formula=4, orbit_count=6, direct=3)\n",
        "",
    )


def test_dihedral_census_text():
    result = run_cli("dihedral", "census", "--n", "4")
    assert result.returncode == 0
    assert result.stdout == "2 witnesses: {} {1,3}\n"
    six = run_cli("dihedral", "census", "--n", "6")
    assert six.returncode == 0
    assert six.stdout == "2 witnesses: {} {1,3,5}\n"


def test_dihedral_census_json():
    result = run_cli("dihedral", "census", "--n", "5", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"n": 5, "count": 1, "witnesses": [[]]}


def test_dihedral_census_errors():
    for argv in ((), ("--p", "6")):
        missing = run_cli("dihedral", "census", *argv)
        assert missing.returncode == 2
        assert missing.stderr == "error: census needs --n at least 2\n"
    capped = run_cli("dihedral", "census", "--n", "20", "--cap", "100")
    assert capped.returncode == 3
    assert capped.stderr == "error: 524288 transversals exceed the cap of 100\n"


def test_cycle_index_text():
    result = run_cli("cycle-index", "--p", "5")
    assert result.returncode == 0
    assert result.stdout == "(1/20)(x1^5 + 5 x1 x2^2 + 10 x1 x4 + 4 x5)\n"


def test_cycle_index_json():
    result = run_cli("cycle-index", "--p", "3", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "p": 3,
        "terms": [
            {"type": [[1, 3]], "num": 1, "den": 6},
            {"type": [[1, 1], [2, 1]], "num": 1, "den": 2},
            {"type": [[3, 1]], "num": 1, "den": 3},
        ],
    }


def test_cycle_index_csv():
    result = run_cli("cycle-index", "--p", "3", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == (
        "type,num,den\n"
        "1:3,1,6\n"
        "1:1 2:1,1,2\n"
        "3:1,1,3\n"
    )


def test_cycle_index_rejects_even():
    result = run_cli("cycle-index", "--p", "4")
    assert result.returncode == 2
    assert result.stderr == "error: --p must be an odd prime, got 4\n"


def test_verify_selected_checks():
    result = run_cli("verify", "--check", "thm4.1,thm4.2", "--p", "5")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "thm4.1  pass     p=5"
    assert lines[1].startswith("thm4.2  pass     p=5  {")
    assert lines[2] == "2 passed, 0 failed, 0 vacuous"


def test_verify_check_details():
    result = run_cli("verify", "--check", "thm4.2", "--p", "7")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    details = json.dumps(
        {"direct": 5, "families": 5, "formula": 5, "orbit_count": 10},
        sort_keys=True,
    )
    assert lines[0] == f"thm4.2  pass     p=7  {details}"
    assert lines[1] == "1 passed, 0 failed, 0 vacuous"


def test_verify_all_passes():
    result = run_cli("verify", "--all")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].startswith("facts    pass     sym3-point-swap")
    assert lines[-1] == "62 passed, 0 failed, 28 vacuous"


def test_verify_unknown_check():
    for ids, message in (
        ("nope", "unknown check ids: nope"),
        ("nope,nope", "unknown check ids: nope"),
        ("", "no check ids given"),
        (",", "no check ids given"),
    ):
        result = run_cli("verify", "--check", ids)
        assert result.returncode == 2
        assert (result.stdout, result.stderr) == ("", f"error: {message}\n")


def test_verify_malformed_catalog_exits_two(tmp_path):
    not_object = tmp_path / "not_object.json"
    entry = {"label": "a", "group": "sym:3", "subgroup": "(2,3)"}
    not_object.write_text(json.dumps([entry, 7]))
    lacks_key = tmp_path / "lacks_key.json"
    lacks_key.write_text(json.dumps([{"label": "a", "group": "sym:3"}]))
    bad_facts = tmp_path / "bad_facts.json"
    bad_facts.write_text(json.dumps([{**entry, "facts": 5}]))
    number_group = tmp_path / "number_group.json"
    number_group.write_text(json.dumps([{"label": "a", "group": 5, "subgroup": "x"}]))
    list_subgroup = tmp_path / "list_subgroup.json"
    list_subgroup.write_text(json.dumps([entry, {**entry, "subgroup": ["x"]}]))
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps([entry, entry]))
    expected = {
        not_object: "error: catalog entry 1 is not an object\n",
        lacks_key: "error: catalog entry 0 lacks 'subgroup'\n",
        bad_facts: "error: catalog entry 0 has facts that are not an object\n",
        number_group: "error: catalog entry 0 has a 'group' that is not a string\n",
        list_subgroup: "error: catalog entry 1 has a 'subgroup' that is not a string\n",
        twice: "error: catalog entry 1 repeats the label 'a'\n",
    }
    count = "that is not a non-negative integer"
    for k, (facts, wrong) in enumerate(
        (
            ({"isotopy_classes": "two"}, f"'isotopy_classes' {count}"),
            ({"normal": 0}, "'normal' that is not a boolean"),
            ({"isotopy_classes": True}, f"'isotopy_classes' {count}"),
            ({"loop_transversals": -1}, f"'loop_transversals' {count}"),
        )
    ):
        bad_value = tmp_path / f"bad_value{k}.json"
        bad_value.write_text(json.dumps([{**entry, "facts": facts}]))
        expected[bad_value] = f"error: catalog entry 'a' has a fact {wrong}\n"
    for path, stderr in expected.items():
        result = run_cli("verify", "--check", "facts", "--catalog", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == stderr


def test_verify_csv():
    result = run_cli("verify", "--check", "prop3.7", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == (
        "check,label,verdict\n"
        "prop3.7,dihedral4-mirror,pass\n"
        "prop3.7,cyclic8-even,pass\n"
    )


def test_verify_json():
    result = run_cli("verify", "--check", "thm4.1", "--format", "json")
    assert result.returncode == 0
    reports = json.loads(result.stdout)
    assert [r["check"] for r in reports] == ["thm4.1", "thm4.1", "thm4.1"]
    assert [r["label"] for r in reports] == ["p=3", "p=5", "p=7"]
    assert all(r["verdict"] == "pass" for r in reports)


def test_verify_failing_catalog(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(
        json.dumps(
            [
                {
                    "label": "wrong",
                    "group": "sym:3",
                    "subgroup": "(2,3)",
                    "facts": {"isotopy_classes": 3},
                }
            ]
        )
    )
    result = run_cli("verify", "--check", "facts", "--catalog", str(path))
    assert result.returncode == 1
    details = json.dumps(
        {"isotopy_classes": {"computed": 2, "expected": 3}}, sort_keys=True
    )
    assert result.stdout.splitlines() == [
        f"facts  fail     wrong  {details}",
        "0 passed, 1 failed, 0 vacuous",
    ]


def test_verify_fails_on_a_bad_descriptor_before_any_pool(tmp_path, monkeypatch):
    """Every entry's group and subgroup are built before any check runs, so
    a bad second entry exits 2 before the first entry's loops are induced."""
    induced = []
    monkeypatch.setattr(checks, "induced_right_loop", induced.append)
    path = tmp_path / "catalog.json"
    path.write_text(
        json.dumps(
            [
                {"label": "good", "group": "dihedral:3", "subgroup": "x"},
                {"label": "bad", "group": "nope:3", "subgroup": "x"},
            ]
        )
    )
    result = run_cli("verify", "--catalog", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: unknown group kind 'nope' in 'nope:3'\n"
    assert induced == []


def test_verify_caps_the_pool_of_an_entry(tmp_path):
    """An entry's pools are held while its checks run, so an entry with more
    than 2^15 transversals exits 3 before any is built, writing nothing."""
    path = tmp_path / "catalog.json"
    path.write_text(
        json.dumps([{"label": "d17", "group": "dihedral:17", "subgroup": "x"}])
    )
    result = run_cli("verify", "--catalog", str(path))
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == "error: 65536 transversals exceed the cap of 32768\n"


@pytest.mark.parametrize(
    "group, subgroup, pinned",
    [
        # 1024 loops in 15 classes: the representative scan dominates
        ("dihedral:11", "x", (1024, 1024, 275, 1807)),
        # 16384 equal tables in 1 class: one signature pass, no search
        ("dihedral:16", "y^4", (16384, 1, 64, 0)),
    ],
    ids=("d11-mirror", "d16-normal"),
)
def test_one_classify_round_does_pinned_work(monkeypatch, group, subgroup, pinned):
    """One `classify --format json` run, the work of one round of the
    classify benchmark workloads: loops induced, signature passes over a
    table, principal-isotope tables built and isomorphism searches. The
    counts are deterministic, so repeated work shows here without any
    timing."""
    work = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            work[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    names = (
        (cli, "induced_right_loop"),
        (rightloops, "_table_signatures"),
        (isotopy, "principal_isotope_with_relabel"),
        (isotopy, "_isomorphisms"),
    )
    for module, name in names:
        count(module, name)
    result = run_cli(
        "classify", "--group", group, "--subgroup", subgroup, "--format", "json"
    )
    assert result.returncode == 0
    assert tuple(work[name] for _, name in names) == pinned
