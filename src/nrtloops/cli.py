"""Command-line interface.

Subcommands: group show, nrt enumerate, classify, dihedral, cycle-index,
verify. Every command supports --format json|csv|table and an optional
--output path. Exit codes: 0 success, 1 failed verification, 2 bad
arguments or descriptors, 3 a size cap was exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import sys
from collections import Counter

from .burnside import (
    _require_odd_prime,
    affine_cycle_index,
    cycle_index_json_obj,
    format_cycle_index,
)
from .checks import (
    DEFAULT_PRIMES,
    FlipClassCounts,
    default_catalog,
    load_catalog,
    run_suite,
    suite_passed,
)
from .flips import (
    FlipSet,
    affine_families,
    affine_family,
    families_json_obj,
    loop_transversal_census,
)
from .groups import GroupError, _cayley_lines, build_named_group, parse_subgroup
from .isotopy import classify
from .perms import CapExceededError
from .rightloops import left_nonsingular_elements, structure_flags
from .transversals import (
    DEFAULT_ENUMERATION_CAP,
    enumerate_transversals,
    induced_right_loop,
    transversal_count,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_CAP = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process it killed


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrtloops",
        description=(
            "Build normalized right transversals of a subgroup, induce their "
            "right loops, and classify them up to isomorphism or isotopy."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run):
        p.set_defaults(run=run)
        p.add_argument(
            "--format",
            choices=("json", "csv", "table"),
            default="table",
            help="output format (default table)",
        )
        p.add_argument("--output", help="write output to this file instead of stdout")

    group_cmd = sub.add_parser("group", help="inspect groups")
    group_sub = group_cmd.add_subparsers(dest="group_command", required=True)
    show = group_sub.add_parser("show", help="print a group's multiplication table")
    show.add_argument("--group", required=True, help="group descriptor")
    add_common(show, cmd_group_show)

    nrt_cmd = sub.add_parser("nrt", help="work with normalized right transversals")
    nrt_sub = nrt_cmd.add_subparsers(dest="nrt_command", required=True)
    enum = nrt_sub.add_parser("enumerate", help="list all transversals of a subgroup")
    enum.add_argument("--group", required=True, help="group descriptor")
    enum.add_argument("--subgroup", required=True, help="subgroup generators")
    enum.add_argument("--cap", type=_non_negative_int, default=DEFAULT_ENUMERATION_CAP)
    enum.add_argument(
        "--limit", type=_non_negative_int, help="stop enumerating after this many rows"
    )
    add_common(enum, cmd_nrt_enumerate)

    cls = sub.add_parser("classify", help="classify transversal loops")
    cls.add_argument("--group", required=True, help="group descriptor")
    cls.add_argument("--subgroup", required=True, help="subgroup generators")
    cls.add_argument("--relation", choices=("iso", "isotopy"), default="isotopy")
    cls.add_argument(
        "--jobs", type=int, default=1, help="has no effect; classification is serial"
    )
    cls.add_argument("--cap", type=_non_negative_int, default=DEFAULT_ENUMERATION_CAP)
    add_common(cls, cmd_classify)

    dih = sub.add_parser("dihedral", help="flip-loop counts over a dihedral group")
    dih.add_argument("mode", choices=("count", "families", "census"))
    dih.add_argument("--p", type=int, help="odd prime (count and families)")
    dih.add_argument("--n", type=int, help="modulus (census)")
    dih.add_argument(
        "--B",
        dest="subset",
        help="restrict families mode to the family of this subset, e.g. 1,3",
    )
    dih.add_argument("--cap", type=_non_negative_int, default=DEFAULT_ENUMERATION_CAP)
    add_common(dih, cmd_dihedral)

    cyc = sub.add_parser("cycle-index", help="cycle index of the affine maps mod p")
    cyc.add_argument("--p", type=int, required=True, help="odd prime")
    add_common(cyc, cmd_cycle_index)

    ver = sub.add_parser("verify", help="run the built-in theorem checks")
    pick = ver.add_mutually_exclusive_group()
    pick.add_argument("--all", action="store_true", help="run every check (default)")
    pick.add_argument(
        "--check",
        action="append",
        help="check id to run (repeatable, comma-separated allowed)",
    )
    ver.add_argument(
        "--catalog",
        default="default",
        help="'default' or a path to a JSON catalog file",
    )
    ver.add_argument("--p", type=int, help="restrict prime-parameterized checks")
    add_common(ver, cmd_verify)

    return parser


@contextlib.contextmanager
def _output(args):
    """The stream a command writes to: the --output file, else stdout."""
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            yield handle
    else:
        yield sys.stdout
        sys.stdout.flush()  # so a closed pipe raises here, not at exit


def _emit(args, lines) -> None:
    """Write each line, then its newline, as the iterable makes it."""
    with _output(args) as out:
        out.writelines(f"{line}\n" for line in lines)


def _emit_json(args, obj) -> None:
    with _output(args) as out:
        json.dump(obj, out, indent=2, sort_keys=True)
        out.write("\n")


def _emit_csv(args, rows) -> None:
    with _output(args) as out:
        csv.writer(out, lineterminator="\n").writerows(rows)


def _require_odd_prime_arg(p) -> int:
    try:
        if p is None:
            raise ValueError("no value")
        _require_odd_prime(p)
    except ValueError:
        raise GroupError(f"--p must be an odd prime, got {p}") from None
    return p


def cmd_group_show(args) -> int:
    G = build_named_group(args.group)
    names = [G.name_of(a) for a in range(G.order)]
    if args.format == "json":
        _emit_json(
            args,
            {
                "descriptor": args.group,
                "order": G.order,
                "names": names,
                "table": [list(row) for row in G.table],
            },
        )
    elif args.format == "csv":
        _emit_csv(args, itertools.chain([["order", G.order], ["names", *names]], G.table))
    else:
        _emit(args, _cayley_lines(G))
    return EXIT_OK


def cmd_nrt_enumerate(args) -> int:
    G = build_named_group(args.group)
    H = parse_subgroup(G, args.subgroup)
    # over the cap this raises here, before any output is opened
    shown = itertools.islice(enumerate_transversals(G, H, cap=args.cap), args.limit)
    rows = ((t, structure_flags(induced_right_loop(t))) for t in shown)
    count = transversal_count(G, H)
    if args.format == "json":
        # the one list sorts last, so its rows are written as they are made
        head = {"group": args.group, "subgroup": args.subgroup, "count": count}
        with _output(args) as out:
            out.write(json.dumps(head, indent=2, sort_keys=True).removesuffix("\n}"))
            out.write(',\n  "transversals": [')
            gap = "\n"
            for t, flags in rows:
                row = {"reps": list(t.reps), "label": t.label(), **vars(flags)}
                text = json.dumps(row, indent=2, sort_keys=True)
                out.write(gap + "    " + text.replace("\n", "\n    "))
                gap = ",\n"
            out.write("]\n}\n" if gap == "\n" else "\n  ]\n}\n")
    elif args.format == "csv":
        fields = ([t.label(), flags.is_loop, flags.is_group] for t, flags in rows)
        _emit_csv(args, itertools.chain([["label", "is_loop", "is_group"]], fields))
    else:
        lines = (
            f"  {{{t.label()}}}"
            + (" loop" if flags.is_loop else "")
            + (" group" if flags.is_group else "")
            for t, flags in rows
        )
        header = f"{count} transversals of {args.subgroup} in {args.group}"
        _emit(args, itertools.chain([header], lines))
    return EXIT_OK


def cmd_classify(args) -> int:
    G = build_named_group(args.group)
    H = parse_subgroup(G, args.subgroup)
    labels = []

    def loops():
        # streams the loops, keeping only each transversal's label
        for t in enumerate_transversals(G, H, cap=args.cap):
            labels.append(t.label())
            yield induced_right_loop(t)

    partition = classify(loops(), args.relation)
    classes = tuple(zip(partition.representatives, partition.classes))
    if args.format == "json":
        obj = {
            "relation": args.relation,
            "group": args.group,
            "subgroup": args.subgroup,
            "transversals": len(labels),
            "class_count": len(classes),
            "classes": [
                {
                    "representative_table": [list(r) for r in rep.table],
                    "members": [labels[i] for i in members],
                    "size": len(members),
                }
                for rep, members in classes
            ],
        }
        _emit_json(args, obj)
        return EXIT_OK
    flags = [structure_flags(rep) for rep, _ in classes]
    lns = [len(left_nonsingular_elements(rep)) for rep, _ in classes]
    if args.format == "csv":
        rows = [["class_id", "size", "is_loop", "n_left_nonsingular"]]
        for k, (_, members) in enumerate(classes):
            rows.append([k, len(members), flags[k].is_loop, lns[k]])
        _emit_csv(args, rows)
        return EXIT_OK

    def lines():
        yield (
            f"{len(classes)} {args.relation} classes over "
            f"{len(labels)} transversals of {args.subgroup} in {args.group}"
        )
        for k, (rep, members) in enumerate(classes):
            yield (
                f"class {k}: size {len(members)}, "
                f"left-nonsingular {lns[k]}/{rep.order}"
                + (", loop" if flags[k].is_loop else "")
                + (", group" if flags[k].is_group else "")
            )
            yield from (f"  {{{labels[m]}}}" for m in members)

    _emit(args, lines())
    return EXIT_OK


def cmd_dihedral(args) -> int:
    if args.mode == "census":
        if args.n is None or args.n < 2:
            raise GroupError("census needs --n at least 2")
        result = loop_transversal_census(args.n, cap=args.cap)
        if args.format == "json":
            _emit_json(args, result.to_json_obj())
        elif args.format == "csv":
            rows = [["witness"]] + [[w.format()] for w in result.witnesses]
            _emit_csv(args, rows)
        else:
            shown = " ".join(w.format() for w in result.witnesses)
            _emit(args, [f"{result.count} witnesses: {shown}"])
        return EXIT_OK
    p = _require_odd_prime_arg(args.p)
    if args.mode == "families":
        if args.subset is not None:
            picked = FlipSet.parse(p, args.subset)
            family = sorted(affine_family(p, picked), key=lambda s: s.mask)
            families = (tuple(family),)
        else:
            families = affine_families(p, cap=args.cap)
        if args.format == "json":
            _emit_json(args, families_json_obj(p, families))
        elif args.format == "csv":
            rows = ([k, s.format()] for k, fam in enumerate(families) for s in fam)
            _emit_csv(args, itertools.chain([["family", "subset"]], rows))
        else:
            lines = ("  " + " ".join(s.format() for s in fam) for fam in families)
            _emit(args, itertools.chain([f"{len(families)} families mod {p}"], lines))
        return EXIT_OK
    counts = FlipClassCounts(p)
    if not counts.agree:
        _emit(args, [f"mismatch: {counts}"])
        return EXIT_CHECK_FAILED
    row = {"formula": counts.formula, "burnside": counts.orbit_count // 2}
    if counts.direct is not None:
        row["direct"] = counts.direct
    if args.format == "json":
        _emit_json(args, {"p": p, **row})
    elif args.format == "csv":
        _emit_csv(args, [["p", *row], [p, *row.values()]])
    else:
        _emit(args, [" = ".join(map(str, row.values()))])
    return EXIT_OK


def cmd_cycle_index(args) -> int:
    p = _require_odd_prime_arg(args.p)
    index = affine_cycle_index(p)
    if args.format == "json":
        _emit_json(args, cycle_index_json_obj(p, index))
    elif args.format == "csv":
        rows = [["type", "num", "den"]]
        for ctype, coeff in index.terms:
            type_text = " ".join(f"{length}:{count}" for length, count in ctype)
            rows.append([type_text, coeff.numerator, coeff.denominator])
        _emit_csv(args, rows)
    else:
        _emit(args, [format_cycle_index(index)])
    return EXIT_OK


def cmd_verify(args) -> int:
    check_ids = None
    if args.check:
        check_ids = [tok for chunk in args.check for tok in chunk.split(",") if tok]
    catalog = (
        default_catalog() if args.catalog == "default" else load_catalog(args.catalog)
    )
    ps = (_require_odd_prime_arg(args.p),) if args.p is not None else DEFAULT_PRIMES
    reports = run_suite(catalog, check_ids, ps=ps)
    if args.format == "json":
        _emit_json(args, [r.to_json_obj() for r in reports])
    elif args.format == "csv":
        rows = [["check", "label", "verdict"]]
        rows.extend([r.check_id, r.label, r.verdict] for r in reports)
        _emit_csv(args, rows)
    else:
        lines = []
        width = max((len(r.check_id) for r in reports), default=0)
        for r in reports:
            line = f"{r.check_id:<{width}}  {r.verdict:<7}  {r.label}"
            details = r.to_json_obj()["details"]
            if r.verdict == "fail" or (
                r.verdict == "pass" and r.check_id in ("thm4.2", "facts")
            ):
                line += f"  {json.dumps(details, sort_keys=True)}"
            lines.append(line)
        tally = Counter(r.verdict for r in reports)
        lines.append(
            f"{tally['pass']} passed, {tally['fail']} failed, "
            f"{tally['vacuous']} vacuous"
        )
        _emit(args, lines)
    return EXIT_OK if suite_passed(reports) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BrokenPipeError:
        # the reader is gone; the flush at exit then writes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
