"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``
there and nowhere else, always compiled from source. Setup (a fresh import
of the package plus the workload's inputs) is repeated SETUP_REPEATS times
and its median is reported as ``setup_s``. The timed region then runs
whole rounds of the workload, one after the other in this one thread,
until ``--seconds`` have passed (at least one round). The outputs are
checked after the timed region.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the run makes one traced round between two untraced
ones, whatever ``--seconds`` says, and reports the per-layer metrics;
``trace.overhead_s`` is the traced round's wall time minus the mean of the
untraced two. The spans and counts go to
``bench/results/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 0 means
the run finished (read ``correct`` for the verdict); 2 means it could not
run, for instance because ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
MODULES = ("cli", "groups", "transversals", "rightloops", "isotopy", "flips", "burnside", "checks")
SETUP_REPEATS = 11

# Whether an import finds a byte-code cache depends on the environment
# (PYTHONDONTWRITEBYTECODE, write access, earlier runs). The package is
# imported with its cache looked up under a prefix that is never created,
# and no cache is written, so every import compiles it from source and
# setup_s measures the same work everywhere.
NO_PYCACHE = str(RESULTS / "no-pycache")
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR))

from tracer import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS, Round  # noqa: E402


class SetupError(RuntimeError):
    """The package cannot be imported from this checkout."""


def import_package():
    """Import the package afresh from SRC, dropping any earlier import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    prefix, sys.pycache_prefix = sys.pycache_prefix, NO_PYCACHE
    try:
        root = importlib.import_module(PACKAGE)
        if not Path(root.__file__).resolve().is_relative_to(SRC):
            raise SetupError(f"{PACKAGE} was imported from {root.__file__}, not {SRC}")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {SRC}: {exc}") from exc
    finally:
        sys.pycache_prefix = prefix
    return SimpleNamespace(**modules)


def setup(workload, seed):
    """Median setup time over SETUP_REPEATS fresh imports, and the inputs
    built by the last of them."""
    times = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # let the previous repeat's inputs be collected first
        gc.collect()
        t0 = perf_counter()
        pkg = import_package()
        inputs = workload.setup(pkg, seed)
        times.append(perf_counter() - t0)
    return statistics.median(times), inputs


def one_round(workload, inputs) -> tuple[float, Round]:
    gc.collect()
    t0 = perf_counter()
    try:
        result = workload.run(inputs)
    except Exception:  # a failed round counts as failed items, not a crash
        traceback.print_exc(file=sys.stderr)
        result = Round(inputs.items, inputs.items, None)
    return perf_counter() - t0, result


def check_outputs(workload, inputs, rounds) -> list[str]:
    """Check the first good round and require every good round to match."""
    outputs = [r.output for _, r in rounds if r.output is not None]
    if not outputs:
        return ["no round produced output"]
    problems = workload.check(inputs, outputs[0])
    if any(out != outputs[0] for out in outputs[1:]):
        problems.append("rounds produced different outputs")
    return problems


def per_check_times(pkg) -> dict[str, float]:
    """Wall time of run_suite restricted to each check id, untraced."""
    times = {}
    for check_id in pkg.checks.CHECK_IDS:
        gc.collect()
        t0 = perf_counter()
        pkg.checks.run_suite(pkg.checks.default_catalog(), [check_id])
        times[f"checks.{check_id}_s"] = perf_counter() - t0
    return times


def declared_metrics(kind: str) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec[kind]}


def emit(declared, values, rounds, problems) -> None:
    if set(values) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(declared))} are not both "
            "declared in BENCHMARK.json and measured"
        )
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    for name, spec in declared.items():
        print(f"{name:32} {values[name]:14.6f} {spec['unit']}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.items for _, r in rounds),
        "failed": sum(r.failed for _, r in rounds),
        "metrics": {
            name: {"value": values[name], "unit": spec["unit"]}
            for name, spec in declared.items()
        },
    }
    print(json.dumps(result))


def run_plain(workload, inputs, setup_s, seconds):
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(one_round(workload, inputs))
    busy = sum(t for t, _ in rounds)
    values = {
        "wall_s": statistics.median(t for t, _ in rounds),
        "items_per_s": sum(r.items - r.failed for _, r in rounds) / busy,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    problems = check_outputs(workload, inputs, rounds)
    emit(declared_metrics("end_to_end"), values, rounds, problems)


def run_traced(name, workload, inputs, seed):
    # untraced rounds on both sides of the traced one, so that a drift in
    # machine speed does not read as tracing overhead
    before = one_round(workload, inputs)
    tracer = Tracer()
    with tracer:
        traced = one_round(workload, inputs)
    after = one_round(workload, inputs)
    rounds = [before, traced, after]
    problems = check_outputs(workload, inputs, rounds)
    values = {f"checks.{c}_s": 0.0 for c in inputs.pkg.checks.CHECK_IDS}
    values.update(tracer.layer_metrics())
    if name == "verify-all":
        values.update(per_check_times(inputs.pkg))
    untraced = (before[0] + after[0]) / 2
    values["trace.overhead_s"] = traced[0] - untraced
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced[0],
        "metrics": values,
        **tracer.to_json_obj(),
    }
    path = RESULTS / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}", file=sys.stderr)
    emit(declared_metrics("per_layer"), values, rounds, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    try:
        setup_s, inputs = setup(workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        run_traced(args.workload, workload, inputs, args.seed)
    else:
        run_plain(workload, inputs, setup_s, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
