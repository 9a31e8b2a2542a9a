"""Check that the benchmark is steady: two separate sets of runs of the same
code must agree within the bounds of BENCHMARK.json.

    python3 bench/steady.py

Set A makes RUNS runs of every workload in BENCHMARK.json (seeds 1..RUNS),
then set B does the same with fresh seeds (RUNS+1..2*RUNS), each run in
its own process and as long as BENCHMARK.json's run_seconds.
For every end-to-end metric the command prints each set's median and
quartiles, the spread (distance between the quartiles as a share of the
median) and the change of set B's median from set A's. A metric agrees
when each set's spread is within its bound and the medians differ by at
most the bound either way; the share of failed operations must also be
equal. setup_s is judged on the change of its median alone; its spread
is shown only. A run's setups take under a second together, so setup_s
reads the machine's speed in that second, and on a shared machine that
speed differs by up to a half from one run to the next. Exit code 0
means every workload agrees. The raw results go to
bench/results/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 600
RUNS = 10


def run_once(command, workload, seed, seconds) -> dict:
    argv = [
        *command,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def compare(spec, results) -> bool:
    """Print one table per workload; True when every workload agrees."""
    all_agree = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        print(
            f"  {'metric':14} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} "
            f"{'spread':>8}   change   bound  verdict"
        )
        shares = [
            {r["failed"] / r["attempted"] for r in runs} for runs in sets.values()
        ]
        if any(len(s) != 1 for s in shares) or shares[0] != shares[1]:
            print(f"  failed shares differ: {shares}")
            all_agree = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {
                label: summary([r["metrics"][name]["value"] for r in runs])
                for label, runs in sets.items()
            }
            change = stats["B"]["median"] / stats["A"]["median"] - 1
            spreads_ok = name == "setup_s" or all(
                s["spread"] <= bound for s in stats.values()
            )
            agree = spreads_ok and abs(change) <= bound
            all_agree &= agree
            steady = all(s["spread"] < bound / 3 for s in stats.values())
            for label, s in stats.items():
                line = (
                    f"  {name:14} {label:3} {s['median']:12.6g} {s['q1']:12.6g} "
                    f"{s['q3']:12.6g} {s['spread']:8.2%}"
                )
                if label == "B":
                    line += f" {change:+8.2%} {bound:7.0%}  "
                    line += "agree" if agree else "DISAGREE"
                    if name != "setup_s" and not steady:
                        line += ", spread over bound/3"
                print(line)
    return all_agree


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    for k, label in enumerate(("A", "B")):
        for i in range(RUNS):
            seed = k * RUNS + i + 1
            for w in workloads:
                result = run_once(spec["command"], w, seed, spec["run_seconds"])
                if not result["correct"]:
                    raise RuntimeError(f"{w} seed {seed} reported incorrect output")
                results[w][label].append(result)
                value = result["metrics"]["wall_s"]["value"]
                print(f"set {label} seed {seed:3} {w:22} wall_s {value:.4f}", file=sys.stderr)
    (BENCH_DIR / "results").mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out = BENCH_DIR / "results" / f"steady-{stamp}.json"
    out.write_text(json.dumps({"runs": RUNS, "results": results}), encoding="utf-8")
    agree = compare(spec, results)
    print(f"\n{'the two sets agree' if agree else 'the two sets DISAGREE'}; raw results in {out.relative_to(ROOT)}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
