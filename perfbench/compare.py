"""Compare a change with its parent on the benchmark: alternating pairs.

    python3 perfbench/compare.py run --parent ../parent --change . --pairs 10 --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

``run`` makes ``--pairs`` pairs; pair i runs both checkouts with seed
``SEED0 + i`` on every workload of BENCHMARK.json for its ``run_seconds``,
the parent first in even pairs and the change first in odd ones, and
appends each run's final JSON line to ``--out``. ``report`` applies the rule for claiming a gain:

* gain: the change wins at least 9 of every 10 pairs (ties count for
  neither side), the medians differ by more than the parent's
  interquartile range, and no more items fail than at the parent;
* unresolved: otherwise, when either side's run-to-run spread (IQR over
  median) is wider than the metric's bound, unless every change run reads
  better than every parent run;
* regression: the change's median is worse than the parent's by more
  than the bound; otherwise within bound.

Each workload and metric gets its own row. Fewer than ten pairs are
reported as insufficient.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
SEED0 = 1000
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def wins(parent, change, better: str) -> int:
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent, change, better: str, bound: float, extra_failures: bool = False) -> str:
    """Classify one (workload, metric) from paired run values (same order)."""
    pairs = len(parent)
    if pairs < MIN_PAIRS:
        return "insufficient"
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    if (
        wins(parent, change, better) >= math.ceil(WIN_SHARE * pairs)
        and sign * (cmed - pmed) > p3 - p1
        and not extra_failures
    ):
        return "gain"
    spread = max((p3 - p1) / abs(pmed) if pmed else math.inf, (c3 - c1) / abs(cmed) if cmed else math.inf)
    all_better = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (cmed - pmed) < -bound * abs(pmed):
        return "regression"
    return "within bound"


def run_side(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_run(args, spec) -> int:
    with open(args.out, "a", encoding="utf-8") as fh:
        for i in range(args.pairs):
            seed = SEED0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in (w["name"] for w in spec["workloads"]):
                for side in order:
                    res = run_side(getattr(args, side), workload, seed, spec["run_seconds"])
                    row = {"pair": i, "side": side, "workload": workload, "seed": seed, **res}
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
                    print(f"pair {i} {workload} {side}: correct={res['correct']}", flush=True)
    return 0


def cmd_report(args, spec) -> int:
    with open(args.results, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    runs = {}
    for row in rows:
        runs[(row["workload"], row["pair"], row["side"])] = row
    workloads = sorted({w for w, _, _ in runs})
    print(f"{'workload':16s} {'metric':14s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>7s}  verdict")
    for workload in workloads:
        pairs = sorted({p for w, p, _ in runs if w == workload and (w, p, "parent") in runs
                        and (w, p, "change") in runs})
        par = [runs[(workload, p, "parent")] for p in pairs]
        chg = [runs[(workload, p, "change")] for p in pairs]
        extra_failures = sum(r["failed"] for r in chg) > sum(r["failed"] for r in par)
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in par]
            cv = [r["metrics"][name]["value"] for r in chg]
            if not pv:
                continue
            fmt = "{1:.5g} [{0:.5g}, {2:.5g}]"
            print(f"{workload:16s} {name:14s} {fmt.format(*quartiles(pv)):>34s} "
                  f"{fmt.format(*quartiles(cv)):>34s} {wins(pv, cv, m['better']):>3d}/{len(pairs):<3d}  "
                  f"{verdict(pv, cv, m['better'], m['bound'], extra_failures)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--spec", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--pairs", type=int, default=MIN_PAIRS)
    r.add_argument("--out", required=True)
    rep = sub.add_parser("report")
    rep.add_argument("results")
    args = ap.parse_args()
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.cmd == "run" and args.pairs < MIN_PAIRS:
        print(f"error: need at least {MIN_PAIRS} pairs", file=sys.stderr)
        return 2
    return cmd_run(args, spec) if args.cmd == "run" else cmd_report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
