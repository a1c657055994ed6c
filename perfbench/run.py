"""tailforge benchmark: one command, three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload analytic_sweep --seed 1 --seconds 10 --trace 0

Workloads (``--workload all`` runs the three in turn):

* ``analytic_sweep``: exponent-table rows, Table 1/2 rows and hypothesis
  rows. Scalar kernels and optimisers do nearly all the work; the oracles
  and process start-up do none.
* ``oracle_certify``: exact lattice-DP tails, method-of-types rows, Monte
  Carlo and OFDM cells. ``validate``'s DP and sampler take nearly all the
  time, and Monte Carlo's O(trials*n) memory shows in ``peak_rss_mb``.
* ``cli_mix``: ``python -m tailforge.cli`` subprocesses over all six
  subcommands, byte-compared with golden outputs. Interpreter start and
  imports dominate.

Each workload runs in its own fresh interpreter (``worker.py``) as a closed
loop with one caller and ``TAILFORGE_THREADS`` unset, all pinned to one
CPU. ``setup_s`` is the median spawn-to-ready time over ``SETUP_SAMPLES``
fresh interpreters. Every time is scaled to a reference host speed, read
from a fixed kernel timed around it (``speed.py``). With ``--trace 0``
the end-to-end metrics of ``BENCHMARK.json`` are reported; with ``--trace 1`` half the time runs untraced and half with a
span around every call, and the per-layer metrics come from the spans.

Standard output: a table of every metric with unit and sample count, then
one JSON line ``{"correct", "attempted", "failed", "metrics"}``. A failure
that a documented defect explains is listed and counted in ``fail_ratio``
but does not make the run incorrect; any other failure does. Full results
(and spans, when traced) are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import tail  # noqa: E402
from speed import Speedometer, pin_to_one_cpu  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
RUN_TIMEOUT_S = 170.0
OUT_DIR = ".perfbench_out"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_cmd(args, workload: str, *extra: str) -> list:
    return [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", ROOT, *extra,
    ]


def spawn_until_ready(cmd: list, env: dict, deadline: float):
    """Start a worker; return (process, seconds from spawn to its 'ready' line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready" or time.perf_counter() > deadline:
        stop(proc)
        raise RuntimeError(f"worker did not get ready in time: {line!r}")
    return proc, ready


def stop(proc) -> None:
    proc.kill()
    proc.communicate()


def finish(proc, deadline: float) -> str:
    """Wait for a worker until the deadline; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def run_workload(args, workload: str, env: dict) -> dict:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    meter, setups = Speedometer(), []
    meter.read()  # warms the kernel; a cold first reading would read slow

    def time_setup():
        before = meter.read()
        proc, ready = spawn_until_ready(worker_cmd(args, workload, "--setup-only"), env, deadline)
        finish(proc, deadline)
        meter.read()
        setups.append((ready, before))

    # half the set-up samples before the timed worker and half after, so
    # they span the run rather than one stretch of host speed
    for _ in range(SETUP_SAMPLES // 2):
        time_setup()
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    spans = os.path.join(OUT_DIR, f"{workload}-seed{args.seed}.spans.jsonl.gz")
    extra = ("--spans-out", spans) if args.trace else ()
    proc, _ready = spawn_until_ready(worker_cmd(args, workload, *extra), env, deadline)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} worker printed no result")
    res = json.loads(lines[-1])
    for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2):
        time_setup()
    res["setup_raw_s"] = [t for t, _ in setups]
    res["setup_s"] = meter.median(setups)
    return res


def summarise(res: dict, trace: int, spec: dict) -> tuple[dict, list]:
    """Metrics for the final JSON line, and table rows (name, value, unit, n, note)."""
    per_item, passes = res["item_s"], res["passes"]
    items = len(per_item)
    res["item_ms"] = {i: 1e3 * t for i, t in zip(res.pop("item_ids"), per_item)}
    pct, tail_s = tail(per_item)
    known = res["known_failures"]
    failing = len(known) + len(res["unexpected_failures"])
    each = f"each the median of {passes} passes"
    e2e = {
        "setup_s": (res["setup_s"], len(res["setup_raw_s"]), "median spawn-to-ready of fresh interpreters"),
        "items_per_s": (items / sum(per_item), items, f"closed loop, 1 caller; items {each}"),
        "item_p50_ms": (1e3 * statistics.median(per_item), items, f"items {each}"),
        "item_tail_ms": (1e3 * tail_s, items, f"p{pct:.2f}: 10 items beyond"),
        "peak_rss_mb": (res.get("peak_rss_mb"), 1,
                        "children (CLI processes)" if res["workload"] == "cli_mix" else "workload process"),
        "fail_ratio": (failing / items, items, f"{failing}/{items} items, checked in the first pass"),
        "min_correct_digits": (res["min_correct_digits"], items, "-log10 worst relative error"),
    }
    units = {"fail_ratio": "ratio", "min_correct_digits": "digits"}
    units.update({m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    rows = [(k, v, units[k], cnt, note) for k, (v, cnt, note) in e2e.items()]
    res["end_to_end"] = {k: v for k, (v, _c, _n) in e2e.items()}
    res["tail_percentile"] = pct
    if not trace:
        names = [m["name"] for m in spec["end_to_end"]]
        return {k: {"value": e2e[k][0], "unit": units[k]} for k in names}, rows
    layers = res["layers"]
    rows = [(k, v, units.get(k, ""), res["traced_items"], res["layer_notes"].get(k, ""))
            for k, v in sorted(layers.items())]
    names = [m["name"] for m in spec["per_layer"]]
    return {k: {"value": layers[k], "unit": units[k]} for k in names}, rows


def print_table(workload: str, res: dict, rows: list) -> None:
    env = res["env"]
    print(f"# workload {workload}  seed {res['seed']}  python {env['python']}  numpy {env['numpy']}"
          f"  nproc {env['nproc']}  cpu {env['cpu']}")
    print(f"{'metric':44s} {'value':>14s} {'unit':8s} {'samples':>8s}  note")
    for name, value, unit, count, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:44s} {shown:>14s} {unit:8s} {count:>8d}  {note}")
    for item, why in sorted(res["known_failures"].items()):
        print(f"# known defect  {item}: {why}")
    for item, why in sorted(res["unexpected_failures"].items()):
        print(f"# FAILED  {item}: {why}")
    if res["unstable"]:
        print(f"# FAILED  outputs changed between passes: {res['unstable']}")
    if res.get("inprocess_mismatches"):
        print(f"# FAILED  in-process CLI output differs: {res['inprocess_mismatches']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "tailforge", "__init__.py")):
        print(f"error: no tailforge sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = {k: v for k, v in os.environ.items() if k != "TAILFORGE_THREADS"}
    env.pop("PYTHONPATH", None)
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()  # the workers and their children inherit it

    metrics, attempted, failed = {}, 0, 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            res = run_workload(args, workload, env)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        res["env"].update(nproc=nproc, pinned_cpu=cpu)
        res["env"]["cpu"] = cpu_model()
        wl_metrics, rows = summarise(res, args.trace, spec)
        print_table(workload, res, rows)
        path = os.path.join(ROOT, OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
        attempted += res["executions"]
        failed += (len(res["unexpected_failures"]) + len(res["unstable"])
                   + len(res.get("inprocess_mismatches", [])))
        if args.workload == "all":
            wl_metrics = {f"{workload}.{k}": v for k, v in wl_metrics.items()}
        metrics.update(wl_metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
