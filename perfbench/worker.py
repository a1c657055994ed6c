"""One workload in one fresh interpreter: set up, certify, time, trace.

Started by ``run.py``, pinned to the CPU ``run.py`` runs on. Prints
``ready`` once tailforge is imported and the inputs and references are
built (``run.py`` times spawn-to-ready as the set-up time), then, unless
``--setup-only``:

1. a first pass runs every item in a closed loop (one caller, the next
   item starts when the previous returns). It certifies: its verdicts are
   the run's correctness result;
2. more passes fill ``--seconds`` (half of it with ``--trace 1``) with
   tracing off. Readings of a fixed kernel bracket the items
   (``speed.py``); an item's latency is its median over the passes, each
   sample scaled to the kernel's reference speed;
3. with ``--trace 1``, as many seconds again record a span around every
   call; for ``cli_mix`` every case also runs in-process. The per-layer
   metrics come from those spans. A layer function the workload never
   calls reports 0 calls, and its times come from one probe call
   (``workloads.probes``), spanned apart from the workload's calls.

Every timed pass must reproduce the first pass's verdicts. The last
stdout line is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans as sp  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import (  # noqa: E402
    FACTORIES, LAW_KIND, PROBE, WORKLOADS, Verdict, cli_check, cli_env, expand, load_golden, probes,
    run_cli_inprocess,
)

SPECFUN = ("binary_divergence", "f_delta", "big_b", "lambert_w0_exparg", "lambert_wm1_logarg")
BOUNDS = ("thm2_exponent", "thm3_exponent", "cor3_exponent", "cor4_exponent",
          "thm4_exponent", "cor6_suboptimal")
HYPTEST = ("rate_function", "chernoff_information", "exact_exponents")
CODINGAPPS = ("z1", "z2m", "z2m_tilde", "ofdm_martingale_check")
SUBCOMMANDS = ("exponents", "pairwise", "hypothesis", "ldpc", "ofdm", "simulate")
IMPORTTIME_RUNS = 5
INPROCESS_REPEATS = 3
CAL_EVERY_S = 0.02


def import_tailforge(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import tailforge
    from tailforge import bounds, cli, codingapps, hyptest, specfun, validate  # noqa: F401

    if not os.path.abspath(tailforge.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported tailforge from {tailforge.__file__}, not from {src}")
    return tailforge


def execute(item):
    try:
        return [c.fn(*c.args) for c in item.calls]
    except Exception as exc:  # a refused or failing call is an item outcome
        return exc


def judge(item, outs) -> Verdict:
    """The item's verdict; a check that raises fails the item, not the run."""
    try:
        return item.check(outs)
    except Exception as exc:
        return Verdict(False, None, f"check raised {exc!r}")


def execute_traced(item, tracer):
    parent = tracer.open("item", item.id)
    outs = []
    try:
        for c in item.calls:
            t0 = time.perf_counter_ns()
            try:
                outs.append(c.fn(*c.args))
            finally:
                tracer.add(c.name, t0, time.perf_counter_ns(), parent, item.id)
    except Exception as exc:
        outs = exc
    tracer.close(parent)
    return outs


def one_pass(items, runner, meter, samples) -> dict:
    """One closed-loop pass: the next item starts when the previous returns.

    Kernel readings bracket the items, at least every ``CAL_EVERY_S``; each
    item's latency goes into ``samples[i]`` as (seconds, index of the
    reading before it). Returns each item's verdict.
    """
    verdicts = {}
    last, last_t = meter.read(), time.perf_counter()
    for i, item in enumerate(items):
        if time.perf_counter() - last_t > CAL_EVERY_S:
            last, last_t = meter.read(), time.perf_counter()
        t0 = time.perf_counter()
        outs = runner(item)
        dt = time.perf_counter() - t0
        samples[i].append((dt, last))
        verdicts[item.id] = judge(item, outs)
    meter.read()
    return verdicts


def timed_passes(items, runner, meter, samples, budget, first) -> tuple[int, set]:
    """Whole passes for about ``budget`` seconds (at least one).

    Whole passes keep the item mix identical between runs. Returns the
    number of passes and the ids of items whose verdict differs from
    ``first``.
    """
    t_end = time.perf_counter() + budget
    passes, unstable = 0, set()
    while True:
        t0 = time.perf_counter()
        verdicts = one_pass(items, runner, meter, samples)
        passes += 1
        unstable |= {i for i, v in verdicts.items() if v.ok != first[i].ok}
        now = time.perf_counter()
        if now + 0.5 * (now - t0) > t_end:
            return passes, unstable


def layer_names() -> list:
    """Every span name a per-layer time metric reads."""
    names = [f"{mod}.{fn}" for mod, fns in (
        ("specfun", SPECFUN), ("bounds", BOUNDS), ("hyptest", HYPTEST), ("codingapps", CODINGAPPS),
        ("validate", ("monte_carlo_tail", "types_sandwich_check"))) for fn in fns]
    names += [f"validate.exact_tail_dp.{kind}" for kind in dict.fromkeys(LAW_KIND.values())]
    names += [f"cli.{how}.{sub}" for sub in SUBCOMMANDS for how in ("main", "process")]
    return names


def layer_metrics(tracer, verdicts, items, extra) -> tuple[dict, dict]:
    """Every per-layer metric, and a note for each one that needs it.

    A name the workload never calls reports 0 calls and the times of its
    probe spans (0 without them).
    """
    stats = sp.layer_stats(tracer.spans, sp.self_times(tracer.spans))
    zero = {"calls": 0, "busy_s": 0.0, "p50_us": 0.0}
    m, probed = {}, set()
    for name in layer_names():
        st = stats.get(name)
        if st is None:
            st = {**stats.get(PROBE + name, zero), "calls": 0}
            probed.add(name)
        if name.startswith("cli."):
            m[f"{name}.p50_ms"] = st["p50_us"] / 1e3
        elif name.startswith("validate.exact_tail_dp."):  # calls are summed over law kinds
            m["validate.exact_tail_dp.calls"] = m.get("validate.exact_tail_dp.calls", 0) + st["calls"]
            m[f"{name}.busy_s"], m[f"{name}.p50_us"] = st["busy_s"], st["p50_us"]
        else:
            m.update({f"{name}.{k}": v for k, v in st.items()})
    notes = {k: "probe: the workload makes no call" for k in m
             if k.rsplit(".", 1)[0] in probed and not k.endswith(".calls")}

    ceil = [f for v in verdicts.values() for f in v.flags.get("thm4_at_ceiling", [])]
    fallback = [f for v in verdicts.values() for f in v.flags.get("cor6_fallback", [])]
    dp_items = [it for it in items if it.calls[0].name.startswith("validate.exact_tail_dp")]
    infeasible = sum(1 for it in dp_items if "InfeasibleError" in verdicts[it.id].detail)
    vac = sum(v.vacuous for v in verdicts.values())
    checks = sum(v.bound_checks for v in verdicts.values())
    ratios = {
        "bounds.thm4.at_ceiling_ratio": (sum(ceil), len(ceil)),
        "bounds.cor6.fallback_ratio": (sum(fallback), len(fallback)),
        "validate.exact_tail_dp.infeasible_ratio": (infeasible, len(dp_items)),
        "validate.vacuous_check_ratio": (vac, checks),
    }
    for name, (num, base) in ratios.items():
        m[name] = num / base if base else 0.0
        notes[name] = f"{num}/{base}"
    m.update(extra)
    return m, notes


def cli_inprocess(tf, tracer, root: str, workdir: str):
    """Run every mix case in-process (stdout captured) and check the bytes."""
    mismatches = []
    for case in load_golden()["cases"]:
        argv = expand(case["argv"], workdir)
        out = None if case["out"] is None else os.path.join(root, expand([case["out"]], workdir)[0])
        for _ in range(INPROCESS_REPEATS):
            t0 = time.perf_counter_ns()
            got = run_cli_inprocess(tf.cli.main, argv, out)
            tracer.add(f"cli.main.{case['argv'][0]}", t0, time.perf_counter_ns(), -1, case["id"])
            if not cli_check(case)([got]).ok:
                mismatches.append(case["id"])
    return mismatches


def import_times(root: str) -> dict:
    """Median cumulative import time of numpy and tailforge (python -X importtime)."""
    env = cli_env(root)
    got = {"numpy": [], "tailforge": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tailforge.cli"],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in got:
                got[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {f"import.{k}_ms": statistics.median(v) for k, v in got.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    os.chdir(root)
    tf = import_tailforge(root)
    workdir = os.path.join(".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        items = FACTORIES[args.workload](tf, args.seed, root=root, workdir=workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = run(tf, items, args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def run(tf, items, args, root, workdir) -> dict:
    gc.collect()
    gc.freeze()  # set-up objects stay out of the collections timed below
    n = len(items)
    meter = Speedometer()
    samples = [[] for _ in items]
    # the first pass certifies: its verdicts are the run's correctness
    # result. It also warms caches and lazy set-up; its samples count, as
    # an item's median over the passes leaves out that one cold sample
    verdicts = one_pass(items, execute, meter, samples)
    known_fail = {i: v.known for i, v in verdicts.items() if not v.ok and v.known}
    unexpected = {i: v.detail[:500] for i, v in verdicts.items() if not v.ok and not v.known}
    errs = [v.rel_err for v in verdicts.values() if v.rel_err is not None]

    budget = args.seconds / 2 if args.trace else args.seconds
    passes, unstable = timed_passes(items, execute, meter, samples, budget, verdicts)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "item_ids": [it.id for it in items],
        "known_failures": known_fail,
        "unexpected_failures": unexpected,
        "min_correct_digits": -math.log10(max(max(errs), 1e-17)) if errs else None,
        "passes": 1 + passes,
        "executions": n * (1 + passes),
        "env": {"python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__},
    }
    if not args.trace:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_mix" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    else:
        tracer = sp.Tracer()
        traced = [[] for _ in items]
        tpasses, unstable2 = timed_passes(
            items, lambda it: execute_traced(it, tracer), meter, traced, budget, verdicts)
        unstable |= unstable2
        result["executions"] += n * tpasses
        result["traced_items"] = n * tpasses
        if args.workload == "cli_mix":
            result["inprocess_mismatches"] = cli_inprocess(tf, tracer, root, workdir)
        called = {span.name for span in tracer.spans}
        for item in probes(tf, root, [n for n in layer_names() if n not in called]):
            execute_traced(item, tracer)
        if args.spans_out:
            tracer.write(args.spans_out)
            result["spans_file"] = args.spans_out
    result["item_s"] = [meter.median(s) for s in samples]
    result["unstable"] = sorted(unstable)
    result["speed"] = {"fastest_s": min(meter.readings), "median_s": statistics.median(meter.readings),
                       "readings": len(meter.readings)}
    if args.trace:
        overhead = sum(meter.median(s) for s in traced) / sum(result["item_s"]) - 1.0
        extra = {"trace.overhead_pct": 100.0 * overhead, **import_times(root)}
        result["layers"], result["layer_notes"] = layer_metrics(tracer, verdicts, items, extra)
    return result


if __name__ == "__main__":
    sys.exit(main())
