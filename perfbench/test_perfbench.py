"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

tailforge = pytest.importorskip("tailforge")
from tailforge import bounds, cli, codingapps, hyptest, specfun, validate  # noqa: E402,F401


def _signature(items):
    """Item ids plus every call's name and repr'd arguments."""
    return [(it.id, [(c.name, repr(c.args)) for c in it.calls]) for it in items]


@pytest.mark.parametrize("name", ["analytic_sweep", "oracle_certify"])
def test_same_seed_same_inputs(name):
    build = workloads.FACTORIES[name]
    first = _signature(build(tailforge, 7))
    assert first == _signature(build(tailforge, 7))
    assert first != _signature(build(tailforge, 8))


def test_same_seed_same_cli_order():
    golden = workloads.load_golden()
    order = [c["id"] for c in workloads.select_cli(golden, 3)]
    assert order == [c["id"] for c in workloads.select_cli(golden, 3)]
    assert sorted(order) == sorted(c["id"] for c in golden["cases"])


def _analytic_item(item_id):
    items = workloads.build_analytic(tailforge, 1)
    return next(it for it in items if it.id == item_id)


def test_checker_passes_and_flags_perturbed_exponent():
    item = _analytic_item("row_g0.5_d0.5")
    outs = worker.execute(item)
    assert item.check(outs).ok
    k = next(i for i, c in enumerate(item.calls) if c.name == "bounds.thm2_exponent")
    ev = outs[k]
    outs[k] = dataclasses.replace(ev, exponent=ev.exponent * (1 + 1e-9))
    verdict = item.check(outs)
    assert not verdict.ok
    assert verdict.known is None  # no documented defect covers delta = 0.5
    assert "bounds.thm2_exponent" in verdict.detail


def test_checker_keeps_known_small_delta_defect_visible():
    verdict = _analytic_item("row_g0.5_d1e-08").check(worker.execute(_analytic_item("row_g0.5_d1e-08")))
    assert not verdict.ok and verdict.rel_err > 0.5  # thm2 is 74% off at delta = 1e-8
    assert verdict.known == workloads.ANALYTIC_DEFECTS["small_delta"]


@pytest.mark.parametrize("worse", ["3x", "zero", "nan"])
def test_checker_flags_known_defect_made_worse(worse):
    item = _analytic_item("row_g0.5_d1e-08")
    outs = worker.execute(item)
    k = next(i for i, c in enumerate(item.calls) if c.name == "bounds.thm2_exponent")
    entry = next(e for e in workloads.load_pool()["exponent_rows"] if e["id"] == item.id)
    ref = float(entry["ops"][k][2][0])
    ev = outs[k]
    value = {"3x": ref + 3.0 * abs(ev.exponent - ref), "zero": 0.0, "nan": float("nan")}[worse]
    outs[k] = types.SimpleNamespace(exponent=value, params=ev.params)  # ExponentValue refuses NaN
    verdict = item.check(outs)
    assert not verdict.ok
    assert verdict.known is None  # beyond the seed commit's error: a new failure


def test_checker_flags_one_changed_cli_byte():
    case = workloads.load_golden()["cases"][0]
    check = workloads.cli_check(case)
    good = case["stdout"].encode()
    assert check([(case["exit"], good, None)]).ok
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 0x01
    assert not check([(case["exit"], bytes(bad), None)]).ok
    assert not check([(case["exit"] + 1, good, None)]).ok


@pytest.mark.parametrize(
    "n, pct, value",
    [(100, 90.0, 89), (1000, 99.0, 989), (11, 100.0 / 11, 0), (10, 100.0, 9), (1, 100.0, 0)],
)
def test_tail_percentile(n, pct, value):
    samples = list(range(n))
    got_pct, got_value = spans.tail(samples[::-1])
    assert got_pct == pytest.approx(pct)
    assert got_value == value
    if n > 10:
        assert sum(1 for s in samples if s > got_value) == 10


def test_self_time_from_span_tree():
    tree = [
        spans.Span("item", 0, 100, -1, "x"),
        spans.Span("a", 10, 40, 0, "x"),
        spans.Span("b", 30, 60, 0, "x"),  # overlaps a: the union 10..60 counts once
        spans.Span("a.inner", 15, 20, 1, "x"),
        spans.Span("late", 90, 130, 0, "x"),  # clipped to the parent's end
    ]
    assert spans.self_times(tree) == [100 - 50 - 10, 30 - 5, 30, 5, 40]


def test_compare_rule():
    parent = [10.0, 11.0, 10.5, 10.2, 10.8, 10.1, 10.4, 10.6, 10.3, 10.7]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1) == "gain"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1, True) != "gain"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1) == "regression"
    assert compare.verdict(parent, parent, "lower", 0.1) == "within bound"
    assert compare.verdict(parent, parent, "lower", 0.01) == "unresolved"
    assert compare.verdict(parent[:9], parent[:9], "lower", 0.1) == "insufficient"


def test_sandwich_check_fails_out_of_range_lattice_point():
    item = next(it for it in workloads.build_oracle(tailforge, 1) if it.id.startswith("sandwich_"))
    outs = worker.execute(item)
    assert worker.judge(item, outs).ok
    outs[0] = dataclasses.replace(outs[0], r_lattice=1.5)
    assert not worker.judge(item, outs).ok


def test_probes_cover_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = worker.layer_names()
    probed = {it.calls[0].name for it in workloads.probes(tailforge, ROOT, names)}
    assert probed == {workloads.PROBE + n for n in names}
    timed = [m["name"] for m in spec["per_layer"] if m["unit"] in ("s", "ms", "us")]
    stems = {n.rsplit(".", 1)[0] for n in timed if not n.startswith(("import.", "trace."))}
    assert stems <= set(names)


def test_probe_spans_stay_apart_from_workload_spans():
    tracer = spans.Tracer()
    tracer.add("bounds.thm2_exponent", 0, 2000, -1, "a")
    tracer.add("bounds.thm2_exponent", 0, 4000, -1, "b")
    tracer.add(workloads.PROBE + "bounds.thm2_exponent", 0, 900000, -1, "p")
    tracer.add(workloads.PROBE + "specfun.f_delta", 0, 7000, -1, "p")
    layers, notes = worker.layer_metrics(tracer, {}, [], {})
    assert layers["bounds.thm2_exponent.calls"] == 2
    assert layers["bounds.thm2_exponent.p50_us"] == pytest.approx(3.0)
    assert "bounds.thm2_exponent.p50_us" not in notes
    assert layers["specfun.f_delta.calls"] == 0
    assert layers["specfun.f_delta.p50_us"] == pytest.approx(7.0)
    assert notes["specfun.f_delta.p50_us"].startswith("probe")
    assert layers["hyptest.rate_function.busy_s"] == 0.0  # neither called nor probed


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    extra = {"import.numpy_ms": 1.0, "import.tailforge_ms": 1.0, "trace.overhead_pct": 1.0}
    layers, _ = worker.layer_metrics(spans.Tracer(), {}, [], extra)
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb",
    }


def test_speed_normalisation():
    meter = speed.Speedometer()
    meter.readings = [1e-3, 1e-3, 2e-3, 2e-3, 3e-3]  # around index 0: 1 ms; 2: 2 ms; 3: 2.5 ms
    ref = speed.REFERENCE_S
    assert meter.normalise(0.010, 0) == pytest.approx(0.010 * ref / 1e-3)
    # the same work read at full, half and two-fifths speed normalises alike
    samples = [(0.010, 0), (0.020, 2), (0.025, 3)]
    assert meter.median(samples) == pytest.approx(0.010 * ref / 1e-3)
    assert meter.median([(0.010, 0), (0.020, 0), (0.030, 0)]) == pytest.approx(0.020 * ref / 1e-3)
