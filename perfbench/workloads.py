"""The three benchmark workloads: inputs from a seed, calls, and checks.

Each workload is a list of items. An item is a list of calls into
tailforge's public functions plus a check that compares the outputs with
a reference the benchmark holds independently of the call:

* ``analytic_sweep``: exponent-table rows, the Table 1/2 channel rows and
  hypothesis-testing rows, checked against the 50-digit mpmath pool in
  ``reference/analytic_sweep.json`` at relative tolerance 1e-10.
* ``oracle_certify``: exact-tail cells (checked against an independent
  log-scale lattice convolution and against every analytic bound, as in
  acceptance criterion 7), method-of-types rows (exact rational binomial
  tails), Monte Carlo cells (the exact tail must fall in a z = 5 Wilson
  interval around the estimate) and OFDM martingale cells.
* ``cli_mix``: ``python -m tailforge.cli`` subprocesses whose exit code,
  stdout and ``--out`` file must match ``golden/cli_mix.json`` byte for
  byte.

The library receives only the generated inputs. The seed draws the
parameters; the item order is fixed (seeded only for ``cli_mix``) so each
item runs after the same neighbours, in the same cache and allocator
state, in every run. A check marks a failure ``known`` only when
documented defects (``ANALYTIC_DEFECTS``, ``ORACLE_DEFECTS``) explain all
of it; any other failure makes the run incorrect. An ``analytic_sweep``
value counts as a known defect only while its error stays within
``KNOWN_GROWTH`` times the error recorded for it at the seed commit
(``golden/analytic_defects.json``); a NaN or a larger error is a new
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REL_TOL = 1e-10  # ROADMAP precision target for every exponent route
WILSON_Z = 5.0  # Monte Carlo acceptance width; wide enough to survive a new stream
SLACK = 1e-12  # criterion 7's absolute slack on exact <= bound
HYP_PICK_PER_SIZE = 5


@dataclass
class Call:
    name: str  # span name: <module>.<function>[.<kind>]
    fn: Callable
    args: tuple


@dataclass
class Verdict:
    ok: bool
    rel_err: Optional[float] = None  # worst relative error against the reference
    detail: str = ""
    vacuous: int = 0  # bound checks that pass only through the +1e-12 slack
    bound_checks: int = 0
    flags: dict = field(default_factory=dict)
    known: Optional[str] = None  # the documented defect(s) that explain the failure


@dataclass
class Item:
    id: str
    calls: list
    check: Callable  # (outputs list | Exception) -> Verdict


def rel_error(value: float, ref: float) -> float:
    if math.isinf(ref) or math.isinf(value):
        return 0.0 if value == ref else math.inf
    if ref == 0.0:
        return abs(value)
    return abs(value - ref) / abs(ref)


# ---------------------------------------------------------------- analytic_sweep


def _analytic_calls(tf):
    """Map a pool op name to (make(args) -> (fn, call args), output -> values)."""
    b, sf, h, c = tf.bounds, tf.specfun, tf.hyptest, tf.codingapps

    def spec(g):
        return b.MartingaleSpec(d=1.0, sigma2=g)

    def pair(p1, p2):
        return h.HypothesisPair.from_probs(p1, p2)

    def ev(out):
        return [out.exponent]

    table = {
        "specfun.f_delta": (lambda a: (sf.f_delta, (a[0],)), lambda o: [o]),
        "specfun.binary_divergence": (lambda a: (sf.binary_divergence, tuple(a)), lambda o: [o]),
        "specfun.big_b": (lambda a: (sf.big_b, (a[0],)), lambda o: [o]),
        "specfun.lambert_wm1_logarg": (lambda a: (sf.lambert_wm1_logarg, (a[0],)), lambda o: [o]),
        "specfun.lambert_w0_exparg": (lambda a: (sf.lambert_w0_exparg, (a[0],)), lambda o: [o]),
        "bounds.refined_pinsker_exponent": (lambda a: (b.refined_pinsker_exponent, (a[0],)), ev),
        "bounds.cor4_exponent": (lambda a: (b.cor4_exponent, tuple(a)), ev),
        "bounds.chung_lu_exponent": (lambda a: (b.chung_lu_exponent, tuple(a)), ev),
        "bounds.thm4_exponent": (
            lambda a: (b.thm4_exponent, (b.MomentProfile(tuple(a[0])), a[1])),
            ev,
        ),
        "bounds.cor6_suboptimal": (
            lambda a: (b.cor6_suboptimal, (b.MomentProfile(tuple(a[0])), a[1])),
            lambda o: [o[1].exponent],
        ),
        "codingapps.z1": (lambda a: (c.z1, (c.q_ary_channel(a[0], a[1]),)), lambda o: [o.base]),
        "codingapps.z2m": (
            lambda a: (c.z2m, (c.q_ary_channel(a[0], a[1]), a[2])),
            lambda o: [o.base],
        ),
        "codingapps.z2m_tilde": (
            lambda a: (c.z2m_tilde, (c.q_ary_channel(a[0], a[1]), a[2])),
            lambda o: [o.base],
        ),
        "hyptest.exact_exponents": (
            lambda a: (h.exact_exponents, (pair(a[0], a[1]), h.Thresholds(a[2], a[3]))),
            lambda o: [o.alpha1, o.alpha2, o.beta1, o.beta2, o.err_or_erasure, o.error],
        ),
        "hyptest.refined_lower_bounds": (
            lambda a: (h.refined_lower_bounds, (pair(a[0], a[1]), h.Thresholds(a[2], a[3]))),
            lambda o: [o.err_or_erasure, o.error],
        ),
        "hyptest.chernoff_information": (
            lambda a: (h.chernoff_information, (pair(a[0], a[1]),)),
            lambda o: [o],
        ),
        "hyptest.rate_function": (
            lambda a: (h.rate_function, (pair(a[0], a[1]), a[2])),
            lambda o: [o],
        ),
    }
    for name, fn in (
        ("azuma_exponent", b.azuma_exponent),
        ("thm2_exponent", b.thm2_exponent),
        ("thm3_exponent", b.thm3_exponent),
        ("cor3_exponent", b.cor3_exponent),
        ("pinsker_loosened_exponent", b.pinsker_loosened_exponent),
    ):
        table["bounds." + name] = (lambda a, fn=fn: (fn, (spec(a[0]), a[1])), ev)
    return table


SMALL_DELTA_ROUTES = frozenset({
    "specfun.f_delta", "specfun.binary_divergence", "bounds.thm2_exponent",
    "bounds.thm3_exponent", "bounds.cor3_exponent", "bounds.cor4_exponent",
    "bounds.thm4_exponent", "bounds.cor6_suboptimal",
})
ANALYTIC_DEFECTS = {
    "small_delta": "cancellation loses digits for 0 < delta <= 1e-3 (ROADMAP: divergence kernel)",
    "thm3_branch": "thm3 returns its gamma -> 1 limit f(delta) once 1 - gamma <= 1e-9",
}
# a known-defect value may read up to this many times its seed-commit
# relative error: room for round-off that moves with operation order, but
# not for a 0 where the seed commit is 74% off (thm2 at delta = 1e-8)
KNOWN_GROWTH = 1.25


def analytic_defect_kind(name: str, gamma, delta) -> Optional[str]:
    """The ``ANALYTIC_DEFECTS`` key that may explain a wrong value of ``name``, or None."""
    if delta is None:
        return None
    if name in SMALL_DELTA_ROUTES and 0.0 < delta <= 1e-3:
        return "small_delta"
    if name == "bounds.thm3_exponent" and 0.0 < 1.0 - gamma <= 1e-9:
        return "thm3_branch"
    return None


def defect_key(item_id: str, op: int, value: int) -> str:
    return f"{item_id}/{op}/{value}"


def _analytic_check(entry, extractors, defects: dict):
    ops = entry["ops"]

    def check(outs) -> Verdict:
        if isinstance(outs, Exception):
            return Verdict(False, math.inf, f"raised {outs!r}")
        worst, bad, flags, reasons = 0.0, [], {}, set()
        for op, ((name, args, refs), extract, out) in enumerate(zip(ops, extractors, outs)):
            if name == "bounds.thm4_exponent":
                flags.setdefault("thm4_at_ceiling", []).append(bool(out.params.get("at_ceiling")))
            elif name == "bounds.cor6_suboptimal":
                flags.setdefault("cor6_fallback", []).append(bool(out[1].params.get("fallback")))
            for vi, (value, ref) in enumerate(zip(extract(out), refs)):
                err = rel_error(float(value), float(ref))
                worst = max(worst, err)
                if err <= REL_TOL:
                    continue
                seed_err, kind = defects.get(defect_key(entry["id"], op, vi), (None, None))
                known = seed_err is not None and err <= KNOWN_GROWTH * seed_err
                note = "" if seed_err is None else f", {seed_err:.2e} at the seed commit"
                bad.append(f"{name}{args}: got {value!r}, want {ref} (rel {err:.2e}{note})")
                reasons.add(ANALYTIC_DEFECTS[kind] if known else None)
        known = None if None in reasons else "; ".join(sorted(reasons)) or None
        return Verdict(not bad, worst, "; ".join(bad), flags=flags, known=known)

    return check


def load_pool() -> dict:
    with open(os.path.join(HERE, "reference", "analytic_sweep.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_defects() -> dict:
    """defect_key -> (seed-commit relative error, ANALYTIC_DEFECTS key)."""
    with open(os.path.join(HERE, "golden", "analytic_defects.json"), encoding="utf-8") as fh:
        return {k: tuple(v) for k, v in json.load(fh)["values"].items()}


def select_analytic(pool: dict, seed: int) -> list:
    """Every exponent and table row, plus seeded hypothesis pairs, in pool order."""
    rng = np.random.default_rng(seed)
    rows = list(pool["exponent_rows"]) + list(pool["table_rows"])
    by_size: dict[int, list] = {}
    for entry in pool["hyptest_pool"]:
        by_size.setdefault(entry["size"], []).append(entry)
    for size in sorted(by_size):
        picks = rng.choice(len(by_size[size]), size=HYP_PICK_PER_SIZE, replace=False)
        rows += [by_size[size][i] for i in sorted(picks)]
    return rows


def build_analytic(tf, seed: int, **_) -> list:
    table, defects = _analytic_calls(tf), load_defects()
    items = []
    for entry in select_analytic(load_pool(), seed):
        calls, extractors = [], []
        for name, args, _refs in entry["ops"]:
            build, extract = table[name]
            fn, call_args = build(args)
            calls.append(Call(name, fn, call_args))
            extractors.append(extract)
        items.append(Item(entry["id"], calls, _analytic_check(entry, extractors, defects)))
    return items


# ---------------------------------------------------------------- oracle_certify

F = Fraction
LAW_KIND = {  # law label -> the exact_tail_dp span it is timed under
    "two_point": "two_point",
    "bernoulli": "two_point",
    "pm1": "two_point",
    "three_point": "three_point",
    "four_third": "four_point",
    "four_half": "four_point",
    "irrational": "quantized",
}
EXACT_CELLS = (  # (law, n); n = 400 on {+-1, +-1/2} is refused by the state cap
    ("two_point", 8), ("two_point", 64), ("two_point", 128), ("two_point", 256), ("two_point", 1000),
    ("bernoulli", 16), ("bernoulli", 48), ("bernoulli", 128), ("bernoulli", 512),
    ("pm1", 32), ("pm1", 96), ("pm1", 200), ("pm1", 1200),
    ("three_point", 8), ("three_point", 24), ("three_point", 64), ("three_point", 160),
    ("three_point", 400),
    ("four_third", 16), ("four_third", 48), ("four_third", 96), ("four_third", 256),
    ("four_half", 48), ("four_half", 400),
    ("irrational", 16), ("irrational", 48), ("irrational", 128), ("irrational", 300),
    ("irrational", 600),
)
ORACLE_DEFECTS = {
    "infeasible": "state cap counts comb(n+s-1, s-1), not the dense lattice width (ROADMAP)",
    "underflow": "tails below the smallest normal double lose digits or come back as 0 (ROADMAP)",
}
TINY = 2.2250738585072014e-308
LOG_TINY = math.log(TINY)
# (law, n, trials); the law is the same in every run, as sampling cost depends on it
MC_CELLS = (("two_point", 100, 20000), ("pm1", 100, 20000), ("three_point", 100, 20000),
            ("bernoulli", 1000, 10000))
SANDWICH_ROWS = 5
OFDM_CELLS = (16, 32, 64)  # subcarriers; the seed draws only the sampling seed


def law_support(label: str, rng=None) -> tuple[list, list]:
    """Exact support (Fractions, or floats for the irrational law) and probs.

    ``rng`` draws the parameter of the two-point and Bernoulli laws;
    without it they are eps = 1/10 and p = 3/10.
    """
    if label == "two_point":
        eps = F(1, int(rng.choice([20, 10, 4, 2])) if rng else 10)
        return [F(1), -eps / (1 - eps)], [float(eps), float(1 - eps)]
    if label == "bernoulli":
        p = F(int(rng.choice([1, 3, 5])) if rng else 3, 10)
        return [1 - p, -p], [float(p), float(1 - p)]
    if label == "pm1":
        return [F(1), F(-1)], [0.5, 0.5]
    if label == "three_point":
        return [F(1), F(0), F(-1)], [0.25, 0.5, 0.25]
    if label == "four_third":
        return [F(1), F(1, 3), F(-1, 3), F(-1)], [0.25] * 4
    if label == "four_half":
        return [F(1), F(1, 2), F(-1, 2), F(-1)], [0.25] * 4
    eps = 1.0 / (2.0 + math.sqrt(2.0))  # values (1, -(sqrt2 - 1)): no rational lattice
    return [1.0, -eps / (1.0 - eps)], [eps, 1.0 - eps]


def _log_sum(logs: list) -> float:
    if not logs:
        return -math.inf
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def reference_log_tail(values: list, probs: list, n: int, thr: float, two_sided: bool) -> float:
    """ln P(S_n >= thr) (+ ln P(S_n <= -thr) when two-sided), underflow-free.

    Two-point laws sum binomial terms in log space; rational laws with more
    points convolve densely over their integer lattice, renormalising every
    step and carrying the scale as a log.
    """
    t = Fraction(thr)
    if len(values) == 2:
        a, b = (Fraction(v) for v in values)  # a > 0 > b; S_n = k a + (n - k) b
        pa, pb = probs
        ks = range(max(0, math.ceil((t - n * b) / (a - b))), n + 1)
        if two_sided:
            ks = sorted(set(ks) | set(range(0, min(n, math.floor((-t - n * b) / (a - b))) + 1)))
        return _log_sum([
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(pa) + (n - k) * math.log(pb)
            for k in ks
        ])
    denom = math.lcm(*(v.denominator for v in values))
    ints = [int(v * denom) for v in values]
    lo = min(ints)
    step = np.zeros(max(ints) - lo + 1)
    for a, p in zip(ints, probs):
        step[a - lo] += p
    dist, log_scale = np.array([1.0]), 0.0
    for _ in range(n):
        dist = np.convolve(dist, step)
        top = dist.max()
        dist /= top
        log_scale += math.log(top)
    sums = n * lo + np.arange(dist.size)  # lattice value of each index, times denom
    mask = sums >= t * denom
    if two_sided:
        mask |= sums <= -t * denom
    picked = dist[mask]
    if picked.size == 0 or not picked.any():
        return -math.inf
    return math.log(math.fsum(picked.tolist())) + log_scale


def log_rel_error(value: float, log_ref: float) -> float:
    if log_ref == -math.inf:
        return 0.0 if value == 0.0 else math.inf
    if value <= 0.0:
        return 1.0
    return abs(math.expm1(math.log(value) - log_ref))


def _analytic_bounds(tf, values, probs, n, delta):
    """Every analytic bound of criterion 7 for this law, n and delta."""
    b = tf.bounds
    fv = [float(v) for v in values]
    d = max(abs(v) for v in fv)
    var = math.fsum(p * v * v for v, p in zip(fv, probs))
    spec = b.MartingaleSpec(d=d, sigma2=var)
    alpha = delta * d
    out = {
        "azuma": b.tail_bound(b.azuma_exponent(spec, alpha), n),
        "thm2": b.tail_bound(b.thm2_exponent(spec, alpha), n),
        "thm3": b.tail_bound(b.thm3_exponent(spec, alpha), n),
        "cor2": min(1.0, 2.0 * math.exp(-n * tf.specfun.f_delta(delta))),
        "cor3": b.tail_bound(b.cor3_exponent(spec, alpha), n),
        "cor4": b.tail_bound(b.cor4_exponent(spec.gamma, delta), n),
    }
    for m in (2, 4):
        prof = tuple(math.fsum(p * abs(v) ** l for v, p in zip(fv, probs)) / d**l for l in range(2, m + 1))
        out[f"thm4(m={m})"] = b.tail_bound(b.thm4_exponent(b.MomentProfile(prof), delta), n)
    return out


def _exact_cell(tf, label, n, rng, idx):
    values, probs = law_support(label, rng)
    fv = tuple(float(v) for v in values)
    law = tf.validate.IncrementLaw(fv, tuple(probs))
    delta = float(rng.uniform(0.05, 1.0))
    thr = delta * law.d * n
    query = tf.validate.TailQuery(n, thr, two_sided=True)
    log_ref = reference_log_tail(values, probs, n, thr, True)
    bound_refs = _analytic_bounds(tf, values, probs, n, delta)

    def check(outs) -> Verdict:
        if isinstance(outs, Exception):
            refused = isinstance(outs, tf.validate.InfeasibleError) and label == "four_half"
            return Verdict(False, None, f"raised {outs!r}", known=ORACLE_DEFECTS["infeasible"] if refused else None)
        exact = outs[0]
        err = log_rel_error(exact, log_ref)
        bad = [] if err <= REL_TOL else [f"exact {exact!r} vs reference e^{log_ref:.6f} (rel {err:.2e})"]
        vac = 0
        for name, bound in bound_refs.items():
            if exact > bound + SLACK:
                bad.append(f"{name} bound {bound!r} < exact {exact!r}")
            elif exact > bound:
                vac += 1
        underflow = len(bad) == 1 and err <= 1.0 and log_ref < LOG_TINY and exact < TINY
        known = ORACLE_DEFECTS["underflow"] if underflow else None
        return Verdict(not bad, err, "; ".join(bad), vac, len(bound_refs), known=known)

    call = Call(f"validate.exact_tail_dp.{LAW_KIND[label]}", tf.validate.exact_tail_dp, (law, query))
    return Item(f"exact_{label}_n{n}_{idx}", [call], check)


def _mc_cell(tf, label, n, trials, rng, idx):
    # the seed does not pick the law's parameter: sampling cost depends on
    # it (rng.choice branches on every draw)
    values, probs = law_support(label)
    law = tf.validate.IncrementLaw(tuple(float(v) for v in values), tuple(probs))
    thr = float(rng.uniform(0.5, 2.0)) * math.sqrt(n * law.variance)
    two_sided = bool(rng.integers(2))
    query = tf.validate.TailQuery(n, thr, two_sided=two_sided)
    ref = math.exp(reference_log_tail(values, probs, n, thr, two_sided))
    seed = int(rng.integers(2**31))

    def check(outs) -> Verdict:
        if isinstance(outs, Exception):
            return Verdict(False, None, f"raised {outs!r}")
        mc = outs[0]
        lo, hi = wilson(round(mc.estimate * mc.trials), mc.trials, WILSON_Z)
        ok = mc.trials == trials and lo <= ref <= hi
        return Verdict(ok, None, "" if ok else f"exact {ref!r} outside z=5 interval [{lo}, {hi}]")

    call = Call("validate.monte_carlo_tail", tf.validate.monte_carlo_tail, (law, query, trials, seed))
    return Item(f"mc_{label}_n{n}_{idx}", [call], check)


def wilson(hits: int, trials: int, z: float) -> tuple[float, float]:
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _sandwich_row(tf, rng, idx):
    p = float(rng.choice([0.1, 0.3, 0.5]))
    n = int(rng.integers(24, 65))
    ks = range(math.ceil(n * p), n + 1)
    calls = [Call("validate.types_sandwich_check", tf.validate.types_sandwich_check, (p, n, k / n)) for k in ks]
    num, den = Fraction(p).as_integer_ratio()
    terms = [math.comb(n, j) * num**j * (den - num) ** (n - j) for j in range(n + 1)]
    exact_tail, acc = {}, 0  # exact binomial upper tails, rounded once
    for k in range(n, -1, -1):
        acc += terms[k]
        exact_tail[k] = acc / den**n

    def check(outs) -> Verdict:
        if isinstance(outs, Exception):
            return Verdict(False, None, f"raised {outs!r}")
        worst, bad = 0.0, []
        for k, res in zip(ks, outs):
            k_eff = round(res.r_lattice * n)
            err = rel_error(res.exact, exact_tail[k_eff])
            worst = max(worst, err)
            if not (res.lower <= res.exact <= res.upper and err <= REL_TOL and k_eff >= k):
                bad.append(f"k={k}: {res}")
        return Verdict(not bad, worst, "; ".join(bad))

    return Item(f"sandwich_p{p}_n{n}_{idx}", calls, check)


def _ofdm_cell(tf, n, rng, idx):
    model = tf.codingapps.OfdmModel(n=n, M=4)
    seed = int(rng.integers(2**31))

    def check(outs) -> Verdict:
        if isinstance(outs, Exception):
            return Verdict(False, None, f"raised {outs!r}")
        rep = outs[0]
        bound = 2.0 / math.sqrt(n)
        ok = (
            rep.violations == 0
            and rep.max_increment <= bound * (1.0 + 1e-12)
            and rel_error(rep.jump_bound, bound) <= REL_TOL
            and rep.trig_identity == Fraction(2, n)
            and rep.second_moment_mean <= 2.0 / n + 5.0 * rep.second_moment_se
        )
        return Verdict(ok, None, "" if ok else f"report {rep}")

    call = Call("codingapps.ofdm_martingale_check", tf.codingapps.ofdm_martingale_check, (model, 100, seed))
    return Item(f"ofdm_n{n}_{idx}", [call], check)


def build_oracle(tf, seed: int, **_) -> list:
    rng = np.random.default_rng(seed)
    items = [_exact_cell(tf, label, n, rng, i) for i, (label, n) in enumerate(EXACT_CELLS)]
    items += [_mc_cell(tf, label, n, trials, rng, i) for i, (label, n, trials) in enumerate(MC_CELLS)]
    items += [_sandwich_row(tf, rng, i) for i in range(SANDWICH_ROWS)]
    items += [_ofdm_cell(tf, n, rng, i) for i, n in enumerate(OFDM_CELLS)]
    return items


# ---------------------------------------------------------------- cli_mix


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden", "cli_mix.json"), encoding="utf-8") as fh:
        return json.load(fh)


def expand(argv: list, workdir: str) -> list:
    return [a.replace("{work}", workdir) for a in argv]


def cli_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TAILFORGE_THREADS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli_process(argv: list, out_path: Optional[str], root: str, env: dict):
    proc = subprocess.run(
        [sys.executable, "-m", "tailforge.cli", *argv],
        cwd=root, env=env, capture_output=True, check=False,
    )
    return proc.returncode, proc.stdout, _read_out(out_path)


def run_cli_inprocess(main, argv: list, out_path: Optional[str]):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, buf.getvalue().encode("utf-8"), _read_out(out_path)


def _read_out(path: Optional[str]):
    if path is None:
        return None
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    os.remove(path)
    return data


def cli_check(case: dict):
    want_out = case["stdout"].encode("utf-8")
    want_file = None if case["out_file"] is None else case["out_file"].encode("utf-8")

    def check(outs) -> Verdict:
        if isinstance(outs, Exception):
            return Verdict(False, None, f"raised {outs!r}")
        code, stdout, out_file = outs[0]
        bad = []
        if code != case["exit"]:
            bad.append(f"exit {code}, want {case['exit']}")
        if stdout != want_out:
            bad.append("stdout differs from golden")
        if out_file != want_file:
            bad.append("--out file differs from golden")
        return Verdict(not bad, None, "; ".join(bad))

    return check


def select_cli(golden: dict, seed: int) -> list:
    rng = np.random.default_rng(seed)
    cases = golden["cases"]
    return [cases[i] for i in rng.permutation(len(cases))]


def build_cli(tf, seed: int, root: str, workdir: str, **_) -> list:
    env = cli_env(root)
    items = []
    for case in select_cli(load_golden(), seed):
        argv = expand(case["argv"], workdir)
        out_path = None if case["out"] is None else expand([case["out"]], workdir)[0]
        call = Call(f"cli.process.{case['argv'][0]}", run_cli_process, (argv, out_path, root, env))
        items.append(Item(case["id"], [call], cli_check(case)))
    return items


PROBE = "probe."  # span-name prefix that keeps probe calls apart from the workload's


def probes(tf, root: str, names) -> list:
    """One small call into each layer function of ``names``, as items.

    A traced run probes only the functions its workload never calls, so
    that their time metrics read a measurement rather than a constant 0.
    The spans are named ``probe.<name>`` and never mix with the
    workload's own spans.
    """
    b, sf, h, c, v = tf.bounds, tf.specfun, tf.hyptest, tf.codingapps, tf.validate
    spec = b.MartingaleSpec(d=1.0, sigma2=0.5)
    pair = h.HypothesisPair.from_probs((0.4, 0.6), (0.6, 0.4))
    channel = c.q_ary_channel(3, 0.04)
    law = v.two_point_increment(1.0, 0.25)
    calls = [
        ("specfun.binary_divergence", sf.binary_divergence, (0.6, 0.4)),
        ("specfun.f_delta", sf.f_delta, (0.5,)),
        ("specfun.big_b", sf.big_b, (0.5,)),
        ("specfun.lambert_w0_exparg", sf.lambert_w0_exparg, (3.0,)),
        ("specfun.lambert_wm1_logarg", sf.lambert_wm1_logarg, (-5.0,)),
        ("bounds.thm2_exponent", b.thm2_exponent, (spec, 0.5)),
        ("bounds.thm3_exponent", b.thm3_exponent, (spec, 0.5)),
        ("bounds.cor3_exponent", b.cor3_exponent, (spec, 0.5)),
        ("bounds.cor4_exponent", b.cor4_exponent, (0.5, 0.5)),
        ("bounds.thm4_exponent", b.thm4_exponent, (b.MomentProfile((0.5, 0.4, 0.35)), 0.5)),
        ("bounds.cor6_suboptimal", b.cor6_suboptimal, (b.MomentProfile((0.5, 0.4, 0.35)), 0.5)),
        ("hyptest.rate_function", h.rate_function, (pair, 0.0)),
        ("hyptest.chernoff_information", h.chernoff_information, (pair,)),
        ("hyptest.exact_exponents", h.exact_exponents, (pair, h.Thresholds.single(0.0))),
        ("codingapps.z1", c.z1, (channel,)),
        ("codingapps.z2m", c.z2m, (channel, 4)),
        ("codingapps.z2m_tilde", c.z2m_tilde, (channel, 4)),
        ("codingapps.ofdm_martingale_check", c.ofdm_martingale_check, (c.OfdmModel(n=8, M=4), 5, 1)),
        ("validate.monte_carlo_tail", v.monte_carlo_tail, (law, v.TailQuery(16, 4.0), 1000, 1)),
        ("validate.types_sandwich_check", v.types_sandwich_check, (0.3, 20, 0.5)),
    ]
    for label in ("two_point", "three_point", "four_third", "irrational"):
        values, probs = law_support(label)
        law_l = v.IncrementLaw(tuple(float(x) for x in values), tuple(probs))
        calls.append((f"validate.exact_tail_dp.{LAW_KIND[label]}", v.exact_tail_dp,
                      (law_l, v.TailQuery(16, 8.0, two_sided=True))))
    env = cli_env(root)
    first = {}
    for case in load_golden()["cases"]:
        if case["exit"] == 0 and case["out"] is None:
            first.setdefault(case["argv"][0], case["argv"])
    for sub, argv in first.items():
        calls.append((f"cli.process.{sub}", run_cli_process, (argv, None, root, env)))
        calls.append((f"cli.main.{sub}", run_cli_inprocess, (tf.cli.main, argv, None)))
    return [Item(PROBE + name, [Call(PROBE + name, fn, args)], None)
            for name, fn, args in calls if name in names]


FACTORIES = {
    "analytic_sweep": build_analytic,
    "oracle_certify": build_oracle,
    "cli_mix": build_cli,
}
WORKLOADS = tuple(FACTORIES)
