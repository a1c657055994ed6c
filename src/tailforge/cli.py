"""Command-line front end: exponent grids, pairwise-error tables, reports.

Emits CSV (RFC-4180 style, header row, '.' decimal separator, 'inf' for
+infinity) or JSON. Identical inputs and seed produce byte-identical
output. Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Each subcommand imports the application module it runs, so that a process
compiles and loads only that one.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import bounds
from .bounds import MartingaleSpec
from .pmf import FinitePmf
from .specfun import ConvergenceError, InfeasibleError, f_delta

LN2 = math.log(2.0)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _fmt(value, precision: int, units_scale: float = 1.0) -> str:
    """Format one table cell; 'inf' token for +infinity."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v * units_scale, f".{precision}g")


def _emit(columns, rows, args, exponent_columns=()):
    """Write rows (list of dicts) as CSV or JSON to --out or stdout."""
    scale = 1.0 / LN2 if exponent_columns and args.units == "bits" else 1.0
    scales = [scale if c in exponent_columns else 1.0 for c in columns]
    textual = [
        [_fmt(row[c], args.precision, k) for c, k in zip(columns, scales)]
        for row in rows
    ]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(textual)
        payload = buf.getvalue()
    else:
        table = {"columns": list(columns), "rows": textual}
        payload = json.dumps(table, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(payload)


def _load_json(path: str, what: str, *required: str) -> dict:
    """The JSON object of the input format ``what`` at ``path`` (see ``_fields``)."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return _fields(obj, what, *required)


def _fields(obj, what: str, *required: str) -> dict:
    """obj, a JSON object holding each required field; other fields are ignored."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must hold a JSON object")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{what} missing field {key!r}")
    return obj


def _pmf(obj: dict, what: str, key: str, symbols=None) -> FinitePmf:
    """FinitePmf of field ``key`` on ``symbols`` (default 0..n-1); errors name it."""
    try:
        return FinitePmf(range(len(obj[key])) if symbols is None else symbols, obj[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} field {key!r}: {exc}") from exc


def _read_channel(path: str):
    """The channel JSON at ``path`` as a codingapps.DmcChannel."""
    from .codingapps import DmcChannel
    obj = _load_json(path, "channel JSON", "outputs", "p0", "p1", "sym")
    try:
        outputs = tuple(obj["outputs"])
        p0, p1 = (_pmf(obj, "channel JSON", key, outputs) for key in ("p0", "p1"))
        return DmcChannel(outputs, p0, p1, obj["sym"])
    except TypeError as exc:  # outputs or sym is not a list
        raise ConfigError(f"channel JSON: {exc}") from exc


def _read_ldpc(path: str):
    """The LDPC ensemble JSON at ``path`` as a codingapps.LdpcEnsemble."""
    from .codingapps import LdpcEnsemble
    obj = _load_json(path, "LDPC JSON", "n", "lambda", "rho")
    try:
        return LdpcEnsemble(obj["n"], obj["lambda"], obj["rho"])
    except TypeError as exc:  # lambda or rho is not a list
        raise ConfigError(f"LDPC JSON: {exc}") from exc


def _parse_grid(spec: str):
    """'start:stop:count' -> list of floats."""
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}, want start:stop:count") from exc
    if count < 1:
        raise ConfigError("grid count must be >= 1")
    step = (stop - start) / (count - 1) if count > 1 else 0.0
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"bad grid spec {spec!r}: start, stop and step must be finite")
    if count == 1:
        return [start]
    return [start + i * step for i in range(count)]


def _parse_int_list(spec: str):
    """Comma list with 'a..b' ranges: '2,4,6' or '2..10'."""
    out = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            a, b = part.split("..")
            out.extend(range(int(a), int(b) + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise ConfigError(f"empty list spec {spec!r}")
    return out


def _parse_float_list(spec: str):
    try:
        return [float(p) for p in spec.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad float list {spec!r}") from exc


def cmd_exponents(args) -> int:
    gammas = [args.gamma] if args.gamma is not None else []
    deltas = _parse_grid(args.grid) if args.grid else []
    cfg = _load_json(args.config, "exponents config") if args.config else {}
    for key, flag, values in (("gamma", "--gamma", gammas), ("delta", "--grid", deltas)):
        entries = cfg.get(key, [])
        if key in cfg and values:
            raise ConfigError(f"{flag} applies only without a {key!r} list in --config")
        if not isinstance(entries, list):
            raise ConfigError(f"config field {key!r} must be a list")
        values.extend(bounds.as_real(v, f"config field {key!r} entry") for v in entries)
    if not gammas:
        raise ConfigError("need --gamma or a config with a 'gamma' list")
    if not deltas:
        deltas = _parse_grid("0:1:101")
    rows = []
    for g in gammas:
        spec = MartingaleSpec(d=1.0, sigma2=g)
        for dl in deltas:
            rows.append(
                {
                    "gamma": g,
                    "delta": dl,
                    "azuma": bounds.azuma_exponent(spec, dl).exponent,
                    "cor2_f": f_delta(dl),
                    "thm2": bounds.thm2_exponent(spec, dl).exponent,
                    "thm3": bounds.thm3_exponent(spec, dl).exponent,
                    "cor4": bounds.cor4_exponent(g, dl).exponent,
                    "pinsker": bounds.pinsker_loosened_exponent(spec, dl).exponent,
                    "refined_pinsker": bounds.refined_pinsker_exponent(dl).exponent,
                    "cor3": bounds.cor3_exponent(spec, dl).exponent,
                    "chung_lu": bounds.chung_lu_exponent(g, dl).exponent,
                }
            )
    columns = list(rows[0])
    _emit(columns, rows, args, exponent_columns=set(columns) - {"gamma", "delta"})
    return EXIT_OK


def cmd_pairwise(args) -> int:
    from . import codingapps
    if args.config:
        if args.qary:
            raise ConfigError("--qary applies only without --config")
        channels = [("config", _read_channel(args.config))]
    elif args.qary:
        qspec, p = args.qary
        try:
            p = float(p)
        except ValueError as exc:
            raise ConfigError(f"bad crossover probability {p!r}") from exc
        qs = _parse_int_list(qspec)
        channels = [(f"qary({q},{p:g})", codingapps.q_ary_channel(q, p)) for q in qs]
    else:
        raise ConfigError("need --config CHANNEL.json or --qary QLIST P")
    m_list = _parse_int_list(args.m) if args.m else [2, 4, 6, 8, 10]
    columns = ["channel", "zB", "z1"]
    columns += [f"z2_{m}" for m in m_list]
    if args.tilde:
        columns += [f"z2tilde_{m}" for m in m_list]
    rows = []
    for label, ch in channels:
        row = {
            "channel": label,
            "zB": codingapps.bhattacharyya(ch).base,
            "z1": codingapps.z1(ch).base,
        }
        for m in m_list:
            row[f"z2_{m}"] = codingapps.z2m(ch, m).base
        if args.tilde:
            for m in m_list:
                row[f"z2tilde_{m}"] = codingapps.z2m_tilde(ch, m).base
        rows.append(row)
    _emit(columns, rows, args)
    return EXIT_OK


def _pair_from_args(args):
    from .hyptest import HypothesisPair, Thresholds
    thresholds = Thresholds.single(0.0)
    if args.config:
        if args.p1 or args.p2 or args.thresholds:
            raise ConfigError("--p1, --p2 and --thresholds apply only without --config")
        cfg = _load_json(args.config, "hypothesis config", "p1", "p2")
        pair = HypothesisPair(*(_pmf(cfg, "hypothesis config", k) for k in ("p1", "p2")))
        if "thresholds" in cfg:
            keys = ("lambda_bar", "lambda_under")
            t = _fields(cfg["thresholds"], "hypothesis config field 'thresholds'", *keys)
            thresholds = Thresholds(*(t[key] for key in keys))
        return pair, thresholds
    if args.p1 and args.p2:
        pair = HypothesisPair.from_probs(
            _parse_float_list(args.p1), _parse_float_list(args.p2)
        )
        if args.thresholds:
            t = _parse_float_list(args.thresholds)
            if len(t) != 2:
                raise ConfigError(
                    "--thresholds wants LAMBDA_BAR,LAMBDA_UNDER (two numbers), "
                    f"got {args.thresholds!r}"
                )
            thresholds = Thresholds(*t)
        return pair, thresholds
    raise ConfigError("need --config PAIR.json or --p1/--p2")


def cmd_hypothesis(args) -> int:
    from . import hyptest
    if args.eta is None and (args.eps1 is not None or args.mdp_n is not None):
        raise ConfigError("--eps1 and --mdp-n apply only to --eta")
    pair, thresholds = _pair_from_args(args)
    exact = hyptest.exact_exponents(pair, thresholds)
    refined = hyptest.refined_lower_bounds(pair, thresholds)
    azuma = hyptest.azuma_lower_bounds(pair, thresholds)
    mp = hyptest.martingale_params(pair, thresholds)
    chernoff = hyptest.chernoff_information(pair)
    rows = [
        {"quantity": "chernoff_information", "value": chernoff},
        {"quantity": "exact_err_or_erasure", "value": exact.err_or_erasure},
        {"quantity": "exact_error", "value": exact.error},
        {"quantity": "refined_err_or_erasure", "value": refined.err_or_erasure},
        {"quantity": "refined_error", "value": refined.error},
        {"quantity": "azuma_err_or_erasure", "value": azuma.err_or_erasure},
        {"quantity": "azuma_error", "value": azuma.error},
        {"quantity": "gamma1", "value": mp.gamma1},
        {"quantity": "gamma2", "value": mp.gamma2},
        {"quantity": "d1", "value": mp.d1},
        {"quantity": "d2", "value": mp.d2},
    ]
    if args.eta is not None:
        eps1 = 0.05 if args.eps1 is None else args.eps1
        n = 10**4 if args.mdp_n is None else args.mdp_n
        md = hyptest.moderate_deviation_hyptest(pair, eps1=eps1, eta=args.eta, n=n)
        # mdp_bound is a probability: formatted here so --units never scales it
        bound = _fmt(bounds.tail_bound(md.exponent, 1, two_sided=False), args.precision)
        rows += [
            {"quantity": "mdp_bound", "value": bound},
            {"quantity": "mdp_asymptotic_slope", "value": md.asymptotic_slope},
        ]
    _emit(["quantity", "value"], rows, args, exponent_columns={"value"})
    return EXIT_OK


def cmd_ldpc(args) -> int:
    from . import codingapps
    if args.config:
        if args.n is not None:
            raise ConfigError("--n applies only to --regular")
        if args.regular:
            raise ConfigError("--regular applies only without --config")
        ens = _read_ldpc(args.config)
    elif args.regular:
        try:
            dv, dc = (int(v) for v in args.regular.split(","))
        except ValueError:
            raise ConfigError(
                f"--regular wants DV,DC (two integers), got {args.regular!r}"
            ) from None
        n = 1024 if args.n is None else args.n
        ens = codingapps.LdpcEnsemble.regular(n, dv, dc)
    else:
        raise ConfigError("need --config LDPC.json or --regular DV,DC")
    res = codingapps.ldpc_cycles_bound(ens, args.alpha)
    rows = [
        {"quantity": "design_rate", "value": ens.design_rate},
        {"quantity": "avg_right_degree", "value": ens.avg_right_degree},
        {"quantity": "beta", "value": res.beta},
        {"quantity": "bound", "value": bounds.tail_bound(res.exponent, res.n)},
        {"quantity": "azuma_bound", "value": bounds.tail_bound(res.azuma, res.n)},
    ]
    _emit(["quantity", "value"], rows, args)
    return EXIT_OK


def cmd_ofdm(args) -> int:
    from . import codingapps
    if not args.check and (args.seed is not None or args.trials is not None):
        raise ConfigError("--seed and --trials apply only to --check")
    model = codingapps.OfdmModel(n=args.n, M=args.M)
    res = codingapps.ofdm_cf_bounds(model, args.alpha)
    rows = [
        {"quantity": "azuma_bound", "value": bounds.tail_bound(res.azuma, 1)},
        {"quantity": "refined_bound", "value": bounds.tail_bound(res.refined, 1)},
        {"quantity": "refined_limit", "value": bounds.tail_bound(res.refined_limit, 1)},
    ]
    if args.check:
        if args.seed is None:
            raise ConfigError("--check requires --seed")
        trials = 200 if args.trials is None else args.trials
        rep = codingapps.ofdm_martingale_check(model, trials=trials, seed=args.seed)
        rows += [
            {"quantity": "jump_bound", "value": rep.jump_bound},
            {"quantity": "max_increment", "value": rep.max_increment},
            {"quantity": "violations", "value": rep.violations},
            {"quantity": "second_moment_mean", "value": rep.second_moment_mean},
            {"quantity": "second_moment_target", "value": rep.second_moment_target},
            {"quantity": "trig_identity", "value": str(rep.trig_identity)},
        ]
    _emit(["quantity", "value"], rows, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import validate
    from .validate import TailQuery
    if args.seed is None:
        raise ConfigError("simulate requires --seed")
    two_point = (args.eps, args.d, args.x)
    if args.law == "twopoint":
        if args.threshold is not None or args.two_sided:
            raise ConfigError("--threshold and --two-sided apply only to a --law file")
        eps, d, x = (v if f is None else f for f, v in zip(two_point, (0.01, 1.0, 0.5)))
        comp = validate.example3_comparison(eps, d, x, args.k)
        law = validate.two_point_increment(d, eps)
        query = TailQuery(n=args.k, threshold=x * args.k, two_sided=False)
        rows = [
            {"quantity": "azuma_bound", "value": comp.azuma},
            {"quantity": "thm2_bound", "value": comp.thm2},
            {"quantity": "exact_tail", "value": comp.exact},
        ]
    else:
        if two_point != (None, None, None):
            raise ConfigError("--eps, --d and --x apply only to the two-point law")
        cfg = _load_json(args.law, "increment-law JSON", "values", "probs")
        try:
            law = validate.IncrementLaw(cfg["values"], cfg["probs"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"increment-law JSON: {exc}") from exc
        if args.threshold is None:
            raise ConfigError("custom law simulation requires --threshold")
        query = TailQuery(n=args.k, threshold=args.threshold, two_sided=args.two_sided)
        rows = [{"quantity": "exact_tail", "value": validate.exact_tail_dp(law, query)}]
    mc = validate.monte_carlo_tail(law, query, args.trials, args.seed)
    rows += [
        {"quantity": "mc_estimate", "value": mc.estimate},
        {"quantity": "mc_wilson_lower", "value": mc.lower},
        {"quantity": "mc_wilson_upper", "value": mc.upper},
    ]
    _emit(["quantity", "value"], rows, args)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--precision", type=int, default=6, help="significant digits, 1..15"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailforge",
        description="Tail exponents for bounded-jump martingales and their "
        "coding/hypothesis-testing applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="exponent grid over (gamma, delta)")
    _add_common(p)
    p.add_argument("--config", help="JSON with gamma and delta lists")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--gamma", type=float)
    p.add_argument("--grid", help="delta grid start:stop:count (default 0:1:101)")
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("pairwise", help="pairwise-error bases for a DMC")
    _add_common(p)
    p.add_argument("--config", help="channel JSON")
    p.add_argument(
        "--units", choices=("nats", "bits"), default="nats", help="no effect"
    )
    p.add_argument(
        "--qary",
        nargs=2,
        metavar=("QLIST", "P"),
        help="q-ary symmetric channels, e.g. --qary 2,3,4,5,10 0.04",
    )
    p.add_argument("--m", help="even moment orders, e.g. 2,4,6,8,10")
    p.add_argument("--tilde", action="store_true", help="add closed-form bases")
    p.set_defaults(func=cmd_pairwise)

    p = sub.add_parser("hypothesis", help="binary hypothesis testing exponents")
    _add_common(p)
    p.add_argument("--config", help="hypothesis-pair JSON")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--p1", help="comma-separated pmf, e.g. 0.4,0.6")
    p.add_argument("--p2", help="comma-separated pmf, e.g. 0.6,0.4")
    p.add_argument("--thresholds", help="lambda_bar,lambda_under")
    p.add_argument(
        "--eta", type=float, help="moderate-deviations exponent in (1/2, 1)"
    )
    p.add_argument("--eps1", type=float, help="with --eta (default 0.05)")
    p.add_argument("--mdp-n", type=int, help="with --eta (default 10**4)")
    p.set_defaults(func=cmd_hypothesis)

    p = sub.add_parser("ldpc", help="cycle-space concentration for an ensemble")
    _add_common(p)
    p.add_argument("--config", help="LDPC ensemble JSON")
    p.add_argument("--regular", help="regular ensemble DV,DC")
    p.add_argument("--n", type=int, help="block length for --regular (default 1024)")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=cmd_ldpc)

    p = sub.add_parser("ofdm", help="crest-factor concentration bounds")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, default=4)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--check", action="store_true", help="sample Doob increments")
    p.add_argument("--trials", type=int, help="with --check (default 200)")
    p.set_defaults(func=cmd_ofdm)

    p = sub.add_parser("simulate", help="exact/Monte-Carlo tails for a law")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--law",
        default="twopoint",
        help="'twopoint' or a JSON file with values/probs",
    )
    p.add_argument("--eps", type=float, help="two-point law (default 0.01)")
    p.add_argument("--d", type=float, help="two-point law (default 1)")
    p.add_argument("--x", type=float, help="two-point law (default 0.5)")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--threshold", type=float)
    p.add_argument("--two-sided", action="store_true")
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.precision <= 15:
        print("error: --precision must be in 1..15", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (ConvergenceError, InfeasibleError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError as exc:
        detail = exc.args[-1]  # a math range error's args are (errno, text)
        print(f"numerical failure: floating-point overflow: {detail}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError and invalid user parameters
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
