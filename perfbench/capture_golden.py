"""Capture the seed-commit behaviour the benchmark compares against.

Against ``src/`` of the checkout it sits in, writes:

* ``perfbench/golden/cli_mix.json``: every case of the fixed CLI mix below
  run as ``python -m tailforge.cli``, with its argv, exit code, stdout and
  ``--out`` file contents. The benchmark compares against these bytes
  exactly, and a behaviour-preserving refactor must leave them unchanged.
* ``perfbench/golden/analytic_defects.json``: the relative error, against
  the mpmath pool, of every ``analytic_sweep`` value that misses the
  1e-10 tolerance, with the documented defect that explains it. A value
  stays a known defect only while its error stays within
  ``workloads.KNOWN_GROWTH`` times this one. A miss that no documented
  defect explains stops the capture.

Capture once at the commit whose behaviour is the contract, then commit
the JSON:  python3 perfbench/capture_golden.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    HERE, REL_TOL, _analytic_calls, analytic_defect_kind, cli_env, defect_key, expand, load_pool, rel_error,
    run_cli_process,
)

IN = "perfbench/inputs/"
# (id, argv, --out target or None, expected exit code)
CASES = [
    ("exp_csv", ["exponents", "--gamma", "0.5", "--grid", "0:1:11"], None, 0),
    ("exp_json", ["exponents", "--gamma", "0.25", "--grid", "0:1:21", "--format", "json"], None, 0),
    ("exp_config_bits", ["exponents", "--config", IN + "exponents.json", "--units", "bits"], None, 0),
    ("exp_small_delta_out", ["exponents", "--gamma", "0.9", "--grid", "1e-8:1e-2:6",
                             "--precision", "15", "--out", "{work}/exp.csv"], "{work}/exp.csv", 0),
    ("pw_table1", ["pairwise", "--qary", "2,3,4,5,10", "0.04"], None, 0),
    ("pw_tilde_json", ["pairwise", "--qary", "2..5", "0.04", "--m", "2,4", "--tilde",
                       "--format", "json"], None, 0),
    ("pw_config", ["pairwise", "--config", IN + "channel.json", "--m", "2,4,6"], None, 0),
    ("pw_out", ["pairwise", "--qary", "3", "0.1", "--m", "4", "--format", "json",
                "--out", "{work}/pw.json"], "{work}/pw.json", 0),
    ("hyp_example", ["hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4"], None, 0),
    ("hyp_config_bits", ["hypothesis", "--config", IN + "hypothesis.json", "--format", "json",
                         "--units", "bits"], None, 0),
    ("hyp_mdp", ["hypothesis", "--p1", "0.2,0.3,0.5", "--p2", "0.5,0.3,0.2",
                 "--thresholds", "0.05,-0.05", "--eta", "0.75"], None, 0),
    ("ldpc_regular", ["ldpc", "--regular", "3,6", "--n", "1024", "--alpha", "0.05"], None, 0),
    ("ldpc_config_json", ["ldpc", "--config", IN + "ldpc.json", "--alpha", "0.1",
                          "--format", "json"], None, 0),
    ("ofdm_bounds", ["ofdm", "--n", "64", "--alpha", "4"], None, 0),
    ("ofdm_check_json", ["ofdm", "--n", "16", "--alpha", "1.0", "--check", "--seed", "7",
                         "--trials", "40", "--format", "json"], None, 0),
    ("sim_twopoint", ["simulate", "--seed", "1", "--k", "20", "--trials", "2000"], None, 0),
    ("sim_law_out", ["simulate", "--law", IN + "law3.json", "--k", "30", "--threshold", "6",
                     "--two-sided", "--seed", "2", "--trials", "2000",
                     "--out", "{work}/sim.csv"], "{work}/sim.csv", 0),
    ("exp_gamma1_bits_json", ["exponents", "--gamma", "1.0", "--grid", "0:1:6", "--units", "bits",
                              "--format", "json"], None, 0),
    ("exp_beyond_one", ["exponents", "--gamma", "0.01", "--grid", "0.9:1.1:5"], None, 0),
    ("exp_low_precision", ["exponents", "--gamma", "0.75", "--grid", "0:1:41", "--precision", "3"], None, 0),
    ("exp_config_out_json", ["exponents", "--config", IN + "exponents.json", "--format", "json",
                             "--out", "{work}/exp.json"], "{work}/exp.json", 0),
    ("pw_q10_all_m", ["pairwise", "--qary", "10", "0.04", "--m", "2,4,6,8,10", "--tilde"], None, 0),
    ("pw_bsc_bits", ["pairwise", "--qary", "2", "0.11", "--units", "bits"], None, 0),
    ("pw_config_tilde_out", ["pairwise", "--config", IN + "channel.json", "--tilde", "--format", "json",
                             "--out", "{work}/pw_cfg.json"], "{work}/pw_cfg.json", 0),
    ("hyp_swapped_json", ["hypothesis", "--p1", "0.1,0.9", "--p2", "0.9,0.1", "--format", "json"], None, 0),
    ("hyp_erasure_out", ["hypothesis", "--p1", "0.3,0.3,0.4", "--p2", "0.4,0.3,0.3",
                         "--thresholds", "0.001,-0.001", "--out", "{work}/hyp.csv"], "{work}/hyp.csv", 0),
    ("hyp_config_mdp", ["hypothesis", "--config", IN + "hypothesis.json", "--eta", "0.6",
                        "--mdp-n", "100000"], None, 0),
    ("ldpc_regular_json", ["ldpc", "--regular", "4,8", "--n", "4096", "--alpha", "0.01",
                           "--format", "json"], None, 0),
    ("ldpc_large_alpha", ["ldpc", "--regular", "3,6", "--alpha", "0.5"], None, 0),
    ("ofdm_8psk", ["ofdm", "--n", "256", "--M", "8", "--alpha", "3", "--precision", "10"], None, 0),
    ("ofdm_check_bpsk", ["ofdm", "--n", "8", "--M", "2", "--alpha", "2", "--check", "--seed", "3",
                         "--trials", "20"], None, 0),
    ("sim_twopoint_json", ["simulate", "--seed", "5", "--eps", "0.1", "--x", "0.3", "--k", "40",
                           "--trials", "5000", "--format", "json"], None, 0),
    ("sim_law_small", ["simulate", "--law", IN + "law3.json", "--k", "12", "--threshold", "3",
                       "--seed", "9", "--trials", "1000"], None, 0),
    ("bad_ldpc_no_ensemble", ["ldpc", "--alpha", "0.1"], None, 2),
    ("bad_missing_config", ["exponents", "--config", IN + "missing.json"], None, 2),
    ("bad_hyp_identical", ["hypothesis", "--p1", "0.5,0.5", "--p2", "0.5,0.5"], None, 2),
    ("bad_sim_no_threshold", ["simulate", "--law", IN + "law3.json", "--k", "10", "--seed", "1"], None, 2),
    ("bad_sim_no_seed", ["simulate", "--k", "20"], None, 2),
    ("bad_exp_no_gamma", ["exponents", "--grid", "0:1:5"], None, 2),
    ("bad_pw_p_range", ["pairwise", "--qary", "3", "0.7"], None, 2),
    ("bad_pw_odd_m", ["pairwise", "--qary", "3", "0.04", "--m", "2..4"], None, 2),
    ("bad_hyp_alphabet", ["hypothesis", "--p1", "0.5,0.5", "--p2", "0.3,0.3,0.4"], None, 2),
    ("bad_precision", ["exponents", "--gamma", "0.5", "--precision", "20"], None, 2),
    ("bad_ofdm_no_seed", ["ofdm", "--n", "16", "--alpha", "1.0", "--check"], None, 2),
]


def capture_cli(root: str) -> dict:
    workdir = os.path.join(".perfbench_work", f"golden-{os.getpid()}")
    os.makedirs(os.path.join(root, workdir), exist_ok=True)
    env = cli_env(root)
    cases = []
    try:
        for case_id, argv, out, want_exit in CASES:
            out_path = None if out is None else os.path.join(root, expand([out], workdir)[0])
            code, stdout, out_file = run_cli_process(expand(argv, workdir), out_path, root, env)
            if code != want_exit:
                raise SystemExit(f"{case_id}: exit {code}, expected {want_exit}")
            cases.append(
                {
                    "id": case_id,
                    "argv": argv,
                    "out": out,
                    "exit": code,
                    "stdout": stdout.decode("utf-8"),
                    "out_file": None if out_file is None else out_file.decode("utf-8"),
                }
            )
    finally:
        shutil.rmtree(os.path.join(root, workdir), ignore_errors=True)
    return {"generator": "perfbench/capture_golden.py", "cases": cases}


def capture_analytic_defects(root: str) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    import tailforge
    from tailforge import bounds, codingapps, hyptest, specfun  # noqa: F401

    table, pool = _analytic_calls(tailforge), load_pool()
    values = {}
    for entry in pool["exponent_rows"] + pool["table_rows"] + pool["hyptest_pool"]:
        for op, (name, args, refs) in enumerate(entry["ops"]):
            build, extract = table[name]
            fn, call_args = build(args)
            for vi, (value, ref) in enumerate(zip(extract(fn(*call_args)), refs)):
                err = rel_error(float(value), float(ref))
                if err <= REL_TOL:
                    continue
                kind = analytic_defect_kind(name, entry.get("gamma"), entry.get("delta"))
                if kind is None:
                    raise SystemExit(f"{entry['id']} {name}{args}: rel error {err:.2e}, no documented defect")
                values[defect_key(entry["id"], op, vi)] = [err, kind]
    return {"generator": "perfbench/capture_golden.py", "values": values}


def write(name: str, data: dict) -> None:
    path = os.path.join(HERE, "golden", name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def main() -> int:
    root = os.path.dirname(HERE)
    write("cli_mix.json", capture_cli(root))
    write("analytic_defects.json", capture_analytic_defects(root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
