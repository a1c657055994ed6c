"""A fresh ``python -m tailforge.cli`` process loads only what its subcommand runs.

The golden replay (test_cli_golden.py) runs every case in one interpreter, so
it never executes a subcommand's own imports in a new process. Each case here
starts one under ``-X importtime``, which lists every module the process
imports on stderr, and compares its stdout with the golden bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CASES = {
    c["id"]: c
    for c in json.loads(
        (ROOT / "perfbench" / "golden" / "cli_mix.json").read_text(encoding="utf-8")
    )["cases"]
}
# what `import tailforge` and the CLI's top level load for every subcommand
CORE = {
    "tailforge",
    "tailforge.bounds",
    "tailforge.pmf",
    "tailforge.specfun",
}


def run_importtime(*argv):
    """The finished ``python -X importtime argv`` and the tailforge modules it
    imported; a module name ends each ``import time:`` line of stderr."""
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, timeout=120, check=False,
    )
    modules = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.decode("utf-8").splitlines()
        if line.startswith("import time:")
    }
    return proc, modules


@pytest.mark.parametrize(
    "case_id,runs",
    [
        ("exp_csv", set()),
        ("pw_config", {"tailforge.codingapps"}),
        ("hyp_mdp", {"tailforge.hyptest"}),
        ("ldpc_regular", {"tailforge.codingapps"}),
        ("ofdm_check_bpsk", {"tailforge.codingapps"}),
        ("sim_law_small", {"tailforge.validate"}),
    ],
    ids=["exponents", "pairwise", "hypothesis", "ldpc", "ofdm", "simulate"],
)
def test_subcommand_loads_only_the_module_it_runs(case_id, runs):
    case = CASES[case_id]
    assert case["exit"] == 0 and case["out"] is None
    proc, modules = run_importtime("-m", "tailforge.cli", *case["argv"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == case["stdout"].encode("utf-8")
    assert {m for m in modules if m.split(".")[0] == "tailforge"} == CORE | runs


def test_importing_the_cli_still_loads_numpy():
    # perfbench's import.numpy_ms reads the numpy row of this very command
    proc, modules = run_importtime("-c", "import tailforge.cli")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "numpy" in modules
    assert {m for m in modules if m.split(".")[0] == "tailforge"} == CORE | {
        "tailforge.cli"
    }


def test_moved_names_keep_their_old_homes():
    import tailforge
    from tailforge import hyptest, pmf, specfun, validate

    assert tailforge.InfeasibleError is validate.InfeasibleError
    assert validate.InfeasibleError is specfun.InfeasibleError
    assert hyptest.LlrMartingale is pmf.LlrMartingale
