"""Short traced benchmark worker runs complete and certify their pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["analytic_sweep", "oracle_certify"])
def test_traced_worker(workload):
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0.2",
            "--trace", "1", "--root", str(ROOT),
        ],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["unexpected_failures"] == {}
    assert "import.numpy_ms" in result["layers"]
