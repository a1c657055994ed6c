"""The CLI reproduces the committed golden outputs byte for byte.

Each case of perfbench/golden/cli_mix.json (captured by
perfbench/capture_golden.py) runs in-process through ``cli.main`` with the
working directory at the repository root, so its relative input paths
resolve; ``{work}`` in an argument names a per-test temporary directory.
The exit code, stdout and the ``--out`` file must all match exactly, which
makes these cases the gate for behaviour-preserving refactors.
"""

import json
from pathlib import Path

import pytest

from tailforge.cli import main

ROOT = Path(__file__).resolve().parents[1]
CASES = json.loads(
    (ROOT / "perfbench" / "golden" / "cli_mix.json").read_text(encoding="utf-8")
)["cases"]


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden_case(case, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    code = main([a.replace("{work}", str(tmp_path)) for a in case["argv"]])
    out, _ = capsys.readouterr()
    assert code == case["exit"]
    assert out.encode("utf-8") == case["stdout"].encode("utf-8")
    if case["out"] is not None:
        written = Path(case["out"].replace("{work}", str(tmp_path))).read_bytes()
        assert written == case["out_file"].encode("utf-8")
