"""Reduced-size smoke test of the benchmark command.

    python3 -m pytest perfbench/smoke_test.py -q

It lives outside ``tests/`` so the tier-1 suite never collects it.  Every
workload runs once untraced and once traced at ``--smoke`` sizes, and its
result line must be correct, complete and free of failed operations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_smoke(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds",
                "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["attempted"] > 0 and result["failed"] == 0
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "crosscheck", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
