"""Tiny-size smoke test of the service benchmark.

Runs every workload at ``--size tiny`` with tracing off and on, and
checks that the result line carries exactly the metrics ``BENCHMARK.json``
names, with their units.  Also pins the dictionary oracle against a
plain set-based replay, and checks that the benchmark refuses to run
without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "0.3",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: body["unit"] for name, body in result["metrics"].items()
    }
    for name, body in result["metrics"].items():
        assert isinstance(body["value"], (int, float)), name
        # The human-readable block prints every metric by name and unit.
        assert any(line.split()[:1] == [name] for line in lines), name
    assert any(line.startswith("error_rate") for line in lines)


def test_oracle_matches_a_set_replay(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from workloads import generate

    from repro.workloads.trace import OP_DELETE, OP_INSERT

    for name in ("small-window-durable", "skewed-reads"):
        inputs = generate(name, seed=3, size="tiny")
        live = set(inputs.preload.tolist())
        expected = np.empty(len(inputs.kinds), dtype=bool)
        for i, (kind, key) in enumerate(
            zip(inputs.kinds.tolist(), inputs.keys.tolist())
        ):
            expected[i] = key in live
            if kind == OP_INSERT:
                live.add(key)
            elif kind == OP_DELETE:
                live.discard(key)
        assert np.array_equal(expected, inputs.live_before), name
        again = generate(name, seed=3, size="tiny")
        assert again.digest == inputs.digest


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run("bulk-mixed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
