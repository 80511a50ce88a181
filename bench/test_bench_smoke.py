"""Smoke test of the benchmark (tier-1 collects it, so it stays under 5 s).

Runs all four workloads at a tiny scale, untraced and traced, and checks
that exactly the metrics ``BENCHMARK.json`` declares come out, with their
units.  The smoke scale never produces ledger numbers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import driver  # noqa: E402
import run  # noqa: E402

SMOKE_SCALE = 0.02
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def in_process(workload, seed, scale, trace=0, shard_digest=None):
    """Stand-in for ``run.spawn_round``: same rounds, no fresh process."""
    if shard_digest is not None:
        return driver.run_shard_block(workload, seed, scale, shard_digest)
    return driver.run_round(workload, seed, scale, bool(trace))


def test_declared_names_are_well_formed():
    names = run.WORKLOADS + list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert run.WORKLOADS == list(driver.workloads.WORKLOADS)
    assert run.END_TO_END["setup_s"]["unit"] == "s"


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    measured = run.measure(
        workload, seed=3, seconds=0, trace=trace, scale=SMOKE_SCALE, runner=in_process
    )
    assert measured["problems"] == []
    declared = run.PER_LAYER if trace else run.END_TO_END
    line = run.result_line(measured, declared)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_command_line_ends_with_the_result_object():
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", "spar_longrun", "--seed", "5",
            "--seconds", "0", "--trace", "0", "--scale", str(SMOKE_SCALE),
        ],  # fmt: skip
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    line = json.loads(done.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True
    assert set(line["metrics"]) == set(run.END_TO_END)
