"""Tests of the benchmark itself: generated inputs, span analysis, exact counts.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regimelq.model import validate_problem
from regimelq.riccati import RHAT_FLOOR, solve_riccati
from tracer import self_time
from workloads import WORKLOADS, config_for, multidim_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.mark.parametrize("seed", [42, 7])
def test_multidim_config_is_convex_by_construction(seed):
    cfg = multidim_config(seed)
    problem = validate_problem(cfg)
    assert (problem.n, problem.m, problem.num_regimes) == (3, 2, 3)
    for cs in problem.coefficients[0]:
        assert not np.any(cs.S)
        assert np.linalg.eigvalsh(cs.R).min() > 0.0
        assert np.linalg.eigvalsh(cs.Q).min() >= -1e-12
        assert np.linalg.eigvalsh(cs.G).min() >= -1e-12
    grid = solve_riccati(problem, WORKLOADS["verify-multidim"].grid)
    assert grid.rhat_min_eig.min() > RHAT_FLOOR


def test_multidim_config_depends_only_on_seed():
    assert multidim_config(3) == multidim_config(3)
    assert multidim_config(3) != multidim_config(4)


def test_self_time_subtracts_union_of_overlapping_children():
    # (id, name, start, end, parent, thread): two lanes whose children overlap
    spans = [
        (1, "simulate.mc", 0.0, 10.0, 0, 1),
        (2, "chain.sample", 1.0, 4.0, 1, 2),
        (3, "chain.sample", 3.0, 6.0, 1, 3),
        (4, "riccati.gains", 8.0, 12.0, 1, 1),  # clipped to the parent's end
        (5, "chain.project", 2.0, 3.0, 2, 2),  # grandchild: already covered
    ]
    assert self_time(spans, "simulate.mc") == pytest.approx(10.0 - 5.0 - 2.0)


def _traced_counts(workload, config, tmp_path, run):
    spans = tmp_path / f"spans-{run}.json"
    out = tmp_path / f"out-{run}"
    args = workload.cli_args(config, 42, out, workload.check_workers)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans), "--", *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(spans.read_text())["counts"]


# reduced sizes keep the test quick; verify-multidim keeps two chunks and runs
# at its check worker count, so both worker lanes record spans
SMALL = {"verify-switching": (10, 500), "verify-multidim": (8, 4500),
         "bsde-random-coeff": (10, 2000)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    grid, paths = SMALL[name]
    workload = dataclasses.replace(WORKLOADS[name], grid=grid, paths=paths)
    config = config_for(workload, 42, ROOT, tmp_path)
    first = _traced_counts(workload, config, tmp_path, 1)
    second = _traced_counts(workload, config, tmp_path, 2)
    assert first == second
    if workload.command == "verify":
        assert first["simulate.path_steps"] > 0
        assert first["riccati.gains_distinct"] <= first["riccati.gains_calls"]
    else:
        assert first["bsde.path_steps"] == paths * grid
