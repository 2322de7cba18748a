"""The benchmark's traced path-step count equals the Monte Carlo work of ``verify``.

``bench/tracer.py`` counts path-steps at the public entry points (``mc_run``,
``paired_refinement_run``, ``simulate_closed_loop``), and the benchmark's
``path_steps_per_s`` divides that count by wall time.  A refactor that moved
Monte Carlo work out of those entry points would change the throughput
without changing the work; this test pins the count to ``verify``'s
constants instead.  The tracer also lists every entry point it could not
find, and the benchmark then leaves that entry point's metrics out of its
result line, so a rename must not go unnoticed.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regimelq.simulate import CHUNK_SIZE
from regimelq.verify import (
    MAX_PROBE_PATHS,
    PERTURBATION_DIRECTIONS,
    PROBE_CONTROLS,
    calibration_paths,
)

ROOT = Path(__file__).resolve().parent.parent


def _traced(tmp_path, *args) -> dict:
    """The spans file of one ``bench/tracer.py`` run of the CLI on ``args``."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "--",
         *args, "--seed", "5", "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


@pytest.mark.parametrize("args, layers", [
    (["solve", "--config", "scalar.json", "--grid", "4"], ["riccati.solve"]),
    (["simulate", "--config", "two_regime.json", "--grid", "4", "--paths", "200",
      "--dump-paths", "1"], ["riccati.solve", "simulate.mc", "simulate.record"]),
    (["verify", "--config", "two_regime.json", "--grid", "4", "--paths", "200"],
     ["riccati.solve", "simulate.mc"]),
    (["bsde", "--config", "random_coeff.json", "--grid", "4", "--paths", "200"],
     ["bsde.paths", "bsde.regression"]),
], ids=["solve", "simulate", "verify", "bsde"])
def test_tracer_finds_every_entry_point(tmp_path, args, layers):
    # a name the CLI binds where the tracer does not rebind it runs untraced:
    # its layer then records no span although nothing is listed as missing
    args[2] = str(ROOT / "configs" / args[2])
    trace = _traced(tmp_path, *args, "--workers", "1")
    assert trace["missing"] == []
    recorded = {span[1] for span in trace["spans"]}
    assert {"model.ingest", *layers} <= recorded


def test_traced_path_steps_match_verify_constants(tmp_path):
    paths, N = CHUNK_SIZE + 100, 4  # two chunks per full-size run
    counts = _traced(
        tmp_path, "verify", "--config", str(ROOT / "configs" / "two_regime.json"),
        "--grid", str(N), "--paths", str(paths), "--workers", "1",
    )["counts"]
    probe = min(paths, MAX_PROBE_PATHS)
    # value and Lyapunov identities, their two Richardson calibrations (N and
    # 2N grids), the paired perturbation runs and the probe controls
    expected = (
        2 * paths * N
        + 2 * calibration_paths(paths) * 3 * N
        + PERTURBATION_DIRECTIONS * 2 * probe * N
        + PROBE_CONTROLS * probe * N
    )
    assert counts["simulate.path_steps"] == expected
    chunks = lambda n: math.ceil(n / CHUNK_SIZE)
    assert counts["simulate.chunks"] == (
        2 * chunks(paths) + 2 * chunks(calibration_paths(paths))
        + (PERTURBATION_DIRECTIONS + PROBE_CONTROLS) * chunks(probe)
    )
