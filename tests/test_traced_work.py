"""The benchmark's traced path-step count equals the Monte Carlo work of ``verify``.

``bench/tracer.py`` counts path-steps at the public entry points (``mc_run``,
``paired_refinement_run``, ``simulate_closed_loop``), and the benchmark's
``path_steps_per_s`` divides that count by wall time.  A refactor that moved
Monte Carlo work out of those entry points would change the throughput
without changing the work; this test pins the count to ``verify``'s
constants instead.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from regimelq.simulate import CHUNK_SIZE
from regimelq.verify import (
    MAX_PROBE_PATHS,
    PERTURBATION_DIRECTIONS,
    PROBE_CONTROLS,
    calibration_paths,
)

ROOT = Path(__file__).resolve().parent.parent


def test_traced_path_steps_match_verify_constants(tmp_path):
    paths, N = CHUNK_SIZE + 100, 4  # two chunks per full-size run
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "--",
         "verify", "--config", str(ROOT / "configs" / "two_regime.json"),
         "--grid", str(N), "--paths", str(paths), "--workers", "1", "--seed", "5",
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(spans.read_text())["counts"]
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
