"""SHA-256 digests of the artifacts of a fixed set of CLI invocations at seed 42.

    python scripts/artifact_digests.py OUT

Runs every invocation below as ``python -m regimelq.cli`` in a subprocess,
writing under ``OUT/<name>``, and prints one ``sha256  name/file`` line per
artifact.  Any nonzero exit, a failed check (exit 3) included, stops the
run with exit 1, so a complete digest list means every bundled ``verify``
and ``frontier`` check passed.  Each invocation's peak resident memory,
from the child's ``os.wait4`` rusage, goes to stderr as one
``peak_rss_mb  <MiB>  name`` line, so stdout stays the digest list.  The
package is whatever the environment imports, so two source trees write the
same bytes exactly when their digest lists are equal:

    PYTHONPATH=<tree A>/src python scripts/artifact_digests.py /tmp/a > a.txt
    PYTHONPATH=<tree B>/src python scripts/artifact_digests.py /tmp/b > b.txt
    diff a.txt b.txt

The multidim problem is the benchmark's seeded n = 3, m = 2, 3-regime config
(``bench/workloads.py``, seed 42).  Its report, and the report of the
two-segment ``switching_diffusion`` config, are written at ``--workers 1``
and ``--workers 2``, which must agree.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "bench"))
from workloads import multidim_config  # noqa: E402

SEED = "42"


def invocations(multidim: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every invocation, seed and output left out."""
    cfg = lambda name: str(CONFIGS / f"{name}.json")
    run = lambda command, config, grid, *extra: [command, "--config", config, "--grid", grid, *extra]
    return [
        ("verify-two_regime", run("verify", cfg("two_regime"), "100", "--paths", "5000")),
        ("verify-multidim-w1", run("verify", str(multidim), "25", "--paths", "8192")),
        ("verify-multidim-w2",
         run("verify", str(multidim), "25", "--paths", "8192", "--workers", "2")),
        ("verify-det_lqr", run("verify", cfg("det_lqr"), "50", "--paths", "5000")),
        # a feedback law on A = C = Q = 0: the probe controls have dead X columns and a live drift
        ("verify-scalar", run("verify", cfg("scalar"), "50", "--paths", "5000")),
        # two segments split at t = 0.5, with live C, D and S: reads each segment's coefficients
        ("verify-switching_diffusion",
         run("verify", cfg("switching_diffusion"), "100", "--paths", "5000")),
        # 5000 paths are two chunks, so two lanes run them
        ("verify-switching_diffusion-w2",
         run("verify", cfg("switching_diffusion"), "100", "--paths", "5000", "--workers", "2")),
        ("bsde-random_coeff", run("bsde", cfg("random_coeff"), "100", "--paths", "30000")),
        ("bsde-random_coeff-degree2",
         run("bsde", cfg("random_coeff"), "40", "--paths", "20000", "--degree", "2")),
        # a one-column basis (degree 0) and a six-column one (condition up to about 80)
        ("bsde-random_coeff-degree0",
         run("bsde", cfg("random_coeff"), "40", "--paths", "2000", "--degree", "0")),
        ("bsde-random_coeff-degree5",
         run("bsde", cfg("random_coeff"), "40", "--paths", "20000", "--degree", "5")),
        # N = 9 walks the driver backward in blocks of s = 4 nodes: the last block holds one
        ("bsde-random_coeff-grid9", run("bsde", cfg("random_coeff"), "9", "--paths", "2000")),
        # three regimes, C != 0, S != 0 and negative slopes: every coefficient row of the sweep
        ("bsde-random_coeff_three_regime",
         run("bsde", cfg("random_coeff_three_regime"), "100", "--paths", "30000")),
        *((f"solve-{name}", run("solve", cfg(name), "200"))
          for name in ("scalar", "two_regime", "det_lqr", "market_one_regime",
                       "switching_diffusion")),
        ("solve-multidim", run("solve", str(multidim), "200")),
        # the breakpoint t = 0.5 falls inside a step: that step is split there
        ("solve-switching_diffusion-grid25", run("solve", cfg("switching_diffusion"), "25")),
        ("frontier-market_one_regime",
         run("frontier", cfg("market_one_regime"), "100", "--paths", "5000")),
        # two regimes and two segments split at t = 0.5, which falls inside a step
        ("solve-market_two_regime-grid25", run("solve", cfg("market_two_regime"), "25")),
        ("frontier-market_two_regime",
         run("frontier", cfg("market_two_regime"), "25", "--paths", "5000")),
        ("simulate-multidim",
         run("simulate", str(multidim), "50", "--paths", "5000", "--dump-paths", "2")),
        ("simulate-two_regime",
         run("simulate", cfg("two_regime"), "50", "--paths", "5000", "--dump-paths", "2")),
    ]


def run_measured(argv: list[str]) -> tuple[int, str, float, int]:
    """Run ``argv``; return its exit code, its stderr, its peak RSS in MiB and
    its minor page faults."""
    with subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as proc:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return proc.returncode, err, usage.ru_maxrss / 1024.0, usage.ru_minflt


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    multidim = out / "multidim.json"
    multidim.write_text(json.dumps(multidim_config(int(SEED))))
    for name, args in invocations(multidim):
        workers = [] if "--workers" in args else ["--workers", "1"]
        argv = [sys.executable, "-m", "regimelq.cli", *args, *workers,
                "--seed", SEED, "--out", str(out / name)]
        rc, err, peak_mb, _ = run_measured(argv)
        if rc != 0:  # 3 is a failed verify or frontier check
            print(f"{name} exited {rc}: {err.strip()}", file=sys.stderr)
            return 1
        print(f"peak_rss_mb  {peak_mb:.1f}  {name}", file=sys.stderr)
        for path in sorted((out / name).rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
