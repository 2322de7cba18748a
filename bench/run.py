"""regimelq benchmark: one workload, fresh-process CLI invocations, gated outputs.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: the benchmark starts the next ``regimelq`` CLI
invocation only after the previous one exited.  For ``--seconds`` it repeats
rounds of four fresh processes: a set-up probe (import ``regimelq.cli`` and
ingest the workload's config), the workload's fixed reference load
(``bench/reference_load.py``), a second set-up probe and a full invocation;
one more reference load closes the last round.  Then it makes one more
untimed invocation under ``bench/tracer.py``, which counts the path-steps.
With ``--trace 0`` that invocation runs at the workload's check worker
count and is the ``--workers``-invariance check; with ``--trace 1`` it runs
at the timed worker count and its spans give the per-layer metrics, and a
workload whose check worker count differs gets one more untimed, untraced
invocation at that count.

Times are reported at reference speed: a set-up time is multiplied by
``REFERENCE_S`` over the time of the reference load next to it, an
invocation time by ``REFERENCE_S`` over the mean of the reference loads
just before and just after it, and the medians of the scaled times are
reported.  ``REFERENCE_S`` holds the median time of each reference load on
the machine the baseline was measured on, so the scaled times are that
machine's seconds at its median speed.  A shared host can run the same
process 1.5-2x slower for minutes at a time; the reference load, which no
change to the program can affect, slows down alike, so the scaled times
hold still where raw ones do not.  The raw medians are printed too, as
``wall_clock_s`` and ``setup_clock_s``.

Every invocation is gated: exit code 0, every verification check PASS, and
artifact bytes equal across all invocations of the run (the untimed ones
too).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all``
measures every workload in turn and ends with one combined line whose metric
names carry the workload as a prefix.  Everything the program writes stays
in a temporary directory inside the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, Workload, config_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_INVOCATIONS = 3
# median wall seconds of each load of bench/reference_load.py on the 2-core
# machine the baseline was measured on (bench/metadata.json); times are
# reported at that machine's median speed
REFERENCE_S = {"mixed": 0.57, "matrix": 0.46}
DEADLINE_S = 170.0  # the whole run, set-up and traced invocation included


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    ok: bool
    why: str
    digests: dict = field(default_factory=dict)
    artifact_bytes: int = 0
    worst_check_ratio: float = 0.0


class Runner:
    """Starts the run's child processes and enforces the run's deadline."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = 0

    def time_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def run(self, argv: list[str]) -> tuple[float, int, object, Path]:
        """Run ``argv`` in a fresh directory and wait for it to exit.

        Returns (wall seconds, exit code, rusage, the directory holding
        ``stdout`` / ``stderr`` and what the child wrote).  Blocking
        ``os.wait4`` keeps the timing exact; a timer kills the child at the
        run's deadline.
        """
        self.count += 1
        workdir = self.scratch / f"proc-{self.count}"
        workdir.mkdir()
        t0 = time.perf_counter()
        with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
            proc = subprocess.Popen(argv, env=self.env, stdout=out, stderr=err, cwd=workdir)
        timer = threading.Timer(max(self.time_left(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        return time.perf_counter() - t0, proc.returncode, usage, workdir

    def setup_probe(self, workload: Workload, config: Path) -> float:
        """Wall seconds of a fresh process that imports the CLI and ingests ``config``."""
        wall, rc, _, workdir = self.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload.command, str(config)]
        )
        where = (workdir / "stdout").read_text().strip()
        if rc != 0 or not Path(where).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"set-up probe failed: {(workdir / 'stderr').read_text()}"
                               f" (regimelq from {where!r})")
        shutil.rmtree(workdir)
        return wall

    def reference(self, load: str) -> float:
        """Wall seconds of a fresh process running the fixed reference ``load``."""
        wall, rc, _, workdir = self.run([sys.executable, str(BENCH / "reference_load.py"), load])
        if rc != 0:
            raise RuntimeError(f"reference load failed: {(workdir / 'stderr').read_text()}")
        shutil.rmtree(workdir)
        return wall


def gate(workload: Workload, rc: int, out: Path) -> Invocation:
    """Correctness of one invocation from its exit code and artifacts; timing left at 0."""
    inv = Invocation(wall_s=0.0, peak_rss_mb=0.0, ok=False, why=f"exit code {rc}")
    if rc != 0:
        return inv
    files = sorted(p for p in out.iterdir() if p.is_file())
    inv.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    inv.artifact_bytes = sum(p.stat().st_size for p in files)
    if workload.artifact not in inv.digests:
        inv.why = f"no {workload.artifact}"
        return inv
    artifact = (out / workload.artifact).read_text()
    if workload.command == "verify":
        checks = json.loads(artifact)["checks"]
        failing = [c["check"] for c in checks if c["status"] != "pass"]
        if failing or not checks:
            inv.why = f"checks not PASS: {failing}"
            return inv
        ratios = [abs(c["statistic"]) / c["tolerance"] for c in checks if c["tolerance"]]
        inv.worst_check_ratio = max(ratios, default=0.0)
    else:
        rows = [line for line in artifact.splitlines() if not line.startswith("#")][1:]
        values = [float(v) for row in rows for v in row.split(",")]
        if not rows or not all(map(math.isfinite, values)):
            inv.why = "weights table malformed"
            return inv
    inv.ok, inv.why = True, ""
    return inv


def run_cli(runner: Runner, workload: Workload, argv: list[str]) -> Invocation:
    wall, rc, usage, workdir = runner.run(argv)
    inv = gate(workload, rc, workdir / "out")
    inv.wall_s, inv.peak_rss_mb = wall, usage.ru_maxrss / 1024.0
    shutil.rmtree(workdir)
    return inv


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def machine_record() -> dict:
    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            caches[key.lower()] = os.sysconf("SC_" + key)
        except (ValueError, OSError):
            pass
    return {
        "nproc": os.cpu_count(),
        **caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": git_sha(),
    }


def measure(runner: Runner, workload: Workload, seed: int, seconds: float, trace: bool):
    config = config_for(workload, seed, ROOT, runner.scratch)
    runner.setup_probe(workload, config)  # untimed: byte-compiles and warms the file cache
    setups, references, timed = [], [], []
    argv = [sys.executable, "-m", "regimelq.cli", *workload.cli_args(config, seed, Path("out"))]
    begin = time.perf_counter()
    while True:
        setups.append(runner.setup_probe(workload, config))
        references.append(runner.reference(workload.reference))
        setups.append(runner.setup_probe(workload, config))
        timed.append(run_cli(runner, workload, argv))
        elapsed = time.perf_counter() - begin
        per_round = elapsed / len(timed)
        if len(timed) >= MIN_INVOCATIONS and elapsed + per_round > seconds:
            break
    references.append(runner.reference(workload.reference))

    spans_file = runner.scratch / "spans.json"
    workers = workload.workers if trace else workload.check_workers
    traced = run_cli(runner, workload, [
        sys.executable, str(BENCH / "tracer.py"), str(spans_file), "--",
        *workload.cli_args(config, seed, Path("out"), workers),
    ])
    layers = layer_metrics(json.loads(spans_file.read_text())) if traced.ok else {}
    untimed = [traced]
    if workers != workload.check_workers:
        untimed.append(run_cli(runner, workload, [
            sys.executable, "-m", "regimelq.cli",
            *workload.cli_args(config, seed, Path("out"), workload.check_workers),
        ]))

    # artifacts must match the first timed invocation, the untimed ones included
    expected = timed[0].digests
    for inv in timed + untimed:
        if inv.ok and inv.digests != expected:
            inv.ok, inv.why = False, "artifact bytes differ from the run's first invocation"
    return setups, references, timed, untimed, layers


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print its report and named metrics, return its result."""
    scratch = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        setups, references, timed, untimed, layers = measure(
            Runner(scratch), workload, seed, seconds, trace
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    traced = untimed[0]
    invocations = timed + untimed
    failed = [inv for inv in invocations if not inv.ok]
    walls = [inv.wall_s for inv in timed]
    # times at the speed where the reference load takes REFERENCE_S: a round's
    # two set-up probes against the reference between them, an invocation
    # against the references of its own round and of the next
    reference_s = REFERENCE_S[workload.reference]
    wall = statistics.median(
        w * 2 * reference_s / (before + after)
        for w, before, after in zip(walls, references, references[1:])
    )
    steps = layers.get("simulate.path_steps", 0.0) + layers.get("bsde.path_steps", 0.0)
    end_to_end = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(
            s * reference_s / references[i // 2] for i, s in enumerate(setups)
        ), "s"),
        "path_steps_per_s": (steps / wall, "1/s"),
        "peak_rss_mb": (statistics.median(inv.peak_rss_mb for inv in timed), "MiB"),
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "invocations": len(timed),
        "wall_clock_s_all": walls,
        "setup_clock_s_all": setups,
        "reference_s_all": references,
        "failed_frac": len(failed) / len(invocations),
        "failures": [inv.why for inv in failed],
        "worst_check_ratio": timed[0].worst_check_ratio,
        "digests": timed[0].digests,
        "timed_workers": workload.workers,
        "check_workers": workload.check_workers,
        "untimed_wall_clock_s": [inv.wall_s for inv in untimed],
        "machine": machine_record(),
    }
    print(json.dumps(report))
    for name, (value, unit) in end_to_end.items():
        print(f"{workload.name} {name} = {value!r} {unit}")
    print(f"{workload.name} wall_clock_s = {statistics.median(walls)!r} s")
    print(f"{workload.name} setup_clock_s = {statistics.median(setups)!r} s")
    print(f"{workload.name} reference_s = {statistics.median(references)!r} s")
    print(f"{workload.name} failed_frac = {report['failed_frac']!r} 1")
    print(f"{workload.name} worst_check_ratio = {report['worst_check_ratio']!r} 1")

    if trace:
        layers.update({
            "cli.artifact_bytes": float(traced.artifact_bytes),
            "verify.worst_check_ratio": traced.worst_check_ratio,
            "trace.overhead_s": traced.wall_s - statistics.median(walls),
        })
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in layers
        }
        # every declared metric is reported; a 0 here means no call on this workload
        idle = [name for name, m in metrics.items() if m["value"] == 0]
        print(f"{workload.name} layers not run (reported as 0): {' '.join(idle) or 'none'}")
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    return {
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "regimelq" / "cli.py").is_file():
        print(f"no regimelq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
