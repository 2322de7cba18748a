"""CLI: exit codes, artifact shapes, determinism across runs and workers."""

import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import regimelq as rl
from regimelq import bsde
from regimelq.cli import build_parser, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NAN, INF = float("nan"), float("inf")


def _bundled(name: str, change) -> dict:
    """A bundled config after ``change`` edited it in place."""
    cfg = json.loads((CONFIGS / name).read_text())
    change(cfg)
    return cfg


def _write_nonconvex_config(tmp_path: Path) -> Path:
    from canonical import nonconvex, problem_to_config

    cfg = problem_to_config(nonconvex())
    path = tmp_path / "nonconvex.json"
    path.write_text(json.dumps(cfg))
    return path


class TestExitCodes:
    def test_solve_scalar_writes_grid(self, tmp_path, capsys):
        rc = main([
            "solve", "--config", str(CONFIGS / "scalar.json"),
            "--grid", "200", "--seed", "42", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "riccati.csv").read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("config_sha256" in l for l in header)
        assert any("seed" in l for l in header)
        assert data[0].startswith("t,regime,")
        assert len(data) - 1 == 201  # one row per (node, regime)

    def test_missing_seed_exits_one(self, tmp_path, capsys):
        rc = main([
            "simulate", "--config", str(CONFIGS / "scalar.json"), "--out", str(tmp_path),
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "seed required" in err["message"]

    def test_solve_without_seed_is_fine(self, tmp_path, capsys):
        # solve draws no random numbers, so the seed is optional there
        rc = main([
            "solve", "--config", str(CONFIGS / "scalar.json"),
            "--grid", "50", "--out", str(tmp_path),
        ])
        assert rc == 0

    def test_solve_reads_no_targets(self, tmp_path, capsys):
        # targets are frontier input; a market without them still solves
        cfg = tmp_path / "no-targets.json"
        cfg.write_text(json.dumps(_bundled("market_one_regime.json", lambda c: c.pop("targets"))))
        rc = main(["solve", "--config", str(cfg), "--grid", "10", "--out", str(tmp_path)])
        assert rc == 0

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        rc = main([
            "solve", "--config", str(tmp_path / "missing.json"),
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert rc == 1

    @pytest.mark.parametrize(
        "command, config, extra, says",
        [
            ("solve", lambda: {"spec_version": 1, "kind": "slq"}, [], ""),
            ("solve", lambda: [1, 2], [], ""),
            ("solve", lambda: _bundled("market_one_regime.json", lambda c: c.pop("generator")),
             [], ""),
            ("bsde", lambda: _bundled("random_coeff.json", lambda c: c.pop("generator")), [], ""),
            ("solve", lambda: _bundled("scalar.json", lambda c: c["segments"][0].pop("t_start")),
             [], ""),
            ("solve", lambda: _bundled("scalar.json", lambda c: c.update(x0="abc")), [], ""),
            ("bsde", lambda: _bundled("random_coeff.json", lambda c: None), ["--degree", "-1"], ""),
            ("simulate", lambda: _bundled("two_regime.json", lambda c: None),
             ["--dump-paths", "-3"], "--dump-paths >= 0"),
            ("verify", lambda: _bundled("scalar.json", lambda c: None), ["--workers", "0"], ""),
            ("verify", lambda: _bundled("scalar.json", lambda c: None), ["--workers", "-1"], ""),
            ("bsde", lambda: _bundled("random_coeff.json", lambda c: c.update(regimes=3)), [],
             "regimes=3"),
            ("solve", lambda: _bundled("two_regime.json", lambda c: c.update(i0=0)), [], "label 0"),
            ("frontier", lambda: _bundled("market_one_regime.json", lambda c: c.update(i0=0)), [],
             "label 0"),
            ("bsde", lambda: _bundled("random_coeff.json", lambda c: c.update(i0=0)), [],
             "label 0"),
            ("solve", lambda: _bundled("two_regime.json", lambda c: c.update(i0=1.5)), [], "1.5"),
            ("frontier", lambda: _bundled(
                "market_one_regime.json", lambda c: c.update(generator=[[-1, 1], [1, -1]])
            ), [], "['1', '2']"),
            ("frontier", lambda: _bundled("market_one_regime.json", lambda c: c.pop("targets")),
             [], "no targets"),
            ("bsde", lambda: _bundled("random_coeff.json", lambda c: c["coefficients"].pop("2")),
             [], "['1', '2']"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c["coefficients"]["1"].update(A=[NAN, 0.0])
            ), [], "A (regime 1)"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c["coefficients"]["2"].update(Q=[0.1, INF])
            ), [], "Q (regime 2)"),
            ("bsde", lambda: _bundled("random_coeff.json", lambda c: c["driver"].update(kappa=NAN)),
             [], "kappa"),
            ("bsde", lambda: _bundled("random_coeff.json", lambda c: c["driver"].update(nu=INF)),
             [], "nu"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c["driver"].update(theta_bar=-INF)
            ), [], "theta_bar"),
            ("bsde", lambda: _bundled("random_coeff.json", lambda c: c["driver"].update(y0=NAN)),
             [], "y0"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c["driver"].update(y_range=[-3.0, INF])
            ), [], "y_range"),
            ("bsde", lambda: _bundled("random_coeff.json", lambda c: c.update(T=NAN)), [], "T=nan"),
            ("bsde", lambda: _bundled("random_coeff.json", lambda c: c.update(T=0.0)), [], "T=0.0"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c["driver"].update(kappa=1e6)
            ), [], "kappa*T/N = 100000.0"),
            ("solve", lambda: _bundled("scalar.json", lambda c: c.update(n=INF)), [],
             "n must be an integer, got inf"),
            ("solve", lambda: _bundled("scalar.json", lambda c: c.update(n=1.5)), [],
             "n must be an integer, got 1.5"),
            ("solve", lambda: _bundled("scalar.json", lambda c: c.update(m=True)), [],
             "m must be an integer, got True"),
            ("solve", lambda: _bundled("two_regime.json", lambda c: c.update(i0=True)), [],
             "i0 must be an integer, got True"),
            ("solve", lambda: _bundled("scalar.json", lambda c: c.update(T=True)), [],
             "T must be a number, got True"),
            ("solve", lambda: _bundled("scalar.json", lambda c: c.update(T="1.0")), [],
             "T must be a number, got '1.0'"),
            ("bsde", lambda: _bundled("random_coeff.json", lambda c: c["driver"].update(nu=True)),
             [], "driver.nu must be a number, got True"),
            ("solve", lambda: _bundled(
                "scalar.json", lambda c: c["segments"][0]["coefficients"]["1"].update(R=[[True]])
            ), [], "segments[0].coefficients.1.R[0][0] must be a number, got True"),
            ("solve", lambda: _bundled("scalar.json", lambda c: c.update(x0=["1.0"])), [],
             "x0[0] must be a number, got '1.0'"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c["coefficients"]["1"].update(A=["0.1", "0.02"])
            ), [], "coefficients.1.A[0] must be a number, got '0.1'"),
            ("solve", lambda: _bundled("scalar.json", lambda c: c.update(regimes=True)), [],
             "regimes must be an integer, got True"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c["driver"].update(y_range=[-3, 3, 5])
            ), [], "driver.y_range must be a list [low, high], got [-3, 3, 5]"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c["driver"].update(y_range=[-3])
            ), [], "driver.y_range must be a list [low, high], got [-3]"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c["coefficients"]["2"].update(B=0.1)
            ), [], "coefficients.2.B must be a list [const, slope] or [const], got 0.1"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c["coefficients"]["1"].update(R=[])
            ), [], "coefficients.1.R must be a list [const, slope] or [const], got []"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c["coefficients"]["1"].update(G=[1.0, 0.05, 0.1])
            ), [], "coefficients.1.G must be a list [const, slope] or [const], got [1.0, 0.05, 0.1]"),
        ],
        ids=[
            "missing-fields", "not-an-object", "market-missing-generator",
            "random-coefficients-missing-generator", "segment-missing-t_start",
            "ill-typed-x0", "negative-degree", "negative-dump-paths", "zero-workers",
            "negative-workers",
            "random-coefficients-regimes-mismatch", "slq-i0-zero", "market-i0-zero",
            "random-coefficients-i0-zero", "fractional-i0", "market-missing-label",
            "market-missing-targets",
            "random-coefficients-missing-label", "random-coefficients-nan-const",
            "random-coefficients-infinite-slope", "nan-kappa", "infinite-nu",
            "infinite-theta_bar", "nan-y0", "infinite-y_range", "nan-T", "zero-T",
            "diverging-driver", "infinite-n", "fractional-n", "boolean-m", "boolean-i0",
            "boolean-T", "string-T", "boolean-nu", "boolean-R-entry", "string-x0-entry",
            "string-A-map", "boolean-regimes", "three-number-y_range", "one-number-y_range",
            "bare-number-coefficient", "empty-coefficient", "three-number-coefficient",
        ],
    )
    def test_invalid_schema_exits_one(self, tmp_path, capsys, command, config, extra, says):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config()))
        rc = main([
            command, "--config", str(bad), "--seed", "1", "--grid", "10",
            "--paths", "2000", "--out", str(tmp_path),
        ] + extra)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert "error" in payload
        assert says in payload["message"]

    @pytest.mark.parametrize(
        "command, config, error",
        [
            ("solve", lambda: _bundled(
                "two_regime.json", lambda c: c.update(generator=[[-1.0, INF], [1.0, -1.0]])
            ), "ValidationError"),
            ("bsde", lambda: _bundled(
                "random_coeff.json", lambda c: c.update(generator=[[-0.3, 0.3], [NAN, -0.4]])
            ), "ValidationError"),
            ("solve", lambda: _bundled(
                "two_regime.json", lambda c: c.update(generator=[[-1.0, -1.0], [1.0, -1.0]])
            ), "NegativeOffDiagonal"),
        ],
        ids=["infinite-rate", "random-coefficients-nan-rate", "negative-rate"],
    )
    def test_invalid_generator_names_its_error(self, tmp_path, capsys, command, config, error):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config()))
        rc = main([
            command, "--config", str(bad), "--seed", "1", "--grid", "10",
            "--paths", "2000", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == error

    @pytest.mark.parametrize(
        "config", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem
    )
    def test_bundled_config_runs(self, tmp_path, capsys, config):
        kind = json.loads(config.read_text())["kind"]
        command = {"slq": "solve", "market": "frontier", "random_coefficients": "bsde"}[kind]
        rc = main([
            command, "--config", str(config), "--seed", "3", "--grid", "20",
            "--paths", "2000", "--out", str(tmp_path),
        ])
        assert rc == 0

    def test_floating_point_fault_exits_two(self, tmp_path, capsys):
        # nu = 1e200 is finite, so accepted; the regression's y.std() overflows
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            _bundled("random_coeff.json", lambda c: c["driver"].update(nu=1e200))
        ))
        rc = main([
            "bsde", "--config", str(bad), "--seed", "1", "--grid", "10",
            "--paths", "2000", "--out", str(tmp_path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "FloatingPointError"

    def test_python_float_overflow_exits_two(self, tmp_path, capsys):
        # x0 = 1e200 is valid; the frontier's Python-float xt0**2 overflows
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            _bundled("market_one_regime.json", lambda c: c.update(x0=1e200))
        ))
        rc = main([
            "frontier", "--config", str(bad), "--seed", "1", "--grid", "10",
            "--paths", "2000", "--out", str(tmp_path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "OverflowError"

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_monte_carlo_overflow_exits_two(self, tmp_path, capsys, command):
        # x0 = 1e200 is valid; x0'P x0 overflows in verify's value target, and
        # simulate's kernel finds the paths' terminal costs at inf
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_bundled("two_regime.json", lambda c: c.update(x0=[1e200]))))
        rc = main([
            command, "--config", str(bad), "--seed", "1", "--grid", "10",
            "--paths", "200", "--out", str(tmp_path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        expected = {"verify": "FloatingPointError", "simulate": "NonFiniteState"}[command]
        assert json.loads(err)["error"] == expected

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        cfg = _write_nonconvex_config(tmp_path)
        rc = main(["solve", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SingularRhat"

    def test_failed_verification_exits_three(self, tmp_path, capsys):
        cfg = _write_nonconvex_config(tmp_path)
        rc = main([
            "verify", "--config", str(cfg), "--seed", "5",
            "--grid", "50", "--paths", "500", "--out", str(tmp_path),
        ])
        assert rc == 3
        report = json.loads((tmp_path / "verify_report.json").read_text())
        status = {c["check"]: c["status"] for c in report["checks"]}
        assert status["sre_solve"] == "fail"
        assert status["convexity_probe"] == "fail"


FUZZ_VALUES = (NAN, INF, -INF, 1e308, -1e308, 1e-300, "x", None, True, [], {})
FUZZ_COMMANDS = {
    "slq": ("solve", "simulate", "verify"),
    "market": ("solve", "frontier"),
    "random_coefficients": ("bsde",),
}


def _slots(node, path=()):
    """Paths to every entry of a JSON tree, containers included."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from _slots(child, path + (key,))


def _fuzz(cfg: dict, rnd: random.Random) -> str:
    """Replace one entry of ``cfg`` by a hostile value or delete one key."""
    slot = rnd.choice(list(_slots(cfg)))
    parent = cfg
    for key in slot[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rnd.random() < 0.2:
        del parent[slot[-1]]
        return f"del {slot}"
    parent[slot[-1]] = rnd.choice(FUZZ_VALUES)
    return f"{slot} = {parent[slot[-1]]!r}"


def test_fuzzed_configs_keep_the_exit_contract(tmp_path):
    # exit 0-3 only, no escaped exception, and a failure (1, 2) prints exactly
    # one JSON line on stderr: a numpy warning would print more lines
    rnd = random.Random(1)
    configs = sorted(CONFIGS.glob("*.json"))
    broken = []
    for case in range(150):
        cfg = json.loads(configs[case % len(configs)].read_text())
        command = rnd.choice(FUZZ_COMMANDS[cfg["kind"]])
        edits = [_fuzz(cfg, rnd) for _ in range(rnd.choice((1, 2)))]
        path = tmp_path / "fuzzed.json"
        path.write_text(json.dumps(cfg))
        argv = [
            command, "--config", str(path), "--seed", "1", "--grid", "8",
            "--paths", str(rnd.choice((200, 300, 400))), "--workers", "1",
            "--out", str(tmp_path / "out"),
        ]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                rc = main(argv)
            except BaseException as exc:  # noqa: BLE001 - an escape is the failure sought
                rc = f"{type(exc).__name__}: {exc}"
        lines = err.getvalue().splitlines()
        ok = rc in (0, 1, 2, 3)
        if rc in (1, 2):
            ok = not caught and len(lines) == 1 and "error" in json.loads(lines[0])
        if not ok:
            broken.append((configs[case % len(configs)].stem, command, edits, rc, lines[:2]))
    assert not broken


class TestSimulate:
    def test_estimate_and_path_dump(self, tmp_path, capsys):
        rc = main([
            "simulate", "--config", str(CONFIGS / "scalar.json"),
            "--grid", "100", "--paths", "500", "--seed", "7",
            "--out", str(tmp_path), "--dump-paths", "3",
        ])
        assert rc == 0
        est = json.loads((tmp_path / "estimate.json").read_text())
        assert est["estimate"]["n"] == 500
        assert est["estimate"]["mean"] == pytest.approx(0.5, abs=1e-6)
        dumps = sorted((tmp_path / "paths").glob("path_*.csv"))
        assert len(dumps) == 3
        first = dumps[0].read_text().splitlines()
        assert sum(1 for l in first if not l.startswith("#")) == 102  # header + 101

    def test_too_few_paths_rejected(self, tmp_path, capsys):
        rc = main([
            "simulate", "--config", str(CONFIGS / "scalar.json"),
            "--paths", "50", "--seed", "7", "--out", str(tmp_path),
        ])
        assert rc == 1


def _write_multidim_config(tmp_path: Path) -> Path:
    from canonical import multidim_two_segment, problem_to_config

    path = tmp_path / "multidim.json"
    path.write_text(json.dumps(problem_to_config(multidim_two_segment())))
    return path


class TestVerifyDeterminism:
    # the multidim run has more than CHUNK_SIZE paths, so two lanes share it
    @pytest.mark.parametrize(
        "config, grid, paths, workers",
        [
            (lambda tmp: CONFIGS / "two_regime.json", "50", "2000", ("1", "1", "4")),
            (_write_multidim_config, "10", "4200", ("1", "1", "2")),
        ],
        ids=["two_regime", "multidim"],
    )
    def test_byte_identical_reports_and_worker_independence(
        self, tmp_path, capsys, config, grid, paths, workers
    ):
        args = [
            "verify", "--config", str(config(tmp_path)),
            "--grid", grid, "--paths", paths, "--seed", "11",
        ]
        outs = []
        for j, w in enumerate(workers):
            out = tmp_path / f"run{j}"
            rc = main(args + ["--out", str(out), "--workers", w])
            assert rc == 0
            outs.append((out / "verify_report.json").read_bytes())
        assert all(o == outs[0] for o in outs)


class TestFrontier:
    def test_frontier_csv_values(self, tmp_path, capsys):
        rc = main([
            "frontier", "--config", str(CONFIGS / "market_one_regime.json"),
            "--grid", "200", "--paths", "5000", "--seed", "13",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "frontier.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        cols = data[0].split(",")
        assert cols[:5] == ["d", "mu", "gamma", "variance", "riccati_value_check"]
        rows = [dict(zip(cols, l.split(","))) for l in data[1:]]
        assert len(rows) == 3
        last = rows[-1]
        assert float(last["d"]) == 1.2
        assert float(last["variance"]) == pytest.approx(0.2027, abs=5e-5)
        assert float(last["mc_mean"]) == pytest.approx(1.2, abs=0.02)


class TestBsdeCommand:
    def test_weights_csv(self, tmp_path, capsys):
        rc = main([
            "bsde", "--config", str(CONFIGS / "random_coeff.json"),
            "--grid", "20", "--paths", "2000", "--seed", "17",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "bsde_weights.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].split(",")[:3] == ["node", "regime", "t"]
        assert len(data) - 1 == 20 * 2  # nodes x regimes

    def test_draws_neither_the_chain_nor_the_full_increments(self, tmp_path, capsys, monkeypatch):
        # the sweep draws each node's increments in its walk and reads no regime path
        def fail(name):
            def raise_on_use(*args):
                raise AssertionError(f"bsde drew {name}")
            return raise_on_use

        for name in ("dW", "regimes"):
            monkeypatch.setattr(bsde.PathBundle, name, property(fail(name)))
        monkeypatch.setattr(bsde, "sample_regimes_on_grid", fail("a chain"))
        rc = main([
            "bsde", "--config", str(CONFIGS / "random_coeff.json"),
            "--grid", "9", "--paths", "500", "--seed", "3", "--out", str(tmp_path),
        ])
        assert rc == 0


_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_python(code: str, **env) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this checkout's
    package, with none of the BLAS thread variables set except ``env``'s."""
    src = Path(rl.__file__).resolve().parent.parent
    base = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    base["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**base, **env}, check=True,
    )
    return result.stdout


def _run_in_fresh_python(argv, out, seed="1"):
    """Exit code and loaded module names of ``import regimelq.cli`` and then,
    unless ``argv`` is None, ``main(argv)``, in a fresh interpreter; the
    config is named relative to ``configs/``."""
    if argv is not None:
        argv = [*argv, "--seed", seed, "--out", str(out)]
        argv[2] = str(CONFIGS / argv[2])
    code = (
        "import contextlib, json, sys, regimelq.cli\n"
        f"argv = {argv!r}\n"
        "with contextlib.redirect_stdout(sys.stderr):\n"
        "    rc = 0 if argv is None else regimelq.cli.main(argv)\n"
        "print(json.dumps([rc, sorted(sys.modules)]))\n"
    )
    return json.loads(_fresh_python(code))


@pytest.mark.parametrize("argv", [
    None,
    ["solve", "--config", "two_regime.json", "--grid", "10"],
    ["solve", "--config", "market_one_regime.json", "--grid", "10"],
    ["simulate", "--config", "two_regime.json", "--grid", "10", "--paths", "200",
     "--dump-paths", "1"],
    ["verify", "--config", "two_regime.json", "--grid", "20", "--paths", "500"],
    ["frontier", "--config", "market_one_regime.json", "--grid", "10", "--paths", "1000"],
    ["bsde", "--config", "random_coeff.json", "--grid", "4", "--paths", "200"],
], ids=["import", "solve-slq", "solve-market", "simulate", "verify", "frontier", "bsde"])
def test_cli_leaves_scipy_unloaded(tmp_path, argv):
    # numpy is the only runtime dependency: no command imports scipy
    rc, loaded = _run_in_fresh_python(argv, tmp_path)
    assert rc == 0
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_package_import_loads_no_numpy():
    # the public names load on first access, so the CLI can set the BLAS
    # thread default before numpy loads
    code = "import sys, regimelq; print('numpy' in sys.modules, regimelq.__version__)"
    assert _fresh_python(code).split() == ["False", rl.__version__]


@pytest.mark.parametrize("user", [
    {}, {"OMP_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "4"}, {"MKL_NUM_THREADS": "2"},
], ids=["none", "omp", "openblas", "mkl"])
def test_cli_import_sets_one_blas_thread_unless_the_user_chose(user):
    code = (
        "import json, os, regimelq.cli\n"
        f"print(json.dumps({{k: os.environ.get(k) for k in {_THREAD_VARIABLES!r}}}))\n"
    )
    seen = json.loads(_fresh_python(code, **user))
    want = dict.fromkeys(_THREAD_VARIABLES, None)
    want.update(user or {"OMP_NUM_THREADS": "1"})
    assert seen == want


# every public name of the package, by the submodule that defines it
PUBLIC_NAMES = {
    "chain": ["ChainPath", "GeneratorMatrix", "sample_chain_paths", "sample_regimes_on_grid",
              "validate_generator"],
    "model": ["Coefficients", "ProblemSpec", "make_problem", "problem_from_config",
              "validate_problem", "with_initial_state"],
    "riccati": ["FeedbackLaw", "RiccatiGrid", "rhat_certificate", "solve_riccati"],
    "simulate": ["ControlTable", "MCEstimate", "PathRecord", "PerturbedFeedback", "mc_cost",
                 "mc_cost_diff", "simulate_closed_loop"],
    "verify": ["CheckResult", "convexity_probe", "lyapunov_identity_check", "lyapunov_solve",
               "perturbation_test", "run_standard_checks", "value_identity_check"],
    "bsde": ["BsdeSolution", "PathBundle", "RandomCoefficientModel",
             "backward_regression_solve", "generate_training_paths", "make_model"],
    "meanvar": ["FrontierPoint", "efficient_frontier", "lagrange_solve", "make_market",
                "market_from_config", "mv_moment_odes", "mv_riccati", "mv_simulate_check"],
}


def test_lazy_names_are_the_submodules_objects():
    code = (
        "import importlib, json, sys, regimelq\n"
        f"sources = {PUBLIC_NAMES!r}\n"
        "before = 'numpy' in sys.modules\n"
        "same = all(getattr(regimelq, name) is getattr(importlib.import_module(\n"
        "    'regimelq.' + module), name) for module, names in sources.items() for name in names)\n"
        "try:\n"
        "    regimelq.no_such_name\n"
        "    missing = 'no error'\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps([before, same, sorted(regimelq.__all__),\n"
        "                  set(regimelq.__all__) <= set(dir(regimelq)), missing]))\n"
    )
    before, same, names, listed, missing = json.loads(_fresh_python(code))
    assert not before and same and listed
    assert names == sorted(name for names in PUBLIC_NAMES.values() for name in names)
    assert missing == "module 'regimelq' has no attribute 'no_such_name'"


def test_thread_pool_is_imported_only_for_two_lanes():
    # run_chunks imports concurrent.futures (and with it logging) when it
    # starts a pool, so neither loads with the CLI or a single lane
    code = (
        "import sys, numpy as np, regimelq.cli\n"
        "from regimelq.streams import CHUNK_SIZE, run_chunks\n"
        "loaded = lambda: sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules)\n"
        "draw = lambda rng, n: (np.zeros(n),)\n"
        "print(loaded())\n"
        "run_chunks(2 * CHUNK_SIZE, 1, 'lanes', draw, 1)\n"
        "print(loaded())\n"
        "run_chunks(2 * CHUNK_SIZE, 1, 'lanes', draw, 2)\n"
        "print(loaded())\n"
    )
    assert _fresh_python(code).split("\n")[:3] == [
        "[]", "[]", "['concurrent.futures', 'logging']"
    ]


@pytest.mark.parametrize("argv, absent", [
    (None, ["bsde", "meanvar", "riccati", "simulate", "verify"]),
    (["bsde", "--config", "random_coeff.json", "--grid", "4", "--paths", "200"],
     ["simulate", "verify", "meanvar", "riccati"]),
    (["verify", "--config", "two_regime.json", "--grid", "4", "--paths", "200",
      "--workers", "1"], ["bsde", "meanvar"]),
    (["solve", "--config", "scalar.json", "--grid", "10"],
     ["simulate", "verify", "bsde", "meanvar"]),
    (["solve", "--config", "market_one_regime.json", "--grid", "10"],
     ["simulate", "verify", "bsde"]),
], ids=["import", "bsde", "verify", "solve", "solve-market"])
def test_each_command_loads_only_the_engine_modules_it_runs(tmp_path, argv, absent):
    # the CLI imports a command's engine modules in that command's body, so
    # no invocation pays to compile and run the modules of another command
    rc, loaded = _run_in_fresh_python(argv, tmp_path, seed="5")
    assert rc == 0
    assert "regimelq.errors" in loaded
    assert not set(loaded) & {f"regimelq.{name}" for name in absent}


def test_readme_cli_lines_parse_and_name_bundled_configs():
    # the README's sh blocks are the documented way to run every experiment
    commands, in_sh = set(), False
    for line in (CONFIGS.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("regimelq "):
            args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
            assert (CONFIGS.parent / args.config).is_file(), line
            commands.add(args.command)
    assert commands == {"solve", "simulate", "verify", "frontier", "bsde"}
