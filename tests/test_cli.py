"""Command-line driver: config validation, artifacts, exit codes, determinism."""

import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import mrt
from mrt.cli import _SCHEMA, _fmt, main, validate_config
from mrt.errors import InputError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(*args):
    return main([str(a) for a in args])


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def _artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_every_public_name_resolves():
    # import * raises on a name that __all__ keeps after the package lost it
    ns = {}
    exec("from mrt import *", ns)
    assert set(mrt.__all__) <= set(ns)


def test_validate_config_defaults():
    cfg = validate_config({"problem": "incompressible"})
    assert cfg["scheme"] == "chebyshev"
    assert cfg["n"] == 96
    assert cfg["modes"] == [[1, 0]]


@pytest.mark.parametrize(
    "path", sorted(CONFIGS.glob("*.json")),
    ids=lambda p: p.name)
def test_shipped_configs_validate(path):
    raw = json.loads(path.read_text())
    assert validate_config(raw)["problem"] == raw["problem"]


def test_validate_config_rejections():
    with pytest.raises(InputError):
        validate_config([])
    with pytest.raises(InputError):
        validate_config({})
    with pytest.raises(InputError):
        validate_config({"problem": "incompressible", "typo_key": 1})
    with pytest.raises(InputError):
        validate_config({"problem": "maggot"})
    with pytest.raises(InputError):
        validate_config({"problem": "incompressible", "n": 2})
    with pytest.raises(InputError):
        validate_config({"problem": "incompressible", "n": 7})
    with pytest.raises(InputError):
        validate_config({"problem": "bounded2d", "nx": 4})
    with pytest.raises(InputError):
        validate_config({"problem": "incompressible", "n": True})
    with pytest.raises(InputError):
        validate_config({"problem": "incompressible", "mu": -0.1})
    with pytest.raises(InputError):
        validate_config({"problem": "incompressible", "modes": []})
    # compressible runs have extra required keys
    with pytest.raises(InputError):
        validate_config({"problem": "compressible"})
    validate_config({"problem": "compressible", "pressure_const": 4.0, "mu0": 0.5})


# compressible runs are legal with these; incompressible ones ignore them
_BASE = {"problem": "incompressible", "pressure_const": 4.0, "mu0": 0.5}


def _past_bounds(rule):
    """Values just outside each enum or lower bound a schema rule states."""
    if "enum" in rule:
        e = rule["enum"]
        yield (e[0] + "_x") if isinstance(e[0], str) else max(e) + 1
        yield True
    if "minimum" in rule:
        m = rule["minimum"]
        yield m - 1 if rule["type"] == "integer" else np.nextafter(m, -np.inf)
    if "exclusiveMinimum" in rule:
        yield rule["exclusiveMinimum"]


@pytest.mark.parametrize("key", sorted(_SCHEMA["properties"]))
def test_schema_bounds_and_defaults(key):
    rule = _SCHEMA["properties"][key]
    accepted = [rule["default"]] if "default" in rule else rule["enum"]
    if "minimum" in rule:
        accepted.append(rule["minimum"])
    if "exclusiveMinimum" in rule:
        accepted.append(float(np.nextafter(rule["exclusiveMinimum"], np.inf)))
    for value in accepted:
        assert validate_config({**_BASE, key: value})[key] == value
    for value in _past_bounds(rule):
        with pytest.raises(InputError):
            validate_config({**_BASE, key: value})


def test_enums_reject_booleans_and_tables_need_four_samples():
    # JSON true is not the number 1, so it matches no enum
    for key in ("field_dir", "sign"):
        with pytest.raises(InputError):
            validate_config({"problem": "incompressible", key: True})
    table = {"problem": "incompressible", "profile": "table"}
    with pytest.raises(InputError):
        validate_config({**table, "table_x": [-1.0, 0.0, 1.0],
                         "table_rho": [3.0, 2.0, 1.0]})
    with pytest.raises(InputError):
        validate_config({**table, "table_x": [-1.0, -0.5, 0.5, 1.0],
                         "table_rho": [3.0, 2.0, 1.0, 0.5, 0.0]})
    with pytest.raises(InputError):
        validate_config({**table, "table_x": [-1.0, -0.5, 0.5, 1.0]})
    validate_config({**table, "table_x": [-1.0, -0.5, 0.5, 1.0],
                     "table_rho": [3.0, 2.5, 1.5, 1.0]})


@pytest.mark.parametrize("command,overrides", [
    ("evolve", {"T": math.inf, "dt": 0.01}),
    ("evolve", {"T": 1.0, "dt": math.nan}),
    ("growth", {"m": math.nan}),
    ("evolve", {"T": 1.0, "dt": 0.01, "seed": "random", "seed_rng": -1}),
    ("evolve", {"T": 1.0, "dt": 0.01, "div_tol": 1e6}),
    ("growth", {"tol": 1e-6}),
], ids=["T_inf", "dt_nan", "m_nan", "seed_rng_negative", "div_tol_unknown",
        "tol_unknown"])
def test_non_finite_and_negative_seed_configs_exit_2(tmp_path, capsys, command,
                                                     overrides):
    cfg = write_cfg(tmp_path, "c.json",
                    {"problem": "incompressible", "n": 16, **overrides})
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "o") == 2
    assert "mrt: config error" in capsys.readouterr().err


@settings(max_examples=30, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_fmt_round_trips_floats(x):
    assert float(_fmt(x)) == x


def test_fmt_special_values():
    assert _fmt(float("inf")) == "inf"
    assert _fmt(float("-inf")) == "-inf"
    assert _fmt(float("nan")) == "nan"
    assert _fmt(True) == "true"
    assert math.isinf(float(_fmt(float("inf"))))


def _critical_cfg():
    return {
        "problem": "incompressible",
        "scheme": "chebyshev",
        "n": 32,
        "profile": "affine",
        "rho_mid": 2.0,
        "beta": 1.0,
        "field_dir": 3,
        "modes": [[1, 0], [2, 0], [4, 0]],
    }


def test_cmd_critical_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", _critical_cfg())
    out = tmp_path / "out"
    assert run_cli("critical", "--config", cfg, "--out", out) == 0
    assert (out / "critical.csv").exists()
    assert (out / "critical.svg").exists()
    doc = json.loads((out / "critical.json").read_text())
    assert doc["schema"] == 1
    assert doc["kind"] == "critical_m"
    assert 0.6 < doc["aggregate"] < 0.65
    rows = (out / "critical.csv").read_text().strip().split("\n")
    assert rows[0] == "xi1,xi2,value,quotient,note"
    assert len(rows) == 4


def test_cmd_critical_horizontal_unbounded(tmp_path):
    c = _critical_cfg()
    c["field_dir"] = 1
    c["modes"] = [[0, 1], [1, 1]]
    cfg = write_cfg(tmp_path, "c.json", c)
    out = tmp_path / "out"
    assert run_cli("critical", "--config", cfg, "--out", out) == 0
    doc = json.loads((out / "critical.json").read_text())
    assert doc["unbounded"] is True
    assert doc["aggregate"] == "inf"
    body = (out / "critical.csv").read_text()
    assert "inf" in body


def test_cmd_growth_and_determinism(tmp_path):
    c = _critical_cfg()
    c["m"] = 0.2
    cfg = write_cfg(tmp_path, "g.json", c)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert run_cli("growth", "--config", cfg, "--out", out, "--threads", 2) == 0
        outs.append(out)
    for fname in ("dispersion.csv", "alpha.csv", "dispersion.svg"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b
    rows = (outs[0] / "dispersion.csv").read_text().strip().split("\n")
    assert rows[0].startswith("xi1,xi2")
    # m=0.2 sits between the k=1 and k=2 per-mode thresholds
    assert "unstable" not in rows[1]
    assert "unstable" in rows[2]


def test_cmd_evolve_growing(tmp_path):
    c = _critical_cfg()
    c.update({"m": 0.2, "xi": [2, 0], "T": 2.0, "dt": 0.02,
              "seed": "growing", "diagnostics_every": 5})
    cfg = write_cfg(tmp_path, "e.json", c)
    out = tmp_path / "out"
    assert run_cli("evolve", "--config", cfg, "--out", out) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["dispersion_status"] == "unstable"
    # fitted rate close to the dispersion rate even on the coarse grid
    assert abs(doc["fit"]["lambda"] - doc["dispersion_lambda"]) <= 1e-3
    assert doc["flags"]["bounded"] is True
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0].startswith("t,")
    assert (out / "trajectory.svg").exists()


def test_cmd_evolve_stable_mode_exits_3(tmp_path):
    c = _critical_cfg()
    c.update({"m": 2.0, "xi": [2, 0], "T": 1.0, "dt": 0.1, "seed": "growing"})
    cfg = write_cfg(tmp_path, "e.json", c)
    assert run_cli("evolve", "--config", cfg, "--out", tmp_path / "out") == 3


def test_cmd_cr(tmp_path):
    cfg = write_cfg(tmp_path, "cr.json", {
        "problem": "compressible",
        "scheme": "chebyshev",
        "n": 32,
        "profile": "affine",
        "rho_mid": 1.0,
        "beta": 0.0,
        "gamma": 2.0,
        "A": 1.0,
        "mu": 0.1,
        "mu0": 0.5,
        "pressure_const": 4.0,
        "modes": [[1, 0], [2, 0]],
    })
    out = tmp_path / "out"
    assert run_cli("cr", "--config", cfg, "--out", out) == 0
    doc = json.loads((out / "cr.json").read_text())
    assert doc["kind"] == "cr"
    assert doc["steady_residual"] <= 1e-6
    # flat density is not buoyant: every mode stable with margin
    assert doc["all_stable"] is True
    assert doc["aggregate"] < 0.0
    rows = (out / "cr.csv").read_text().strip().split("\n")
    assert rows[0] == "xi1,xi2,value,certificate,note"


def test_cr_command_requires_compressible(tmp_path):
    cfg = write_cfg(tmp_path, "x.json", _critical_cfg())
    assert run_cli("cr", "--config", cfg, "--out", tmp_path / "o") == 2


def test_critical_rejects_compressible(tmp_path):
    cfg = write_cfg(tmp_path, "x.json", {
        "problem": "compressible", "pressure_const": 4.0, "mu0": 0.5})
    assert run_cli("critical", "--config", cfg, "--out", tmp_path / "o") == 2


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("critical", "--config", bad, "--out", tmp_path / "o") == 2
    missing = tmp_path / "missing.json"
    assert run_cli("critical", "--config", missing, "--out", tmp_path / "o") == 2
    unknown = write_cfg(tmp_path, "u.json", {"problem": "incompressible", "zzz": 1})
    assert run_cli("critical", "--config", unknown, "--out", tmp_path / "o") == 2


def test_bounded2d_critical(tmp_path):
    cfg = write_cfg(tmp_path, "b.json", {
        "problem": "bounded2d",
        "x1": [-1.0, 1.0],
        "x3": [-1.0, 1.0],
        "nx": 16,
        "nz": 16,
        "field_dir": 1,
        "profile": "affine",
        "rho_mid": 2.0,
        "beta": 1.0,
    })
    out = tmp_path / "out"
    assert run_cli("critical", "--config", cfg, "--out", out) == 0
    doc = json.loads((out / "critical.json").read_text())
    assert doc["kind"] == "critical_2d"
    assert 0.2 < doc["aggregate"] < 0.4
    rows = (out / "critical.csv").read_text().strip().split("\n")
    assert rows[0] == "nx,nz,aspect,value"


def test_box_artifacts_repeat_across_threads(tmp_path):
    # ARPACK starts from a fixed vector, never a random one, so the box
    # artifacts repeat bit for bit whatever the thread count
    cfg = write_cfg(tmp_path, "b.json", {
        "problem": "bounded2d", "nx": 20, "nz": 20, "field_dir": 1,
        "profile": "affine", "rho_mid": 2.0, "beta": 1.0, "m": 0.1})
    for command in ("critical", "growth"):
        runs = []
        for threads in (1, 1, 2, 2):
            out = tmp_path / f"{command}{len(runs)}"
            assert run_cli(command, "--config", cfg, "--out", out,
                           "--threads", threads) == 0
            runs.append(_artifacts(out))
        assert runs[0]
        assert all(r == runs[0] for r in runs[1:])


def test_evolve_artifacts_repeat_across_threads(tmp_path):
    # evolve runs one mode: a repeat run and any thread count write the
    # same bytes
    c = _critical_cfg()
    c.update({"m": 0.2, "xi": [2, 0], "T": 0.4, "dt": 0.002,
              "seed": "growing", "diagnostics_every": 10})
    cfg = write_cfg(tmp_path, "e.json", c)
    runs = []
    for threads in (1, 1, 2, 2):
        out = tmp_path / f"evolve{len(runs)}"
        assert run_cli("evolve", "--config", cfg, "--out", out,
                       "--threads", threads) == 0
        runs.append(_artifacts(out))
    assert set(runs[0]) == {"summary.json", "trajectory.csv", "trajectory.svg"}
    assert all(r == runs[0] for r in runs[1:])


def test_verify_command(tmp_path):
    cfg = write_cfg(tmp_path, "v.json", {"problem": "incompressible"})
    out = tmp_path / "out"
    assert run_cli("verify", "--config", cfg, "--out", out) == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["passed"] is True
    assert doc["failed"] == []
    assert len(doc["checks"]) >= 10
    assert all(c["passed"] for c in doc["checks"])


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("MRT_THREADS", "2")
    cfg = write_cfg(tmp_path, "c.json", _critical_cfg())
    assert run_cli("critical", "--config", cfg, "--out", tmp_path / "o") == 0
    for bad in ("0", "abc", " "):
        monkeypatch.setenv("MRT_THREADS", bad)
        assert run_cli("critical", "--config", cfg, "--out", tmp_path / "o2") == 2


def _openblas_libs() -> list:
    """Every OpenBLAS that the numpy and scipy wheels ship."""
    return [ctypes.CDLL(str(path)) for pkg in (np, scipy)
            for path in sorted((Path(pkg.__file__).parent.parent
                                / f"{pkg.__name__}.libs").glob("*openblas*.so*"))]


def test_main_pins_every_openblas_to_one_thread(tmp_path):
    libs = _openblas_libs()
    if not libs:
        pytest.skip("numpy and scipy ship no OpenBLAS here")
    getters = []
    for lib in libs:
        suffix = "64_" if hasattr(lib, "scipy_openblas_get_num_threads64_") else ""
        set_threads = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(2)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        getters.append(get_threads)
    cfg = write_cfg(tmp_path, "c.json", _critical_cfg())
    assert run_cli("critical", "--config", cfg, "--out", tmp_path / "o") == 0
    assert [get() for get in getters] == [1] * len(libs)


def test_evolve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the process pins OpenBLAS to one thread whatever the environment asks
    # for, so the trajectory is the same bits on any host
    src = str(Path(mrt.__file__).resolve().parents[1])
    runs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"evolve{blas_threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                   PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "mrt.cli", "evolve",
                        "--config", str(CONFIGS / "evolve_growing.json"),
                        "--out", str(out)], env=env, check=True)
        runs.append(_artifacts(out))
    assert set(runs[0]) == {"summary.json", "trajectory.csv", "trajectory.svg"}
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command, config", [("cr", "parker_cr.json"),
                                             ("critical", "slab_critical.json")])
def test_sweep_artifacts_repeat_across_threads(tmp_path, command, config):
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"{command}{threads}"
        assert run_cli(command, "--config", CONFIGS / config, "--out", out,
                       "--threads", threads) == 0
        runs.append(_artifacts(out))
    assert runs[0]
    assert runs[0] == runs[1]
