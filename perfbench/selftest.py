"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's default pytest
collection: the smoke runs start the benchmark sixteen times and take a
few minutes.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from checks import KNOWN_CR_SLACK, check_commands, schur_ratio  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import COUNTS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Command, generate  # noqa: E402


def _shape(commands):
    return [(c.name, c.verb, c.ops) for c in commands]


def test_generator_is_deterministic_and_keeps_op_counts():
    for w in WORKLOADS:
        assert generate(w, 7) == generate(w, 7)
        assert generate(w, 7) != generate(w, 8)
        assert _shape(generate(w, 7)) == _shape(generate(w, 8))
        for c in generate(w, 7):
            modes = c.config.get("modes")
            if modes is not None:
                assert len(modes) == c.ops
                assert len({tuple(m) for m in modes}) == c.ops


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)


def _run_cli(tmp_path: Path, cmd: Command) -> Path:
    from mrt.cli import main
    cfg = tmp_path / f"{cmd.name}.json"
    cfg.write_text(json.dumps(cmd.config))
    out = tmp_path / cmd.name
    assert main([cmd.verb, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def _set_cell(path: Path, row: int, column: str, fn):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    rows[row][column] = repr(fn(float(rows[row][column])))
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _passed(verdicts, name):
    return [v.passed for v in verdicts[name]]


def test_wrong_growth_and_critical_results_fail(tmp_path):
    base = {"problem": "incompressible", "scheme": "chebyshev", "n": 32,
            "profile": "affine", "rho_mid": 2.0, "beta": 1.0, "m": 0.2,
            "field_dir": 3, "modes": [[2, 0], [1, 0]]}
    cmds = [Command("growth", "growth", base, ("(2,0)", "(1,0)")),
            Command("critical", "critical", base, ("(2,0)", "(1,0)"))]
    outs = {c.name: _run_cli(tmp_path, c) for c in cmds}
    verdicts = check_commands(cmds, outs)
    assert _passed(verdicts, "growth") == [True, True]
    assert _passed(verdicts, "critical") == [True, True]

    _set_cell(outs["growth"] / "dispersion.csv", 0, "lambda", lambda v: v * (1 + 1e-6))
    _set_cell(outs["critical"] / "critical.csv", 0, "value", lambda v: v * (1 + 1e-8))
    verdicts = check_commands(cmds, outs)
    assert _passed(verdicts, "growth") == [False, True]
    assert _passed(verdicts, "critical") == [False, True]

    # a critical value below m = 0.2 contradicts the stable (1,0) verdict
    _set_cell(outs["critical"] / "critical.csv", 1, "value", lambda v: 0.25)
    assert _passed(check_commands(cmds, outs), "growth") == [False, False]


def test_cr_check_accepts_the_exact_ratio_only(tmp_path):
    cmd = [c for c in generate("compressible_cr", 1) if c.verb == "cr"][0]
    cmd = Command("cr", "cr", dict(cmd.config, modes=[[1, 0]]), ("(1,0)",))
    out = _run_cli(tmp_path, cmd)
    reported = check_commands([cmd], {"cr": out})["cr"][0]
    # the program's value fails the exact test only by the known slack bias
    assert not reported.passed and reported.known == KNOWN_CR_SLACK
    exact = reported.info["schur"]
    _set_cell(out / "cr.csv", 0, "value", lambda v: exact)
    v = check_commands([cmd], {"cr": out})["cr"][0]
    assert v.passed and not v.known
    # wrong values, above or further below, are failures, not the known defect
    for factor in (1 + 1e-7, 1 - 1e-3):
        _set_cell(out / "cr.csv", 0, "value", lambda v: exact * factor)
        v = check_commands([cmd], {"cr": out})["cr"][0]
        assert not v.passed and not v.known


def test_schur_ratio_of_a_diagonal_pencil():
    import numpy as np
    # kernel of D is the first coordinate, where N = -1 < 0; on the range
    # N - cD is diagonal, so the answer is max(2/1, 3/4)
    N = np.diag([-1.0, 2.0, 3.0])
    D = np.diag([0.0, 1.0, 4.0])
    assert schur_ratio(N, D, np.eye(3)) == pytest.approx(2.0, rel=1e-14)
    assert math.isinf(schur_ratio(np.diag([1.0, 2.0, 3.0]), D, np.eye(3)))


def _bench(*args) -> tuple:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_workload(workload, seed):
    lines, res = _bench("--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] \
        == [(n, u) for n, u, _ in END_TO_END]
    for v in res["metrics"].values():
        assert math.isfinite(v["value"]) and v["value"] > 0.0
    rounds = next(ln for ln in lines if ln.startswith("# rounds ")).split()[2]
    ops = [ln for ln in lines if ln.startswith("# op ")]
    fails = [ln for ln in ops if " FAIL " in ln]
    known = [ln for ln in ops if " KNOWN " in ln]
    assert res["attempted"] == int(rounds) * len(ops)
    assert res["failed"] == int(rounds) * len(fails) == 0
    assert res["correct"]
    assert res["metrics"]["pass_frac"]["value"] \
        == 1.0 - (len(fails) + len(known)) / len(ops)
    # the known cr bias (ROADMAP item C) shows in every cr op
    assert all(" cr " in ln for ln in known)
    assert len(known) == (6 if workload == "compressible_cr" else 0)


def test_traced_counts_repeat_and_match_evaluations():
    runs = [_bench("--workload", "evolve_long", "--seed", "3", "--seconds", "1",
                   "--trace", "1") for _ in range(2)]
    for lines, res in runs:
        assert list(res["metrics"]) == [n for n, _, _ in PER_LAYER]
        cross = json.loads(next(ln for ln in lines
                                if ln.startswith("# crosscheck "))[len("# crosscheck "):])
        assert cross["counts_repeat"]
        assert all(c["top_pair_in_growth"] == c["evaluations"] > 0
                   for c in cross["growth"])
        assert res["correct"]
    a, b = (res["metrics"] for _, res in runs)
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["evolve.steps"]["value"] == 12000


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "slab_sweep", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
