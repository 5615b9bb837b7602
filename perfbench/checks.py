"""Independent checks of every op a workload ran.

Each check rebuilds the op's public ModeForms matrices from the config and
tests the reported number with scipy directly, never through the
program's own solver path:

* growth: alpha(s), the top eigenvalue of (E - sV, J) by dense eigh,
  brackets the reported fixed point, alpha(s) - s^2 changing sign between
  Lambda(1 - 1e-8) and Lambda(1 + 1e-8); a stable verdict needs alpha(0) < 0;
  and wherever the workload also has m_C for the mode, the status agrees
  with m < m_C;
* critical: the reported value equals sqrt(lambda_max(E, D)) to 1e-9
  relative, and the 32x32 box equals the frozen MC2D_32 to 1e-9;
* cr: lambda_max(N - cD; J) changes sign across c(1 -+ 1e-9), which is the
  definition of the ratio; the relative distance to the Schur-complement
  value (inertia additivity on the kernel/range split of D) is recorded.
  A value that fails this test only because it is the endpoint of the
  bisection's slacked test, g(c) <= 1e-10 (|N| + |c||D|) / |B|, is the
  known defect of ROADMAP item C (KNOWN_CR_SLACK): it is reported and
  lowers pass_frac, but it is not counted as a failed op.  Any other
  value that fails the sign test is a failed op;
* evolve: the fitted rate is within 1% of the dispersion Lambda (itself
  bracketed as above) and the energy identity drift is at most 1e-6; a
  random-data trajectory above threshold is stable and stays bounded.

The tolerances are fixed here, before any run, from what the dense route
can resolve; they are not tuned to the program's current output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from mrt.bounded2d import Rect2D, _growth_forms_2d, assemble_2d_quotient
from mrt.cli import validate_config
from mrt.grid1d import Grid1D
from mrt.modeforms import (ModeSpec, assemble_compressible, assemble_cr_forms,
                           assemble_incompressible, assemble_quotient)
from mrt.profiles import PhysicalParams, build_equilibrium, make_affine_profile

FIXED_POINT_REL = 1e-8
CRITICAL_REL = 1e-9
CR_REL = 1e-9
FIT_REL = 0.01
DRIFT_MAX = 1e-6
MC2D_32 = 0.29321534655474002  # frozen reference of the 32x32 box threshold
MC2D_TOL = 1e-9
# psd_ratio_sup accepts N - cD as semidefinite when its top eigenvalue is
# below this slack (ROADMAP item C), which biases the ratio downward
KNOWN_CR_SLACK = "cr-slack-bias (ROADMAP item C)"
CR_SLACK = 1e-10


@dataclass
class OpCheck:
    """Verdict on one op; info holds the measured errors.

    known names the known defect a failed op matches exactly; such an op
    is not passed, but it is not counted as failed either.
    """

    label: str
    passed: bool
    info: dict = field(default_factory=dict)
    known: str = ""


def top_eig(A: np.ndarray, B: np.ndarray) -> float:
    n = A.shape[0]
    return float(eigh(A, B, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0])


def _rows(path: Path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _num(cell: str):
    return None if cell == "" else float(cell)


def _params(cfg: dict) -> PhysicalParams:
    return PhysicalParams(g=cfg["g"], lambda0=cfg["lambda0"], mu=cfg["mu"],
                          mu0=cfg["mu0"], A=cfg["A"], gamma=cfg["gamma"])


class _Model:
    """Grid, profile and parameters a config describes (affine profiles)."""

    def __init__(self, raw: dict):
        cfg = validate_config(raw)
        if cfg["profile"] != "affine":
            raise ValueError("benchmark configs use the affine profile")
        self.cfg = cfg
        self.params = _params(cfg)
        if cfg["problem"] == "bounded2d":
            # the CLI samples the box profile on a 64-node fd2 grid
            half = max(abs(float(cfg["x3"][0])), abs(float(cfg["x3"][1])), 1e-6)
            self.grid = Grid1D("fd2", half, 64)
            self.rect = Rect2D(tuple(cfg["x1"]), tuple(cfg["x3"]),
                               cfg["nx"], cfg["nz"])
        else:
            self.grid = Grid1D(cfg["scheme"], cfg["l"], cfg["n"])
        self.profile = make_affine_profile(self.grid, cfg["rho_mid"], cfg["beta"])
        self.eq = None
        if cfg["problem"] == "compressible":
            self.eq = build_equilibrium(self.profile, self.params,
                                        cfg["pressure_const"], cfg["sign"])

    def mode(self, xi) -> ModeSpec:
        return ModeSpec.from_integers(self.cfg["L"], int(xi[0]), int(xi[1]),
                                      field_dir=self.cfg["field_dir"],
                                      m=self.cfg["m"])

    def growth_forms(self, xi=None):
        if self.cfg["problem"] == "bounded2d":
            return _growth_forms_2d(self.rect, self.profile, self.params,
                                    self.cfg["m"], self.cfg["field_dir"])
        if self.eq is not None:
            return assemble_compressible(self.mode(xi), self.eq, self.params,
                                         self.grid)
        return assemble_incompressible(self.mode(xi), self.profile,
                                       self.params, self.grid)


def check_fixed_point(forms, status: str, lam) -> tuple:
    """(passed, info) for one growth verdict against dense alpha(s)."""
    def h(s):
        return top_eig(forms.E - s * forms.V, forms.J) - s * s

    if status == "unstable":
        if lam is None or not lam > 0.0:
            return False, {"error": "unstable without a positive Lambda"}
        h_lo = h(lam * (1.0 - FIXED_POINT_REL))
        h_hi = h(lam * (1.0 + FIXED_POINT_REL))
        return (h_lo > 0.0 > h_hi,
                {"Lambda": lam, "h_at_Lambda": h(lam), "h_below": h_lo,
                 "h_above": h_hi})
    alpha0 = top_eig(forms.E, forms.J)
    if status == "stable":
        return alpha0 < 0.0, {"alpha0": alpha0}
    return False, {"error": f"unexpected status {status!r}", "alpha0": alpha0}


def _check_growth(raw: dict, out: Path, labels, ctx: dict) -> list:
    model = _Model(raw)
    cfg = model.cfg
    rows = _rows(out / "dispersion.csv")
    if len(rows) != len(labels):
        return [OpCheck(lab, False, {"error": "row count"}) for lab in labels]
    checks = []
    for lab, row in zip(labels, rows):
        if cfg["problem"] == "bounded2d":
            forms, key = model.growth_forms(), ("mesh", cfg["nx"], cfg["nz"])
        else:
            xi = (int(row["xi1"]), int(row["xi2"]))
            forms, key = model.growth_forms(xi), ("mode", cfg["problem"], xi)
        passed, info = check_fixed_point(forms, row["status"], _num(row["lambda"]))
        info["fixed_point_residual"] = _num(row["fixed_point_residual"])
        mc = ctx.get("critical", {}).get(key)
        if mc is not None:
            agrees = (row["status"] == "unstable") == (cfg["m"] < mc)
            info["m"], info["m_C"] = cfg["m"], mc
            passed = passed and agrees
        checks.append(OpCheck(lab, passed, info))
    return checks


def _check_critical(raw: dict, out: Path, labels, ctx: dict) -> list:
    model = _Model(raw)
    cfg = model.cfg
    rows = _rows(out / "critical.csv")
    if len(rows) != len(labels):
        return [OpCheck(lab, False, {"error": "row count"}) for lab in labels]
    checks = []
    store = ctx.setdefault("critical", {})
    for lab, row in zip(labels, rows):
        value = float(row["value"])
        if cfg["problem"] == "bounded2d":
            q = assemble_2d_quotient(model.rect, model.profile, model.params,
                                     cfg["field_dir"])
            key = ("mesh", cfg["nx"], cfg["nz"])
        else:
            xi = (int(row["xi1"]), int(row["xi2"]))
            q = assemble_quotient(model.mode(xi), model.profile, model.params,
                                  model.grid, i=cfg["field_dir"])
            key = ("mode", cfg["problem"], xi)
        ref = math.sqrt(max(top_eig(q.E, q.D), 0.0))
        err = abs(value - ref)
        passed = err <= CRITICAL_REL * ref
        info = {"value": value, "dense": ref, "rel_err": err / ref}
        if cfg["problem"] == "bounded2d" and (cfg["nx"], cfg["nz"]) == (32, 32):
            info["frozen_err"] = abs(value - MC2D_32)
            passed = passed and info["frozen_err"] <= MC2D_TOL
        store[key] = value
        checks.append(OpCheck(lab, passed, info))
    return checks


def schur_ratio(N: np.ndarray, D: np.ndarray, J: np.ndarray) -> float:
    """inf{c : N - cD negative semidefinite} through D's kernel/range split.

    On the kernel N must be negative definite (else +inf); then by
    Haynsworth inertia additivity the answer is the top eigenvalue of the
    Schur complement N_rr - N_rk N_kk^-1 N_kr against D_rr.
    """
    dvals, dvecs = np.linalg.eigh(D)
    kern = dvals <= 1e-12 * max(float(np.max(np.abs(dvals))), np.finfo(float).tiny)
    K, R = dvecs[:, kern], dvecs[:, ~kern]
    Nkk = K.T @ N @ K
    if K.shape[1] and top_eig(0.5 * (Nkk + Nkk.T), K.T @ J @ K) > 0.0:
        return math.inf
    Nkr = K.T @ N @ R
    S = R.T @ N @ R - Nkr.T @ np.linalg.solve(Nkk, Nkr)
    Drr = R.T @ D @ R
    return top_eig(0.5 * (S + S.T), 0.5 * (Drr + Drr.T))


def _check_cr(raw: dict, out: Path, labels, ctx: dict) -> list:
    model = _Model(raw)
    rows = _rows(out / "cr.csv")
    if len(rows) != len(labels):
        return [OpCheck(lab, False, {"error": "row count"}) for lab in labels]
    checks = []
    for lab, row in zip(labels, rows):
        xi = (int(row["xi1"]), int(row["xi2"]))
        f = assemble_cr_forms(model.mode(xi), model.eq, model.params, model.grid)
        c = float(row["value"])
        ref = schur_ratio(f.E, f.D, f.J)
        if math.isinf(c) or math.isinf(ref):
            checks.append(OpCheck(lab, c == ref, {"value": c, "schur": ref}))
            continue
        delta = CR_REL * abs(c)
        g_lo = top_eig(f.E - (c - delta) * f.D, f.J)
        g_hi = top_eig(f.E - (c + delta) * f.D, f.J)
        info = {"value": c, "schur": ref, "rel_err": abs(c - ref) / abs(ref),
                "g_below": g_lo, "g_above": g_hi}
        exact = g_lo > 0.0 >= g_hi
        known = ""
        if not exact and g_hi > 0.0:
            nN = float(np.linalg.norm(f.E, ord=np.inf))
            nD = float(np.linalg.norm(f.D, ord=np.inf))
            nB = float(np.linalg.norm(f.J, ord=np.inf))
            info["slack_below"] = CR_SLACK * (nN + abs(c - delta) * nD) / nB
            info["slack_above"] = CR_SLACK * (nN + abs(c + delta) * nD) / nB
            if g_lo > info["slack_below"] and g_hi <= info["slack_above"]:
                known = KNOWN_CR_SLACK
        checks.append(OpCheck(lab, exact, info, known))
    return checks


def _check_evolve(raw: dict, out: Path, labels, ctx: dict) -> list:
    model = _Model(raw)
    cfg = model.cfg
    s = json.loads((out / "summary.json").read_text())
    forms = model.growth_forms(cfg["xi"])
    status = s["dispersion_status"]
    lam = s["dispersion_lambda"]
    passed, info = check_fixed_point(forms, status, lam)
    if cfg["seed"] == "growing":
        fit = s["fit"]["lambda"]
        info["fit_rel_err"] = abs(fit - lam) / lam if fit is not None else math.inf
        info["max_energy_drift"] = s["max_energy_drift"]
        passed = (passed and info["fit_rel_err"] <= FIT_REL
                  and s["max_energy_drift"] <= DRIFT_MAX)
    else:
        info["bounded"] = s["flags"]["bounded"]
        passed = passed and status == "stable" and s["flags"]["bounded"]
    return [OpCheck(labels[0], passed, info)]


_CHECKS = {"growth": _check_growth, "critical": _check_critical,
           "cr": _check_cr, "evolve": _check_evolve}


def check_commands(commands, outdirs: dict) -> dict:
    """Per-command lists of OpCheck, keyed by command name.

    Critical commands are checked first so growth verdicts can be compared
    with m_C wherever the workload has both.
    """
    ctx: dict = {}
    order = sorted(commands, key=lambda c: c.verb != "critical")
    return {c.name: _CHECKS[c.verb](c.config, outdirs[c.name], c.op_labels, ctx)
            for c in order}
