"""Batch front end: validated JSON configs in, CSV/JSON/SVG artifacts out.

Commands: critical, growth, evolve, cr, verify.  Each takes --config and
--out; growth, critical and cr fan their modes out over worker threads
(--threads or MRT_THREADS) with deterministic output ordering.  Exit
codes: 0 success, 1 verify failures, 2 config errors, 3 solver breakdown.

main pins every OpenBLAS that numpy and scipy ship to one thread
(eigcore.pin_blas_threads) before it runs a command, for the rest of the
process: the pencils are too small for a second BLAS thread to pay, and a
single thread makes the artifacts the same bytes on any host, whatever its
core count.

Numbers are serialized with 17 significant digits so every CSV round-trips
losslessly; infinities appear as "inf"/"-inf" in both CSV and JSON.  Charts
are minimal hand-written SVG polylines; the CSV is the primary artifact.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounded2d import Rect2D, critical_m_2d, divergence_defect, growth_rate_2d
from .dispersion import (alpha_of_s, build_growing_mode, compute_cr,
                         critical_M, critical_m_sweep, quotient_proof_sequence,
                         solve_growth_rate)
from .eigcore import pin_blas_threads
from .errors import InputError, MrtError
from .evolve import envelope_check, init_state, run_trajectory
from .grid1d import Grid1D
from .modeforms import (ModeForms, ModeSpec, assemble_compressible,
                        assemble_incompressible)
from .profiles import (CompressibleEquilibrium, DensityProfile, PhysicalParams,
                       build_equilibrium, make_affine_profile,
                       make_table_profile, make_tanh_profile)

# the whole config contract: every key's type, bound and default
_SCHEMA = json.loads(Path(__file__).with_name("config_schema.json")
                     .read_text(encoding="utf-8"))

_TYPES = {
    "null": lambda v: v is None,
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    # JSON has no NaN or Infinity; the comparison also rejects both
    "number": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                         and abs(v) <= sys.float_info.max),
}


def _check(name: str, v, rule: dict):
    """Raise InputError unless v meets one schema rule (the keywords the
    schema uses; enum compares as JSON does, so true is not 1)."""
    types = rule.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        if not any(_TYPES[t](v) for t in types):
            kinds = " or ".join(types).replace("number", "finite number")
            raise InputError(f"{name} must be of type {kinds}")
    if "enum" in rule and not any(v == e and isinstance(v, bool) == isinstance(e, bool)
                                  for e in rule["enum"]):
        raise InputError(f"{name} must be one of {rule['enum']}")
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        if "minimum" in rule and v < rule["minimum"]:
            raise InputError(f"{name} must be at least {rule['minimum']}")
        if "exclusiveMinimum" in rule and v <= rule["exclusiveMinimum"]:
            raise InputError(f"{name} must exceed {rule['exclusiveMinimum']}")
    if isinstance(v, list):
        lo, hi = rule.get("minItems", 0), rule.get("maxItems", math.inf)
        if not lo <= len(v) <= hi:
            raise InputError(f"{name} needs {lo} to {hi} entries")
        for item in v:
            _check(f"{name} entry", item, rule.get("items", {}))
    if isinstance(v, dict):
        props = rule.get("properties", {})
        if rule.get("additionalProperties") is False and set(v) - set(props):
            raise InputError(f"unknown {name} keys: {sorted(set(v) - set(props))}")
        for key in rule.get("required", ()):
            if key not in v:
                raise InputError(f"{name} needs a {key!r} key")
        for key, item in v.items():
            _check(key, item, props.get(key, {}))


def validate_config(raw) -> dict:
    """Check raw against config_schema.json and fill its defaults; the
    schema's cross-key rules (bar evolve's T and dt) are checked here."""
    _check("config", raw, _SCHEMA)
    cfg = {key: copy.deepcopy(rule.get("default"))
           for key, rule in _SCHEMA["properties"].items()}
    cfg.update(raw)
    if cfg["profile"] == "table":
        if cfg["table_x"] is None or cfg["table_rho"] is None:
            raise InputError("table profiles need table_x and table_rho")
        if len(cfg["table_x"]) != len(cfg["table_rho"]):
            raise InputError("table_x and table_rho must have equal length")
    if cfg["problem"] == "compressible":
        for key in ("pressure_const", "mu0"):
            if cfg[key] is None:
                raise InputError(f"compressible runs need {key}")
    return cfg


# --------------------------------------------------------------------------
# config -> model objects
# --------------------------------------------------------------------------

def _build_profile(cfg, grid: Grid1D):
    kind = cfg["profile"]
    if kind == "affine":
        return make_affine_profile(grid, cfg["rho_mid"], cfg["beta"])
    if kind == "tanh":
        return make_tanh_profile(grid, cfg["rho_base"], cfg["rho_amp"],
                                 cfg["rho_steep"])
    return make_table_profile(grid, np.asarray(cfg["table_x"], dtype=float),
                              np.asarray(cfg["table_rho"], dtype=float))


def _build_params(cfg) -> PhysicalParams:
    return PhysicalParams(g=cfg["g"], lambda0=cfg["lambda0"], mu=cfg["mu"],
                          mu0=cfg["mu0"], A=cfg["A"], gamma=cfg["gamma"])


def _build_modes(cfg) -> list:
    return [ModeSpec.from_integers(cfg["L"], int(k1), int(k2),
                                   field_dir=cfg["field_dir"], m=cfg["m"])
            for k1, k2 in cfg["modes"]]


@dataclass(frozen=True)
class _Slab:
    """A slab problem as a config sets it up; eq is None unless the problem
    is compressible."""

    grid: Grid1D
    profile: DensityProfile
    params: PhysicalParams
    eq: CompressibleEquilibrium | None

    def assemble(self, mode: ModeSpec) -> ModeForms:
        if self.eq is None:
            return assemble_incompressible(mode, self.profile, self.params,
                                           self.grid)
        return assemble_compressible(mode, self.eq, self.params, self.grid)


def _build_slab(cfg) -> _Slab:
    grid = Grid1D(cfg["scheme"], cfg["l"], cfg["n"])
    profile = _build_profile(cfg, grid)
    params = _build_params(cfg)
    eq = None
    if cfg["problem"] == "compressible":
        eq = build_equilibrium(profile, params, cfg["pressure_const"],
                               cfg["sign"])
    return _Slab(grid, profile, params, eq)


def _build_box(cfg) -> tuple:
    """The rectangle and its density, sampled on 64 fd2 nodes over the
    half-height that covers the rectangle."""
    rect = Rect2D(tuple(cfg["x1"]), tuple(cfg["x3"]), cfg["nx"], cfg["nz"])
    a3, b3 = cfg["x3"]
    half = max(abs(float(a3)), abs(float(b3)), 1e-6)
    return rect, _build_profile(cfg, Grid1D("fd2", half, 64))


def _map_ordered(fn, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _fmt(x) -> str:
    """One CSV cell; floats at 17 significant digits round-trip exactly,
    and nan, inf and -inf print as such."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: Path, header, rows):
    """rows is an iterable of rows of cells, each formatted by _fmt, or a
    2D float array, whose cells take one format call each and no type
    test."""
    if isinstance(rows, np.ndarray):
        lines = [",".join([f"{v:.17g}" for v in row]) for row in rows.tolist()]
    else:
        lines = [",".join([_fmt(c) for c in row]) for row in rows]
    path.write_text("\n".join([",".join(header)] + lines) + "\n")


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return x


def _write_json(path: Path, obj):
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _svg_chart(path: Path, series, x_label: str, y_label: str, title: str):
    """Hand-written polyline chart; series is a list of (xs, ys, label)."""
    W, H, ML, MR, MT, MB = 640, 400, 64, 16, 32, 44
    pts = []
    for xs, ys, _ in series:
        pts.extend((float(a), float(b)) for a, b in zip(xs, ys)
                   if math.isfinite(float(a)) and math.isfinite(float(b)))
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
           f'viewBox="0 0 {W} {H}">',
           f'<rect width="{W}" height="{H}" fill="#ffffff"/>',
           f'<text x="{W / 2:.0f}" y="20" text-anchor="middle" '
           f'font-family="sans-serif" font-size="14">{title}</text>']
    if pts:
        xmin = min(p[0] for p in pts)
        xmax = max(p[0] for p in pts)
        ymin = min(p[1] for p in pts)
        ymax = max(p[1] for p in pts)
        if xmax - xmin <= 0.0:
            xmin, xmax = xmin - 0.5, xmax + 0.5
        if ymax - ymin <= 0.0:
            ymin, ymax = ymin - 0.5, ymax + 0.5

        def sx(x):
            return ML + (x - xmin) / (xmax - xmin) * (W - ML - MR)

        def sy(y):
            return H - MB - (y - ymin) / (ymax - ymin) * (H - MT - MB)

        out.append(f'<line x1="{ML}" y1="{H - MB}" x2="{W - MR}" y2="{H - MB}" '
                   f'stroke="#000000"/>')
        out.append(f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H - MB}" '
                   f'stroke="#000000"/>')
        for t in range(5):
            xv = xmin + t * (xmax - xmin) / 4
            yv = ymin + t * (ymax - ymin) / 4
            out.append(f'<text x="{sx(xv):.1f}" y="{H - MB + 16}" '
                       f'text-anchor="middle" font-family="sans-serif" '
                       f'font-size="11">{xv:.4g}</text>')
            out.append(f'<text x="{ML - 6}" y="{sy(yv) + 4:.1f}" '
                       f'text-anchor="end" font-family="sans-serif" '
                       f'font-size="11">{yv:.4g}</text>')
        for k, (xs, ys, label) in enumerate(series):
            color = _PALETTE[k % len(_PALETTE)]
            coords = [(sx(float(a)), sy(float(b))) for a, b in zip(xs, ys)
                      if math.isfinite(float(a)) and math.isfinite(float(b))]
            if len(coords) > 1:
                joined = " ".join(f"{a:.2f},{b:.2f}" for a, b in coords)
                out.append(f'<polyline points="{joined}" fill="none" '
                           f'stroke="{color}" stroke-width="1.5"/>')
            for a, b in coords:
                out.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" '
                           f'fill="{color}"/>')
            if label:
                out.append(f'<text x="{W - MR - 6}" y="{MT + 16 + 16 * k}" '
                           f'text-anchor="end" font-family="sans-serif" '
                           f'font-size="12" fill="{color}">{label}</text>')
    out.append(f'<text x="{W / 2:.0f}" y="{H - 8}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">{x_label}</text>')
    out.append(f'<text x="16" y="{H / 2:.0f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {H / 2:.0f})">{y_label}</text>')
    out.append("</svg>")
    path.write_text("\n".join(out) + "\n")


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_critical(cfg: dict, out: Path, threads: int) -> int:
    if cfg["problem"] == "compressible":
        raise InputError("critical strengths are an incompressible notion; "
                         "use the cr command for the compressible ratio")
    if cfg["problem"] == "bounded2d":
        rect, p = _build_box(cfg)
        value = critical_m_2d(rect, p, _build_params(cfg), cfg["field_dir"])
        rows = [(rect.nx, rect.nz, rect.aspect, value)]
        _write_csv(out / "critical.csv", ("nx", "nz", "aspect", "value"), rows)
        _write_json(out / "critical.json", {
            "schema": 1, "kind": "critical_2d", "direction": cfg["field_dir"],
            "aggregate": value, "unbounded": False,
            "per_mode": [{"nx": rect.nx, "nz": rect.nz,
                          "aspect": rect.aspect, "value": value}],
        })
        _svg_chart(out / "critical.svg", [([rect.aspect], [value], "m_C")],
                   "aspect", "critical strength", "bounded-domain critical strength")
        return 0

    slab = _build_slab(cfg)
    p, params, g1 = slab.profile, slab.params, slab.grid
    i = cfg["field_dir"]
    sweep_map = functools.partial(_map_ordered, threads=threads)
    report = critical_m_sweep(p, params, g1, i, _build_modes(cfg),
                              map_modes=sweep_map)
    if i == 3:
        aggregate = critical_M(p, params, g1).aggregate
    else:
        aggregate = report.aggregate
    rows = [(r.xi[0], r.xi[1], r.value, r.quotient, r.note)
            for r in report.per_mode]
    _write_csv(out / "critical.csv",
               ("xi1", "xi2", "value", "quotient", "note"), rows)
    _write_json(out / "critical.json", {
        "schema": 1, "kind": report.kind, "direction": i,
        "aggregate": aggregate, "sweep_sup": report.aggregate,
        "unbounded": report.unbounded,
        "per_mode": [{"xi1": r.xi[0], "xi2": r.xi[1], "value": r.value,
                      "note": r.note} for r in report.per_mode],
        "diagnostics": report.diagnostics,
    })
    finite = sorted((math.hypot(*r.xi), r.value) for r in report.per_mode
                    if math.isfinite(r.value))
    _svg_chart(out / "critical.svg",
               [([a for a, _ in finite], [b for _, b in finite], "m_C(xi)")],
               "|xi|", "critical strength", "per-mode critical strength")
    return 0


def _growth_results(cfg: dict, threads: int):
    """(label columns, per-mode results) for the growth command."""
    if cfg["problem"] == "bounded2d":
        rect, p = _build_box(cfg)
        res = growth_rate_2d(rect, p, _build_params(cfg), cfg["m"],
                             cfg["field_dir"])
        return [(rect.nx, rect.nz, rect.aspect)], [res], ("nx", "nz", "aspect")

    slab = _build_slab(cfg)
    modes = _build_modes(cfg)
    results = _map_ordered(lambda mode: solve_growth_rate(slab.assemble(mode)),
                           modes, threads)
    labels = [(mo.xi[0], mo.xi[1]) for mo in modes]
    return labels, results, ("xi1", "xi2")


def cmd_growth(cfg: dict, out: Path, threads: int) -> int:
    labels, results, label_cols = _growth_results(cfg, threads)
    rows = []
    alpha_rows = []
    curve = []
    for lab, res in zip(labels, results):
        lam = res.Lambda if res.unstable else None
        rows.append(lab + (lam, res.frak_s, res.status,
                           res.fixed_point_residual, res.eig_residual))
        for s, a in res.alpha_samples:
            alpha_rows.append(lab + (s, a))
        if res.unstable and len(lab) == 2:
            curve.append((math.hypot(lab[0], lab[1]), res.Lambda))
    _write_csv(out / "dispersion.csv",
               label_cols + ("lambda", "frakS", "status",
                             "fixed_point_residual", "eig_residual"), rows)
    _write_csv(out / "alpha.csv", label_cols + ("s", "alpha"), alpha_rows)
    curve.sort()
    _svg_chart(out / "dispersion.svg",
               [([a for a, _ in curve], [b for _, b in curve], "Lambda")],
               "|xi|", "growth rate", "growth rate against wavenumber")
    return 0


def cmd_evolve(cfg: dict, out: Path, threads: int) -> int:
    if cfg["problem"] == "bounded2d":
        raise InputError("evolution runs on the slab problems only")
    if cfg["T"] is None or cfg["dt"] is None:
        raise InputError("evolve needs T and dt")
    slab = _build_slab(cfg)
    pair = cfg["xi"] if cfg["xi"] is not None else cfg["modes"][0]
    mode = ModeSpec.from_integers(cfg["L"], int(pair[0]), int(pair[1]),
                                  field_dir=cfg["field_dir"], m=cfg["m"])
    forms = slab.assemble(mode)

    res = solve_growth_rate(forms)
    lam = res.Lambda if res.unstable else None
    if cfg["seed"] == "growing":
        gm = build_growing_mode(forms, res)
        u0, rho0, N0 = gm.y, gm.rho, gm.N
    else:
        rng = np.random.default_rng(cfg["seed_rng"])
        u0 = rng.standard_normal(forms.size)
        u0 = u0 / math.sqrt(max(float(u0 @ (forms.J @ u0)), 1e-300))
        rho0, N0 = None, None

    state = init_state(forms, u0, rho0, N0)
    rec = run_trajectory(state, cfg["T"], cfg["dt"],
                         diagnostics_every=cfg["diagnostics_every"])
    env = envelope_check(rec, lam)

    _write_csv(out / "trajectory.csv",
               ("t", "norm_rho", "norm_u", "norm_diu", "norm_ut",
                "norm_gradu", "norm_N", "energy_drift"),
               np.column_stack((rec.times, rec.norm_rho, rec.norm_u,
                                rec.norm_diu, rec.norm_ut, rec.norm_gradu,
                                rec.norm_N, rec.energy_drift)))
    _write_json(out / "summary.json", {
        "schema": 1, "problem": cfg["problem"], "seed": cfg["seed"],
        "xi": list(mode.xi), "dispersion_lambda": lam,
        "dispersion_status": res.status,
        "fit": {"lambda": rec.fit_rate, "band": rec.fit_band},
        "J0": rec.J0, "forcing_norm": rec.forcing_norm,
        "max_energy_drift": float(np.max(rec.energy_drift)),
        "max_first_order_defect": float(np.max(rec.first_order_defect)),
        "envelope": env.constants, "envelope_mode": env.mode,
        "flags": {"bounded": not env.flagged, "flagged": list(env.flagged)},
        "ledger": rec.ledger,
    })
    _svg_chart(out / "trajectory.svg",
               [(rec.times, rec.norm_u, "|u|"),
                (rec.times, rec.norm_ut, "|u_t|"),
                (rec.times, rec.norm_N, "|N|")],
               "t", "norm", "trajectory norms")
    return 0


def cmd_cr(cfg: dict, out: Path, threads: int) -> int:
    if cfg["problem"] != "compressible":
        raise InputError("the cr command applies to the compressible problem")
    slab = _build_slab(cfg)
    eq = slab.eq
    sweep_map = functools.partial(_map_ordered, threads=threads)
    report = compute_cr(eq, slab.params, slab.grid, _build_modes(cfg),
                        map_modes=sweep_map)
    rows = [(r.xi[0], r.xi[1], r.value, r.quotient, r.note)
            for r in report.per_mode]
    _write_csv(out / "cr.csv",
               ("xi1", "xi2", "value", "certificate", "note"), rows)
    _write_json(out / "cr.json", {
        "schema": 1, "kind": report.kind, "aggregate": report.aggregate,
        "unbounded": report.unbounded,
        "all_stable": all(r.quotient <= 0.0 for r in report.per_mode),
        "steady_residual": eq.steady_residual,
        "per_mode": [{"xi1": r.xi[0], "xi2": r.xi[1], "value": r.value,
                      "certificate": r.quotient, "note": r.note}
                     for r in report.per_mode],
    })
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _verify_checks(cfg: dict) -> list:
    checks = []

    def add(name, passed, **info):
        checks.append({"name": name, "passed": bool(passed), **info})

    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1)
    g64 = Grid1D("chebyshev", 1.0, 64)
    p64 = make_affine_profile(g64, 2.0, 1.0)

    rep = critical_M(p64, params, g64)
    err = abs(rep.aggregate - 2.0 / math.pi)
    add("slab_vertical_critical_number", err <= 1e-8,
        value=rep.aggregate, error=err)

    g96 = Grid1D("chebyshev", 1.0, 96)
    p96 = make_affine_profile(g96, 2.0, 1.0)
    seq = quotient_proof_sequence(p96, params, g96, range(8, 33))
    errs = [abs(v - seq.limit) for v in seq.values]
    slope = float(np.polyfit(np.log(np.asarray(seq.ks, dtype=float)),
                             np.log(errs), 1)[0])
    add("quotient_convergence_slope", -2.2 <= slope <= -1.8, slope=slope)

    sweep = [ModeSpec.from_integers(1.0, k, 0, field_dir=3) for k in range(1, 9)]
    rep3 = critical_m_sweep(p64, params, g64, 3, sweep)
    vals = [r.value for r in rep3.per_mode]
    mono = all(b > a for a, b in zip(vals, vals[1:]))
    below = all(v <= rep.aggregate + 1e-8 for v in vals)
    add("per_mode_monotone_below_limit", mono and below,
        first=vals[0], last=vals[-1], limit=rep.aggregate)

    rep1 = critical_m_sweep(p64, params, g64, 1,
                            [ModeSpec.from_integers(1.0, 0, 1, field_dir=1)])
    add("horizontal_no_stabilization_flag",
        rep1.unbounded and math.isinf(rep1.aggregate))

    mode = ModeSpec.from_integers(1.0, 1, 0, field_dir=3, m=0.0)
    forms = assemble_incompressible(mode, p64, params, g64)
    res = solve_growth_rate(forms)
    add("fixed_point_contract",
        res.unstable and res.fixed_point_residual <= res.tol ** 2,
        Lambda=res.Lambda, residual=res.fixed_point_residual)

    # the growth iterates cluster near Lambda, so a 12-point sweep over
    # [0, frak_s] joins them
    sweep = [(float(s), alpha_of_s(forms, float(s))[0])
             for s in np.linspace(0.0, res.frak_s, 12)]
    samples = sorted(set(res.alpha_samples) | set(sweep))
    band = 1e-10 * max(1.0, abs(res.alpha0))
    monotone = all(a2 <= a1 + band for (_, a1), (_, a2)
                   in zip(samples, samples[1:]))
    add("alpha_nonincreasing", monotone, evaluations=len(samples))

    # the threshold of xi = (2, 0), the second mode of the sweep above
    mck2 = rep3.per_mode[1].value
    lo = solve_growth_rate(assemble_incompressible(
        ModeSpec.from_integers(1.0, 2, 0, field_dir=3, m=0.999 * mck2),
        p64, params, g64))
    hi = solve_growth_rate(assemble_incompressible(
        ModeSpec.from_integers(1.0, 2, 0, field_dir=3, m=1.001 * mck2),
        p64, params, g64))
    add("threshold_dichotomy", lo.unstable and not hi.unstable,
        m_c=mck2, below_status=lo.status, above_status=hi.status)

    gm = build_growing_mode(forms, res)
    lam = res.Lambda
    drifts = []
    for dt in (2e-3 / lam, 1e-3 / lam):
        st = init_state(forms, gm.y, gm.rho, gm.N)
        rec = run_trajectory(st, 0.5 / lam, dt, diagnostics_every=50)
        drifts.append(float(np.max(rec.energy_drift)))
    ratio = drifts[0] / max(drifts[1], 1e-300)
    add("energy_drift_second_order", 2.5 <= ratio <= 6.0,
        coarse=drifts[0], fine=drifts[1], ratio=ratio)

    rect = Rect2D((-1.0, 1.0), (-1.0, 1.0), 16, 16)
    mc2d = critical_m_2d(rect, p64, params, 1)
    add("bounded_horizontal_threshold_finite",
        0.0 < mc2d < math.inf, value=mc2d)
    rng = np.random.default_rng(7)
    dd = divergence_defect(rect, rng.standard_normal(rect.nred))
    add("streamfunction_divergence_free", dd <= 1e-10, defect=dd)

    cparams = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.5)
    g48 = Grid1D("chebyshev", 1.0, 48)
    p48 = make_affine_profile(g48, 2.0, 0.5)
    eq = build_equilibrium(p48, cparams, 10.0)
    add("hydrostatic_balance_residual", eq.steady_residual <= 1e-8,
        residual=eq.steady_residual)

    return checks


def cmd_verify(cfg: dict, out: Path, threads: int) -> int:
    checks = _verify_checks(cfg)
    failed = [c["name"] for c in checks if not c["passed"]]
    _write_json(out / "verify.json", {
        "schema": 1, "passed": not failed, "failed": failed, "checks": checks,
    })
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"{status}  {c['name']}")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

_COMMANDS = {
    "critical": cmd_critical,
    "growth": cmd_growth,
    "evolve": cmd_evolve,
    "cr": cmd_cr,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="mrt",
        description="stability toolkit batch runner (critical strengths, "
                    "growth rates, linearized evolution)")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        s = sub.add_parser(name)
        s.add_argument("--config", required=True, help="JSON config file")
        s.add_argument("--out", required=True, help="output directory")
        s.add_argument("--threads", type=int, default=None,
                       help="sweep worker threads (default MRT_THREADS or 1)")
    args = ap.parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                raw = json.load(f)
        except OSError as e:
            raise InputError(f"cannot read config: {e}") from e
        except json.JSONDecodeError as e:
            raise InputError(f"config is not valid JSON: {e}") from e
        cfg = validate_config(raw)
        threads = args.threads
        if threads is None:
            env = os.environ.get("MRT_THREADS", "1") or "1"
            try:
                threads = int(env)
            except ValueError:
                raise InputError(f"MRT_THREADS must be an integer, got {env!r}") from None
        if threads < 1:
            raise InputError("threads must be >= 1")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        pin_blas_threads()
        return _COMMANDS[args.command](cfg, out, threads)
    except InputError as e:
        print(f"mrt: config error: {e}", file=sys.stderr)
        return 2
    except MrtError as e:
        print(f"mrt: solver error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
