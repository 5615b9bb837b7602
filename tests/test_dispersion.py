"""Critical numbers, growth rates, and growing modes of the slab."""

import json
import math
from decimal import Decimal, localcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh

from mrt import dispersion, eigcore, modeforms
from mrt.dispersion import (
    _Pencil,
    alpha_of_s,
    build_growing_mode,
    compute_cr,
    critical_M,
    critical_m_sweep,
    quotient_proof_sequence,
    solve_growth_rate,
)
from mrt.bounded2d import (Rect2D, assemble_2d_quotient, critical_m_2d,
                           growth_rate_2d)
from mrt.cli import _build_modes, _build_slab, validate_config
from mrt.eigcore import psd_ratio_sup, top_pair
from mrt.errors import NoGrowth, ZeroMode
from mrt.grid1d import Grid1D
from mrt.evolve import init_state, run_trajectory
from mrt.modeforms import (FormTerm, ModeForms, ModeSpec, assemble_compressible,
                           assemble_cr_forms, assemble_incompressible,
                           assemble_quotient, qform_value_ld)
from mrt.profiles import (
    PhysicalParams,
    build_equilibrium,
    make_affine_profile,
    make_table_profile,
    make_tanh_profile,
    min_admissible_pressure_const,
)

from oracles import (growing_mode_checks, gsym_eigenvalues_reference,
                     psd_ratio_schur, scalar_growth_bisection)

TWO_OVER_PI = 2.0 / np.pi
# frozen solver outputs for rho' = 1, g = lambda0 = 1, l = 1
MC_CHEB64 = 0.63661977287641081
MC_FD256 = 0.63662410626292376
LAMBDA_STD64 = 0.22083806960518784


def test_critical_number_chebyshev(affine64, params_std):
    rep = critical_M(affine64, params_std, affine64.grid)
    assert rep.kind == "critical_M"
    assert abs(rep.aggregate - TWO_OVER_PI) <= 1e-8
    assert abs(rep.aggregate - MC_CHEB64) <= 1e-10


def test_critical_number_fd2(params_std):
    g1 = Grid1D("fd2", 1.0, 256)
    prof = make_affine_profile(g1, 2.0, 1.0)
    rep = critical_M(prof, params_std, g1)
    assert abs(rep.aggregate - TWO_OVER_PI) <= 1e-3 * TWO_OVER_PI
    assert abs(rep.aggregate - MC_FD256) <= 1e-9


def test_critical_values_are_long_double_quotients(params_std):
    # every reported critical strength squared is the long-double factored
    # quotient of the refined top vector, not the double quotient of the
    # assembled matrices (4e-11 apart here, where |D| reaches 4e9), and
    # agrees with a dense eigh
    g1 = Grid1D("chebyshev", 1.0, 96)
    prof = make_affine_profile(g1, 2.0, 1.0)
    sweep = [ModeSpec.from_integers(1.0, k, 0, field_dir=3) for k in range(1, 9)]
    rep = critical_m_sweep(prof, params_std, g1, 3, sweep)
    cases = [(row.value, assemble_quotient(mode, prof, params_std, g1))
             for mode, row in zip(sweep, rep.per_mode)]
    rect = Rect2D((-1.0, 1.0), (-1.0, 1.0), 32, 32)
    box_prof = make_affine_profile(Grid1D("fd2", 1.0, 64), 2.0, 1.0)
    cases.append((critical_m_2d(rect, box_prof, params_std, 1),
                  assemble_2d_quotient(rect, box_prof, params_std, 1)))
    for value, q in cases:
        _, x = top_pair(q.E, q.D)
        ld = float(qform_value_ld(q.terms_E, x) / qform_value_ld(q.terms_D, x))
        assert abs(value ** 2 - ld) <= 1e-15 * ld
        n = q.size
        dense = eigh(q.E, q.D, eigvals_only=True,
                     subset_by_index=(n - 1, n - 1))[0]
        assert abs(value ** 2 - dense) <= 1e-9 * dense


def test_growth_rate_vs_scalar_bisection(forms_std):
    res = solve_growth_rate(forms_std)
    assert res.unstable and res.status == "unstable"
    assert abs(res.Lambda - LAMBDA_STD64) <= 1e-9

    # independent route: dense eigh for alpha, plain bisection for the root
    E, V, J = forms_std.E, forms_std.V, forms_std.J

    def alpha(s):
        M = E - s * V
        return eigh(0.5 * (M + M.T), J, eigvals_only=True,
                    subset_by_index=(J.shape[0] - 1, J.shape[0] - 1))[0]

    ref = scalar_growth_bisection(alpha, 0.1, 0.5)
    assert abs(res.Lambda - ref) <= 1e-8


def test_fixed_point_and_eig_residual(forms_std):
    res = solve_growth_rate(forms_std)
    assert res.fixed_point_residual <= res.tol**2
    assert res.eig_residual <= 1e-6
    assert res.scale > 0.0
    # maximizer is J-normalized
    x = res.maximizer
    assert abs(float(x @ (forms_std.J @ x)) - 1.0) <= 1e-8


def test_alpha_samples_nonincreasing(forms_std):
    res = solve_growth_rate(forms_std)
    # the growth iterates alone are a few points near Lambda; add an independent
    # sweep over [0, frak_s]
    sweep = [(float(s), alpha_of_s(forms_std, float(s))[0])
             for s in np.linspace(0.0, res.frak_s, 12)]
    samples = sorted(set(res.alpha_samples) | set(sweep))
    assert len(samples) >= 12
    band = 1e-10 * max(1.0, abs(res.alpha0))
    for (s1, a1), (s2, a2) in zip(samples, samples[1:]):
        assert a2 <= a1 + band


def test_frak_s_is_right_endpoint(forms_std):
    res = solve_growth_rate(forms_std)
    assert res.frak_s is not None
    assert res.Lambda < res.frak_s
    for f in (1.05, 1.0 + 1e-9):
        val, _ = alpha_of_s(forms_std, f * res.frak_s)
        assert val <= 1e-10 * max(1.0, abs(res.alpha0))
    for f in (0.5, 1.0 - 1e-9):
        val_in, _ = alpha_of_s(forms_std, f * res.frak_s)
        assert val_in > 0.0


def _growth_case(scheme, n, problem, shape, arg):
    g1 = Grid1D(scheme, 1.0, n)
    prof = (make_affine_profile(g1, 2.0, 1.0) if shape == "affine"
            else make_tanh_profile(g1, 2.0, 1.0, 4.0))
    if problem == "incompressible":
        params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1)
        mode = ModeSpec.from_integers(1.0, 2, 1 if arg == 1 else 0,
                                      field_dir=arg, m=0.2)
        return assemble_incompressible(mode, prof, params, g1)
    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.5)
    eq = build_equilibrium(prof, params,
                           1.5 * min_admissible_pressure_const(prof, params))
    return assemble_compressible(ModeSpec.from_integers(1.0, 0, arg), eq,
                                 params, g1)


@pytest.mark.parametrize("case", [
    (scheme, n, "incompressible", shape, field_dir)
    for scheme, n in (("chebyshev", 32), ("fd2", 64))
    for shape in ("affine", "tanh") for field_dir in (1, 3)
] + [
    (scheme, n, "compressible", shape, k2)
    for scheme, n in (("chebyshev", 24), ("fd2", 48))
    for shape in ("affine", "tanh") for k2 in (1, 2)
], ids=lambda c: "-".join(map(str, c)))
def test_growth_newton_cost_and_root(case):
    # the growth iteration (Newton on alpha with s^2 kept exact: the tangent
    # of alpha meets s^2 at the root of the maximizer's quadratic) lands on
    # the root plain bisection finds on the same long-double alpha, within
    # at most 10 eigensolves per mode
    forms = _growth_case(*case)
    res = solve_growth_rate(forms)
    assert res.unstable
    assert res.evaluations <= 10
    pen = _Pencil(forms)
    lam = res.Lambda
    val, x = pen.alpha_ld(lam)
    h = float(abs(val - np.longdouble(lam) * np.longdouble(lam)))
    vq = abs(float(x @ (pen.C @ x))) / float(x @ (pen.B @ x))
    h_floor = (2.0 * lam + vq) * np.spacing(lam)
    assert h <= max(res.tol ** 2, 2.0 * h_floor)
    ref = scalar_growth_bisection(lambda s: pen.alpha_ld(s)[0], 0.0,
                                  res.frak_s, iters=64)
    assert abs(lam - ref) <= 1e-15 * ref


def test_growth_factorizations_per_solve(params_std, monkeypatch):
    # J and V are each checked and factored once per solve.  The cold dense
    # evaluations, alpha(0) and frak_s, factor once more each, to refine
    # LAPACK's vector.  A warm one (the probe and the 4 iterates) factors at
    # the caller's bound and again where its quotient settles, and refines
    # with that second factor.  A sparse evaluation factors once per shift
    # it tries and refines ARPACK's vector with the factor that certified
    # its shift
    counts = {"factor": 0, "refine": 0}
    for name, key in (("cholesky", "factor"), ("cho_factor", "factor"),
                      ("_band_cholesky", "factor"), ("refine_top", "refine")):
        def counted(*args, _f=getattr(eigcore, name), _k=key, **kwargs):
            counts[_k] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(eigcore, name, counted)

    g1 = Grid1D("chebyshev", 1.0, 96)
    mode = ModeSpec.from_integers(1.0, 2, 1, field_dir=3, m=0.2)
    forms = assemble_incompressible(mode, make_affine_profile(g1, 2.0, 1.0),
                                    params_std, g1)
    res = solve_growth_rate(forms)
    assert res.evaluations == 7
    assert counts == {"factor": 2 + 2 + 2 * 5, "refine": 2}

    rect = Rect2D((-1.0, 1.0), (-1.0, 1.0), 32, 32)
    box_prof = make_affine_profile(Grid1D("fd2", 1.0, 64), 2.0, 1.0)
    for i, evaluations, factorizations in ((1, 8, 12), (3, 9, 18)):
        counts["factor"] = counts["refine"] = 0
        res = growth_rate_2d(rect, box_prof, params_std, 0.12, i)
        assert res.unstable and res.evaluations == evaluations
        assert counts == {"factor": factorizations, "refine": 0}


def _count_eigh(monkeypatch) -> list:
    """Every LAPACK eigensolve eigcore makes from here on, one entry each."""
    calls = []

    def counted(*args, _f=eigcore.eigh, **kwargs):
        calls.append(args[0].shape[0])
        return _f(*args, **kwargs)

    monkeypatch.setattr(eigcore, "eigh", counted)
    return calls


_CI_COMPRESSIBLE = {"problem": "compressible", "n": 64, "beta": 0.5,
                    "mu0": 0.5, "pressure_const": 10.0}


@pytest.mark.parametrize("cfg", [
    json.loads((Path(__file__).resolve().parents[1] / "configs"
                / "slab_growth.json").read_text()),
    {**_CI_COMPRESSIBLE, "modes": [[0, 1], [0, 2], [1, 0]]},
], ids=["slab_growth", "ci_compressible"])
def test_growth_iterates_run_no_dense_eigensolve(cfg, monkeypatch):
    # LAPACK runs only for the cold evaluations: alpha(0) on every mode and
    # frak_s on an unstable one.  The probe and the iterates inverse-iterate
    # from the previous maximizer at the certified bound the step before
    # left, so no iterate falls back to LAPACK
    cfg = validate_config(cfg)
    slab = _build_slab(cfg)
    calls = _count_eigh(monkeypatch)
    statuses = []
    for mode in _build_modes(cfg):
        calls.clear()
        res = solve_growth_rate(slab.assemble(mode))
        statuses.append(res.status)
        assert len(calls) == (2 if res.unstable else 1), mode.xi
    assert "unstable" in statuses and "stable" in statuses


def _two_block_forms(e, v):
    """Forms of two decoupled 1x1 blocks, alpha(s) = max_i(e_i - v_i s),
    which has a kink where the two lines cross."""
    e, v = np.asarray(e, dtype=float), np.asarray(v, dtype=float)

    def terms(d):
        return (FormTerm(1.0, d, np.eye(2)),)

    return ModeForms(kind="compressible", mode=None, grid=None, layout={},
                     size=2, terms_E=terms(e), terms_V=terms(v),
                     terms_J=terms(np.ones(2)))


def _quadratic_root(e: float, v: float) -> float:
    """Positive root of t² + vt − e = 0, correctly rounded."""
    with localcontext() as ctx:
        ctx.prec = 50
        e, v = Decimal(e), Decimal(v)
        return float((-v + (v * v + 4 * e).sqrt()) / 2)


@pytest.mark.parametrize("e,v,fallbacks", [
    # the steep first block holds the top from the probe to Lambda
    ((12.0, 4.0), (7.0, 2.0), 0),
    # the steep second block holds the top at the probe, and its root lies
    # past the crossing at s = 2/8.9, where the flat first block takes over;
    # inverse iteration from the second block's vector never leaves that
    # block, its quotient cannot be certified as the top, and the iterate
    # falls back to LAPACK once
    ((1.0, 3.0), (0.1, 9.0), 1),
], ids=["one_block", "block_switch"])
def test_growth_iterates_rise_to_root(e, v, fallbacks, monkeypatch):
    # alpha(s) = max_i(e_i - v_i s): each iterate is the root of the top
    # block's quadratic, a lower bound on Lambda, so the samples past the
    # probe rise strictly and never pass Lambda, which is the first block's
    # root
    calls = _count_eigh(monkeypatch)
    res = solve_growth_rate(_two_block_forms(e, v))
    assert len(calls) == 2 + fallbacks
    assert res.unstable
    lam = res.Lambda
    assert abs(lam - _quadratic_root(e[0], v[0])) <= np.spacing(lam)
    iterates = [s for s, _ in res.alpha_samples[1:]]
    assert all(s1 < s2 for s1, s2 in zip(iterates, iterates[1:]))
    assert all(s <= lam for s, _ in res.alpha_samples)
    assert iterates[-1] == lam
    assert res.evaluations < dispersion._MAX_STEPS


def test_growth_probe_past_root_starts_at_zero():
    # alpha(s) = 5e-13 - 1e-7 s is positive at the probe s0 = 1e-6 but
    # below s0^2, so Lambda < s0: the iteration rises from the maximizer
    # at 0 instead, and its first root is Lambda
    res = solve_growth_rate(_two_block_forms([5e-13, 1e-14], [1e-7, 1.0]))
    assert res.unstable
    (_, a0), (s0, _), (lam, _) = res.alpha_samples
    assert a0 == 5e-13 and lam == res.Lambda < s0
    assert abs(lam - _quadratic_root(5e-13, 1e-7)) <= np.spacing(lam)


def test_threshold_dichotomy(affine64, params_std):
    g1 = affine64.grid
    mc = critical_m_sweep(affine64, params_std, g1, 3,
                          [ModeSpec.from_integers(1.0, 2, 0)]).per_mode[0].value
    assert 0.0 < mc < TWO_OVER_PI

    def solve_at(m):
        mode = ModeSpec.from_integers(1.0, 2, 0, field_dir=3, m=m)
        return solve_growth_rate(
            assemble_incompressible(mode, affine64, params_std, g1))

    below = solve_at(0.999 * mc)
    above = solve_at(1.001 * mc)
    assert below.unstable and below.Lambda > 0.0
    assert not above.unstable
    assert above.Lambda is None and above.frak_s is None


def test_phi_mass_checked_on_request(forms_std):
    # the pencil drops phi; the full-space maximizer at s = Lambda must
    # carry no J-mass on the dropped block
    res = solve_growth_rate(forms_std)
    assert abs(res.Lambda - LAMBDA_STD64) <= 1e-8
    E, V, J = forms_std.E, forms_std.V, forms_std.J
    M = E - res.Lambda * V
    n = J.shape[0]
    _, x = eigh(0.5 * (M + M.T), J, subset_by_index=(n - 1, n - 1))
    x = x[:, 0]
    xp = np.zeros_like(x)
    sp = forms_std.layout["phi"]
    xp[sp] = x[sp]
    ratio = math.sqrt(max(float(xp @ (J @ xp)), 0.0) / float(x @ (J @ x)))
    assert ratio <= 1e-8


def test_sweep_vertical_monotone(affine64, params_std):
    g1 = affine64.grid
    rep = critical_m_sweep(affine64, params_std, g1, 3,
                           [ModeSpec.from_integers(1.0, k, 0) for k in (1, 2, 4, 8)])
    vals = [r.value for r in rep.per_mode]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v <= TWO_OVER_PI + 1e-8 for v in vals)
    assert not rep.unbounded
    assert rep.aggregate == pytest.approx(vals[-1])
    assert "deltas" in rep.diagnostics


def test_sweep_horizontal_flags_interchange(affine64, params_std):
    g1 = affine64.grid
    rep = critical_m_sweep(affine64, params_std, g1, 1,
                           [ModeSpec.from_integers(1.0, 0, 1, field_dir=1),
                            ModeSpec.from_integers(1.0, 1, 1, field_dir=1)])
    row = rep.per_mode[0]
    assert row.value == np.inf
    assert "no stabilization" in row.note
    assert rep.unbounded
    assert rep.aggregate == np.inf
    # the xi1 != 0 row is finite
    assert np.isfinite(rep.per_mode[1].value)


def test_sweep_horizontal_not_buoyant(cheb64, params_std):
    heavy_down = make_affine_profile(cheb64, 2.0, -0.5)
    rep = critical_m_sweep(heavy_down, params_std, cheb64, 1,
                           [ModeSpec.from_integers(1.0, 0, 1, field_dir=1)])
    row = rep.per_mode[0]
    assert row.value == 0.0
    assert not rep.unbounded


def test_sweep_rejects_zero_mode(affine64, params_std):
    with pytest.raises(ZeroMode):
        critical_m_sweep(affine64, params_std, affine64.grid, 3,
                         [ModeSpec.from_integers(1.0, 0, 0)])


def test_proof_sequence_second_order(affine64, params_std):
    g1 = affine64.grid
    ks = np.arange(8, 33)
    seq = quotient_proof_sequence(affine64, params_std, g1, ks)
    mc = critical_M(affine64, params_std, g1).aggregate
    assert abs(seq.limit - mc) <= 1e-10
    errs = seq.limit - np.asarray(seq.values)
    assert np.all(errs > 0.0)
    slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
    assert -2.2 <= slope <= -1.8
    # flat rho': the curvature penalty of the maximizer is the Poincare
    # constant (pi/2)^2
    assert abs(seq.curvature_ratio - (np.pi / 2.0) ** 2) <= 0.05 * (np.pi / 2.0) ** 2


def _growing_forms(case, affine64, params_std):
    kind, arg, xi = case
    if kind == "incompressible":
        mode = ModeSpec.from_integers(1.0, *xi, field_dir=arg, m=0.2)
        return assemble_incompressible(mode, affine64, params_std, affine64.grid)
    if kind == "fd2":
        g1 = Grid1D("fd2", 1.0, 64)
        mode = ModeSpec.from_integers(1.0, *xi, field_dir=arg, m=0.2)
        return assemble_incompressible(mode, make_affine_profile(g1, 2.0, 1.0),
                                       params_std, g1)
    g1 = Grid1D("chebyshev", 1.0, 32)
    if arg == "affine":
        prof = make_affine_profile(g1, 2.0, 0.5)
    else:
        prof = make_table_profile(g1, np.linspace(-1.0, 1.0, 5),
                                  [1.5, 1.8, 2.0, 2.3, 2.5])
    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.5)
    eq = build_equilibrium(prof, params, 10.0)
    return assemble_compressible(ModeSpec.from_integers(1.0, *xi), eq, params, g1)


@pytest.mark.parametrize("case", [
    ("incompressible", 3, (2, 0)), ("incompressible", 1, (2, 1)),
    ("compressible", "affine", (0, 1)), ("compressible", "affine", (0, 2)),
    ("compressible", "table", (0, 1)), ("compressible", "table", (0, 2)),
    ("fd2", 3, (2, 0)), ("fd2", 1, (2, 1)),
], ids=lambda c: f"{c[0]}-{c[1]}-{c[2][0]}{c[2][1]}")
def test_growing_mode_construction(case, affine64, params_std):
    forms = _growing_forms(case, affine64, params_std)
    res = solve_growth_rate(forms)
    gm = build_growing_mode(forms, res)
    lam = res.Lambda
    assert gm.Lambda == lam
    # rho and N are the rate laws over Lambda, so the weak balance at t = 0
    # accelerates the seeded mode at exactly its growth rate; the table
    # profiles are where a second sampling of the coefficients would show;
    # on fd2, init_state's divergence guard must accept the seeded N
    st = init_state(forms, gm.y, gm.rho, gm.N)
    assert np.max(np.abs(st.ydot - lam * gm.y)) <= 1e-8 * np.max(np.abs(lam * gm.y))
    assert len(gm.u) == 3 and len(gm.N) == 3
    # phase convention of both problems: u3 real, u1 imaginary
    assert np.max(np.abs(gm.u[2].imag)) <= 1e-12 * max(1.0, np.max(np.abs(gm.u[2])))
    assert np.max(np.abs(gm.u[0].real)) <= 1e-12 * max(1.0, np.max(np.abs(gm.u[0])))
    non_vanishing, residual = growing_mode_checks(forms, lam, gm.y)
    if forms.kind == "incompressible":
        assert all(v > 0.0 for v in non_vanishing.values())
        # strong-form defect after projecting out the pressure head; limited
        # by the projection's truncation, far looser than the pencil residual.
        # Its nodal operators are not the fd2 forms' staggered ones, and on
        # fd2 it reads O(1), so it is checked on chebyshev only
        if forms.grid.scheme == "chebyshev":
            assert residual <= 5e-4
        assert gm.rho.shape == (forms.grid.n,)
    else:
        # d1 u3 vanishes on these interchange modes (xi1 = 0)
        assert all(v > 0.0 for k, v in non_vanishing.items() if k != "dp1_u3")
        assert residual <= 5e-3
        assert gm.rho.shape == (forms.grid.flux_points.size,)


def test_no_growth_raises(affine64, params_std):
    mode = ModeSpec.from_integers(1.0, 2, 0, field_dir=3, m=1.5)
    forms = assemble_incompressible(mode, affine64, params_std, affine64.grid)
    with pytest.raises(NoGrowth):
        build_growing_mode(forms)


# --- compressible stability constant ----------------------------------------


@pytest.fixture(scope="module")
def steep_eq():
    g1 = Grid1D("chebyshev", 1.0, 48)
    prof = make_tanh_profile(g1, 2.6, 1.5, 10.0)
    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.01, mu0=0.05, A=0.05)
    cmin = min_admissible_pressure_const(prof, params)
    return prof, params, g1, cmin


def test_cr_sign_tracks_field_strength(steep_eq):
    prof, params, g1, cmin = steep_eq
    sweep = [ModeSpec.from_integers(1.0, 1, 0), ModeSpec.from_integers(1.0, 1, 8)]

    strong = build_equilibrium(prof, params, 4.0 * cmin)
    rep = compute_cr(strong, params, g1, sweep)
    assert rep.kind == "cr"
    assert rep.aggregate < 0.0
    assert all(r.quotient <= 0.0 for r in rep.per_mode)
    assert not rep.unbounded

    weak = build_equilibrium(prof, params, 1.01 * cmin)
    rep2 = compute_cr(weak, params, g1, sweep)
    assert rep2.aggregate > 0.0
    assert any(r.quotient > 0.0 for r in rep2.per_mode)


def _parker_cr(**overrides):
    """Inputs of `mrt cr` on configs/parker_cr.json, built as the CLI does."""
    path = Path(__file__).resolve().parents[1] / "configs" / "parker_cr.json"
    cfg = validate_config({**json.loads(path.read_text()), **overrides})
    slab = _build_slab(cfg)
    return slab.eq, slab.params, slab.grid, _build_modes(cfg)


def test_cr_exact_sign_parker():
    # regression: the ratio used to be the endpoint of a bisection whose
    # semidefinite test carried a norm-scaled slack, which biased it by up
    # to 6e-5 relative on this configuration; the exact ratio is where the
    # top eigenvalue of (N - cD, J) changes sign
    eq, params, g1, modes = _parker_cr()
    rep = compute_cr(eq, params, g1, modes)
    for mode, row in zip(modes, rep.per_mode):
        forms = assemble_cr_forms(mode, eq, params, g1)
        n = forms.J.shape[0]

        def top(c):
            M = forms.E - c * forms.D
            return eigh(0.5 * (M + M.T), forms.J, eigvals_only=True,
                        subset_by_index=(n - 1, n - 1))[0]

        c = row.value
        assert math.isfinite(c)
        assert top(c - 1e-9 * abs(c)) > 0.0
        assert top(c + 1e-9 * abs(c)) <= 0.0


def test_cr_certificate_is_growth_alpha0():
    # the certificate lambda_max(E_c; J) is read by the pencil that reads
    # alpha(0) of the growth solve, so the two are the same bits; a dense
    # eigh of the assembled pencil is the independent route
    eq, params, g1, modes = _parker_cr()
    modes += _parker_cr(modes=[[0, 1], [0, 2]])[3]
    rep = compute_cr(eq, params, g1, modes)
    for mode, row in zip(modes, rep.per_mode):
        forms = assemble_compressible(mode, eq, params, g1)
        assert row.quotient == solve_growth_rate(forms).alpha0
        n = forms.size
        ref = eigh(forms.E, forms.J, eigvals_only=True,
                   subset_by_index=(n - 1, n - 1))[0]
        assert abs(row.quotient - ref) <= 1e-8 * abs(ref)


def test_cr_xi1_zero_drops_null_block():
    # at xi1 = 0 both cr forms vanish on the v1 block, so N_KK is singular;
    # with beta < 0 the ratio is finite and equals the ratio with that
    # block deleted (it used to come out +inf, "unbounded")
    eq, params, g1, modes = _parker_cr(n=32, beta=-0.5, modes=[[0, 1]])
    row, = compute_cr(eq, params, g1, modes).per_mode
    forms = assemble_cr_forms(modes[0], eq, params, g1)
    keep = np.any(forms.E != 0.0, axis=1) | np.any(forms.D != 0.0, axis=1)
    assert np.count_nonzero(~keep) == 32
    sub = np.ix_(keep, keep)
    ref = psd_ratio_sup(forms.E[sub], forms.D[sub])
    assert row.note == ""
    assert math.isfinite(ref)
    assert abs(row.value - ref) <= 1e-9 * abs(ref)


def test_compressible_growth_resolution_floor(steep_eq):
    # regression: large-Lambda compressible solves used to stall when the
    # bisection hit the one-ulp resolution of alpha(s) - s^2
    prof, params, g1, cmin = steep_eq
    eq = build_equilibrium(prof, params, 1.01 * cmin)
    mode = ModeSpec.from_integers(1.0, 1, 8)
    res = solve_growth_rate(assemble_compressible(mode, eq, params, g1))
    assert res.unstable
    assert res.Lambda > 0.3


def test_growth_solve_builds_no_full_width_form(params_std):
    # the growth pencil of incompressible forms assembles E, V and J on the
    # v3 block from the terms it keeps, and normalizes the maximizer on
    # that J
    g1 = Grid1D("chebyshev", 1.0, 64)
    mode = ModeSpec.from_integers(1.0, 2, 0, field_dir=3, m=0.2)
    forms = assemble_incompressible(mode, make_affine_profile(g1, 2.0, 1.0),
                                    params_std, g1)
    res = solve_growth_rate(forms)
    assert abs(res.Lambda - LAMBDA_STD64) <= 1e-8
    assert not {"E", "V", "J"} & set(vars(forms))


def test_compressible_evolve_assembles_each_form_once(monkeypatch):
    # a growing-mode evolve on the CI xi = (0, 2) config: the growth pencil
    # drops the uncoupled v1 block and builds its own E, V and J on
    # (v2, v3), and the maximizer's normalization reads that J; the
    # trajectory builds the forms' full-width E, V and J once each and
    # reads the evolution norms through their terms
    cfg = validate_config({**_CI_COMPRESSIBLE, "xi": [0, 2]})
    slab = _build_slab(cfg)
    forms = slab.assemble(ModeSpec.from_integers(cfg["L"], 0, 2))
    built = []

    def counted(terms, n, _f=modeforms._dense):
        built.append(n)
        return _f(terms, n)

    monkeypatch.setattr(modeforms, "_dense", counted)
    monkeypatch.setattr(dispersion, "_dense", counted)
    gm = build_growing_mode(forms)
    assert built == [2 * forms.size // 3] * 3
    run_trajectory(init_state(forms, gm.y, gm.rho, gm.N), T=0.01, dt=0.002)
    assert built == [2 * forms.size // 3] * 3 + [forms.size] * 3


@pytest.mark.parametrize("kind", ["incompressible", "crForms", "interchange",
                                  "xi2_zero"])
def test_pencil_matrices_are_the_forms_blocks(kind, params_std):
    # the pencil's own assembly, from the terms it keeps whole, is
    # bit-identical to the kept block of the forms' full-width matrices
    # (v3; (v2, v3) at xi1 = 0; (v1, v3) at xi2 = 0, where d(v) reads
    # columns that are not contiguous); over every column it holds the
    # forms' matrices themselves
    if kind == "incompressible":
        g1 = Grid1D("chebyshev", 1.0, 64)
        mode = ModeSpec.from_integers(1.0, 2, 1, field_dir=3, m=0.2)
        forms = assemble_incompressible(
            mode, make_affine_profile(g1, 2.0, 1.0), params_std, g1)
        kept = np.arange(forms.layout["v3"].stop)
    elif kind == "crForms":
        eq, params, g1, modes = _parker_cr()
        forms = assemble_cr_forms(modes[2], eq, params, g1)
        kept = np.arange(forms.size)
    elif kind == "interchange":
        forms = _ci_forms(0, 2)
        kept = np.arange(forms.layout["v2"].start, forms.size)
    else:
        forms = _ci_forms(2, 0)
        v2 = forms.layout["v2"]
        kept = np.r_[0:v2.start, v2.stop:forms.size]
        d = forms.terms_E[1]
        assert np.array_equal(d.cols, kept)
    pen = _Pencil(forms)
    assert np.array_equal(np.flatnonzero(pen.keep), kept)
    ix = np.ix_(kept, kept)
    for name, M in (("E", pen.A), ("V", pen.C), ("J", pen.B)):
        assert np.array_equal(M, getattr(forms, name)[ix]), name


def _ci_forms(k1: int, k2: int, **overrides) -> ModeForms:
    """Growth forms of the CI compressible config at xi = (k1, k2)."""
    cfg = validate_config({**_CI_COMPRESSIBLE, **overrides,
                           "modes": [[k1, k2]]})
    return _build_slab(cfg).assemble(_build_modes(cfg)[0])


def test_growth_pencil_solves_the_blocks_that_can_grow(params_std):
    # the growth pencil keeps the components of the block coupling that an
    # E term can make positive: v3 of the incompressible forms; (v2, v3) of
    # the compressible ones at xi1 = 0, where every form leaves v1
    # uncoupled and E has no v1 part; (v1, v3) at xi2 = 0, where E reads
    # the uncoupled v2 only through the bending penalty; every column at
    # xi1, xi2 != 0.  The frak_s pencil solves on the same columns, the cr
    # certificate on all
    g1 = Grid1D("chebyshev", 1.0, 64)
    mode = ModeSpec.from_integers(1.0, 2, 1, field_dir=3, m=0.2)
    inc = assemble_incompressible(mode, make_affine_profile(g1, 2.0, 1.0),
                                  params_std, g1)
    pen = _Pencil(inc)
    assert np.array_equal(np.flatnonzero(pen.keep), np.arange(62))
    v3 = inc.layout["v3"]
    assert pen.tA == tuple(t for t in inc.terms_E if t.cols == v3)
    for (k1, k2), dropped in (((0, 2), "v1"), ((1, 0), "v2"), ((1, 2), None)):
        forms = _ci_forms(k1, k2)
        pen = _Pencil(forms)
        kept = np.ones(forms.size, dtype=bool)
        if dropped:
            kept[forms.layout[dropped]] = False
        assert np.array_equal(pen.keep, kept)
        assert pen.width == np.count_nonzero(kept) == pen.A.shape[0]
        frak = _Pencil(forms, den="V", shift=None, base=pen)
        assert frak.width == pen.width
        assert _Pencil(forms, shift=None, whole=True).width == forms.size


@pytest.mark.parametrize("term", ["coupling_V", "positive_E"])
def test_growth_pencil_keeps_a_block_that_can_grow(term):
    # v1 stays when a V term couples it to (v2, v3), or when an E term on
    # it alone is not a nonpositive square
    forms = _ci_forms(0, 2)
    n, g1 = forms.grid.n, forms.grid
    A, wf = g1.value_flux, g1.flux_weights
    if term == "coupling_V":
        t = FormTerm(1e-3, wf, np.hstack([A, A]), cols=slice(0, 2 * n))
        forms = replace(forms, terms_V=forms.terms_V + (t,))
    else:
        t = FormTerm(1e-3, wf, A, cols=forms.layout["v1"])
        forms = replace(forms, terms_E=forms.terms_E + (t,))
    assert _Pencil(forms).width == 3 * n


def test_interchange_growth_brackets_the_full_width_alpha():
    # at xi1 = 0 the 2n pencil's Lambda is the fixed point of the dense
    # full-width alpha(s) of the longhand Cholesky + Jacobi oracle, and its
    # alpha(0) and frak_s are the full-width tops
    forms = _ci_forms(0, 1, n=16)
    res = solve_growth_rate(forms)
    assert res.unstable and _Pencil(forms).width == 2 * forms.size // 3
    E, V, J = forms.E, forms.V, forms.J

    def alpha(s):
        return gsym_eigenvalues_reference(E - s * V, J)[-1]

    lam = res.Lambda
    assert alpha(lam * (1.0 - 1e-7)) > (lam * (1.0 - 1e-7)) ** 2
    assert alpha(lam * (1.0 + 1e-7)) < (lam * (1.0 + 1e-7)) ** 2
    assert abs(res.alpha0 - alpha(0.0)) <= 1e-10 * res.alpha0
    frak = gsym_eigenvalues_reference(E, V)[-1]
    assert abs(res.frak_s - frak) <= 1e-10 * frak


def test_stable_interchange_reports_the_kept_alpha0():
    # a light-on-top compressible slab: at xi1 = 0 alpha(0) over every
    # column is 0, carried by the dropped v1 block; the kept block's own
    # alpha(0) is negative, and the longhand oracle on that block agrees
    forms = _ci_forms(0, 1, n=16, beta=-0.5)
    res = solve_growth_rate(forms)
    assert not res.unstable
    keep = _Pencil(forms).keep
    sub = np.ix_(keep, keep)
    ref = gsym_eigenvalues_reference(forms.E[sub], forms.J[sub])[-1]
    assert res.alpha0 < 0.0
    assert abs(res.alpha0 - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("k1", [1, 2, 3, 4])
def test_cr_ratio_matches_the_dense_schur_oracle(k1):
    # the ratio folds D's structural kernel (the v1 columns) before it
    # eigendecomposes the rest of D; the oracle eliminates the whole kernel
    # of the full-width D by a solve
    eq, params, g1, modes = _parker_cr(modes=[[k1, 1]])
    forms = assemble_cr_forms(modes[0], eq, params, g1)
    c = psd_ratio_sup(forms.E, forms.D)
    ref = psd_ratio_schur(forms.E, forms.D)
    assert abs(c - ref) <= 1e-12 * abs(ref)


def test_cr_ratio_unbounded_at_xi1_zero():
    # the interchange modes of the Parker config: no field term reaches
    # them, so the ratio is +inf
    eq, params, g1, modes = _parker_cr(modes=[[0, 1], [0, 2]])
    for mode in modes:
        forms = assemble_cr_forms(mode, eq, params, g1)
        assert psd_ratio_sup(forms.E, forms.D) == math.inf


def test_pencil_checks_each_matrix_once(params_std, monkeypatch):
    # E, V and J are checked for symmetry once, as the pencil builds them;
    # spd_factor factors the checked J and V without a second check, and no
    # evaluation checks A - sC
    calls = []

    def counted(M, name, _f=eigcore.require_symmetric):
        calls.append(name)
        return _f(M, name)

    monkeypatch.setattr(eigcore, "require_symmetric", counted)
    monkeypatch.setattr(dispersion, "require_symmetric", counted)
    g1 = Grid1D("chebyshev", 1.0, 96)
    mode = ModeSpec.from_integers(1.0, 2, 1, field_dir=3, m=0.2)
    forms = assemble_incompressible(mode, make_affine_profile(g1, 2.0, 1.0),
                                    params_std, g1)
    res = solve_growth_rate(forms)
    assert res.evaluations == 7
    assert sorted(calls) == ["E", "J", "V"]


def test_frak_pencil_converts_no_operator_again():
    # the frak_s pencil reads E and V through the long-double operators its
    # base converted for the growth pencil
    forms = _ci_forms(0, 2)
    pen = _Pencil(forms)
    converted = dict(pen.ld)
    frak = _Pencil(forms, den="V", shift=None, base=pen)
    assert frak.ld is pen.ld and pen.ld.keys() == converted.keys()
    assert all(pen.ld[k] is v for k, v in converted.items())
    x = np.random.default_rng(0).standard_normal(frak.width)
    e, _, v = frak.read(x)
    assert e == qform_value_ld(frak.tA, x) and v == qform_value_ld(frak.tB, x)
