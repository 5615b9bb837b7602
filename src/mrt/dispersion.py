"""Growth rates, critical field strengths, and growing-mode construction.

The growth rate of an unstable mode is the unique positive fixed point of
Λ = sqrt(α(Λ)), where α(s) is the largest eigenvalue of the shifted pencil
(E - sV, J).  α is nonincreasing in s and positive exactly below
frak_s = λmax(E, V), so h(s) = α(s) - s² has exactly one sign change on
(0, ∞) whenever α(0) > 0, and it lies in (0, min(frak_s, sqrt(α(0)))].
One eigensolve gives frak_s, and bisection on that bracket pins Λ to the
last floating-point bit.  Eigenvalues along the way are evaluated as
Rayleigh quotients of refined eigenvectors through the factored quadrature
terms, which keeps the fixed-point defect at the rounding level of the
energies rather than of the assembled matrices.

The compressible certificate of compute_cr is likewise one
Schur-complement eigenproblem per mode (see eigcore.psd_ratio_sup).

For the incompressible problem the transverse stream component φ never
helps the numerator (its energy block is nonpositive), so the maximization
runs on the vertical-displacement block alone.

A growing mode e^{Λt}(u, ϱ, N) takes its density and field carriers from
the rate laws of evolve.RateLaws, divided by Λ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (BracketExhausted, InputError, NoGrowth, SolverFailure,
                     ZeroMode)
from .eigcore import max_rayleigh, psd_ratio_sup, refine_top, top_pair
from .evolve import RateLaws
from .grid1d import Grid1D
from .modeforms import (ModeForms, ModeSpec, assemble_cr_forms,
                        assemble_quotient, qform_value_ld)
from .profiles import (CompressibleEquilibrium, DensityProfile, PhysicalParams)

_MAX_BISECT = 200


@dataclass(frozen=True)
class DispersionResult:
    """Outcome of the growth-rate solve for one mode.

    status is "unstable" (Lambda > 0), "stable", or "stable-marginal" (the
    energy quotient vanishes to solver precision, the borderline field
    strength).  frak_s = λmax(E, V) is the right endpoint of
    {s : α(s) > 0}, an upper bound for every growth quantity of the mode,
    and is None whenever the mode is not unstable.  fixed_point_residual is
    |α(Λ) - Λ²| at the returned Λ; alpha_samples records every (s, α(s))
    pair the solve evaluated, in order; evaluations counts the eigensolves
    of the solve, one per sample plus the frak_s one; maximizer is the
    J-normalized eigenvector at s = Λ in the reduced layout; eig_residual
    its relative pencil defect ‖(E - ΛV)x - α(Λ)Jx‖ against the term
    sizes.
    """

    mode: ModeSpec
    status: str
    Lambda: Optional[float]
    frak_s: Optional[float]
    alpha0: float
    scale: float
    tol: float
    fixed_point_residual: Optional[float] = None
    alpha_samples: tuple = ()
    maximizer: Optional[np.ndarray] = None
    eig_residual: Optional[float] = None
    evaluations: int = 0

    @property
    def unstable(self) -> bool:
        return self.status == "unstable"


@dataclass(frozen=True)
class PerModeValue:
    """One row of a sweep: the mode's wavenumbers and the computed value."""

    xi: tuple
    value: float
    quotient: float
    note: str = ""


@dataclass(frozen=True)
class CriticalReport:
    """Aggregate of per-mode critical values (field strengths or ratios).

    sweep echoes the modes the values were computed for; diagnostics holds
    convergence data (per-mode value against |ξ|, refinement deltas).
    """

    kind: str
    per_mode: tuple
    aggregate: float
    unbounded: bool = False
    sweep: tuple = ()
    diagnostics: dict = field(default_factory=dict)


class _Pencil:
    """Restriction of a ModeForms to the maximizing block, with term tuples.

    The incompressible v₃ block comes first in its layout, so the terms that
    read only that block apply unchanged to the restricted vector.
    """

    def __init__(self, forms: ModeForms):
        self.forms = forms
        if forms.kind == "incompressible":
            sv = forms.layout["v3"]
            self.E = forms.E[sv, sv]
            self.V = forms.V[sv, sv]
            self.J = forms.J[sv, sv]
            self.tE, self.tV, self.tJ = (
                tuple(t for t in terms if t.cols == sv)
                for terms in (forms.terms_E, forms.terms_V, forms.terms_J))
            self.slice = sv
        else:
            self.E, self.V, self.J = forms.E, forms.V, forms.J
            self.tE, self.tV, self.tJ = forms.terms_E, forms.terms_V, forms.terms_J
            self.slice = slice(0, forms.size)

    def alpha_ld(self, s: float) -> tuple[np.longdouble, np.ndarray]:
        """α(s) and its maximizer; the value in extended precision.

        The maximizer comes from the dense solver plus inverse-iteration
        polish; the value is its Rayleigh quotient through the factored
        quadrature terms, so it is a true lower bound on α(s) whose noise
        floor sits orders below the assembled-matrix rounding.
        """
        A = self.E if s == 0.0 else self.E - s * self.V
        lam, v = top_pair(A, self.J)
        x = refine_top(A, self.J, lam, v)
        num = qform_value_ld(self.tE, x)
        if s != 0.0:
            num = num - np.longdouble(s) * qform_value_ld(self.tV, x)
        return num / qform_value_ld(self.tJ, x), x


def alpha_of_s(forms: ModeForms, s: float) -> tuple[float, np.ndarray]:
    """Largest J-eigenvalue of E - sV and its J-normalized maximizer."""
    pen = _Pencil(forms)
    val, x = pen.alpha_ld(s)
    return float(val), _embed_maximizer(forms, pen, x)


def _embed_maximizer(forms: ModeForms, pen: "_Pencil", x: np.ndarray) -> np.ndarray:
    y = np.zeros(forms.size)
    y[pen.slice] = x
    nrm = math.sqrt(max(float(y @ (forms.J @ y)), np.finfo(float).tiny))
    return y / nrm


def solve_growth_rate(forms: ModeForms,
                      tol: Optional[float] = None) -> DispersionResult:
    """Fixed point Λ of Λ = sqrt(α(Λ)), or a stability verdict.

    The probe point is s₀ = 1e-6·scale with scale = sqrt(max(α(0), 1)); a
    mode is unstable when α exceeds 0 there.  For an unstable mode frak_s =
    λmax(E, V) comes from one eigensolve (V is SPD), and since α is
    nonincreasing and positive exactly below frak_s, Λ lies in
    (lo, min(frak_s, sqrt(α(0)))] with lo = s₀ when h(s) = α(s) - s² is
    positive at the probe and lo = 0 otherwise; h ≤ 0 at the upper end is
    checked, else SolverFailure.  Of all bisection evaluations the s with
    smallest |h| is returned; the contract is |h(Λ)| ≤ tol² with tol =
    1e-8·scale by default, relaxed to the one-ulp resolution of h when
    double precision cannot express tol² at that Λ; past both, SolverFailure.
    """
    pen = _Pencil(forms)
    samples: list = []

    def alpha_at(s: float) -> tuple[np.longdouble, np.ndarray]:
        val, x = pen.alpha_ld(s)
        samples.append((s, float(val)))
        return val, x

    a0_ld, x0 = alpha_at(0.0)
    a0 = float(a0_ld)
    s0 = 1e-6 * math.sqrt(max(a0, 1.0))
    probe_ld, x_probe = alpha_at(s0)
    alpha_probe = float(probe_ld)
    scale = math.sqrt(max(alpha_probe, 1.0))
    if tol is None:
        tol = 1e-8 * scale
    escale = np.linalg.norm(pen.E, ord=np.inf) / max(
        np.linalg.norm(pen.J, ord=np.inf), np.finfo(float).tiny)
    marg_tol = 1e-9 * max(escale, np.finfo(float).tiny)

    if alpha_probe <= 0.0:
        status = "stable-marginal" if abs(a0) <= marg_tol else "stable"
        return DispersionResult(mode=forms.mode, status=status, Lambda=None,
                                frak_s=None, alpha0=a0, scale=scale, tol=tol,
                                alpha_samples=tuple(samples),
                                evaluations=len(samples))

    def h(s: float) -> tuple[np.longdouble, np.ndarray]:
        val, x = alpha_at(s)
        return val - np.longdouble(s) * np.longdouble(s), x

    frak = _frak_s(pen)
    h_probe = probe_ld - np.longdouble(s0) * np.longdouble(s0)
    if h_probe > 0.0:
        lo, h_lo, x_lo = s0, h_probe, x_probe
    else:
        lo, h_lo, x_lo = 0.0, a0_ld, x0
    hi = min(frak, math.sqrt(max(a0, 0.0)))
    h_hi, x_hi = h(hi)
    if h_hi > 0.0:
        raise SolverFailure(
            f"alpha(s) - s^2 = {float(h_hi):.3e} > 0 at the bracket end {hi:.6e}")

    if abs(h_hi) < abs(h_lo):
        best_s, best_h, best_x = hi, h_hi, x_hi
    else:
        best_s, best_h, best_x = lo, h_lo, x_lo
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        hm, xm = h(mid)
        if abs(hm) < abs(best_h):
            best_s, best_h, best_x = mid, hm, xm
        if hm > 0.0:
            lo, h_lo = mid, hm
        else:
            hi, h_hi = mid, hm

    # h moves by (2s + |alpha'|)·ulp(s) between adjacent representable s
    # (alpha' = -V/J of the maximizer, by the envelope theorem), so that
    # jump is the resolution floor of the bisection; demand tol² only when
    # double precision can express it
    xb = np.asarray(best_x, dtype=float)
    vq = abs(float(xb @ (pen.V @ xb))) / max(float(xb @ (pen.J @ xb)),
                                             np.finfo(float).tiny)
    h_floor = (2.0 * best_s + vq) * np.spacing(best_s)
    if float(abs(best_h)) > max(tol * tol, 2.0 * h_floor):
        raise SolverFailure(
            f"fixed point stalled: |alpha(L) - L^2| = {float(abs(best_h)):.3e} "
            f"> {max(tol * tol, 2.0 * h_floor):.3e}")
    lam = best_s
    alpha_lam = lam * lam + float(best_h)
    eig_res = _pencil_residual(pen, lam, alpha_lam, best_x)

    return DispersionResult(mode=forms.mode, status="unstable", Lambda=lam,
                            frak_s=frak, alpha0=a0, scale=scale, tol=tol,
                            fixed_point_residual=float(abs(best_h)),
                            alpha_samples=tuple(samples),
                            maximizer=_embed_maximizer(forms, pen, best_x),
                            eig_residual=eig_res,
                            evaluations=len(samples) + 1)


def _frak_s(pen: _Pencil) -> float:
    """λmax(E, V), the right endpoint of {s : α(s) > 0}.

    Reported as the factored Rayleigh quotient of the refined top vector,
    like α itself, which puts α(frak_s) at the rounding level of the
    energies rather than of the assembled matrices.
    """
    _, x = max_rayleigh(pen.E, pen.V)
    return float(qform_value_ld(pen.tE, x) / qform_value_ld(pen.tV, x))


def _pencil_residual(pen: _Pencil, s: float, alpha: float, x: np.ndarray) -> float:
    """Relative defect of (E - sV)x = αJx at the candidate eigenpair."""
    r = (pen.E - s * pen.V) @ x - alpha * (pen.J @ x)
    den = (np.linalg.norm(pen.E - s * pen.V, ord=np.inf)
           + abs(alpha) * np.linalg.norm(pen.J, ord=np.inf))
    den *= max(float(np.max(np.abs(x))), np.finfo(float).tiny)
    return float(np.max(np.abs(r))) / max(den, np.finfo(float).tiny)


# --------------------------------------------------------------------------
# critical field strengths
# --------------------------------------------------------------------------

def _limit_quotient(profile: DensityProfile, params: PhysicalParams,
                    g1: Grid1D) -> tuple[float, np.ndarray]:
    """Top pair of g∫ρ̄′ψ² / λ₀∫(ψ′)² over ψ vanishing at the walls; the
    vector is normalized in the denominator form."""
    num = params.g * np.diag(g1.quad * profile.drho)
    den = params.lambda0 * (
        g1.deriv_flux.T @ (g1.flux_weights[:, None] * g1.deriv_flux))
    return max_rayleigh(num, 0.5 * (den + den.T))


def critical_M(profile: DensityProfile, params: PhysicalParams,
               g1: Grid1D) -> CriticalReport:
    """Critical vertical field strength of the slab.

    The per-mode suprema increase with |ξ| toward the unconstrained scalar
    quotient sup g∫ρ̄′ψ² / λ₀∫(ψ′)² over ψ vanishing at the walls, so that
    quotient is the critical number itself; a field strictly above it damps
    every mode, strictly below it some mode grows.
    """
    val, _ = _limit_quotient(profile, params, g1)
    mc = math.sqrt(max(val, 0.0))
    return CriticalReport(kind="critical_M", per_mode=(),
                          aggregate=mc, unbounded=False,
                          diagnostics={"quotient": val})


@dataclass(frozen=True)
class ProofSequence:
    """Test-field quotients showing the second-order approach to the slab
    critical number.

    psi is the (discrete) maximizer of the buoyancy-to-stretching quotient
    over fields vanishing at the walls; limit its quotient value, the slab
    critical number up to discretization.  values[j] is the per-mode
    quotient of that one field at ξ = (ks[j], 0) for a vertical field,
    which adds the curvature penalty S/k² to the denominator:
    q_k = limit·(1 + S/k²)^(-1/2), so the error to the limit decays at
    second order once S/k² is small.  The true per-mode suprema over the
    no-slip class approach the critical number only at first order (a
    wall-layer cost), which is why the rate statement is made through this
    sequence.
    """

    ks: tuple
    values: tuple
    limit: float
    curvature_ratio: float
    psi: np.ndarray


def quotient_proof_sequence(profile: DensityProfile, params: PhysicalParams,
                            g1: Grid1D, ks) -> ProofSequence:
    """Per-mode quotients of the limit-quotient maximizer at ξ = (k, 0).

    The maximizer is computed over the Dirichlet interior basis (slopes free
    at the walls), where it is smooth up to the boundary and carries O(1)
    curvature; a no-slip basis would force a wall layer whose curvature
    diverges and destroy the second-order rate.
    """
    val, a = _limit_quotient(profile, params, g1)
    if val <= 0.0:
        raise NoGrowth("profile carries no buoyant layer; quotient nonpositive")
    # a is den-normalized, so the denominator of its quotient is 1 and the
    # numerator is val itself
    curv = g1.curv_deriv @ a
    s_pen = params.lambda0 * float(g1.curv_weights @ (curv * curv))
    limit = math.sqrt(val)
    values = tuple(math.sqrt(val / (1.0 + s_pen / float(k) ** 2)) for k in ks)
    return ProofSequence(ks=tuple(ks), values=values, limit=limit,
                         curvature_ratio=s_pen, psi=a)


def critical_m_sweep(profile: DensityProfile, params: PhysicalParams,
                     g1: Grid1D, i: int, sweep) -> CriticalReport:
    """Per-mode critical strengths m_C(ξ) and their supremum over the sweep.

    :param i: field direction, 1 (horizontal) or 3 (vertical), applied to
        every mode of the sweep.

    For a horizontal field a buoyant profile is destabilized by modes with
    ξ₁ = 0 at every strength: those rows carry value +inf and the aggregate
    is flagged unbounded.  For a vertical field the per-mode values approach
    the aggregate critical number from below as |ξ| grows; the diagnostics
    record that approach.
    """
    if i not in (1, 3):
        raise InputError(f"field direction must be 1 or 3, got {i}")
    rows = []
    agg = 0.0
    unbounded = False
    capable = float(np.max(profile.drho)) > 0.0
    for mode in sweep:
        if mode.xi_norm2 == 0.0:
            raise ZeroMode("critical-strength sweep needs |xi| > 0 per mode")
        if i == 1 and mode.xi[0] == 0.0:
            if capable:
                rows.append(PerModeValue(mode.xi, math.inf, math.inf,
                                         "no stabilization for xi1 = 0"))
                unbounded = True
                agg = math.inf
            else:
                rows.append(PerModeValue(mode.xi, 0.0, -math.inf,
                                         "not buoyant"))
            continue
        q = assemble_quotient(mode, profile, params, g1, i=i)
        val, _ = max_rayleigh(q.E, q.D)
        mc = math.sqrt(max(val, 0.0))
        rows.append(PerModeValue(mode.xi, mc, val))
        if mc > agg:
            agg = mc
    diag = {}
    if i == 3:
        finite = [(math.sqrt(r.xi[0] ** 2 + r.xi[1] ** 2), r.value)
                  for r in rows if math.isfinite(r.value)]
        finite.sort()
        diag = {"xi_norm": [a for a, _ in finite],
                "value": [b for _, b in finite],
                "deltas": [b2 - b1 for (_, b1), (_, b2)
                           in zip(finite, finite[1:])]}
    return CriticalReport(kind="critical_m", per_mode=tuple(rows),
                          aggregate=agg, unbounded=unbounded,
                          sweep=tuple(sweep), diagnostics=diag)


def compute_cr(eq: CompressibleEquilibrium, params: PhysicalParams,
               g1: Grid1D, sweep) -> CriticalReport:
    """Stability ratio sup of the compressible energy against the field terms.

    Per mode: the smallest c with E_c ⪯ c·(field penalty form), by
    psd_ratio_sup as one Schur-complement eigenproblem on the range of the
    penalty; negative means E_c is negative definite with margin, +inf
    means the penalty cannot control the energy for that mode (E_c
    positive on the penalty's kernel, or null there but coupled to its
    range), and a penalty that
    vanishes on the whole mode space also gives +inf, with a diagnostic
    note.  The aggregate is the supremum; each row carries λ_max(E_c; J) as
    an independent sign certificate.
    """
    rows = []
    agg = -math.inf
    unbounded = False
    for mode in sweep:
        forms = assemble_cr_forms(mode, eq, params, g1)
        cert, _ = top_pair(forms.E, forms.J)
        try:
            c = psd_ratio_sup(forms.E, forms.D)
            note = "unbounded" if math.isinf(c) else ""
        except BracketExhausted as e:
            c = math.inf
            note = f"bracket exhausted: {e}"
        rows.append(PerModeValue(mode.xi, c, float(cert), note))
        if math.isinf(c) and c > 0:
            unbounded = True
        agg = max(agg, c)
    return CriticalReport(kind="cr", per_mode=tuple(rows), aggregate=agg,
                          unbounded=unbounded, sweep=tuple(sweep))


# --------------------------------------------------------------------------
# growing-mode construction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowingMode:
    """One growing solution e^{Λt}(u, ϱ, N) of the linearized problem.

    y is the J-normalized maximizer at s = Λ in the reduced layout and u its
    three complex velocity components on the nodes.  rho and N are the rate
    laws of evolve.RateLaws over Λ: rho = R_ρ y/Λ, real, on the nodes
    (incompressible) or the flux grid (compressible); N = phase·R_N y/Λ,
    the three complex field components on the flux grid in the phase
    convention of the evolve module.  Seeded into evolve.init_state they
    give ẏ(0) = Λy up to the eigenpair residual.  non_vanishing maps named
    functionals to their L² sizes; every one of them must be positive for a
    genuine growing mode.  eig_residual is the relative strong-form defect
    of the eigenpair, checked independently of the reduced forms.
    """

    Lambda: float
    y: np.ndarray
    u: tuple
    rho: np.ndarray
    N: tuple
    non_vanishing: dict
    eig_residual: float
    forms: ModeForms


def build_growing_mode(forms: ModeForms,
                       result: Optional[DispersionResult] = None) -> GrowingMode:
    """The growing solution behind a dispersion result.

    Its density and field carriers are the transport and induction rates of
    the maximizer over Λ, from the operators the time integrator uses.

    :param result: a previous solve for these forms; computed afresh if
        omitted.
    :raises NoGrowth: the mode is stable, there is nothing to build.
    """
    if result is None:
        result = solve_growth_rate(forms)
    if not result.unstable:
        raise NoGrowth(f"mode is {result.status}; no growing solution exists")
    lam, y = result.Lambda, result.maximizer
    laws = RateLaws(forms)
    rho_rate, n_rate = laws.rates(y)
    rho = rho_rate / lam
    u = laws.velocity(y)
    if forms.kind == "incompressible":
        nv, res = _incompressible_checks(forms, lam, u, rho)
    else:
        nv, res = _compressible_checks(forms, lam, y, laws.d @ y)
    return GrowingMode(Lambda=lam, y=y, u=u, rho=rho,
                       N=tuple(ph * (r / lam) for ph, r in zip(laws.phase, n_rate)),
                       non_vanishing=nv, eig_residual=res, forms=forms)


def _l2(g1_w: np.ndarray, *fields) -> float:
    tot = 0.0
    for f in fields:
        tot += float(g1_w @ (np.abs(f) ** 2))
    return math.sqrt(tot)


def _incompressible_checks(forms: ModeForms, lam: float, u, rho):
    g1 = forms.grid
    mode = forms.mode
    u1, u2, u3 = u
    nv = {
        "u3": _l2(g1.quad, u3),
        "uh": _l2(g1.quad, u1, u2),
        "di_u3": (_l2(g1.flux_weights, g1.deriv_flux @ u3.real)
                  if mode.field_dir == 3 else abs(mode.xi[0]) * _l2(g1.quad, u3)),
        "rho": _l2(g1.quad, rho),
    }
    return nv, _incompressible_residual(forms, lam, u)


def _incompressible_residual(forms: ModeForms, lam: float, u) -> float:
    """Strong-form defect with the pressure head projected out.

    The momentum balance determines the velocity only up to a gradient; the
    projection finds the scalar head (on the flux grid) whose gradient best
    absorbs the computed imbalance, and the residual is what remains,
    relative to the largest term in the balance.
    """
    g1 = forms.grid
    mode = forms.mode
    params = forms.params
    p = forms.profile
    xi1, xi2 = mode.xi
    xin2 = mode.xi_norm2
    m2 = mode.m * mode.m
    u1, u2, u3 = u

    def lap(f):
        return g1.d2 @ f - xin2 * f

    # momentum balance without the gradient head
    L = []
    rho_n = p.rho
    for comp, e3 in ((u1, 0.0), (u2, 0.0), (u3, 1.0)):
        t = -lam * lam * rho_n * comp + lam * params.mu * lap(comp)
        if mode.field_dir == 3:
            t = t + params.lambda0 * m2 * (g1.d2 @ comp)
        else:
            t = t - params.lambda0 * m2 * xi1 * xi1 * comp
        t = t + params.g * p.drho * u3 * e3
        L.append(t)
    L = np.concatenate(L)

    nf = g1.flux_points.size
    P = g1.flux_to_node
    grad = np.vstack([1j * xi1 * P, 1j * xi2 * P, g1.flux_div])
    w = np.tile(g1.quad, 3)
    A = (grad.conj().T @ (w[:, None] * grad)).real
    rhs = -(grad.conj().T @ (w * L))
    head = np.linalg.solve(A + 1e-30 * np.eye(nf), rhs)
    resid = L + grad @ head

    def wnorm(z):
        z = z.reshape(3, -1)
        return _l2(g1.quad, *z)

    terms = [
        wnorm(np.concatenate([lam * lam * rho_n * c for c in (u1, u2, u3)])),
        wnorm(np.concatenate([lam * params.mu * lap(c) for c in (u1, u2, u3)])),
        wnorm(grad @ head),
        _l2(g1.quad, params.g * p.drho * u3),
    ]
    return wnorm(resid) / max(max(terms), 1e-300)


def _compressible_checks(forms: ModeForms, lam: float, y: np.ndarray, d_f):
    g1 = forms.grid
    eq = forms.equilibrium
    p = forms.profile
    xi1, xi2 = forms.mode.xi
    v1, v2, v3 = (y[forms.layout[k]] for k in ("v1", "v2", "v3"))
    wq = g1.quad
    dv3_n = g1.d1 @ v3
    d_n = -xi1 * v1 - xi2 * v2 + dv3_n
    mc_n = eq.field
    dmc_n = eq.dfield
    nv = {
        "u3": _l2(wq, v3),
        "dp1_u3": abs(xi1) * _l2(wq, mc_n * v3),
        "qcomb": _l2(wq, dmc_n * v3 + mc_n * (-xi2 * v2 + dv3_n),
                     mc_n * xi1 * v2),
        "uh": _l2(wq, v1, v2),
        "div_u": _l2(g1.flux_weights, d_f),
    }
    if float(np.min(p.drho)) >= 0.0:
        nv["div_rho_u"] = _l2(wq, p.rho * d_n + p.drho * v3)
    return nv, _compressible_residual(forms, lam, (v1, v2, v3), d_n)


def _compressible_residual(forms: ModeForms, lam: float, v, d_n) -> float:
    """Strong-form defect of the compressible eigenpair (no free head)."""
    g1 = forms.grid
    mode = forms.mode
    params = forms.params
    eq = forms.equilibrium
    p = forms.profile
    xi1, xi2 = mode.xi
    xin2 = mode.xi_norm2
    v1, v2, v3 = v
    u = (1j * v1, 1j * v2, v3.astype(complex))
    x = g1.nodes

    def ddx(f):
        # nodal derivative of a scalar that need not vanish at the walls
        re = np.gradient(f.real, x, edge_order=2)
        im = np.gradient(f.imag, x, edge_order=2)
        return re + 1j * im

    def lap(f):
        return g1.d2 @ f - xin2 * f

    mc = eq.field
    dmc = eq.dfield
    div_rho_u = p.rho * d_n.astype(complex) + p.drho * u[2]
    S = params.dpressure(p.rho) * div_rho_u + params.lambda0 * mc * (
        mc * (1j * xi2 * u[1] + g1.d1 @ v3) + dmc * u[2])
    dS = (1j * xi1 * S, 1j * xi2 * S, ddx(S))
    ddiv = (1j * xi1 * d_n.astype(complex), 1j * xi2 * d_n.astype(complex),
            ddx(d_n.astype(complex)))

    L = []
    for k in range(3):
        e3 = 1.0 if k == 2 else 0.0
        t = (-lam * lam * p.rho * u[k]
             + params.g * p.drho * u[2] * e3
             + dS[k]
             + params.g * p.rho * d_n * e3
             + params.lambda0 * mc * (mc * (-xi1 * xi1) * u[k])
             + lam * params.mu * lap(u[k])
             + lam * params.mu0 * ddiv[k])
        if k == 0:
            t = t - params.lambda0 * mc * mc * 1j * xi1 * d_n
        L.append(t)

    def wnorm(fields):
        return _l2(g1.quad, *fields)

    resid = wnorm(L)
    scales = [
        wnorm([lam * lam * p.rho * u[k] for k in range(3)]),
        wnorm(list(dS)),
        wnorm([lam * params.mu * lap(u[k]) for k in range(3)]),
        wnorm([params.g * p.drho * u[2], params.g * p.rho * d_n]),
        wnorm([params.lambda0 * mc * mc * xin2 * u[k] for k in range(3)]),
    ]
    return resid / max(max(scales), 1e-300)