"""Growth rates, critical field strengths, and growing-mode construction.

The growth rate of an unstable mode is the unique positive fixed point of
Λ = sqrt(α(Λ)), where α(s) is the largest eigenvalue of the shifted pencil
(E - sV, J), nonincreasing in s.  Λ is the top real root of the quadratic
eigenproblem (Λ²J + ΛV − E)x = 0, and it is found as such, by the
safeguarded iteration of the minimax theory for symmetric nonlinear
eigenproblems (Voss & Werner, Math. Methods Appl. Sci. 4, 1982): at the
maximizer x of α(s), with e = xᵀEx, v = xᵀVx and j = xᵀJx, the
next point is the positive root t of the scalar quadratic jt² + vt − e = 0.
Every such root is a lower bound on Λ, since α(t) ≥ (e − tv)/j = t², and
from any s below Λ it lies strictly above s, since α(s) > s².  The iterates
therefore rise to Λ, quadratically, and the iteration stops when a root no
longer rises.

Every top eigenvalue this module reports (α(s), frak_s, the per-mode
critical quotients, and the box quotient of bounded2d) is read one way:
eigcore.top_pair gives the refined top vector, and the value is its Rayleigh
quotient through the factored quadrature terms in long double.  That keeps
the fixed-point defect and the critical strengths at the rounding level of
the energies rather than of the assembled matrices.  critical_M's limit
quotient has no factored terms and stays the double quotient of its
matrices.

The slab's matrices are dense: LAPACK gives the top vector, and inverse
iteration on a Cholesky factor of σJ − A, σ just above its eigenvalue,
refines it.  The box's are sparse: ARPACK shift-invert at a σ certified
above λmax by an LDLᵀ of σJ − A with positive pivots gives the top vector,
and that same factor refines it.  For α(t) at an iterate, σ starts just
above α at the iterate before, a bound since α is nonincreasing and the
iterates rise.  α(0), frak_s and the box quotient start from a Lanczos
estimate.  J is checked and factored once per solve.

The compressible certificate of compute_cr is likewise one
Schur-complement eigenproblem per mode (see eigcore.psd_ratio_sup).

For the incompressible problem the transverse stream component φ never
helps the numerator (its energy block is nonpositive), so the maximization
runs on the vertical-displacement block alone.

A growing mode e^{Λt}(u, ϱ, N) takes its density and field carriers from
the rate laws of evolve.RateLaws, divided by Λ, and carries nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NoGrowth, SolverFailure, ZeroMode
from .eigcore import norm_inf, psd_ratio_sup, solve_gsym, spd_factor, top_pair
from .evolve import RateLaws
from .grid1d import Grid1D
from .modeforms import (ModeForms, ModeSpec, assemble_cr_forms,
                        assemble_quotient, qform_value_ld)
from .profiles import (CompressibleEquilibrium, DensityProfile, PhysicalParams)

_MAX_STEPS = 200


@dataclass(frozen=True)
class DispersionResult:
    """Outcome of the growth-rate solve for one mode.

    status is "unstable" (Lambda > 0), "stable", or "stable-marginal" (the
    energy quotient vanishes to solver precision, the borderline field
    strength).  frak_s = λmax(E, V) is the right endpoint of
    {s : α(s) > 0}, an upper bound for every growth quantity of the mode,
    reported for an unstable mode and None otherwise.  fixed_point_residual
    is |α(Λ) - Λ²| at the returned Λ; alpha_samples records every (s, α(s))
    pair the solve evaluated, in order: α(0), the probe, then the rising
    iterates, the last of which is Λ; evaluations counts the eigensolves of
    the solve, one per sample plus the frak_s one; maximizer is the
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

    diagnostics holds convergence data (per-mode value against |ξ|,
    refinement deltas).
    """

    kind: str
    per_mode: tuple
    aggregate: float
    unbounded: bool = False
    diagnostics: dict = field(default_factory=dict)


class _Pencil:
    """Restriction of a ModeForms to the maximizing block, with term tuples.

    The incompressible v₃ block comes first in its layout, so the terms that
    read only that block apply unchanged to the restricted vector.  J is
    checked and factored once here (Jf: Cholesky, or LDLᵀ when the matrices
    are sparse because every term is, as on the box), and every α
    evaluation solves against that factor.  An evaluation reads the three
    energies of its maximizer, from which both α and the next growth
    iterate follow.  A sparse solve starts ARPACK
    from the previous maximizer x and refines ARPACK's vector with the
    factor of σJ − (E − sV) that certified its shift; a dense one refines
    LAPACK's vector with a Cholesky factor of that matrix at σ just above
    its eigenvalue.
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
            self.E, self.V, self.J = (forms.form(k) for k in "EVJ")
            self.tE, self.tV, self.tJ = forms.terms_E, forms.terms_V, forms.terms_J
            self.slice = slice(0, forms.size)
        self.sparse = sp.issparse(self.J)
        self.Jf = spd_factor(self.J, "J")
        self.x = None

    def energies(self, s: float, upper: Optional[float] = None) -> tuple:
        """(xᵀEx, xᵀVx, xᵀJx, x) at the maximizer x of α(s).

        x is top_pair's refined vector and the energies are read in long
        double through the factored quadrature terms, so α(s) = (e − sv)/j
        is a true lower bound on α(s) whose noise floor sits orders below
        the assembled-matrix rounding.  upper, a value α(s) cannot exceed,
        lets the sparse path shift-invert just above it.
        """
        A = self.E if s == 0.0 else self.E - s * self.V
        _, x = top_pair(A, self.Jf, sigma=upper, v0=self.x)
        self.x = x
        return (qform_value_ld(self.tE, x), qform_value_ld(self.tV, x),
                qform_value_ld(self.tJ, x), x)

    def alpha_ld(self, s: float, upper: Optional[float] = None
                 ) -> tuple[np.longdouble, np.ndarray]:
        """α(s) in extended precision and its maximizer (see energies)."""
        e, v, j, x = self.energies(s, upper)
        return (e - np.longdouble(s) * v) / j, x


def alpha_of_s(forms: ModeForms, s: float) -> tuple[float, np.ndarray]:
    """Largest J-eigenvalue of E - sV and its J-normalized maximizer."""
    pen = _Pencil(forms)
    val, x = pen.alpha_ld(s)
    return float(val), _embed_maximizer(forms, pen, x)


def _embed_maximizer(forms: ModeForms, pen: "_Pencil", x: np.ndarray) -> np.ndarray:
    y = np.zeros(forms.size)
    y[pen.slice] = x
    J = pen.J if pen.sparse else forms.J
    nrm = math.sqrt(max(float(y @ (J @ y)), np.finfo(float).tiny))
    return y / nrm


def solve_growth_rate(forms: ModeForms) -> DispersionResult:
    """Fixed point Λ of Λ = sqrt(α(Λ)), or a stability verdict.

    The probe point is s₀ = 1e-6·scale with scale = sqrt(max(α(0), 1)); a
    mode is unstable when α exceeds 0 there.  For an unstable mode frak_s =
    λmax(E, V) comes from one eigensolve (V is SPD) and is reported.  The
    iteration starts below Λ: at the probe when α(s₀) > s₀², else at 0.
    From the maximizer x of α(s) it steps to the positive root
    t = 2e / (v + sqrt(v² + 4je)) of jt² + vt − e = 0, with e, v and j the
    long-double energies of x; t is a lower bound on Λ and exceeds s while
    s < Λ, so the iterates rise and α(t) is bounded above by α(s).  The
    iteration stops when the root no longer rises (t ≤ s) and returns that
    s.  The contract is |α(Λ) − Λ²| ≤ tol² with tol = 1e-8·scale, relaxed
    to the one-ulp resolution of α(s) − s² when double precision cannot
    express tol² at that Λ; past both, SolverFailure.
    """
    pen = _Pencil(forms)
    samples: list = []

    def point(s: float, upper: Optional[float] = None) -> tuple:
        e, v, j, x = pen.energies(s, upper)
        a = (e - np.longdouble(s) * v) / j
        samples.append((s, float(a)))
        return s, a, e, v, j, x

    origin = point(0.0)
    a0 = float(origin[1])
    s0 = 1e-6 * math.sqrt(max(a0, 1.0))
    probe = point(s0, a0)
    alpha_probe = float(probe[1])
    scale = math.sqrt(max(alpha_probe, 1.0))
    tol = 1e-8 * scale
    escale = norm_inf(pen.E) / max(norm_inf(pen.J), np.finfo(float).tiny)
    marg_tol = 1e-9 * max(escale, np.finfo(float).tiny)

    if alpha_probe <= 0.0:
        status = "stable-marginal" if abs(a0) <= marg_tol else "stable"
        return DispersionResult(mode=forms.mode, status=status, Lambda=None,
                                frak_s=None, alpha0=a0, scale=scale, tol=tol,
                                alpha_samples=tuple(samples),
                                evaluations=len(samples))

    frak = _frak_s(pen)
    s, a, e, v, j, x = (probe if probe[1] > np.longdouble(s0) * np.longdouble(s0)
                        else origin)
    for _ in range(_MAX_STEPS):
        t = float(2.0 * e / (v + np.sqrt(v * v + 4.0 * j * e)))
        if t <= s:
            break
        s, a, e, v, j, x = point(t, float(a))

    h = a - np.longdouble(s) * np.longdouble(s)
    # h moves by (2s + |α′|)·ulp(s) between adjacent representable s, with
    # α′ = −v/j at the maximizer (envelope theorem), so that jump is the
    # resolution floor of the iteration; demand tol² only when double
    # precision can express it
    h_floor = (2.0 * s + abs(float(v / j))) * np.spacing(s)
    if float(abs(h)) > max(tol * tol, 2.0 * h_floor):
        raise SolverFailure(
            f"fixed point stalled: |alpha(L) - L^2| = {float(abs(h)):.3e} "
            f"> {max(tol * tol, 2.0 * h_floor):.3e}")
    eig_res = _pencil_residual(pen, s, s * s + float(h), x)

    return DispersionResult(mode=forms.mode, status="unstable", Lambda=s,
                            frak_s=frak, alpha0=a0, scale=scale, tol=tol,
                            fixed_point_residual=float(abs(h)),
                            alpha_samples=tuple(samples),
                            maximizer=_embed_maximizer(forms, pen, x),
                            eig_residual=eig_res,
                            evaluations=len(samples) + 1)


def _top_quotient(A, B, tA, tB, v0: Optional[np.ndarray] = None) -> float:
    """λmax(A, B), reported as the long-double factored quotient of the
    refined top vector of the pencil.

    tA and tB are the term tuples A and B were assembled from; A and B are
    dense, or sparse when the terms are (then v0 starts the Lanczos run).
    The quotient through the terms carries the rounding of the energies
    rather than of the assembled matrices, whose norms reach 1e9 on stiff
    modes.
    """
    _, x = top_pair(A, B, v0=v0)
    return float(qform_value_ld(tA, x) / qform_value_ld(tB, x))


def _frak_s(pen: _Pencil) -> float:
    """λmax(E, V), the right endpoint of {s : α(s) > 0}; read like α
    itself, which puts α(frak_s) at the rounding level of the energies."""
    return _top_quotient(pen.E, pen.V, pen.tE, pen.tV, v0=pen.x)


def _pencil_residual(pen: _Pencil, s: float, alpha: float, x: np.ndarray) -> float:
    """Relative defect of (E - sV)x = αJx at the candidate eigenpair."""
    A = pen.E - s * pen.V
    r = A @ x - alpha * (pen.J @ x)
    den = norm_inf(A) + abs(alpha) * norm_inf(pen.J)
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
    return top_pair(num, 0.5 * (den + den.T))


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
    for mode in sweep:
        if mode.xi_norm2 == 0.0:
            raise ZeroMode("critical-strength sweep needs |xi| > 0 per mode")
        if i == 1 and mode.xi[0] == 0.0:
            if profile.rt_unstable:
                rows.append(PerModeValue(mode.xi, math.inf, math.inf,
                                         "no stabilization for xi1 = 0"))
                unbounded = True
                agg = math.inf
            else:
                rows.append(PerModeValue(mode.xi, 0.0, -math.inf,
                                         "not buoyant"))
            continue
        q = assemble_quotient(mode, profile, params, g1, i=i)
        val = _top_quotient(q.E, q.D, q.terms_E, q.terms_D)
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
                          diagnostics=diag)


def compute_cr(eq: CompressibleEquilibrium, params: PhysicalParams,
               g1: Grid1D, sweep) -> CriticalReport:
    """Stability ratio sup of the compressible energy against the field terms.

    Per mode: the smallest c with E_c ⪯ c·(field penalty form), by
    psd_ratio_sup as one Schur-complement eigenproblem on the range of the
    penalty; negative means E_c is negative definite with margin, +inf
    means the penalty cannot control the energy for that mode (E_c
    positive on the penalty's kernel, or null there but coupled to its
    range).  The penalty always contains λ₀∫(v₃′)², so it never vanishes
    on the whole mode space.  The aggregate is the supremum; each row
    carries λ_max(E_c; J) as an independent sign certificate.
    """
    rows = []
    agg = -math.inf
    unbounded = False
    for mode in sweep:
        forms = assemble_cr_forms(mode, eq, params, g1)
        n = forms.size
        cert = solve_gsym(forms.E, forms.J, subset=(n - 1, n - 1)).eigenvalues[-1]
        c = psd_ratio_sup(forms.E, forms.D)
        note = "unbounded" if c == math.inf else ""
        rows.append(PerModeValue(mode.xi, c, float(cert), note))
        if c == math.inf:
            unbounded = True
        agg = max(agg, c)
    return CriticalReport(kind="cr", per_mode=tuple(rows), aggregate=agg,
                          unbounded=unbounded)


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
    a (3, n_f) array of the complex field components on the flux grid in
    the phase convention of the evolve module.  Seeded into
    evolve.init_state they give ẏ(0) = Λy up to the eigenpair residual.
    forms are the forms the mode was solved on.
    """

    Lambda: float
    y: np.ndarray
    u: tuple
    rho: np.ndarray
    N: np.ndarray
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
    return GrowingMode(Lambda=lam, y=y, u=laws.velocity(y), rho=rho_rate / lam,
                       N=laws.phase[:, None] * (n_rate / lam), forms=forms)
