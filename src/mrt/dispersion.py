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
longer rises.  Whether a mode grows at all is read from the α(0)
evaluation whenever it can be: α(0) ≤ 0 is stable, and (e − s₀v)/j > 0 at
the maximizer of α(0) bounds α above 0 at the probe point s₀; only when
neither holds is α(s₀) itself evaluated.

Every top eigenvalue this module reports is read by one pencil, _Pencil:
α(s), frak_s = λmax(E, V), the per-mode and limit critical quotients
λmax(E, D) of the slab, the box quotient of bounded2d, and the λmax(E_c; J)
certificate of compute_cr.  eigcore.top_pair gives the refined top vector,
and the value is its Rayleigh quotient through the factored quadrature
terms in long double.  That keeps the fixed-point defect, the critical
strengths and the certificates at the rounding level of the energies
rather than of the assembled matrices.

The slab's matrices are dense.  For α(0), frak_s, the critical quotients
and the certificate, LAPACK gives the top vector, reduced on the held
Cholesky factor of B, and inverse iteration on
a Cholesky factor of σB − A, σ just above its eigenvalue, refines it.  For
α(t) at a later iterate no eigensolver runs: inverse iteration starts from
the maximizer before, on a Cholesky factor at σ just above α at the
iterate before (a bound, since α is nonincreasing and the iterates rise),
until the quotient settles; a factor just above the settled quotient
certifies it as the top and refines the vector, and LAPACK takes over when
it cannot.  The box's matrices are sparse and banded: shift-invert
Lanczos (eigcore's thick-restart engine) at a σ certified above λmax by a
banded Cholesky factor of σB − A gives the top vector, and that same
factor refines it; σ starts from the same bound at an iterate and from a
Lanczos estimate elsewhere.  The pencil converts each sparse matrix to
LAPACK's lower band storage once, and forms A − sC and σB − (A − sC) on
those arrays; the CSR matrices serve the Lanczos products and the
Rayleigh quotients.  B is checked and factored once per pencil.

The stability ratio of compute_cr is one Schur-complement eigenproblem per
mode (eigcore.psd_ratio_sup); it is the one reported eigenvalue that does
not go through the pencil.

The growth pencil solves only on the blocks of the unknown that can
grow.  Blocks that the cols of one term of E, V or J name together are
coupled (modeforms.form_components, which the evolution steps on too); a
component of that coupling on which every E term is a nonpositive square
has α(s) ≤ 0 for all s ≥ 0 and is dropped, since it cannot carry Λ or
frak_s (_kept_columns).  That drops the transverse stream component φ of
the incompressible problem, whose energy block is a bending penalty; the
v₁ block of a compressible interchange mode (ξ₁ = 0), which no form
couples to (v₂, v₃) and E does not see; and v₂ of a compressible mode
with ξ₂ = 0, where E reads it only through the field's bending penalty.
Other compressible modes, the box and the quotients keep every column.
A stable mode then reports the α(0) of the kept blocks.  The cr
certificate keeps every column, since it reads the sign of λmax over the
whole space.

A growing mode e^{Λt}(u, ϱ, N) takes its density and field carriers from
the rate laws of evolve.RateLaws, divided by Λ, and carries nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import InputError, NoGrowth, SolverFailure, ZeroMode
from .eigcore import (band_sum, lower_band, norm_inf, psd_ratio_sup,
                      require_symmetric, spd_factor, top_pair)
from .evolve import RateLaws
from .grid1d import Grid1D
from .modeforms import (FormTerm, ModeForms, ModeSpec, _as_cols, _dense,
                        _sparse, assemble_cr_forms, assemble_quotient,
                        form_components, qform_reader)
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
    pair the solve evaluated, in order: α(0), the probe α(s₀) only when
    α(0) alone cannot give the verdict, then the rising iterates, the last
    of which is Λ, so that a stable mode as a rule records α(0) alone;
    scale is sqrt(max(1, b)), with b the probe's α(s₀) or else the lower
    bound on α(s₀) that solve_growth_rate reads at α(0), and tol =
    1e-8·scale; evaluations counts the eigensolves of the solve, one per
    sample plus the frak_s one; maximizer is the J-normalized eigenvector
    at s = Λ in the reduced layout; eig_residual its relative pencil
    defect ‖(E - ΛV)x - α(Λ)Jx‖ against the term sizes.
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


def _kept_columns(forms: ModeForms) -> np.ndarray:
    """Mask of the columns on which the growth pencil of forms is solved.

    E, V and J are block diagonal over the components of
    modeforms.form_components, so α(s) is the largest of the components'
    own α(s).  A component that cannot grow has α(s) ≤ 0 for every s ≥ 0
    and is dropped; the rest keep α(s) wherever it is positive, and with
    it Λ and frak_s.  That drops φ of the incompressible forms, and v₁ of
    the compressible ones at ξ₁ = 0, where d(v) and r(v) are stored
    without it, and v₂ at ξ₂ = 0; a layout of one block (the box, the
    quotients) keeps it.  When every component would drop, every column
    is kept.
    """
    keep = np.zeros(forms.size, dtype=bool)
    for cols, grows in form_components(forms):
        keep[cols] = grows
    return keep if keep.any() else ~keep


class _Pencil:
    """λmax(A − sC, B) over the factored terms of a ModeForms.

    A is always E; den and shift name the forms B and C ("V", "J" or
    "D"); without a shift the pencil is (E, B) and s stays 0.  The
    defaults give the growth pencil (E − sV, J).  The pencil solves on the
    columns _kept_columns keeps, or on every column when whole is set, as
    the cr certificate is, since it reads the sign of λmax over the whole
    space.  It keeps whole each term whose blocks it keeps and drops the
    rest (_restrict).  The pencil assembles each matrix itself from the
    terms it keeps, at its own width: CSR when every operator is sparse,
    as on the box, dense otherwise.  A dense matrix over every column of
    the forms is the forms' own cached one (the same assembly), so that
    the growth solve and an evolution of the same mode build it once.
    Each matrix is checked for symmetry once, as it is built, so the
    solves of A − sC skip the check, and a sparse one is converted to
    lower band storage once, as it is built (band_A, Bf.band, band_C):
    A − sC and every shifted σB − (A − sC) are formed on those arrays.  B
    is factored once here (Bf: Cholesky, banded when sparse), and every
    evaluation solves against that factor.  An evaluation reads the
    energies of its maximizer, from which both α(s) and the next growth
    iterate follow; one long-double product per distinct operator serves
    all three energies (modeforms.qform_reader).  An evaluation given an upper bound
    starts from the previous maximizer x: a sparse one runs shift-invert
    Lanczos from x and refines its vector with the factor of σB − (A − sC)
    that certified its shift; a dense one inverse-iterates from x at certified
    shifts and refines with a factor that certifies its settled quotient
    as the top (eigcore.top_pair).  A dense evaluation without a bound
    refines LAPACK's vector with a Cholesky factor of that matrix at σ
    just above its eigenvalue.  A pencil made from another one, base, on
    the same forms solves on base's columns, reuses the matrices, band
    arrays and long-double operators base built, and starts from base's
    maximizer.
    """

    def __init__(self, forms: ModeForms, den: str = "J",
                 shift: Optional[str] = "V", base: Optional["_Pencil"] = None,
                 whole: bool = False):
        self.forms = forms
        if base is None:
            self.keep = (np.ones(forms.size, dtype=bool) if whole
                         else _kept_columns(forms))
            self.built, self.ld = {}, {}
        else:
            self.keep, self.built, self.ld = base.keep, base.built, base.ld
        self.width = int(np.count_nonzero(self.keep))
        self.A, self.tA, self.band_A = self._form("E")
        self.B, self.tB, band_B = self._form(den)
        self.C, self.tC, self.band_C = (self._form(shift) if shift
                                        else (None, (), None))
        self.Bf = spd_factor(self.B, den, checked=True, band=band_B)
        self.read = qform_reader((self.tA, self.tC, self.tB), self.ld)
        self.x = None if base is None else base.x

    def _restrict(self, terms) -> tuple:
        """terms on the kept columns.  The kept columns are a union of
        components of form_components, so a term reads only kept or only
        dropped blocks: one on kept blocks stays whole, its cols renumbered
        to the pencil's, and one on dropped blocks goes."""
        if self.width == self.forms.size:
            return terms
        pos = np.cumsum(self.keep) - 1
        return tuple(replace(t, cols=_as_cols(pos[t.cols])) for t in terms
                     if self.keep[t.cols].all())

    def _form(self, name: str) -> tuple:
        """The matrix of form name on the pencil's columns, checked for
        symmetry, its terms, and its lower band storage when it is sparse
        (None when dense)."""
        if name not in self.built:
            terms = self._restrict(getattr(self.forms, "terms_" + name))
            sparse = all(t.sparse for t in terms)
            if sparse:
                M = _sparse(terms, self.width)
            elif self.width == self.forms.size:
                M = getattr(self.forms, name)
            else:
                M = _dense(terms, self.width)
            M = require_symmetric(M, name)
            self.built[name] = M, terms, lower_band(M) if sparse else None
        return self.built[name]

    def energies(self, s: float, upper: Optional[float] = None) -> tuple:
        """(xᵀAx, xᵀCx, xᵀBx, x) at the maximizer x of λmax(A − sC, B);
        xᵀCx is 0 without a shift.

        x is top_pair's refined vector and the energies are read in long
        double through the factored quadrature terms, so (a − sc)/b is a
        true lower bound on λmax whose noise floor sits orders below the
        assembled-matrix rounding.  upper, a value λmax cannot exceed, lets
        the sparse path shift-invert just above it.
        """
        M, band = self.A, self.band_A
        if s != 0.0:
            M = self.A - s * self.C
            if band is not None:
                band = band_sum(1.0, band, -s, self.band_C)
        _, x = top_pair(M, self.Bf, sigma=upper, v0=self.x, checked=True,
                        band=band)
        self.x = x
        return (*self.read(x), x)

    def alpha_ld(self, s: float = 0.0, upper: Optional[float] = None
                 ) -> tuple[np.longdouble, np.ndarray]:
        """λmax(A − sC, B) in extended precision, α(s) on the growth pencil,
        and its maximizer (see energies)."""
        a, c, b, x = self.energies(s, upper)
        return (a - np.longdouble(s) * c) / b, x


def critical_quotient(forms: ModeForms) -> tuple[float, np.ndarray]:
    """λmax(E, D) of quotient forms and its D-normalized maximizer."""
    val, x = _Pencil(forms, den="D", shift=None).alpha_ld()
    return float(val), x


def alpha_of_s(forms: ModeForms, s: float) -> tuple[float, np.ndarray]:
    """Largest J-eigenvalue of E - sV and its J-normalized maximizer."""
    pen = _Pencil(forms)
    val, x = pen.alpha_ld(s)
    return float(val), _embed_maximizer(forms, pen, x)


def _embed_maximizer(forms: ModeForms, pen: "_Pencil", x: np.ndarray) -> np.ndarray:
    """The pencil's vector x on every column of forms, zero on the columns
    the pencil dropped, normalized in the pencil's J: J is block diagonal
    over the kept and dropped columns, so its kept block gives the norm."""
    y = np.zeros(forms.size)
    y[pen.keep] = x
    return y / math.sqrt(max(float(x @ (pen.B @ x)), np.finfo(float).tiny))


def solve_growth_rate(forms: ModeForms) -> DispersionResult:
    """Fixed point Λ of Λ = sqrt(α(Λ)), or a stability verdict.

    The probe point is s₀ = 1e-6·sqrt(max(α(0), 1)); a mode is unstable
    when α exceeds 0 there.  The α(0) evaluation decides that alone
    whenever it can.  α is nonincreasing (V ⪰ 0), so α(0) ≤ 0 is stable;
    and at the maximizer of α(0), with energies e, v and j, α(s₀) ≥
    (e − s₀v)/j, so a positive bound is unstable.  α is evaluated at s₀
    only when α(0) > 0 and that bound is not positive.  For an unstable
    mode frak_s = λmax(E, V) comes from one eigensolve (V is SPD) and is
    reported.  The iteration starts below Λ: at the probe, when one ran
    and α(s₀) > s₀², else at 0.  From the maximizer x of α(s) it steps to
    the positive root
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
    _, a, e, v, j, _ = origin
    a0 = float(a)
    s0 = 1e-6 * math.sqrt(max(a0, 1.0))
    escale = norm_inf(pen.A) / max(norm_inf(pen.B), np.finfo(float).tiny)
    marg_tol = 1e-9 * max(escale, np.finfo(float).tiny)
    # α is nonincreasing (V ⪰ 0), and the origin's maximizer bounds it
    # below at s₀: α(s₀) ≥ (e − s₀v)/j.  The probe runs only when α(0) > 0
    # and that bound does not settle the sign of α(s₀)
    start, bound = origin, float((e - np.longdouble(s0) * v) / j)
    if a0 > 0.0 and bound <= 0.0:
        probe = point(s0, a0)
        bound = float(probe[1])
        if probe[1] > np.longdouble(s0) * np.longdouble(s0):
            start = probe
    scale = math.sqrt(max(bound, 1.0))
    tol = 1e-8 * scale

    if a0 <= 0.0 or bound <= 0.0:
        status = "stable-marginal" if abs(a0) <= marg_tol else "stable"
        return DispersionResult(mode=forms.mode, status=status, Lambda=None,
                                frak_s=None, alpha0=a0, scale=scale, tol=tol,
                                alpha_samples=tuple(samples),
                                evaluations=len(samples))

    frak = float(_Pencil(forms, den="V", shift=None, base=pen).alpha_ld()[0])
    s, a, e, v, j, x = start
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


def _pencil_residual(pen: _Pencil, s: float, alpha: float, x: np.ndarray) -> float:
    """Relative defect of (E - sV)x = αJx at the candidate eigenpair."""
    A = pen.A - s * pen.C
    r = A @ x - alpha * (pen.B @ x)
    den = norm_inf(A) + abs(alpha) * norm_inf(pen.B)
    den *= max(float(np.max(np.abs(x))), np.finfo(float).tiny)
    return float(np.max(np.abs(r))) / max(den, np.finfo(float).tiny)


# --------------------------------------------------------------------------
# critical field strengths
# --------------------------------------------------------------------------

def _limit_quotient(profile: DensityProfile, params: PhysicalParams,
                    g1: Grid1D) -> tuple[float, np.ndarray]:
    """Top pair of g∫ρ̄′ψ² / λ₀∫(ψ′)² over ψ vanishing at the walls; the
    vector is normalized in the denominator form."""
    n = g1.n
    forms = ModeForms(
        kind="quotient", mode=None, grid=g1, layout={"psi": slice(0, n)},
        size=n, terms_E=(FormTerm(params.g, g1.quad * profile.drho, np.eye(n)),),
        terms_D=(FormTerm(params.lambda0, g1.flux_weights, g1.deriv_flux),),
        profile=profile, params=params)
    return critical_quotient(forms)


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
                     g1: Grid1D, i: int, sweep, map_modes=map) -> CriticalReport:
    """Per-mode critical strengths m_C(ξ) and their supremum over the sweep.

    :param i: field direction, 1 (horizontal) or 3 (vertical), applied to
        every mode of the sweep.
    :param map_modes: ``map``-like callable that runs the per-mode solve
        over the sweep and returns the rows in the sweep's order (the CLI
        passes an ordered thread-pool map).

    For a horizontal field a buoyant profile is destabilized by modes with
    ξ₁ = 0 at every strength: those rows carry value +inf and the aggregate
    is flagged unbounded.  For a vertical field the per-mode values approach
    the aggregate critical number from below as |ξ| grows; the diagnostics
    record that approach.
    """
    if i not in (1, 3):
        raise InputError(f"field direction must be 1 or 3, got {i}")
    if any(mode.xi_norm2 == 0.0 for mode in sweep):
        raise ZeroMode("critical-strength sweep needs |xi| > 0 per mode")

    def row(mode) -> PerModeValue:
        if i == 1 and mode.xi[0] == 0.0:
            if profile.rt_unstable:
                return PerModeValue(mode.xi, math.inf, math.inf,
                                    "no stabilization for xi1 = 0")
            return PerModeValue(mode.xi, 0.0, -math.inf, "not buoyant")
        q = assemble_quotient(mode, profile, params, g1, i=i)
        val, _ = critical_quotient(q)
        return PerModeValue(mode.xi, math.sqrt(max(val, 0.0)), val)

    rows = tuple(map_modes(row, sweep))
    agg = max([0.0] + [r.value for r in rows])
    diag = {}
    if i == 3:
        finite = [(math.sqrt(r.xi[0] ** 2 + r.xi[1] ** 2), r.value)
                  for r in rows if math.isfinite(r.value)]
        finite.sort()
        diag = {"xi_norm": [a for a, _ in finite],
                "value": [b for _, b in finite],
                "deltas": [b2 - b1 for (_, b1), (_, b2)
                           in zip(finite, finite[1:])]}
    return CriticalReport(kind="critical_m", per_mode=rows,
                          aggregate=agg, unbounded=agg == math.inf,
                          diagnostics=diag)


def compute_cr(eq: CompressibleEquilibrium, params: PhysicalParams,
               g1: Grid1D, sweep, map_modes=map) -> CriticalReport:
    """Stability ratio sup of the compressible energy against the field terms.

    Per mode: the smallest c with E_c ⪯ c·(field penalty form), by
    psd_ratio_sup as one Schur-complement eigenproblem on the range of the
    penalty; negative means E_c is negative definite with margin, +inf
    means the penalty cannot control the energy for that mode (E_c
    positive on the penalty's kernel, or null there but coupled to its
    range).  The penalty always contains λ₀∫(v₃′)², so it never vanishes
    on the whole mode space.  The aggregate is the supremum; each row
    carries λ_max(E_c; J) as an independent sign certificate, read by the
    growth pencil exactly as α(0) is.  That value is the Rayleigh quotient
    of the refined top vector, a lower bound on λ_max accurate to rounding:
    it fixes the sign of a mode whose λ_max is clear of 0, not of a
    marginal one.

    :param map_modes: as for :func:`critical_m_sweep`.
    """
    def row(mode) -> PerModeValue:
        forms = assemble_cr_forms(mode, eq, params, g1)
        pen = _Pencil(forms, shift=None, whole=True)
        cert, _ = pen.alpha_ld()
        c = psd_ratio_sup(pen.A, forms.D)
        return PerModeValue(mode.xi, c, float(cert),
                            "unbounded" if c == math.inf else "")

    rows = tuple(map_modes(row, sweep))
    agg = max([-math.inf] + [r.value for r in rows])
    return CriticalReport(kind="cr", per_mode=rows, aggregate=agg,
                          unbounded=agg == math.inf)


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
