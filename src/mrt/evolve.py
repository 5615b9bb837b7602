"""Linearized per-mode time evolution with exact-identity diagnostics.

Eliminating the density and field perturbations from the linearized system
leaves a second-order equation M ÿ + C ẏ = K y for the reduced velocity
unknowns, with M the ρ̄-weighted mass, C the dissipation form, and K the
energy form of the mode.  The implicit average-acceleration step
(trapezoidal; Newmark β=1/4, γ=1/2) is unconditionally stable, second
order, and conserves the discrete energy exactly when C = 0.

The state that is integrated is (y, ẏ, ÿ) and the time integral Y = ∫₀ᵗ y,
taken by the trapezoidal rule over each step.  ϱ and N are not state: with
no resistivity the linearized transport and induction laws ϱ̇ = R_ρ y and
Ṅ = R_N y integrate once to ϱ = ϱ₀ + R_ρ Y and N = N₀ + R_N Y, and they are
recovered from Y only where they are read.  RateLaws is the one
implementation of R_ρ and R_N; the growing mode e^{Λt}(y, ϱ, N) of
dispersion.build_growing_mode takes its carriers as R_ρ y/Λ and R_N y/Λ.

Every energy term that pairs with a recovered quantity is assembled on the
same staggered points as the rate law (see modeforms), which makes the weak
relation J ẏ = −V y + b(ϱ, N) an exact invariant of the discrete flow: the
trapezoidal velocity update and the trapezoidal Y update commute through the
bilinear identity b(R_ρ y, R_N y) = E y.  The same identity gives a growing
mode the initial acceleration ẏ(0) = Λy up to the eigenpair residual.  The
energy identity and its time-integrated variant inherit their convergence
order from the dissipation quadrature alone.

The step is taken in the basis X that diagonalizes the step matrix and the
dissipation at once.  S = M + (dt/2)C − (dt²/4)K is positive definite and
C ⪰ 0, so the pencil (C, S) has a real eigenbasis with XᵀSX = I and
XᵀCX = diag(c) (Golub & Van Loan, Matrix Computations, §8.7): with
S = LLᵀ and L⁻¹CL⁻ᵀ = Q diag(c) Qᵀ, X = L⁻ᵀQ.  M, C and K are block
diagonal over the components of modeforms.form_components, the decoupled
blocks the growth pencil reads too, so X is block diagonal and each
component is factored and diagonalized on its own.  In x̂ = X⁻¹x the
implicit solve S ÿ = K y_pred − C ẏ_pred of the average-acceleration step
becomes â = K̂ ŷ_pred − c⊙v̂_pred with K̂ = XᵀKX, and the dissipation rate
is ẏᵀCẏ = cᵀ(v̂⊙v̂).  The predictor, the corrector and the Y update are
linear and keep their form.  A call of step maps the state in by one
product per component, or goes on from the congruent state the call before
left on it, and takes each step with one matrix-vector product per
decoupled block, one product of the rows (p, w, â) with a fixed 4 × 3
coefficient matrix, a few elementwise sums and no solve; it maps back by
one product per component.  run_trajectory makes one call per recorded
interval and reads the recorded states in blocks, each form applied to a
block by one matrix–matrix product; the norms and the energy are read
through the factored terms of their forms.

Phase convention (real carriers): for the vertical-field incompressible
problem N = (i·N₁, i·N₂, N₃); for the horizontal-field incompressible and
the compressible problem N = (N₁, N₂, i·N₃); stored arrays are the real
carriers on the flux grid, one (3, n_f) array.  ϱ is real, on the nodes
(incompressible) or the flux grid (compressible).  Incoming complex data
are projected onto the convention and rejected if the orthogonal part is
above 1e-8 of their size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import (cho_factor, cho_solve, cholesky, eigh,
                          solve_triangular)

from .errors import IncompatibleData, InputError, SolverFailure
from .modeforms import (ModeForms, _as_cols, _compressible_pieces,
                        form_components)

# envelope constants above this are implausibly large and get flagged
_FLAG_THRESHOLD = 1e6

# largest off-phase fraction init_state accepts in complex initial data
_PHASE_TOL = 1e-8

# recorded states that run_trajectory reads with one set of products
_RECORD_BLOCK = 32


class RateLaws:
    """The rate laws ϱ̇ = R_ρ y and Ṅ = R_N y of one mode, what pairs with
    them, and the factors a trajectory steps with.

    rates(y) returns R_ρ y and R_N y, the latter as a (3, n_f) array of real
    carriers; phase holds the factor that turns each carrier row into its
    physical component.  forcing is the weak right-hand side b(ϱ, N),
    velocity(y) the complex nodal velocity (u₁, u₂, u₃).  rates and forcing
    also take a block of records, one per trailing column.  Each operator is
    a pair (cols, R) and reads only the columns of the stacked unknown that
    cols names, so a single-block operator is stored at its own width, and
    the compressible R_ρ and R_N1 sit on the columns of d(v).
    The compressible laws take their operators and flux-point coefficients
    from modeforms._compressible_pieces, as the energy terms do, so
    b(R_ρ y, R_N y) = E y holds to rounding.  The mass factor and the step
    matrix's congruence are built on first use, so a growing mode built
    from these laws factors nothing.  Built where a trajectory or a growing
    mode needs them, never during form assembly.
    """

    def __init__(self, forms: ModeForms):
        if forms.kind not in ("incompressible", "compressible"):
            raise InputError(f"cannot evolve forms of kind '{forms.kind}'")
        self.forms = forms
        g1 = forms.grid
        self.quad = g1.quad
        self.wf = g1.flux_weights
        self.nf = g1.flux_points.size
        self.xi1, self.xi2 = forms.mode.xi
        self.xin2 = forms.mode.xi_norm2
        self._congruence = (None, None)
        if forms.kind == "incompressible":
            self._build_incompressible(forms)
        else:
            self._build_compressible(forms)

    # -- incompressible operators ------------------------------------------

    def _build_incompressible(self, forms: ModeForms):
        g1 = forms.grid
        mode = forms.mode
        p = forms.profile
        sv = forms.layout["v3"]
        Z = g1.clamped
        GZ = g1.deriv_flux @ Z
        xi1, xi2, xin2 = self.xi1, self.xi2, self.xin2
        nx = math.sqrt(xin2)
        m = mode.m
        full = slice(None)

        # the v3 block comes first in the layout, then phi
        if mode.field_dir == 3:
            CF = g1.curv_flux @ Z
            G = g1.deriv_flux
            self.phase = np.array((1j, 1j, 1.0))
            self.RN = ((full, m * np.hstack([(xi1 / xin2) * CF, -(xi2 / nx) * G])),
                       (full, m * np.hstack([(xi2 / xin2) * CF, (xi1 / nx) * G])),
                       (sv, m * GZ))
        else:
            A = g1.value_flux
            self.phase = np.array((1.0, 1.0, 1j))
            mx = -m * xi1
            self.RN = ((full, mx * np.hstack([(xi1 / xin2) * GZ, -(xi2 / nx) * A])),
                       (full, mx * np.hstack([(xi2 / xin2) * GZ, (xi1 / nx) * A])),
                       (sv, m * xi1 * (A @ Z)))
        self.Z = Z
        self.Rrho = (sv, -(p.drho[:, None] * Z))
        self.rho_len = g1.n
        self.rho_weights = g1.quad

        # div N in physical phase: vertical field has N_h imaginary and N₃
        # real, so the divergence is real; the horizontal field flips both
        P = g1.flux_to_node
        if mode.field_dir == 3:
            # N₁, N₂ carry the curvature as value_flux @ d2 and return to
            # the nodes through P; N₃′ takes the same P @ value_flux
            # average, so div R_N y cancels (P @ value_flux = I on chebyshev)
            self.div_ops = (-xi1 * P, -xi2 * P,
                            P @ g1.value_flux @ g1.flux_div)
        else:
            self.div_ops = (xi1 * P, xi2 * P, g1.flux_div)

    # -- compressible operators --------------------------------------------

    def _build_compressible(self, forms: ModeForms):
        g1 = forms.grid
        params = forms.params
        layout, ops, c = _compressible_pieces(forms.mode, forms.equilibrium,
                                              params, g1)
        xi1 = self.xi1
        A, (dc, d), A3 = ops["A"], ops["d"], ops["A3"]
        rho_f, drho_f, mc_f, pp_f = (c[k] for k in ("rho_f", "drho_f", "mc_f", "pp_f"))
        self.d = (dc, d)
        self.rho_len = self.nf
        # slope of the field strength from the hydrostatic balance at the
        # same points; this exact pointwise relation is what cancels the
        # cross terms between the forcing and the assembled energy
        dmc_f = -(params.g * rho_f + pp_f * drho_f) / (params.lambda0 * mc_f)
        self.pp_f, self.mc_f, self.dmc_f = pp_f, mc_f, dmc_f

        # R_ρ and R_N1 read d's columns, as A3 does
        RN1 = -(mc_f[:, None] * d + dmc_f[:, None] * A3)
        if xi1 != 0.0:
            # d's columns then open with v₁
            RN1[:, :g1.n] -= xi1 * (mc_f[:, None] * A)
        self.phase = np.array((1.0, 1.0, 1j))
        self.RN = ((dc, RN1),
                   (layout["v2"], -xi1 * (mc_f[:, None] * A)),
                   (layout["v3"], xi1 * (mc_f[:, None] * A)))
        self.Rrho = (dc, -(rho_f[:, None] * d + drho_f[:, None] * A3))
        self.rho_weights = g1.flux_weights
        P = g1.flux_to_node
        self.div_ops = (xi1 * P, self.xi2 * P, g1.flux_div)

    # -- shared pieces ------------------------------------------------------

    def rates(self, y: np.ndarray):
        """R_ρ y and the (3, n_f) real carriers of R_N y; y may be a block
        of records, one per column."""
        cols, R = self.Rrho
        return R @ y[cols], np.array([R @ y[c] for c, R in self.RN])

    def forcing(self, rho: np.ndarray, N: np.ndarray) -> np.ndarray:
        """Weak right-hand side b(ϱ, N) in the reduced coordinates; one
        column per record when ϱ and N carry a trailing axis of records."""
        forms = self.forms
        params = forms.params
        # the pointwise weights and coefficients, broadcast over records
        pt = (slice(None),) + (None,) * (np.ndim(rho) - 1)
        lam0, wf = params.lambda0, self.wf[pt]
        b = np.zeros((forms.size,) + np.shape(rho)[1:])
        if forms.kind == "incompressible":
            b[forms.layout["v3"]] = -params.g * (self.Z.T @ (self.quad[pt] * rho))
            for (cols, R), Nk in zip(self.RN, N):
                b[cols] -= lam0 * (R.T @ (wf * Nk))
            return b
        s1, s2, s3 = (forms.layout[k] for k in ("v1", "v2", "v3"))
        A = forms.grid.value_flux
        xi1, mc_f = self.xi1, self.mc_f[pt]
        q = self.pp_f[pt] * rho + lam0 * mc_f * N[0]
        dc, d = self.d
        b[dc] += d.T @ (wf * q)
        b[s1] += lam0 * (A.T @ (wf * (self.dmc_f[pt] * N[2] + xi1 * mc_f * N[0])))
        b[s2] += lam0 * xi1 * (A.T @ (wf * mc_f * N[1]))
        b[s3] -= A.T @ (wf * (lam0 * xi1 * mc_f * N[2] + params.g * rho))
        return b

    def velocity(self, y: np.ndarray):
        """The complex velocity components (u₁, u₂, u₃) on the nodes."""
        forms = self.forms
        layout = forms.layout
        if forms.kind == "compressible":
            v1, v2, v3 = (y[layout[k]] for k in ("v1", "v2", "v3"))
            return 1j * v1, 1j * v2, v3.astype(complex)
        xi1, xi2, xin2 = self.xi1, self.xi2, self.xin2
        nx = math.sqrt(xin2)
        v3 = self.Z @ y[layout["v3"]]
        phi = y[layout["phi"]]
        dv3 = forms.grid.d1 @ v3
        u1 = 1j * (xi1 * dv3 / xin2 - xi2 * phi / nx)
        u2 = 1j * (xi2 * dv3 / xin2 + xi1 * phi / nx)
        return u1, u2, v3.astype(complex)

    def div_n(self, N: np.ndarray) -> float:
        d = sum(op @ Nk for op, Nk in zip(self.div_ops, N))
        return math.sqrt(float(self.quad @ (d * d)))

    # -- trajectory pieces --------------------------------------------------

    def energy(self, y: np.ndarray, v: np.ndarray):
        """ẏᵀJẏ − yᵀEy, read through the factored terms; one value per
        column of a block of states."""
        forms = self.forms
        return _qform(forms.terms_J, v) - _qform(forms.terms_E, y)

    @cached_property
    def mass_factor(self):
        return cho_factor(self.forms.J, lower=True)

    def congruence(self, dt: float):
        """(c, blocks) of the step matrix S = J + (dt/2)V − (dt²/4)E, kept
        for the last dt.

        S, V and E are block diagonal over the components of
        modeforms.form_components, and each component has a congruence of
        its own (_congruence).  The congruent coordinates run component by
        component.  Each block is a _Block(cols, span, K, W, Xt): the
        columns of the unknown it reads (a slice when they are contiguous),
        the slice of congruent coordinates it fills, and the component's K,
        W and Xᵀ.  A state x maps in as x̂[span]ᵀ = x[cols]ᵀW, and rows of
        congruent states map back by one product with Xᵀ per block.  c is
        the components' c, concatenated.
        """
        if self._congruence[0] != dt:
            forms = self.forms
            blocks, cs, start = [], [], 0
            for cols, _ in form_components(forms):
                ix = np.ix_(cols, cols)
                c, K, W, Xt = _congruence(forms.J[ix], forms.V[ix], forms.E[ix], dt)
                span = slice(start, start + cols.size)
                start = span.stop
                blocks.append(_Block(_as_cols(cols), span, K, W, Xt))
                cs.append(c)
            self._congruence = (dt, (np.concatenate(cs), tuple(blocks)))
        return self._congruence[1]


def _congruence(J, V, E, dt: float) -> tuple:
    """(c, K, W, Xᵀ) of one block of the step matrix S = J + (dt/2)V −
    (dt²/4)E: X with XᵀSX = I, XᵀVX = diag(c) and XᵀEX = K, from S = LLᵀ
    and L⁻¹VL⁻ᵀ = Q diag(c) Qᵀ as X = L⁻ᵀQ, and W = LQ.  K is symmetrized;
    L, Q and S are not kept."""
    S = J + (dt / 2.0) * V - (dt * dt / 4.0) * E
    try:
        L = cholesky(S, lower=True)
    except np.linalg.LinAlgError as e:
        dg = np.diag(S)
        raise SolverFailure(
            f"implicit step matrix not positive definite at dt={dt:g} "
            f"(diag range [{dg.min():.3e}, {dg.max():.3e}]): {e}") from e
    del S
    Ch = solve_triangular(L, V, lower=True, check_finite=False)
    Ch = solve_triangular(L, Ch.T, lower=True, check_finite=False,
                          overwrite_b=True)
    Ch += Ch.T
    Ch *= 0.5
    c, Q = eigh(Ch, overwrite_a=True, check_finite=False)
    del Ch
    X = solve_triangular(L, Q, lower=True, trans="T", check_finite=False)
    W = L @ Q
    # L and Q are not kept: at most four n × n arrays live at once
    del L, Q
    K = X.T @ (E @ X)
    K += K.T
    K *= 0.5
    return c, K, W, X.T


class _Block(NamedTuple):
    """One component's part of RateLaws.congruence."""

    cols: object
    span: slice
    K: np.ndarray
    W: np.ndarray
    Xt: np.ndarray


@dataclass(frozen=True)
class EvolveState:
    """State of one linearized trajectory at time t.

    y, ydot, acc: reduced velocity unknowns and their first and second time
    derivatives; Y the trapezoidal integral ∫₀ᵗ y; diss the accumulated
    dissipation integral 2∫ẏᵀVẏ dτ and diss_rate its integrand ẏᵀVẏ at t,
    carried so that a call of step reads the rate at its last step only.
    rho0 and N0 are the initial perturbations projected onto real carriers
    (see the module docstring for the phase convention).  The current
    perturbations are recovered on read as rho = rho0 + R_ρ Y and
    N = N0 + R_N Y, N a (3, n_f) array.  ws holds the rate laws and factors
    shared by the states of one trajectory; meta the initial diagnostics
    (J0, forcing_norm, stability_denom).  congruent is set by step: its dt,
    the state (ŷ, v̂, â, Ŷ) in the basis of RateLaws.congruence(dt), and
    the four arrays (y, ydot, acc, Y) one product with Xᵀ mapped it back
    to.  A step at the same dt from those same arrays goes on from the
    congruent state instead of mapping the arrays in again, so the record
    interval does not change the trajectory.
    """

    t: float
    y: np.ndarray
    ydot: np.ndarray
    acc: np.ndarray
    Y: np.ndarray
    diss: float
    diss_rate: float
    rho0: np.ndarray
    N0: np.ndarray
    ws: RateLaws
    meta: dict
    congruent: Optional[tuple] = field(default=None, repr=False, compare=False)

    def carriers(self):
        """(rho, N) recovered from the integrated velocity Y."""
        r, n = self.ws.rates(self.Y)
        return self.rho0 + r, self.N0 + n

    @property
    def rho(self) -> np.ndarray:
        return self.carriers()[0]

    @property
    def N(self) -> np.ndarray:
        return self.carriers()[1]


def _project_component(arr, length: int, phase: complex, name: str):
    a = np.asarray(arr)
    if a.shape != (length,):
        raise IncompatibleData(f"{name} has shape {a.shape}, expected ({length},)")
    if not np.iscomplexobj(a):
        # a real array is the carrier itself, whatever the slot's phase
        return a.astype(float)
    # rotate the slot's phase (1 or i) onto the real axis; exact for both
    c = a * np.conj(phase)
    nrm = math.sqrt(float(np.sum(np.abs(a) ** 2)))
    bad = math.sqrt(float(np.sum(c.imag ** 2)))
    if bad > _PHASE_TOL * max(nrm, np.finfo(float).tiny):
        raise IncompatibleData(
            f"{name} violates the mode's phase convention: "
            f"off-phase fraction {bad / max(nrm, 1e-300):.3e}")
    return c.real.astype(float)


def init_state(forms: ModeForms, u0, rho0=None, N0=None) -> EvolveState:
    """Initial state with ẏ from the weak first-order balance at t = 0.

    :param u0: reduced real vector of velocity unknowns (layout of forms).
    :param rho0: density perturbation (nodal for incompressible, flux grid
        for compressible); None means zero.
    :param N0: three field-perturbation components on the flux grid (complex
        in the physical phase, or the real carriers); None means zero.
    :raises IncompatibleData: wrong shapes, data more than 1e-8 off phase,
        or div N₀ above 1e-8 (chebyshev) or 100h² (fd2) of the field size.
    """
    ws = RateLaws(forms)
    g1 = forms.grid
    div_tol = 1e-8 if g1.scheme == "chebyshev" else 100.0 * g1.h ** 2

    y = np.asarray(u0)
    if np.iscomplexobj(y):
        nrm = math.sqrt(float(np.sum(np.abs(y) ** 2)))
        if math.sqrt(float(np.sum(y.imag ** 2))) > _PHASE_TOL * max(nrm, 1e-300):
            raise IncompatibleData("u0 must be real in the reduced coordinates")
        y = y.real
    y = y.astype(float)
    if y.shape != (forms.size,):
        raise IncompatibleData(
            f"u0 has shape {y.shape}, expected ({forms.size},)")

    nf = ws.nf
    if rho0 is None:
        rho = np.zeros(ws.rho_len)
    else:
        rho = _project_component(rho0, ws.rho_len, 1.0, "rho0")
    if N0 is None:
        N = np.zeros((3, nf))
    else:
        if len(N0) != 3:
            raise IncompatibleData("N0 must have three components")
        N = np.array([_project_component(c, nf, ph, f"N0[{k}]")
                      for k, (c, ph) in enumerate(zip(N0, ws.phase))])

    n_scale = math.sqrt(sum(float(ws.wf @ (c * c)) for c in N))
    if n_scale > 0.0:
        div = ws.div_n(N)
        if div > div_tol * n_scale:
            raise IncompatibleData(
                f"div N0 = {div:.3e} exceeds {div_tol:.1e} x field size {n_scale:.3e}")

    b0 = ws.forcing(rho, N)
    v0 = cho_solve(ws.mass_factor, -(forms.V @ y) + b0)
    a0 = cho_solve(ws.mass_factor, forms.E @ y - forms.V @ v0)

    meta = {"J0": float(ws.energy(y, v0))}
    meta.update(_initial_diagnostics(ws, y, rho, N))
    return EvolveState(t=0.0, y=y, ydot=v0, acc=a0, Y=np.zeros_like(y),
                       diss=0.0, diss_rate=float(v0 @ (forms.V @ v0)),
                       rho0=rho, N0=N, ws=ws, meta=meta)


def _initial_diagnostics(ws: RateLaws, y, rho, N) -> dict:
    forms = ws.forms
    g1 = forms.grid
    params = forms.params
    mode = forms.mode
    xi1, xi2, xin2 = ws.xi1, ws.xi2, ws.xin2
    wq, wf = ws.quad, ws.wf
    m = mode.m

    def l2q(a):
        return float(wq @ (np.abs(a) ** 2))

    def l2f(a):
        return float(wf @ (np.abs(a) ** 2))

    P = g1.flux_to_node
    out = {}
    if forms.kind == "incompressible":
        # Q0 = lambda0 m d_i N0 - g rho0 e3, assembled per phase convention
        lam0m = params.lambda0 * m
        if mode.field_dir == 3:
            q1 = lam0m * (g1.flux_div @ N[0])
            q2 = lam0m * (g1.flux_div @ N[1])
            q3 = lam0m * (g1.flux_div @ N[2]) - params.g * rho
            q0sq = l2q(q1) + l2q(q2) + l2q(q3)
        else:
            q1 = lam0m * xi1 * N[0]
            q2 = lam0m * xi1 * N[1]
            q3 = -lam0m * xi1 * (P @ N[2]) - params.g * rho
            q0sq = l2f(q1) + l2f(q2) + l2q(q3)
        out["forcing_norm"] = math.sqrt(q0sq)
        di_u0 = (_qform(forms.terms_aux["bend"], y) if mode.field_dir == 3
                 else xi1 * xi1 * _qform(forms.terms_aux["unit_mass"], y))
        di_n0 = (sum(l2q(g1.flux_div @ c) for c in N) if mode.field_dir == 3
                 else xi1 * xi1 * sum(l2f(c) for c in N))
        rho_sq = l2q(rho)
    else:
        lam0 = params.lambda0
        q = ws.pp_f * rho + lam0 * ws.mc_f * N[0]
        c1 = xi1 * q - lam0 * ws.dmc_f * N[2] - lam0 * ws.mc_f * xi1 * N[0]
        c2 = xi2 * q - lam0 * ws.mc_f * xi1 * N[1]
        c3 = (g1.flux_div @ q
              + P @ (lam0 * ws.mc_f * xi1 * N[2] + params.g * rho))
        out["forcing_norm"] = math.sqrt(l2f(c1) + l2f(c2) + l2q(c3))
        di_u0 = xi1 * xi1 * _qform(forms.terms_aux["unit_mass"], y)
        di_n0 = xi1 * xi1 * sum(l2f(c) for c in N)
        rho_sq = l2f(rho)

    mu = params.mu
    lap_sq = sum(l2q(mu * (g1.d2 @ c - xin2 * c)) for c in ws.velocity(y))
    out["stability_denom"] = rho_sq + di_u0 + lap_sq + di_n0
    return out


def step(state: EvolveState, dt: float, n: int = 1) -> EvolveState:
    """n implicit time steps; returns the new state.

    Average-acceleration update of (y, ẏ, ÿ), then the trapezoidal rule
    for Y = ∫y and for the dissipation over each step, taken in the
    congruent coordinates of RateLaws.congruence(dt) (see the module
    docstring).  The state is mapped in by one product per block, unless
    it carries its congruent coordinates from the step that made it, and
    back by one product per block on its four rows.  The steps run in the
    predictor variables p = ŷ + dt·v̂ + (dt²/4)â and w = v̂ + (dt/2)â: each
    forms â = Kp − c⊙w by one matrix–vector product per block, then one
    product of the rows (p, w, â) with the fixed 4 × 3 matrix _advance(dt)
    gives ŷ and v̂ of the new step and the next p and w.  ŷ is added to the
    sum that makes Y, and v̂⊙v̂ to the sum whose product with c makes the
    dissipation.  t accumulates as t += dt, step by step.

    :raises InputError: dt ≤ 0 or n < 1.
    :raises SolverFailure: the step matrix is not positive definite, or the
        dissipation of the steps is not finite (as from a non-finite state).
    """
    if not dt > 0.0:
        raise InputError(f"dt must be positive, got {dt}")
    if n < 1:
        raise InputError(f"step count must be at least 1, got {n}")
    ws = state.ws
    c, blocks = ws.congruence(dt)
    h, q = dt / 2.0, dt * dt / 4.0
    arrays = (state.y, state.ydot, state.acc, state.Y)
    cg = state.congruent
    if cg is not None and cg[0] == dt and all(
            a is b for a, b in zip(cg[2], arrays)):
        y0, v0, a0, Y0 = cg[1]
    else:
        x, hat = np.vstack(arrays), np.empty((4, c.size))
        for b in blocks:
            hat[:, b.span] = x[:, b.cols] @ b.W
        y0, v0, a0, Y0 = hat
    G = _advance(dt)
    # two buffers of rows (ŷ, v̂, p, w, â), taken in turn: G maps rows 2–4
    # of one, the step's (p, w, â), onto rows 0–3 of the other, the step's
    # (ŷ, v̂) and the next (p, w), whose â then fills row 4
    first, second = np.empty((2, 5, c.size))
    first[2] = y0 + dt * v0 + q * a0
    first[3] = v0 + h * a0
    plans = [(tuple((b.K, src[2, b.span], src[4, b.span]) for b in blocks),
              src[3], src[4], src[2:], dst[:4], dst[0], dst[1])
             for src, dst in ((first, second), (second, first))]
    tmp, y_sum, v2_sum = np.empty(c.size), np.zeros(c.size), np.zeros(c.size)
    t = state.t
    for k in range(n):
        products, w, a, pwa, out, y, v = plans[k & 1]
        # â = Kp − c⊙w, one product per block
        for K, pb, ab in products:
            np.dot(K, pb, out=ab)
        np.multiply(c, w, out=tmp)
        a -= tmp
        np.dot(G, pwa, out=out)
        y_sum += y
        np.multiply(v, v, out=tmp)
        v2_sum += tmp
        t += dt
    # Σ_k h(ŷ_{k−1} + ŷ_k) and Σ_k dt(r_{k−1} + r_k) from the sums over k ≥ 1
    Y = Y0 + h * y0 + dt * y_sum - h * y
    rate = float(c @ (v * v))
    dissipated = float(c @ v2_sum)
    # 0·∞ is NaN, so one non-finite entry of any step's velocity makes the
    # sum, and so the dissipation, non-finite
    if not (math.isfinite(dissipated) and math.isfinite(rate)):
        raise SolverFailure("implicit step produced a non-finite state")
    diss = state.diss + dt * (state.diss_rate - rate) + 2.0 * dt * dissipated
    hat = np.vstack((y, v, a, Y))
    x = np.empty_like(hat)
    for b in blocks:
        x[:, b.cols] = hat[:, b.span] @ b.Xt
    y, v, a, Y = arrays = tuple(x)
    return EvolveState(t=t, y=y, ydot=v, acc=a, Y=Y, diss=diss, diss_rate=rate,
                       rho0=state.rho0, N0=state.N0, ws=ws, meta=state.meta,
                       congruent=(dt, tuple(hat), arrays))


def _advance(dt: float) -> np.ndarray:
    """The average-acceleration step as a 4 × 3 matrix: on the rows
    (p, w, â) of a step it gives ŷ = p + (dt²/4)â, v̂ = w + (dt/2)â and the
    next step's predictors p + dt·w + dt²·â and w + dt·â."""
    return np.array([[1.0, 0.0, dt * dt / 4.0],
                     [0.0, 1.0, dt / 2.0],
                     [1.0, dt, dt * dt],
                     [0.0, 1.0, dt]])


@dataclass(frozen=True)
class TrajectoryRecord:
    """Diagnostics of one trajectory at the recorded times.

    Arrays are aligned with times.  norm_diu is ‖∂ᵢu‖ for the incompressible
    problem and √(‖∂₁u‖² + ‖div u‖²) for the compressible one.  energy_drift
    is the relative defect of the energy identity with the trapezoidal
    dissipation integral; first_order_defect the residual of
    J ẏ = −V y + b(ϱ, N), which the scheme preserves to rounding, in the
    max norm relative to the largest of |J ẏ|, |V y| and |b| now and at
    t = 0 (the residual keeps the rounding of the initial sizes when the
    flow decays).
    fit_rate/fit_band: log-linear growth-rate estimate over the second half
    of the record with a two-sigma confidence band.
    """

    times: np.ndarray
    norm_rho: np.ndarray
    norm_u: np.ndarray
    norm_diu: np.ndarray
    norm_ut: np.ndarray
    norm_gradu: np.ndarray
    norm_N: np.ndarray
    energy_drift: np.ndarray
    first_order_defect: np.ndarray
    J0: float
    forcing_norm: float
    fit_rate: Optional[float]
    fit_band: Optional[float]
    ledger: dict


def _qform(terms, x: np.ndarray):
    """Σ coef·Σ_k w[k] (P x)_k (Q x)_k over a term tuple, for a vector x or
    for each column of a block.  Read through the factored terms, the
    rounding stays proportional to the value of each term instead of to the
    norm of the assembled matrix."""
    total = 0.0
    for t in terms:
        px = t.P @ x[t.cols]
        qx = px if t.Q is None else t.Q @ x[t.cols]
        total = total + t.coef * (t.w @ (px * qx))
    return total


def _norms(ws: RateLaws, y, v, rho, N) -> np.ndarray:
    """The six recorded norms (ϱ, u, ∂ᵢu, uₜ, ∇u, N) of a block of states,
    one column per state."""
    forms = ws.forms
    terms = forms.terms_aux
    u_sq = _qform(terms["unit_mass"], y)
    ut_sq = _qform(terms["unit_mass"], v)
    n_sq = (ws.wf @ (N * N)).sum(axis=0)
    rho_sq = ws.rho_weights @ (rho * rho)
    if forms.kind == "incompressible":
        bend_sq = _qform(terms["bend"], y)
        if forms.mode.field_dir == 3:
            diu_sq = bend_sq
        else:
            diu_sq = ws.xi1 * ws.xi1 * u_sq
        grad_sq = ws.xin2 * u_sq + bend_sq
    else:
        diu_sq = ws.xi1 * ws.xi1 * u_sq + _qform(terms["divsq"], y)
        grad_sq = _qform(terms["grad"], y)
    return np.sqrt(np.maximum([rho_sq, u_sq, diu_sq, ut_sq, grad_sq, n_sq], 0.0))


def run_trajectory(state: EvolveState, T: float, dt: float,
                   diagnostics_every: int = 1) -> TrajectoryRecord:
    """Advance to time T recording diagnostics every given number of steps.

    Each recorded interval is one call of step.  The recorded states are
    read in blocks of up to _RECORD_BLOCK, each form applied to a block by
    one matrix–matrix product, and ϱ and N are recovered from Y at the
    recorded steps only.

    Args:
        state: initial state from init_state.
        T: final time; the run takes round(T/dt) steps, so it ends within
            dt/2 of T, before or after it.
        dt: time step, at most T.
        diagnostics_every: record every this many steps (the initial and
            final states are always recorded).
    """
    if not T > 0.0:
        raise InputError(f"final time must be positive, got {T}")
    if dt > T:
        raise InputError(f"time step {dt} exceeds the horizon {T}")
    if diagnostics_every < 1:
        raise InputError("diagnostics_every must be >= 1")
    ws = state.ws
    M, C = ws.forms.J, ws.forms.V
    n_steps = int(round(T / dt))
    j0 = state.meta["J0"]

    times = []
    rows = []
    drifts = []
    defects = []
    rho_inc = []
    n_inc = []
    scale0 = None
    last = None

    def read(block):
        nonlocal scale0, last
        t, diss, y, v, Y = zip(*block)
        times.append(np.array(t))
        diss = np.array(diss)
        y, v, Y = np.column_stack(y), np.column_stack(v), np.column_stack(Y)
        r, n = ws.rates(Y)
        rho, N = state.rho0[:, None] + r, state.N0[:, :, None] + n
        rows.append(_norms(ws, y, v, rho, N))
        Jv, Cy = M @ v, C @ y
        en = ws.energy(y, v)
        # the two identity terms cancel down to J0 along a growing mode, so
        # the drift is relative to their running size, not just to J0
        scale = np.maximum(max(1.0, abs(j0)), np.abs(en) + np.abs(diss))
        drifts.append(np.abs(en + diss - j0) / scale)
        # b(ϱ, N) of the recovered carriers, not b₀ + E·Y: an independent
        # check of the bilinear identity
        bb = ws.forcing(rho, N)
        scl = np.maximum.reduce([np.max(np.abs(x), axis=0) for x in (Jv, Cy, bb)])
        if scale0 is None:
            scale0 = max(float(scl[0]), np.finfo(float).tiny)
        defects.append(np.max(np.abs(Jv + Cy - bb), axis=0)
                       / np.maximum(scl, scale0))
        # increments between consecutive records, across blocks too
        if last is not None:
            rho = np.concatenate((last[0], rho), axis=-1)
            N = np.concatenate((last[1], N), axis=-1)
        d, dn = np.diff(rho), np.diff(N)
        rho_inc.append(np.sqrt(ws.rho_weights @ (d * d)))
        n_inc.append(np.sqrt((ws.wf @ (dn * dn)).sum(axis=0)))
        last = rho[:, -1:], N[..., -1:]

    def record(st):
        return st.t, st.diss, st.y, st.ydot, st.Y

    block = [record(state)]
    st = state
    done = 0
    while done < n_steps:
        k = min(diagnostics_every, n_steps - done)
        st = step(st, dt, k)
        done += k
        block.append(record(st))
        if len(block) == _RECORD_BLOCK:
            read(block)
            block = []
    if block:
        read(block)

    times = np.concatenate(times)
    norm_rho, norm_u, norm_diu, norm_ut, norm_gradu, norm_n = np.hstack(rows)
    drifts = np.concatenate(drifts)
    defects = np.concatenate(defects)
    rho_inc = np.concatenate(rho_inc)
    n_inc = np.concatenate(n_inc)

    fit_rate, fit_band = _fit_growth(times, norm_u)
    denom = state.meta["stability_denom"]
    h1 = np.sqrt(norm_u ** 2 + norm_gradu ** 2)
    tiny = np.finfo(float).tiny
    late = max(1, len(rho_inc) * 3 // 4)
    ledger = {
        "stability_denom": denom,
        "max_ut_sq_ratio": float(np.max(norm_ut ** 2)) / max(denom, tiny),
        "max_comb_sq_ratio": float(np.max(norm_ut ** 2 + norm_u ** 2
                                          + norm_diu ** 2)) / max(denom, tiny),
        "h1_final_over_max": float(h1[-1] / max(float(np.max(h1)), tiny)),
        "rho_increment_late": float(np.max(rho_inc[late:], initial=0.0)),
        "N_increment_late": float(np.max(n_inc[late:], initial=0.0)),
        "rho_bounded": bool(np.max(norm_rho) < np.inf),
        "N_bounded": bool(np.max(norm_n) < np.inf),
    }
    return TrajectoryRecord(
        times=times, norm_rho=norm_rho, norm_u=norm_u, norm_diu=norm_diu,
        norm_ut=norm_ut, norm_gradu=norm_gradu, norm_N=norm_n,
        energy_drift=drifts, first_order_defect=defects,
        J0=j0, forcing_norm=state.meta["forcing_norm"],
        fit_rate=fit_rate, fit_band=fit_band, ledger=ledger)


def _fit_growth(times: np.ndarray, norm_u: np.ndarray):
    """Least-squares slope of log ‖u‖ over the second half of the record."""
    half = times >= 0.5 * times[-1]
    mask = half & (norm_u > 0.0)
    if int(np.count_nonzero(mask)) < 3:
        return None, None
    t = times[mask]
    z = np.log(norm_u[mask])
    A = np.vstack([t, np.ones_like(t)]).T
    coef, res, _, _ = np.linalg.lstsq(A, z, rcond=None)
    dof = len(t) - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        tt = t - t.mean()
        var = s2 / max(float(tt @ tt), np.finfo(float).tiny)
        band = 2.0 * math.sqrt(var)
    else:
        band = 0.0
    return float(coef[0]), band


@dataclass(frozen=True)
class EnvelopeReport:
    """Fitted envelope constants per recorded norm.

    mode is "exponential" (C·e^{Λt} envelopes) or "boundedness" (no rate
    supplied; plain suprema against the initial data combination).  flagged
    lists the norms whose constant is non-finite or implausibly large.
    """

    Lambda: Optional[float]
    mode: str
    constants: dict
    flagged: tuple


def envelope_check(rec: TrajectoryRecord,
                   Lambda: Optional[float] = None) -> EnvelopeReport:
    """Smallest C with norm(t) ≤ C·e^{Λt}·baseline for each recorded norm.

    The baseline of a norm is its own initial value when that is
    nondegenerate, else the combined initial data size; with Lambda None the
    check degenerates to a boundedness check (stable regime).  A constant
    above _FLAG_THRESHOLD is flagged.
    """
    series = {
        "rho": rec.norm_rho, "u": rec.norm_u, "diu": rec.norm_diu,
        "ut": rec.norm_ut, "gradu": rec.norm_gradu, "N": rec.norm_N,
    }
    combined0 = math.sqrt(rec.norm_rho[0] ** 2 + rec.norm_u[0] ** 2
                          + rec.norm_N[0] ** 2 + rec.norm_ut[0] ** 2)
    if combined0 == 0.0:
        zeros = {k: 0.0 for k in series}
        return EnvelopeReport(
            Lambda=Lambda,
            mode="exponential" if Lambda is not None else "boundedness",
            constants=zeros, flagged=())
    growth = (np.exp(Lambda * rec.times) if Lambda is not None
              else np.ones_like(rec.times))
    constants = {}
    flagged = []
    for name, x in series.items():
        b = x[0] if x[0] > 1e-12 * combined0 else combined0
        c = float(np.max(x / (b * growth)))
        constants[name] = c
        if not math.isfinite(c) or c > _FLAG_THRESHOLD:
            flagged.append(name)
    return EnvelopeReport(Lambda=Lambda,
                          mode="exponential" if Lambda is not None else "boundedness",
                          constants=constants, flagged=tuple(flagged))

