"""Clamped streamfunction discretization on a rectangle.

Divergence-free velocity fields with no-slip walls are parametrized by a
streamfunction, w = (∂₃ψ, −∂₁ψ), with ψ and its normal derivative zero on
all four walls.  On this class the critical field strength in either
direction is finite: the walls remove the translation escape that sends
the slab's horizontal-field threshold to infinity.

Discretization: interior nodal values with the wall values implicit, plain
second-order stencils.  The slope constraints (4ψ₁ − ψ₂ = 0 per wall line)
are eliminated through a basis, never penalized, and the 2D basis is the
tensor product of the 1D eliminations, which keeps it sparse and exact.
First derivatives live on staggered midpoint grids, second derivatives on
the nodes, and the mixed derivative on cell corners; the two discrete
paths to div w are then the same matrix, so div w = 0 holds to rounding.

The critical-strength quotient and the growth problem share one term
builder, _box_terms: buoyancy, stretching, viscous and mass forms as
factored terms over sparse operators, each built from 1D factors (the
Kronecker product of the 1D stencils times the 1D bases).  The unknowns
are ordered ix·(nz − 2) + iz, so every form is banded, with half-bandwidth
2(nz − 2).  The 1D pieces, the clamped basis included, are built as CSR
directly.  Both are solved by the slab's pencil (dispersion._Pencil),
which assembles each form into a sparse matrix by one product over its
terms (modeforms._sparse), converts it once to LAPACK's lower band
storage for the banded Cholesky factors of its shifts, and reads the
quotients through the terms; no box solve builds a dense nred×nred
matrix or calls a dense eigensolver.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .dispersion import critical_quotient, solve_growth_rate
from .errors import InputError, TooFewNodes
from .modeforms import FormTerm, ModeForms, _coeff_at
from .profiles import DensityProfile, PhysicalParams


def _diff_pieces(n: int, h: float):
    """Forward difference onto midpoints, nodal second difference, and the
    clamped elimination basis for one direction (Dirichlet walls implicit)."""
    G = sp.diags([np.full(n, -1.0 / h), np.full(n, 1.0 / h)],
                 offsets=[-1, 0], shape=(n + 1, n), format="csr")
    D2 = sp.diags([np.full(n - 1, 1.0), np.full(n, -2.0), np.full(n - 1, 1.0)],
                  offsets=[-1, 0, 1], format="csr") / (h * h)
    # columns: free nodes (all but the second from each wall), one entry
    # per row; the wall slope 4psi_1 - psi_2 = 0 fixes the eliminated ones
    # to 4 times the wall node's column
    cols = np.r_[0, 0:n - 2, n - 3]
    data = np.ones(n)
    data[1] = data[n - 2] = 4.0
    Z = sp.csr_matrix((data, cols, np.arange(n + 1)), shape=(n, n - 2))
    return G, D2, Z


class Rect2D:
    """Uniform tensor grid on (a1, b1) x (a3, b3) with nx x nz interior nodes.

    It keeps the 1D pieces of _diff_pieces per direction (Gx, D2x, Zx and
    Gz, D2z, Zz).  basis maps reduced coefficients to interior nodal values
    of ψ (ix·nz + iz) and spans exactly the fields with ψ = ∂ψ/∂n = 0 on
    all four walls; it and op_dx, op_dz are built on first read.
    """

    def __init__(self, x1: tuple, x3: tuple, nx: int, nz: int):
        a1, b1 = float(x1[0]), float(x1[1])
        a3, b3 = float(x3[0]), float(x3[1])
        if not (b1 > a1 and b3 > a3):
            raise InputError("rectangle intervals must be increasing")
        if nx < 5 or nz < 5:
            raise TooFewNodes("rectangle needs at least 5 interior nodes per direction")
        self.x1 = (a1, b1)
        self.x3 = (a3, b3)
        self.nx, self.nz = int(nx), int(nz)
        self.hx = (b1 - a1) / (nx + 1)
        self.hz = (b3 - a3) / (nz + 1)
        self.nodes_z = a3 + self.hz * np.arange(1, nz + 1)
        self.flux_x = a1 + self.hx * (np.arange(nx + 1) + 0.5)
        self.flux_z = a3 + self.hz * (np.arange(nz + 1) + 0.5)

        self.Gx, self.D2x, self.Zx = _diff_pieces(nx, self.hx)
        self.Gz, self.D2z, self.Zz = _diff_pieces(nz, self.hz)
        self.nred = (nx - 2) * (nz - 2)

    @cached_property
    def basis(self):
        return sp.kron(self.Zx, self.Zz, format="csr")

    @cached_property
    def op_dx(self):  # (flux_x, node_z)
        return sp.kron(self.Gx, sp.eye(self.nz), format="csr")

    @cached_property
    def op_dz(self):  # (node_x, flux_z)
        return sp.kron(sp.eye(self.nx), self.Gz, format="csr")

    @property
    def aspect(self) -> float:
        return (self.x1[1] - self.x1[0]) / (self.x3[1] - self.x3[0])


def _box_terms(r: Rect2D, p: DensityProfile, params: PhysicalParams, i: int):
    """Buoyancy, stretching, viscous and mass terms on the clamped basis.

    buoyancy g∫ρ̄′w₃² (w₃ = −∂₁ψ), stretching λ₀∫|∂ᵢ∇ψ|² for field
    direction i, viscous μ∫|∇w|², mass ∫ρ̄|w|²; each operator is the sparse
    stencil times the basis, on its own staggered points, built from 1D
    factors: (Gx ⊗ Gz)(Zx ⊗ Zz) = GxZx ⊗ GzZz, and so on.
    """
    if i not in (1, 3):
        raise InputError(f"field direction must be 1 or 3, got {i}")
    g = p.grid
    rho_n = _coeff_at(r.nodes_z, g, p.rho, p.rho_fn, p.table)
    rho_f = _coeff_at(r.flux_z, g, p.rho, p.rho_fn, p.table)
    drho_n = _coeff_at(r.nodes_z, g, p.drho, p.drho_fn)
    hxz = r.hx * r.hz
    w_node = hxz * np.ones(r.nx * r.nz)
    w_corner = hxz * np.ones((r.nx + 1) * (r.nz + 1))

    gx, gz = r.Gx @ r.Zx, r.Gz @ r.Zz
    dx = sp.kron(gx, r.Zz, format="csr")  # (flux_x, node_z)
    dz = sp.kron(r.Zx, gz, format="csr")  # (node_x, flux_z)
    dxx = sp.kron(r.D2x @ r.Zx, r.Zz, format="csr")
    dzz = sp.kron(r.Zx, r.D2z @ r.Zz, format="csr")
    dxz = sp.kron(gx, gz, format="csr")  # cell corners
    buoy = (FormTerm(params.g, hxz * np.kron(np.ones(r.nx + 1), drho_n), dx),)
    stretch = (
        FormTerm(params.lambda0, w_node, dxx if i == 1 else dzz),
        FormTerm(params.lambda0, w_corner, dxz),
    )
    viscous = (
        FormTerm(params.mu, w_node, dxx),
        FormTerm(params.mu, w_node, dzz),
        FormTerm(2.0 * params.mu, w_corner, dxz),
    )
    mass = (
        FormTerm(1.0, hxz * np.kron(np.ones(r.nx), rho_f), dz),
        FormTerm(1.0, hxz * np.kron(np.ones(r.nx + 1), rho_n), dx),
    )
    return buoy, stretch, viscous, mass


def assemble_2d_quotient(r: Rect2D, p: DensityProfile, params: PhysicalParams,
                         i: int) -> ModeForms:
    """Quotient forms on the rectangle for field direction i.

    E: g∫ρ̄′(∂₁ψ)² (the numerator, through w₃ = −∂₁ψ); D: λ₀∫|∂ᵢ∇ψ|².
    Both on the clamped basis; D is positive definite there, so the critical
    strength √max(0, λmax(E, D)) is finite.
    """
    buoy, stretch, _, _ = _box_terms(r, p, params, i)
    n = r.nred
    return ModeForms(kind="quotient2d", mode=None, grid=r,
                     layout={"psi": slice(0, n)}, size=n,
                     terms_E=buoy, terms_D=stretch, profile=p, params=params)


def critical_m_2d(r: Rect2D, p: DensityProfile, params: PhysicalParams,
                  i: int) -> float:
    """Critical field strength on the rectangle: finite in both directions.

    λmax(E, D) is read by the slab's pencil, like the slab's per-mode values
    (dispersion.critical_quotient): the shift-invert Lanczos top vector of
    the sparse pencil, refined, and its quotient through the factored
    terms in long double.
    """
    val, _ = critical_quotient(assemble_2d_quotient(r, p, params, i))
    return math.sqrt(max(val, 0.0))


def _growth_forms_2d(r: Rect2D, p: DensityProfile, params: PhysicalParams,
                     m: float, i: int) -> ModeForms:
    """Energy/dissipation/mass forms of the 2D growth problem.

    E = g∫ρ̄′w₃² − m²·λ₀∫|∂ᵢw|², V = μ∫|∇w|², J = ∫ρ̄|w|², from the same
    terms as the quotient; the fixed-point solve assembles them sparse and
    evaluates Rayleigh quotients through the quadrature factors.
    """
    buoy, stretch, viscous, mass = _box_terms(r, p, params, i)
    terms_E = buoy + tuple(t.scaled(-(m * m)) for t in stretch)
    n = r.nred
    return ModeForms(kind="rect2d", mode=None, grid=r,
                     layout={"psi": slice(0, n)}, size=n,
                     terms_E=terms_E, terms_V=viscous, terms_J=mass,
                     profile=p, params=params)


def growth_rate_2d(r: Rect2D, p: DensityProfile, params: PhysicalParams,
                   m: float, i: int):
    """Growth rate (or stability verdict) of the rectangle problem at field
    strength m in direction i, by the same fixed-point solve as the slab."""
    forms = _growth_forms_2d(r, p, params, m, i)
    return solve_growth_rate(forms)


def velocity_from_psi(r: Rect2D, coeffs: np.ndarray):
    """Staggered velocity (w₁ on (node_x, flux_z), w₃ on (flux_x, node_z))."""
    psi = r.basis @ np.asarray(coeffs, dtype=float)
    w1 = (r.op_dz @ psi).reshape(r.nx, r.nz + 1)
    w3 = -(r.op_dx @ psi).reshape(r.nx + 1, r.nz)
    return w1, w3


def divergence_defect(r: Rect2D, coeffs: np.ndarray) -> float:
    """Sup of the discrete divergence of w at the cell corners.

    The two difference paths commute as matrices, so this is rounding noise
    regardless of the coefficients.
    """
    w1, w3 = velocity_from_psi(r, coeffs)
    d1 = sp.kron(r.Gx, sp.eye(r.nz + 1, format="csr")) @ w1.ravel()
    d3 = sp.kron(sp.eye(r.nx + 1, format="csr"), r.Gz) @ w3.ravel()
    return float(np.max(np.abs(d1 + d3)))
