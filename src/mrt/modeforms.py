"""Per-mode quadratic forms for the stratified slab.

For a horizontal Fourier mode with wavenumber pair ξ the three-component
complex fields reduce to real unknowns:

* incompressible: û₃ = v₃ (clamped: the parallel horizontal component is
  i·v₃′/|ξ|, so v₃ and v₃′ vanish at the walls), û_⊥ = i·φ with φ Dirichlet;
* compressible: û₃ = v₃, û₁ = i·v₁, û₂ = i·v₂, all Dirichlet, so the
  divergence becomes the real combination d(v) = −ξ₁v₁ − ξ₂v₂ + v₃′.

Forms are kept as tuples of factored terms coef·Σ w_k (P x)_k (Q x)_k.
The factored path evaluates energies as weighted sums over quadrature points
with compensated accumulation, which is what lets the growth-rate fixed
point land at the last-bit level; the assembled matrices feed the
eigensolver.

A term's operators read only the columns of the stacked unknown it names,
and its columns name exactly the blocks they read: one block, or, for the
few operators that couple blocks, the blocks whose coefficient is nonzero
at the mode (_coupled_ops).  Operators may be dense arrays or scipy sparse
matrices.  _dense turns terms into a dense matrix, each term added on its
columns, and _sparse turns sparse ones into a CSR matrix.  Each matrix is
assembled where it is read, at the width it is read: ModeForms builds its
full-width dense ones, the evolution norms too, on first read, and the
solvers' pencil builds its own from the terms it keeps, unless it spans
every column and reads the forms' ones.  The compressible coefficients are
sampled at the flux points once, in _compressible_pieces, which evolve's
rate laws read too.  form_components splits the unknown into the
smallest unions of blocks that no term's columns cross; the growth pencil
and the evolution both read it.

First-derivative products are assembled on the staggered flux grid, never by
squaring the nodal central difference (see grid1d).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import InputError, ZeroMode
from .grid1d import Grid1D
from .profiles import (CompressibleEquilibrium, DensityProfile, PhysicalParams)


@dataclass(frozen=True)
class ModeSpec:
    """One horizontal Fourier mode.

    xi must be a pair of integer multiples of 1/L.  field_dir selects the
    background field direction for the incompressible problem (1 horizontal,
    3 vertical); the compressible background is always horizontal.  m is the
    constant incompressible field strength (the compressible strength lives
    in the equilibrium).
    """

    L: float
    xi: tuple
    field_dir: int = 3
    m: float = 0.0

    def __post_init__(self):
        if self.L <= 0.0:
            raise InputError("period scale L must be positive")
        if self.field_dir not in (1, 3):
            raise InputError("field_dir must be 1 or 3")
        x1, x2 = self.xi
        for c in (x1, x2):
            if abs(c * self.L - round(c * self.L)) > 1e-9 * max(1.0, abs(c * self.L)):
                raise InputError(f"xi component {c} is not an integer multiple of 1/L")
        object.__setattr__(self, "xi", (float(x1), float(x2)))

    @classmethod
    def from_integers(cls, L: float, k1: int, k2: int,
                      field_dir: int = 3, m: float = 0.0) -> "ModeSpec":
        return cls(L=L, xi=(k1 / L, k2 / L), field_dir=field_dir, m=m)

    @property
    def xi_norm2(self) -> float:
        return self.xi[0] ** 2 + self.xi[1] ** 2


@dataclass(frozen=True)
class FormTerm:
    """One factored contribution coef · Σ_k w[k] (P y)_k (Q y)_k, y = x[cols].

    cols is a slice or an ascending column index, and names exactly the
    layout blocks that P and Q read: P and Q hold only those columns, and
    at least one of them is nonzero on each named block.  A single-block
    operator is stored at its own width; cols defaults to every column.
    P and Q may be dense arrays or scipy sparse matrices.  Q = None means
    Q = P.
    """

    coef: float
    w: np.ndarray
    P: object
    Q: Optional[object] = None
    cols: object = field(default_factory=lambda: slice(None))

    def scaled(self, c: float) -> "FormTerm":
        return replace(self, coef=c * self.coef)

    @property
    def sparse(self) -> bool:
        return sp.issparse(self.P) and (self.Q is None or sp.issparse(self.Q))

    def matrix(self, sparse: bool = False):
        """coef·PᵀWQ (symmetrized when Q is given) on the columns cols; CSR
        when sparse is set, which needs sparse operators."""
        Q = self.P if self.Q is None else self.Q
        if sp.issparse(self.P):
            M = self.P.T @ sp.diags(self.w) @ Q
            M = M.tocsr() if sparse else M.toarray()
        else:
            M = self.P.T @ (self.w[:, None] * Q)
        if self.Q is not None:
            M = _symmetrize(M)
        return self.coef * M


def qform_reader(groups, cache: Optional[dict] = None):
    """Extended-precision reader of several factored quadratic forms.

    groups is a tuple of term tuples, and the reader maps x to the tuple of
    their values at x.  Energies of smooth fields are O(1) integrals even
    when the assembled matrices have huge norms; evaluating through the
    factored terms keeps the rounding proportional to the value instead of
    the matrix norm, and running the derivative matvecs and quadrature sums
    in long double drops the remaining noise floor a further few orders.
    The growth-rate fixed point needs exactly this to certify |Λ² − α(Λ)|
    at the 1e-16 level.  Each distinct (operator, columns) pair among the
    terms is converted to long double once, here, and applied to x once per
    read, however many terms share it, as E, V and J share the few
    derivative operators of a mode.  cache, a dict kept by the caller,
    holds the converted operators by identity, so that readers over the
    same operators convert each once between them.  Sparse operators give
    the same sums as their dense form: the skipped entries are exact zeros.
    """
    ops, index, plan = [], {}, []
    cache = {} if cache is None else cache

    def product(op, cols) -> int:
        key = (id(op),) + ((cols.start, cols.stop, cols.step)
                           if isinstance(cols, slice) else (cols.tobytes(),))
        if key not in index:
            if id(op) not in cache:
                cache[id(op)] = op, op.astype(np.longdouble)
            index[key] = len(ops)
            ops.append((cache[id(op)][1], cols))
        return index[key]

    for terms in groups:
        plan.append(tuple(
            (np.longdouble(t.coef), t.w.astype(np.longdouble),
             product(t.P, t.cols),
             product(t.P if t.Q is None else t.Q, t.cols))
            for t in terms))

    def read(x: np.ndarray) -> tuple:
        xl = np.asarray(x, dtype=np.longdouble)
        px = [P @ xl[cols] for P, cols in ops]
        values = []
        for row in plan:
            total = np.longdouble(0.0)
            for coef, w, i, j in row:
                total += coef * np.sum(w * px[i] * px[j])
            values.append(total)
        return tuple(values)

    return read


def qform_value_ld(terms, x: np.ndarray) -> np.longdouble:
    """Extended-precision value of one factored quadratic form at x, read
    as qform_reader reads it."""
    return qform_reader((terms,))(x)[0]


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _as_cols(index: np.ndarray):
    """An ascending column index as a slice when it is contiguous, else the
    index itself."""
    if index[-1] - index[0] + 1 == index.size:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _dense(terms, n: int) -> np.ndarray:
    """The n×n symmetric matrix of a term tuple, each term added on its
    columns."""
    M = np.zeros((n, n))
    for t in terms:
        c = t.cols
        M[(c, c) if isinstance(c, slice) else np.ix_(c, c)] += t.matrix()
    return _symmetrize(M)


def _sparse(terms, n: int) -> sp.csr_matrix:
    """The CSR counterpart of _dense, for sparse terms that read every
    column (the box's)."""
    M = sp.csr_matrix((n, n))
    for t in terms:
        M = M + t.matrix(sparse=True)
    return _symmetrize(M).tocsr()


def form_components(forms: "ModeForms") -> tuple:
    """The components of the block coupling of forms, as (columns, grows)
    pairs: the ascending column indices of a union of layout blocks, and
    whether it can carry growth.

    The blocks that the cols of one E, V or J term name are joined, so
    each component is closed under every form: E, V and J are block
    diagonal over the components, with exact zeros between them.  A component whose E terms are all nonpositive squares
    (coef ≤ 0, w ≥ 0, Q None), or that has no E term, has E ⪯ 0 on it and
    cannot grow.  The components come in the order of their first block,
    which is the order of their first column.  The incompressible forms
    split into v₃ and φ; the compressible ones into {v₁} and {v₂, v₃} at
    ξ₁ = 0 and into {v₁, v₃} and {v₂} at ξ₂ = 0, and stay whole otherwise.
    A layout of fewer than two blocks is one component, taken as one that
    can grow.
    """
    blocks = list(forms.layout.values())
    index = np.arange(forms.size)
    if len(blocks) < 2:
        return ((index, True),)
    label = np.empty(forms.size, dtype=int)
    for k, b in enumerate(blocks):
        label[b] = k

    comp = list(range(len(blocks)))
    e_terms = []
    for name in ("E", "V", "J"):
        for t in getattr(forms, "terms_" + name) or ():
            ks = set(label[t.cols].tolist())
            if name == "E":
                e_terms.append((t, ks))
            joined = {comp[k] for k in ks}
            if len(joined) > 1:
                comp = [min(joined) if c in joined else c for c in comp]
    grows = set()
    for t, ks in e_terms:
        if ks and not (t.Q is None and t.coef <= 0.0 and np.all(t.w >= 0.0)):
            grows.add(comp[min(ks)])
    members = {}
    for k, root in enumerate(comp):
        members.setdefault(root, []).append(k)
    return tuple((index[np.isin(label, ks)], root in grows)
                 for root, ks in sorted(members.items()))


@dataclass(frozen=True)
class ModeForms:
    """Symmetric forms for one mode (or the 2D rectangle), held as terms.

    kind ∈ {"incompressible", "compressible", "crForms", "quotient",
    "quotient2d", "rect2d"}.  layout maps unknown-block names to slices of
    the stacked real vector of length size.  terms_E, terms_V, terms_J and
    terms_D are the factored terms of the energy, dissipation, mass and
    penalty/denominator forms (None where the kind has no such form; the
    quotient kinds carry only E and D, since a critical strength is
    λmax(E, D)), so that a reported quotient can be read through them in
    long double.  E, V, J and D are the dense symmetric matrices of those
    terms, assembled the first time each is read; the solvers' pencil
    (dispersion._Pencil) reads them when it spans every column and sparse
    assembly does not apply, and otherwise assembles its own from the
    terms, at its own width.  terms_aux names the term tuples of the PSD
    norm forms that only the evolution diagnostics read, through their
    factors, and aux their dense matrices, assembled on first read like E.
    """

    kind: str
    mode: Optional[ModeSpec]
    grid: object
    layout: dict
    size: int
    terms_E: Optional[tuple] = None
    terms_V: Optional[tuple] = None
    terms_J: Optional[tuple] = None
    terms_D: Optional[tuple] = None
    terms_aux: dict = field(default_factory=dict)
    profile: Optional[DensityProfile] = None
    equilibrium: Optional[CompressibleEquilibrium] = None
    params: Optional[PhysicalParams] = None

    def _assembled(self, terms) -> Optional[np.ndarray]:
        return None if terms is None else _dense(terms, self.size)

    @cached_property
    def E(self) -> np.ndarray:
        return self._assembled(self.terms_E)

    @cached_property
    def V(self) -> Optional[np.ndarray]:
        return self._assembled(self.terms_V)

    @cached_property
    def J(self) -> Optional[np.ndarray]:
        return self._assembled(self.terms_J)

    @cached_property
    def D(self) -> Optional[np.ndarray]:
        return self._assembled(self.terms_D)

    @cached_property
    def aux(self) -> dict:
        return {k: _dense(t, self.size) for k, t in self.terms_aux.items()}


def _coeff_at(points: np.ndarray, grid: Grid1D, nodal: np.ndarray,
              fn=None, table=None) -> np.ndarray:
    """Sample a background coefficient at staggered points.

    Closure wins (exact), then the raw table, then interpolation of the nodal
    samples with constant extension at the walls.
    """
    if fn is not None:
        return np.asarray([fn(x) for x in points], dtype=float)
    if table is not None:
        return np.interp(points, table[0], table[1])
    return np.interp(points, grid.nodes, nodal)


# --------------------------------------------------------------------------
# incompressible assembly
# --------------------------------------------------------------------------

def _incompressible_pieces(mode: ModeSpec, p: DensityProfile,
                           params: PhysicalParams, g1: Grid1D):
    """Shared term tuples for the divergence-free reduction.

    Returns layout plus factored term tuples for: mass (ρ̄-weighted), unit
    mass (nodal and flux variants), the field-line bending form
    ∫((v₃′)² + (v₃″)²/|ξ|² + (φ′)²), and the buoyancy numerator g∫ρ̄′v₃².
    Every term reads one block.  The bending curvature factor is evaluated
    on the flux grid (curv_flux), where the evolution module's recovered
    field perturbation lives.
    """
    if mode.xi_norm2 == 0.0:
        raise ZeroMode("incompressible reduction needs |xi| > 0")
    n = g1.n
    na = n - 2
    sv = slice(0, na)
    sphi = slice(na, na + n)
    layout = {"v3": sv, "phi": sphi}
    xi2 = mode.xi_norm2

    Z = g1.clamped
    GZ = g1.deriv_flux @ Z
    CFZ = g1.curv_flux @ Z
    AZ = g1.value_flux @ Z
    Iphi = np.eye(n)

    rho_f = _coeff_at(g1.flux_points, g1, p.rho, p.rho_fn, p.table)
    wf = g1.flux_weights

    mass = (
        FormTerm(1.0, g1.quad * p.rho, Z, cols=sv),
        FormTerm(1.0 / xi2, wf * rho_f, GZ, cols=sv),
        FormTerm(1.0, g1.quad * p.rho, Iphi, cols=sphi),
    )
    unit_mass = (
        FormTerm(1.0, g1.quad, Z, cols=sv),
        FormTerm(1.0 / xi2, wf, GZ, cols=sv),
        FormTerm(1.0, g1.quad, Iphi, cols=sphi),
    )
    # same norm assembled against flux-point values; the energy uses this
    # variant so its bilinear pairing matches the evolution forcing exactly
    unit_flux = (
        FormTerm(1.0, wf, AZ, cols=sv),
        FormTerm(1.0 / xi2, wf, GZ, cols=sv),
        FormTerm(1.0, wf, g1.value_flux, cols=sphi),
    )
    bend = (
        FormTerm(1.0, wf, GZ, cols=sv),
        FormTerm(1.0 / xi2, wf, CFZ, cols=sv),
        FormTerm(1.0, wf, g1.deriv_flux, cols=sphi),
    )
    buoy = (
        FormTerm(params.g, g1.quad * p.drho, Z, cols=sv),
    )
    return layout, mass, unit_mass, unit_flux, bend, buoy


def assemble_incompressible(mode: ModeSpec, p: DensityProfile,
                            params: PhysicalParams, g1: Grid1D) -> ModeForms:
    """Energy, dissipation, and mass forms of the incompressible problem.

    E = g∫ρ̄′v₃² − λ₀m²·(bending form)            for a vertical field,
    E = g∫ρ̄′v₃² − λ₀m²ξ₁²·(unit-mass form)       for a horizontal field,
    V = μ(|ξ|²·unit-mass + bending), J = mass.

    :raises ZeroMode: ξ = (0,0).
    """
    layout, mass, unit_mass, unit_flux, bend, buoy = \
        _incompressible_pieces(mode, p, params, g1)
    m2 = mode.m * mode.m
    xi2 = mode.xi_norm2

    if mode.field_dir == 3:
        terms_E = buoy + tuple(t.scaled(-params.lambda0 * m2) for t in bend)
    else:
        terms_E = buoy + tuple(t.scaled(-params.lambda0 * m2 * mode.xi[0] ** 2)
                               for t in unit_flux)
    terms_V = tuple(t.scaled(params.mu * xi2) for t in unit_mass) + \
        tuple(t.scaled(params.mu) for t in bend)

    return ModeForms(kind="incompressible", mode=mode, grid=g1, layout=layout,
                     size=layout["phi"].stop, terms_E=terms_E, terms_V=terms_V,
                     terms_J=mass, terms_aux={"unit_mass": unit_mass, "bend": bend},
                     profile=p, params=params)


def assemble_quotient(mode: ModeSpec, p: DensityProfile, params: PhysicalParams,
                      g1: Grid1D, i: Optional[int] = None) -> ModeForms:
    """Numerator/denominator pair of the per-mode critical-strength quotient.

    Eform = g∫ρ̄′v₃²; Dform = λ₀·(bending form) for i=3, λ₀ξ₁²·(unit mass)
    for i=1.  The per-mode critical strength is √max(0, λ_max(E, D)).  The
    forms live on the v₃ block alone: φ adds nothing to the numerator and
    its penalty block is decoupled from v₃.
    """
    if i is None:
        i = mode.field_dir
    layout, _, _, unit_flux, bend, buoy = _incompressible_pieces(mode, p, params, g1)
    sv = layout["v3"]
    penalty = bend if i == 3 else unit_flux
    c = params.lambda0 if i == 3 else params.lambda0 * mode.xi[0] ** 2
    terms_D = tuple(t.scaled(c) for t in penalty if t.cols == sv)
    return ModeForms(kind="quotient", mode=mode, grid=g1, layout={"v3": sv},
                     size=sv.stop, terms_E=buoy, terms_D=terms_D,
                     profile=p, params=params)


# --------------------------------------------------------------------------
# compressible assembly
# --------------------------------------------------------------------------

def _coupled_ops(mode: ModeSpec, g1: Grid1D) -> dict:
    """The compressible operators that read more than one block, on the
    flux grid, each on the blocks whose coefficient is nonzero at this
    mode: d(v) = −ξ₁v₁ − ξ₂v₂ + v₃′ and r(v) = −ξ₂v₂ + v₃′ as (cols, op)
    pairs, and A3, the v₃ partner of d(v) in the 2gρ̄ d(v) v₃ term, on d's
    columns.  Columns are those of the stacked unknown (v₁, v₂, v₃), n
    each.  d reads (v₂, v₃) at ξ₁ = 0 and (v₁, v₃) at ξ₂ = 0; r never
    reads v₁, nor v₂ at ξ₂ = 0."""
    A, G, n = g1.value_flux, g1.deriv_flux, g1.n
    xi1, xi2 = mode.xi
    by_v1 = [(0, -xi1 * A)] if xi1 != 0.0 else []
    by_v2 = [(1, -xi2 * A)] if xi2 != 0.0 else []

    def on_blocks(parts) -> tuple:
        cols = np.concatenate([np.arange(k * n, (k + 1) * n) for k, _ in parts])
        return _as_cols(cols), np.hstack([op for _, op in parts])

    d = on_blocks(by_v1 + by_v2 + [(2, G)])
    A3 = np.hstack([np.zeros_like(A)] * len(by_v1 + by_v2) + [A])
    return dict(d=d, r=on_blocks(by_v2 + [(2, G)]), A3=A3)


def _compressible_pieces(mode: ModeSpec, eq: CompressibleEquilibrium,
                         params: PhysicalParams, g1: Grid1D):
    """Layout, operators and flux-point samples of ρ̄, ρ̄′, p′(ρ̄) and m_c;
    the energy terms and evolve.RateLaws both read them."""
    n = g1.n
    layout = {"v1": slice(0, n), "v2": slice(n, 2 * n), "v3": slice(2 * n, 3 * n)}
    ops = dict(A=g1.value_flux, G=g1.deriv_flux, I=np.eye(n),
               **_coupled_ops(mode, g1))

    p = eq.profile
    fx = g1.flux_points
    rho_f = _coeff_at(fx, g1, p.rho, p.rho_fn, p.table)
    drho_f = _coeff_at(fx, g1, p.drho, p.drho_fn)
    pp_f = params.dpressure(rho_f)
    mc_f = _coeff_at(fx, g1, eq.field, eq.field_fn)
    wf = g1.flux_weights

    coeffs = dict(rho_f=rho_f, drho_f=drho_f, pp_f=pp_f, mc_f=mc_f, wf=wf)
    return layout, ops, coeffs


def _compressible_energy_terms(mode, params, layout, ops, coeffs):
    """E_c, assembled entirely on the flux grid.

    Flux placement of every term (buoyancy included) keeps the assembled
    matrix bilinear-identical to the weak right-hand side used by the
    evolution initializer, so growing-mode data reproduce u_t(0) = Λu₀ up to
    the eigenpair residual.
    """
    xi1 = mode.xi[0]
    wf, rho_f, mc_f = coeffs["wf"], coeffs["rho_f"], coeffs["mc_f"]
    wmc2 = wf * (mc_f * mc_f)
    A, s2, s3 = ops["A"], layout["v2"], layout["v3"]
    (dc, d), (rc, r) = ops["d"], ops["r"]
    return (
        FormTerm(params.g, wf * coeffs["drho_f"], A, cols=s3),
        FormTerm(2.0 * params.g, wf * rho_f, d, ops["A3"], cols=dc),
        FormTerm(-1.0, wf * (coeffs["pp_f"] * rho_f), d, cols=dc),
        FormTerm(-params.lambda0 * xi1 ** 2, wmc2, A, cols=s2),
        FormTerm(-params.lambda0 * xi1 ** 2, wmc2, A, cols=s3),
        FormTerm(-params.lambda0, wmc2, r, cols=rc),
    )


def assemble_compressible(mode: ModeSpec, eq: CompressibleEquilibrium,
                          params: PhysicalParams, g1: Grid1D) -> ModeForms:
    """Forms of the compressible problem with a horizontal background field.

    J = ∫ρ̄|v|²;  V = μ∫(|ξ|²|v|² + |v′|²) + μ₀∫d(v)²;
    E_c = ∫[gρ̄′v₃² + 2gρ̄ d(v) v₃ − p′(ρ̄)ρ̄ d(v)²
            − λ₀m_c²(ξ₁²v₂² + ξ₁²v₃² + (−ξ₂v₂+v₃′)²)].
    """
    if params.mu0 is None:
        raise InputError("compressible forms need mu0")
    layout, ops, coeffs = _compressible_pieces(mode, eq, params, g1)
    p = eq.profile
    xi2 = mode.xi_norm2
    wf = coeffs["wf"]
    blocks = tuple(layout.values())
    dc, d = ops["d"]

    terms_J = tuple(FormTerm(1.0, g1.quad * p.rho, ops["I"], cols=b) for b in blocks)
    terms_E = _compressible_energy_terms(mode, params, layout, ops, coeffs)
    unit = tuple(FormTerm(1.0, g1.quad, ops["I"], cols=b) for b in blocks)
    grad = tuple(t.scaled(xi2) for t in unit) + \
        tuple(FormTerm(1.0, wf, ops["G"], cols=b) for b in blocks)
    terms_V = tuple(t.scaled(params.mu) for t in grad) + \
        (FormTerm(params.mu0, wf, d, cols=dc),)

    norms = {"unit_mass": unit, "grad": grad,
             "divsq": (FormTerm(1.0, wf, d, cols=dc),)}
    return ModeForms(kind="compressible", mode=mode, grid=g1, layout=layout,
                     size=3 * g1.n, terms_E=terms_E, terms_V=terms_V,
                     terms_J=terms_J, terms_aux=norms, equilibrium=eq, profile=p,
                     params=params)


def assemble_cr_forms(mode: ModeSpec, eq: CompressibleEquilibrium,
                      params: PhysicalParams, g1: Grid1D) -> ModeForms:
    """E_c with the field-free penalty denominator for the stability constant.

    Dform = λ₀∫(ξ₁²v₂² + ξ₁²v₃² + (−ξ₂v₂+v₃′)²); its kernel at ξ₁ ≠ 0 is the
    v₁-only subspace, where E_c = −ξ₁²∫p′(ρ̄)ρ̄v₁² < 0, so the ratio supremum
    is finite there.  The penalty needs no background coefficient, so its
    terms come straight from the grid operators.
    """
    base = assemble_compressible(mode, eq, params, g1)
    xi1 = mode.xi[0]
    A, wf = g1.value_flux, g1.flux_weights
    rc, r = _coupled_ops(mode, g1)["r"]
    terms_D = (
        FormTerm(params.lambda0 * xi1 ** 2, wf, A, cols=base.layout["v2"]),
        FormTerm(params.lambda0 * xi1 ** 2, wf, A, cols=base.layout["v3"]),
        FormTerm(params.lambda0, wf, r, cols=rc),
    )
    return replace(base, kind="crForms", terms_D=terms_D)
