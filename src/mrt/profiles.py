"""Background states: density profiles and the compressible column balance.

A density profile is a sampled function of the vertical coordinate on the open
slab (-l, l), optionally backed by closed-form callables so re-gridding loses
nothing.  The compressible background additionally carries the horizontal
field strength that balances gravity and the isentropic pressure against the
column weight; its construction fails loudly when the prescribed integration
constant leaves no room for a real field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NonPositiveDensity, PressureDeficit
from .grid1d import Grid1D

@dataclass(frozen=True)
class PhysicalParams:
    """Fluid constants shared by every solver.

    :param g: gravitational acceleration, > 0.
    :param lambda0: field-curvature coupling, > 0.
    :param mu: shear viscosity, > 0.
    :param mu0: combined viscosity entering the compressible divergence
        penalty; None for incompressible runs.  When given it must satisfy
        3*(mu0 - mu) + 2*mu >= 0.
    :param A: entropy constant of the isentropic pressure law, > 0.
    :param gamma: adiabatic exponent, > 1.
    """

    g: float
    lambda0: float
    mu: float
    mu0: Optional[float] = None
    A: float = 1.0
    gamma: float = 5.0 / 3.0

    def __post_init__(self):
        for name in ("g", "lambda0", "mu", "A"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise InputError(f"{name} must be positive and finite, got {v}")
        if self.gamma <= 1.0:
            raise InputError(f"gamma must exceed 1, got {self.gamma}")
        if self.mu0 is not None:
            if not np.isfinite(self.mu0) or self.mu0 <= 0.0:
                raise InputError("mu0 must be positive when supplied")
            if 3.0 * (self.mu0 - self.mu) + 2.0 * self.mu < 0.0:
                raise InputError("viscosity pair violates 3*(mu0-mu)+2*mu >= 0")

    def pressure(self, rho: np.ndarray) -> np.ndarray:
        return self.A * np.asarray(rho) ** self.gamma

    def dpressure(self, rho: np.ndarray) -> np.ndarray:
        """p'(rho) for the isentropic law."""
        return self.A * self.gamma * np.asarray(rho) ** (self.gamma - 1.0)


@dataclass(frozen=True)
class DensityProfile:
    """Equilibrium density sampled on a grid.

    rho and drho hold nodal samples of the density and its derivative.  For
    analytic families the callables rho_fn, drho_fn and mass_fn are kept so
    that re-gridding and the column mass are exact; a profile carries all
    three or none.  Tabulated profiles keep their raw table and re-grid by
    interpolation.
    """

    grid: Grid1D
    rho: np.ndarray
    drho: np.ndarray
    provenance: str  # "analytic" | "tabulated"
    label: str = ""
    rho_fn: Optional[Callable[[float], float]] = None
    drho_fn: Optional[Callable[[float], float]] = None
    mass_fn: Optional[Callable[[float], float]] = None  # integral from -l
    table: Optional[tuple] = None

    def __post_init__(self):
        given = sum(f is not None for f in (self.rho_fn, self.drho_fn, self.mass_fn))
        if given not in (0, 3):
            raise InputError("rho_fn, drho_fn and mass_fn go together: "
                             "give all three or none")
        rho = np.asarray(self.rho, dtype=float)
        drho = np.asarray(self.drho, dtype=float)
        if rho.shape != (self.grid.n,) or drho.shape != (self.grid.n,):
            raise InputError("profile samples must match the grid size")
        if not np.all(np.isfinite(rho)) or not np.all(np.isfinite(drho)):
            raise InputError("profile samples must be finite")
        if np.min(rho) <= 0.0:
            raise NonPositiveDensity(
                f"density minimum {np.min(rho):g} at node {int(np.argmin(rho))}"
            )
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "drho", drho)

    @property
    def l(self) -> float:
        return self.grid.l

    @property
    def rt_unstable(self) -> bool:
        """True when the density increases with height somewhere."""
        return bool(np.max(self.drho) > 0.0)


def make_affine_profile(grid: Grid1D, rho_mid: float, beta: float) -> DensityProfile:
    """Density rho_mid + beta*x; must stay positive on the closed slab."""
    l = grid.l
    if rho_mid - abs(beta) * l <= 0.0:
        raise NonPositiveDensity("affine profile touches zero inside the slab")

    def fn(x, a=float(rho_mid), b=float(beta)):
        return a + b * x

    def dfn(x, b=float(beta)):
        return b

    def mass(x, a=float(rho_mid), b=float(beta), l=l):
        return a * (x + l) + 0.5 * b * (x * x - l * l)

    return DensityProfile(
        grid=grid,
        rho=fn(grid.nodes),
        drho=np.full(grid.n, float(beta)),
        provenance="analytic",
        label=f"affine(rho_mid={rho_mid:g}, beta={beta:g})",
        rho_fn=fn,
        drho_fn=dfn,
        mass_fn=mass,
    )


def make_tanh_profile(grid: Grid1D, base: float, amp: float, steep: float) -> DensityProfile:
    """Smoothed two-layer density base + amp*tanh(steep*x)."""
    if steep <= 0.0:
        raise InputError("steepness must be positive")
    l = grid.l

    def fn(x, a=float(base), b=float(amp), c=float(steep)):
        return a + b * np.tanh(c * x)

    def dfn(x, b=float(amp), c=float(steep)):
        return b * c / np.cosh(c * x) ** 2

    def mass(x, a=float(base), b=float(amp), c=float(steep), l=l):
        # integral of tanh: log cosh / c
        return a * (x + l) + (b / c) * (
            np.log(np.cosh(c * x)) - np.log(np.cosh(c * l))
        )

    return DensityProfile(
        grid=grid,
        rho=fn(grid.nodes),
        drho=dfn(grid.nodes),
        provenance="analytic",
        label=f"tanh(base={base:g}, amp={amp:g}, steep={steep:g})",
        rho_fn=fn,
        drho_fn=dfn,
        mass_fn=mass,
    )


def make_table_profile(grid: Grid1D, x: np.ndarray, rho: np.ndarray,
                       label: str = "") -> DensityProfile:
    """Piecewise-linear density from a sample table covering [-l, l]."""
    x = np.asarray(x, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if x.ndim != 1 or x.shape != rho.shape or x.size < 4:
        raise InputError("table needs matching 1-d arrays with >= 4 samples")
    if np.any(np.diff(x) <= 0.0):
        raise InputError("table abscissae must be strictly increasing")
    if x[0] > -grid.l or x[-1] < grid.l:
        raise InputError("table must cover the closed slab")
    slopes = np.diff(rho) / np.diff(x)
    # derivative of the interpolant, averaged at interior breakpoints
    dtab = np.empty_like(rho)
    dtab[0] = slopes[0]
    dtab[-1] = slopes[-1]
    dtab[1:-1] = 0.5 * (slopes[:-1] + slopes[1:])
    return DensityProfile(
        grid=grid,
        rho=np.interp(grid.nodes, x, rho),
        drho=np.interp(grid.nodes, x, dtab),
        provenance="tabulated",
        label=label or f"table({x.size} samples)",
        table=(x.copy(), rho.copy()),
    )


# --------------------------------------------------------------------------
# compressible background
# --------------------------------------------------------------------------

def _column_mass_samples(profile: DensityProfile, xs: np.ndarray) -> np.ndarray:
    """Integral of the density from -l to each x in xs (ascending)."""
    if profile.mass_fn is not None:
        return np.array([profile.mass_fn(x) for x in xs])
    xt, rt = profile.table
    # cumulative trapezoid of the interpolant through table breakpoints
    xs_all = np.unique(np.concatenate([xt, xs, [-profile.l]]))
    xs_all = xs_all[(xs_all >= -profile.l) & (xs_all <= profile.l)]
    vals = np.interp(xs_all, xt, rt)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(xs_all) * (vals[1:] + vals[:-1]))])
    return np.interp(xs, xs_all, cum)


def min_admissible_pressure_const(profile: DensityProfile, params: PhysicalParams) -> float:
    """Smallest integration constant keeping the field radicand positive.

    Evaluated on the closed slab (walls included where closures permit); any
    constant strictly above this value is admissible.
    """
    xs = np.concatenate([[-profile.l], profile.grid.nodes, [profile.l]])
    if profile.rho_fn is not None:
        rho = np.array([profile.rho_fn(x) for x in xs])
    else:
        xt, rt = profile.table
        rho = np.interp(xs, xt, rt)
    F = _column_mass_samples(profile, xs)
    return float(np.max(params.pressure(rho) + params.g * F))


@dataclass(frozen=True)
class CompressibleEquilibrium:
    """Horizontal-field background in hydrostatic/magnetic balance.

    field and dfield sample the balancing field strength and its derivative;
    column_mass is the running integral of the density from the lower wall;
    steady_residual is the worst-node defect of the balance law measured with
    a derivative computed independently of dfield.
    """

    profile: DensityProfile
    params: PhysicalParams
    pressure_const: float
    sign: int
    field: np.ndarray
    dfield: np.ndarray
    column_mass: np.ndarray
    pressure: np.ndarray
    dpressure: np.ndarray
    steady_residual: float
    field_fn: Optional[Callable[[float], float]] = None

    @property
    def grid(self) -> Grid1D:
        return self.profile.grid


def _independent_dfield(equil_fn, nodes: np.ndarray, l: float) -> np.ndarray:
    """5-point central difference with the stencil kept inside the slab."""
    out = np.empty(nodes.size)
    for i, x in enumerate(nodes):
        h = min(1e-3 * l, 0.4 * (l - abs(x)))
        f = [equil_fn(x + k * h) for k in (-2, -1, 1, 2)]
        out[i] = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
    return out


def build_equilibrium(profile: DensityProfile, params: PhysicalParams,
                      pressure_const: float, sign: int = 1) -> CompressibleEquilibrium:
    """Solve the background balance for the horizontal field strength.

    :param pressure_const: integration constant of the balance; must exceed
        the column's pressure-plus-weight everywhere, else PressureDeficit.
    :param sign: +1 or -1, the branch of the square root.
    :raises PressureDeficit: radicand <= 0, reporting the first bad node,
        or, where field_fn exists, the first bad flux point.
    """
    if sign not in (1, -1):
        raise InputError("sign must be +1 or -1")
    if params.mu0 is None:
        raise InputError("compressible background needs mu0")
    grid = profile.grid
    F = _column_mass_samples(profile, grid.nodes)
    p = params.pressure(profile.rho)
    dp = params.dpressure(profile.rho)
    radicand = (2.0 / params.lambda0) * (pressure_const - p - params.g * F)
    bad = np.where(radicand <= 0.0)[0]
    if bad.size:
        raise PressureDeficit(int(bad[0]))
    mc = sign * np.sqrt(radicand)
    # balance identity: lambda0 * mc * mc' = -(p'(rho) rho' + g rho)
    dmc = -(dp * profile.drho + params.g * profile.rho) / (params.lambda0 * mc)

    field_fn = None
    if profile.mass_fn is not None:
        def radicand_fn(x, C=pressure_const, pr=profile, pa=params):
            r = pr.rho_fn(x)
            return (2.0 / pa.lambda0) * (C - pa.A * r ** pa.gamma - pa.g * pr.mass_fn(x))

        # the form assembly samples field_fn at the flux points, and on fd2
        # those lie between the walls and the outermost nodes
        for k, x in enumerate(grid.flux_points):
            if not radicand_fn(x) > 0.0:
                raise PressureDeficit(
                    k, f"field-strength radicand <= 0 at flux point x = {x:g}")

        def field_fn(x, s=sign, rad=radicand_fn):
            return s * np.sqrt(rad(x))

    if field_fn is not None:
        d_ind = _independent_dfield(field_fn, grid.nodes, grid.l)
    else:
        d_ind = np.gradient(mc, grid.nodes, edge_order=2)
    resid = np.abs(params.lambda0 * mc * d_ind + dp * profile.drho
                   + params.g * profile.rho)
    return CompressibleEquilibrium(
        profile=profile,
        params=params,
        pressure_const=float(pressure_const),
        sign=sign,
        field=mc,
        dfield=dmc,
        column_mass=F,
        pressure=p,
        dpressure=dp,
        steady_residual=float(np.max(resid)),
        field_fn=field_fn,
    )
