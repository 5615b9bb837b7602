"""One-dimensional grids on the slab (-l, l) with homogeneous wall values.

Two schemes:

* ``fd2``: uniform interior nodes, second-order finite differences.
* ``chebyshev``: Gauss-Lobatto collocation; spectral differentiation.

Interior nodes carry the unknowns (wall values are identically zero for every
field the solvers handle).  Quadratic energy terms that involve one derivative
are assembled on a staggered *flux* grid: cell midpoints for fd2, the full
collocation grid (walls included) for chebyshev.  Node-centred first
differences would annihilate the alternating grid mode and let it slip through
dissipation and field-line-bending penalties, producing spurious unstable
directions, so no form in this package ever squares the nodal ``d1``.
"""

from __future__ import annotations

import numpy as np
from functools import cached_property
from scipy.linalg import null_space

from .errors import TooFewNodes, InputError

_MIN_NODES = 8


def cheb_lobatto(N: int, l: float = 1.0):
    """Gauss-Lobatto points (ascending) and the spectral differentiation matrix.

    Barycentric form of the classic collocation derivative; the diagonal uses
    the negative-sum trick so each row differentiates constants to zero
    exactly.

    :param N: polynomial degree; N+1 points.
    :param l: half-width of the interval.
    :return: (x, D) with x ascending in [-l, l], D of shape (N+1, N+1).
    """
    k = np.arange(N + 1)
    x = -np.cos(np.pi * k / N) * l
    # barycentric weights for Lobatto points: (-1)^k, halved at the ends
    c = np.ones(N + 1)
    c[0] = c[-1] = 2.0
    w = (-1.0) ** k / c
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return x, D


def clenshaw_curtis(N: int, l: float = 1.0):
    """Clenshaw-Curtis weights on the N+1 Lobatto points of [-l, l].

    Exact for polynomials of degree N (degree N+1 for odd N); in particular the
    weights sum to 2l to rounding.
    """
    theta = np.pi * np.arange(N + 1) / N
    w = np.zeros(N + 1)
    ii = np.arange(1, N)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N**2 - 1)
        for kk in range(1, N // 2):
            v -= 2.0 * np.cos(2.0 * kk * theta[ii]) / (4.0 * kk**2 - 1)
        v -= np.cos(N * theta[ii]) / (N**2 - 1)
    else:
        w[0] = w[N] = 1.0 / N**2
        for kk in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * kk * theta[ii]) / (4.0 * kk**2 - 1)
    w[ii] = 2.0 * v / N
    return w * l


class Grid1D:
    """Discretization of (-l, l) with n interior nodes.

    Attributes of interest:

    nodes, quad
        interior nodes (ascending) and positive quadrature weights; the
        weights integrate constants to 2l exactly (fd2 uses wall-corrected
        trapezoid weights, chebyshev folds the wall weights into the adjacent
        interior nodes).
    flux_points, flux_weights, deriv_flux, value_flux
        staggered grid carrying first derivatives: ``deriv_flux @ f`` samples
        f' there, ``value_flux @ f`` samples f itself (zero wall values
        assumed), and ``flux_weights`` integrates on that grid.
    curv_weights, curv_deriv
        same idea for second derivatives of twice-constrained fields.
    d1, d2
        nodal derivative matrices (Dirichlet); evolve takes the nodal
        velocity and the viscous stability denominator from them.
    clamp_rows
        the two wall-derivative functionals; their null space is the
        clamped subspace, see :meth:`clamped_basis`.
    flux_div
        maps a flux-grid field to its derivative at the interior nodes
        (adjoint-consistent with deriv_flux); also serves as the pressure
        gradient for fields stored without wall constraints.
    flux_to_node, curv_flux
        interpolation of flux-grid samples back to the nodes, and second
        derivatives of Dirichlet nodal fields evaluated on the flux grid.
    """

    def __init__(self, scheme: str = "fd2", l: float = 1.0, n: int = 64):
        if scheme not in ("fd2", "chebyshev"):
            raise InputError(f"unknown scheme {scheme!r}")
        if not (l > 0.0) or not np.isfinite(l):
            raise InputError("half-width l must be positive and finite")
        n = int(n)
        if n < _MIN_NODES:
            raise TooFewNodes(f"scheme {scheme} needs n >= {_MIN_NODES}, got {n}")
        self.scheme = scheme
        self.l = float(l)
        self.n = n
        if scheme == "fd2":
            self._build_fd2()
        else:
            self._build_chebyshev()

    # ------------------------------------------------------------------ fd2
    def _build_fd2(self):
        n, l = self.n, self.l
        h = 2.0 * l / (n + 1)
        self.h = h
        self.nodes = -l + h * np.arange(1, n + 1)
        w = np.full(n, h)
        w[0] = w[-1] = 1.5 * h  # corrected trapezoid: constants -> 2l exactly
        self.quad = w

        # midpoint flux grid, n+1 cells
        self.flux_points = -l + h * (np.arange(n + 1) + 0.5)
        self.flux_weights = np.full(n + 1, h)
        G = np.zeros((n + 1, n))
        A = np.zeros((n + 1, n))
        for j in range(n + 1):
            if j < n:
                G[j, j] = 1.0 / h
                A[j, j] = 0.5
            if j > 0:
                G[j, j - 1] = -1.0 / h
                A[j, j - 1] = 0.5
        self.deriv_flux = G
        self.value_flux = A

        d1 = np.zeros((n, n))
        d2 = np.zeros((n, n))
        for j in range(n):
            if j > 0:
                d1[j, j - 1] = -0.5 / h
                d2[j, j - 1] = 1.0 / h**2
            if j < n - 1:
                d1[j, j + 1] = 0.5 / h
                d2[j, j + 1] = 1.0 / h**2
            d2[j, j] = -2.0 / h**2
        self.d1 = d1
        self.d2 = d2

        # curvature terms live on the nodes for fd2
        self.curv_weights = self.quad
        self.curv_deriv = d2

        rows = np.zeros((2, n))
        rows[0, 0] = 4.0 / (2 * h)
        rows[0, 1] = -1.0 / (2 * h)
        rows[1, -1] = -4.0 / (2 * h)
        rows[1, -2] = 1.0 / (2 * h)
        self.clamp_rows = rows

        dv = np.zeros((n, n + 1))
        pn = np.zeros((n, n + 1))
        for j in range(n):
            dv[j, j] = -1.0 / h
            dv[j, j + 1] = 1.0 / h
            pn[j, j] = 0.5
            pn[j, j + 1] = 0.5
        self.flux_div = dv
        self.flux_to_node = pn
        self.curv_flux = A @ d2

    # ------------------------------------------------------------ chebyshev
    def _build_chebyshev(self):
        n, l = self.n, self.l
        N = n + 1  # polynomial degree; N+1 = n+2 collocation points
        xf, Df = cheb_lobatto(N, l)
        wf = clenshaw_curtis(N, l)
        self.h = None
        self.nodes = xf[1:-1]

        q = wf[1:-1].copy()
        q[0] += wf[0]
        q[-1] += wf[-1]  # fold wall weights: constants -> 2l exactly
        self.quad = q

        E = np.zeros((n + 2, n))
        E[1:-1, :] = np.eye(n)
        DE = Df @ E
        self.flux_points = xf
        self.flux_weights = wf
        self.deriv_flux = DE
        self.value_flux = E

        D2E = Df @ DE
        self.curv_weights = wf
        self.curv_deriv = D2E

        self.d1 = DE[1:-1, :]
        self.d2 = D2E[1:-1, :]
        self.clamp_rows = DE[[0, -1], :]
        self.flux_div = Df[1:-1, :]
        self.flux_to_node = E.T
        self.curv_flux = D2E

    # ---------------------------------------------------------------- misc
    @cached_property
    def clamped(self) -> np.ndarray:
        """Orthonormal basis (n x (n-2)) of fields with zero wall derivative.

        Columns span the null space of clamp_rows; interpolants through the
        basis vanish at the walls together with their first derivative.
        """
        Z = null_space(self.clamp_rows)
        if Z.shape[1] != self.n - 2:
            raise InputError("clamp constraints degenerate on this grid")
        return Z
