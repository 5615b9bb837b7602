"""Grid operators: quadrature exactness, derivative accuracy, clamped basis."""

import numpy as np
import pytest

from mrt.errors import InputError, TooFewNodes
from mrt.grid1d import Grid1D

from oracles import dirichlet_floor, gauss_legendre_integral

# Dirichlet Laplacian on (-1, 1): first eigenvalue (pi/2)^2
LAP1 = (np.pi / 2.0) ** 2
# clamped biharmonic on (-1, 1): (kappa/2)^4 with kappa the first root of
# cos(kappa)cosh(kappa) = 1
BIH1 = (4.730040744862704 / 2.0) ** 4
# frozen fd2 value at n = 128 (second-order approximation of BIH1)
BIH1_FD128 = 31.270584605789317


@pytest.mark.parametrize("scheme", ["fd2", "chebyshev"])
@pytest.mark.parametrize("n", [8, 33, 64])
def test_quadrature_constant_exact(scheme, n):
    g = Grid1D(scheme, 1.5, n)
    assert abs(float(np.sum(g.quad)) - 3.0) <= 1e-12
    assert abs(float(np.sum(g.flux_weights)) - 3.0) <= 1e-12


@pytest.mark.parametrize(
    "scheme,n,tol_free,tol_van",
    [("fd2", 256, 2e-4, 1e-5), ("chebyshev", 64, 1e-5, 1e-8)])
def test_quadrature_smooth_function(scheme, n, tol_free, tol_van):
    # the node rule folds the wall weights inward, so it is most accurate on
    # integrands that vanish at the walls (the energy densities do)
    g = Grid1D(scheme, 1.0, n)
    free = lambda x: np.exp(x) * np.cos(2.0 * x)
    van = lambda x: (1.0 - x**2) ** 2 * np.exp(x)
    assert abs(float(g.quad @ free(g.nodes))
               - gauss_legendre_integral(free, -1.0, 1.0)) <= tol_free
    assert abs(float(g.quad @ van(g.nodes))
               - gauss_legendre_integral(van, -1.0, 1.0)) <= tol_van


@pytest.mark.parametrize("scheme", ["fd2", "chebyshev"])
def test_nodes_interior_and_ordered(scheme):
    g = Grid1D(scheme, 0.7, 24)
    assert g.nodes.shape == (24,)
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > -0.7 and g.nodes[-1] < 0.7


def test_fd2_derivative_second_order():
    f = lambda x: np.sin(2.0 * x)
    df = lambda x: 2.0 * np.cos(2.0 * x)
    errs = []
    for n in (32, 64, 128):
        g = Grid1D("fd2", 1.0, n)
        # deriv_flux maps wall-vanishing nodal data onto the flux grid
        vals = f(g.nodes) - f(1.0) * (g.nodes + 1.0) / 2.0 + f(-1.0) * (g.nodes - 1.0) / 2.0
        dvals = df(g.nodes) - f(1.0) / 2.0 + f(-1.0) / 2.0
        errs.append(np.max(np.abs(g.d1 @ vals - dvals)))
    rate = np.log2(errs[0] / errs[2]) / 2.0
    assert 1.7 <= rate <= 2.3


def test_chebyshev_derivative_spectral():
    g = Grid1D("chebyshev", 1.0, 32)
    # polynomial vanishing at both walls: extension by zero is exact
    f = g.nodes**3 - g.nodes
    df = 3.0 * g.nodes**2 - 1.0
    assert np.max(np.abs(g.d1 @ f - df)) <= 1e-11
    d2f = 6.0 * g.nodes
    assert np.max(np.abs(g.d2 @ f - d2f)) <= 1e-9


@pytest.mark.parametrize("scheme", ["fd2", "chebyshev"])
def test_flux_consistency(scheme):
    # deriv_flux of a smooth wall-vanishing function matches its derivative
    # at the flux points
    g = Grid1D(scheme, 1.0, 96)
    f = (1.0 - g.nodes**2) ** 2
    dref = -4.0 * g.flux_points * (1.0 - g.flux_points**2)
    tol = 1e-10 if scheme == "chebyshev" else 5e-3
    assert np.max(np.abs(g.deriv_flux @ f - dref)) <= tol


def test_clamped_basis_orthonormal(cheb64):
    Z = cheb64.clamped
    n = cheb64.n
    assert Z.shape == (n, n - 2)
    assert np.max(np.abs(Z.T @ Z - np.eye(n - 2))) <= 1e-12
    # both boundary derivative rows annihilated
    assert np.max(np.abs(cheb64.clamp_rows @ Z)) <= 1e-9


def test_clamped_basis_fd2(fd128):
    Z = fd128.clamped
    assert np.max(np.abs(Z.T @ Z - np.eye(fd128.n - 2))) <= 1e-12
    assert np.max(np.abs(fd128.clamp_rows @ Z)) <= 1e-9


def test_dirichlet_laplacian_floor_chebyshev():
    # -u'' = mu u with u(+-1) = 0; discrete minimum over nodal functions
    for n, tol in ((32, 1e-6), (64, 1e-8)):
        g = Grid1D("chebyshev", 1.0, n)
        mu1 = dirichlet_floor(g.deriv_flux, g.flux_weights, g.quad)
        assert abs(mu1 - LAP1) <= tol


def test_dirichlet_laplacian_floor_fd2():
    errs = []
    for n in (64, 128):
        g = Grid1D("fd2", 1.0, n)
        mu1 = dirichlet_floor(g.deriv_flux, g.flux_weights, g.quad)
        errs.append(abs(mu1 - LAP1))
    assert errs[1] <= 0.3 * errs[0]
    assert errs[1] <= 1e-3


def test_clamped_biharmonic_floor():
    from scipy.linalg import eigh

    # chebyshev: spectral accuracy at n = 48
    g = Grid1D("chebyshev", 1.0, 48)
    Z = g.clamped
    B = Z.T @ (g.curv_deriv.T * g.curv_weights) @ g.curv_deriv @ Z
    M = Z.T @ (np.eye(g.n) * g.quad) @ Z
    mu1 = eigh(0.5 * (B + B.T), 0.5 * (M + M.T), eigvals_only=True,
               subset_by_index=(0, 0))[0]
    assert abs(mu1 - BIH1) <= 5e-7

    # fd2 at n = 128: frozen second-order value
    g = Grid1D("fd2", 1.0, 128)
    Z = g.clamped
    B = Z.T @ (g.curv_deriv.T * g.curv_weights) @ g.curv_deriv @ Z
    M = Z.T @ (np.eye(g.n) * g.quad) @ Z
    mu1 = eigh(0.5 * (B + B.T), 0.5 * (M + M.T), eigvals_only=True,
               subset_by_index=(0, 0))[0]
    assert abs(mu1 - BIH1_FD128) <= 1e-6
    assert abs(mu1 - BIH1) <= 6e-4 * BIH1


def test_fd2_summation_by_parts():
    # flux divergence is the exact negative adjoint of the flux gradient
    # under uniform node weights (the 1.5h wall correction lives only in the
    # quadrature vector, not in the conservation structure)
    g = Grid1D("fd2", 1.0, 40)
    lhs = (g.flux_weights[:, None] * g.deriv_flux).T
    rhs = -g.h * g.flux_div
    assert np.max(np.abs(lhs - rhs)) == 0.0


def test_flux_to_node_transpose_relation():
    g = Grid1D("chebyshev", 1.0, 24)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.n)
    u = rng.standard_normal(g.n + 2)
    lhs = float((g.flux_weights * u) @ (g.value_flux @ f))
    rhs = float((g.quad * (g.flux_to_node @ (g.flux_weights * u) / g.quad)) @ f)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_too_few_nodes():
    with pytest.raises(TooFewNodes):
        Grid1D("fd2", 1.0, 2)
    with pytest.raises(TooFewNodes):
        Grid1D("chebyshev", 1.0, 2)


def test_bad_scheme_and_length():
    with pytest.raises(InputError):
        Grid1D("spectral", 1.0, 16)
    with pytest.raises(InputError):
        Grid1D("fd2", -1.0, 16)
