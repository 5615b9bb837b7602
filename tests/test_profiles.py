"""Density profiles, parameter validation, and the compressible background."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrt.errors import InputError, NonPositiveDensity, PressureDeficit
from mrt.grid1d import Grid1D
from mrt.profiles import (
    PhysicalParams,
    build_equilibrium,
    make_affine_profile,
    make_table_profile,
    make_tanh_profile,
    min_admissible_pressure_const,
)

from oracles import gauss_legendre_integral


def test_params_validation():
    with pytest.raises(InputError):
        PhysicalParams(g=0.0, lambda0=1.0, mu=0.1)
    with pytest.raises(InputError):
        PhysicalParams(g=1.0, lambda0=-1.0, mu=0.1)
    with pytest.raises(InputError):
        PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, gamma=1.0)
    with pytest.raises(InputError):
        PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.0)
    # 3(mu0 - mu) + 2 mu >= 0 admits mu0 = mu/3 but nothing below
    PhysicalParams(g=1.0, lambda0=1.0, mu=0.3, mu0=0.1)
    with pytest.raises(InputError):
        PhysicalParams(g=1.0, lambda0=1.0, mu=0.3, mu0=0.0999)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(1.05, 3.0))
def test_dpressure_is_pressure_derivative(rho, gamma):
    p = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, A=0.7, gamma=gamma)
    h = 1e-5 * rho
    num = (p.pressure(rho + h) - p.pressure(rho - h)) / (2.0 * h)
    assert abs(p.dpressure(rho) - num) <= 1e-6 * max(1.0, abs(num))


def test_affine_profile_samples(cheb64):
    prof = make_affine_profile(cheb64, 2.0, 1.0)
    assert np.allclose(prof.rho, 2.0 + cheb64.nodes, rtol=0, atol=1e-14)
    assert np.allclose(prof.drho, 1.0, rtol=0, atol=1e-14)
    assert prof.rt_unstable
    assert prof.provenance == "analytic"


def test_affine_mass_closure_vs_quadrature(cheb64):
    prof = make_affine_profile(cheb64, 2.0, 1.0)
    for x in (-0.7, 0.0, 0.33, 1.0):
        ref = gauss_legendre_integral(lambda t: 2.0 + t, -1.0, x)
        assert abs(prof.mass_fn(x) - ref) <= 1e-12


def test_tanh_profile_consistency(cheb64):
    prof = make_tanh_profile(cheb64, 2.6, 1.5, 10.0)
    # drho closure against a central difference of the density closure
    for x in (-0.5, 0.0, 0.2):
        h = 1e-6
        num = (prof.rho_fn(x + h) - prof.rho_fn(x - h)) / (2.0 * h)
        assert abs(prof.drho_fn(x) - num) <= 1e-4 * max(1.0, abs(num))
    # column mass closure against composite Gauss-Legendre
    ref = gauss_legendre_integral(prof.rho_fn, -1.0, 0.4, panels=128)
    assert abs(prof.mass_fn(0.4) - ref) <= 1e-10


def test_non_positive_density_rejected(cheb64):
    with pytest.raises(NonPositiveDensity):
        make_affine_profile(cheb64, 1.0, 2.0)


def test_table_profile_matches_sampled_closure(cheb64):
    xs = np.linspace(-1.0, 1.0, 801)
    prof = make_table_profile(cheb64, xs, 2.0 + np.tanh(3.0 * xs))
    assert prof.provenance == "tabulated"
    ref = 2.0 + np.tanh(3.0 * cheb64.nodes)
    assert np.max(np.abs(prof.rho - ref)) <= 1e-4


def test_table_requires_covering_span(cheb64):
    xs = np.linspace(-0.5, 1.0, 100)
    with pytest.raises(InputError):
        make_table_profile(cheb64, xs, np.full(100, 2.0))


@pytest.mark.parametrize("dropped", ["rho_fn", "drho_fn", "mass_fn"])
def test_profile_closures_come_all_or_none(cheb64, dropped):
    # the column mass of an analytic profile is its mass_fn; a profile
    # with some closures but not all has no exact column mass to offer
    prof = make_affine_profile(cheb64, 2.0, 1.0)
    with pytest.raises(InputError, match="all three or none"):
        dataclasses.replace(prof, **{dropped: None})


def test_validate_rt_conditions(cheb64):
    # positivity is checked when the profile is built
    # (test_non_positive_density_rejected)
    assert make_affine_profile(cheb64, 2.0, 1.0).rt_unstable
    assert not make_affine_profile(cheb64, 2.0, -0.5).rt_unstable


# --- compressible background ------------------------------------------------


@pytest.fixture(scope="module")
def unit_density(cheb64):
    return make_affine_profile(cheb64, 1.0, 0.0)


@pytest.fixture(scope="module")
def gamma2_params():
    return PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.5, A=1.0, gamma=2.0)


def test_min_pressure_const_closed_form(unit_density, gamma2_params):
    # rho = 1, gamma = 2: p = 1 and g*F(x) = x + 1, so the max over the slab
    # is 1 + 2 = 3 at the upper wall
    c = min_admissible_pressure_const(unit_density, gamma2_params)
    assert abs(c - 3.0) <= 1e-12


def test_field_closed_form(unit_density, gamma2_params):
    eq = build_equilibrium(unit_density, gamma2_params, 4.0)
    # balance gives field(0)^2 = 2*(C - p - g*F) = 2*(4 - 1 - 1) = 4
    assert abs(eq.field_fn(0.0) - 2.0) <= 1e-12
    assert eq.steady_residual <= 1e-8
    # field decreases toward the upper wall where the deficit shrinks
    assert eq.field[-1] < eq.field[0]


def test_pressure_deficit(unit_density, gamma2_params):
    with pytest.raises(PressureDeficit) as exc:
        build_equilibrium(unit_density, gamma2_params, 2.9)
    assert isinstance(exc.value.node, int)


def test_pressure_deficit_at_flux_points(gamma2_params):
    # rho = 1: the radicand 2(C - 2 - x) is positive on every fd2 node
    # (x <= 1 - h) but not at the top flux point x = 1 - h/2, which the
    # form assembly samples
    g1 = Grid1D("fd2", 1.0, 32)
    prof = make_affine_profile(g1, 1.0, 0.0)
    assert 2.95 - 2.0 - g1.nodes[-1] > 0.0
    with pytest.raises(PressureDeficit) as exc:
        build_equilibrium(prof, gamma2_params, 2.95)
    assert exc.value.node == g1.flux_points.size - 1
    assert "flux point x = 0.969697" in str(exc.value)


def test_sign_branch(unit_density, gamma2_params):
    plus = build_equilibrium(unit_density, gamma2_params, 4.0, sign=1)
    minus = build_equilibrium(unit_density, gamma2_params, 4.0, sign=-1)
    assert np.allclose(minus.field, -plus.field, rtol=0, atol=1e-14)
    with pytest.raises(InputError):
        build_equilibrium(unit_density, gamma2_params, 4.0, sign=2)


def test_equilibrium_requires_mu0(unit_density):
    p = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1)
    with pytest.raises(InputError):
        build_equilibrium(unit_density, p, 4.0)


def test_steady_residual_affine_frozen(cheb64):
    # analytic affine background: the independent-stencil residual sits at
    # rounding level (frozen run: 6.9e-11)
    prof = make_affine_profile(cheb64, 2.0, 0.5)
    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.5)
    eq = build_equilibrium(prof, params, 10.0)
    assert eq.steady_residual <= 1e-9


def test_tabulated_equilibrium_fallback(cheb64):
    # no closures: dfield falls back to nodal differentiation, residual is
    # bounded by the table's interpolation error instead of rounding
    xs = np.linspace(-1.0, 1.0, 2001)
    prof = make_table_profile(cheb64, xs, 2.0 + 0.5 * xs)
    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.5)
    eq = build_equilibrium(prof, params, 10.0)
    assert eq.field_fn is None
    assert np.all(np.isfinite(eq.field))
    assert eq.steady_residual <= 1e-2
    ref = build_equilibrium(
        make_affine_profile(cheb64, 2.0, 0.5), params, 10.0)
    assert np.max(np.abs(eq.field - ref.field)) <= 1e-5
