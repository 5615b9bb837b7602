"""Streamfunction discretization of the bounded rectangle."""

import numpy as np
import pytest
import scipy.sparse as sp

from mrt.bounded2d import (
    Rect2D,
    _box_terms,
    _growth_forms_2d,
    assemble_2d_quotient,
    critical_m_2d,
    divergence_defect,
    growth_rate_2d,
    velocity_from_psi,
)
from mrt.errors import InputError, TooFewNodes
from mrt.grid1d import Grid1D
from mrt.modeforms import _dense, qform_value_ld
from mrt.profiles import PhysicalParams, make_affine_profile

# frozen square-box values, rho' = 1, g = lambda0 = 1, field direction 1
MC2D_32 = 0.29321534655474002
MC2D_48 = 0.29060271418383998


def _square(n):
    return Rect2D((-1.0, 1.0), (-1.0, 1.0), n, n)


def _profile(n=64):
    g1 = Grid1D("fd2", 1.0, n)
    return make_affine_profile(g1, 2.0, 1.0)


@pytest.fixture(scope="module")
def params():
    return PhysicalParams(g=1.0, lambda0=1.0, mu=0.1)


def test_rect_properties():
    r = Rect2D((-2.0, 2.0), (-1.0, 1.0), 16, 8)
    assert r.aspect == 2.0
    assert r.nred == 14 * 6
    assert r.nodes_x.shape == (16,)
    with pytest.raises(InputError):
        Rect2D((1.0, -1.0), (-1.0, 1.0), 8, 8)
    with pytest.raises(TooFewNodes):
        Rect2D((-1.0, 1.0), (-1.0, 1.0), 4, 8)


def test_laplacian_floor_square():
    # continuum value 2*(pi/2)^2 on the unit square; second-order approach
    ref = 2.0 * (np.pi / 2.0) ** 2
    vals = [abs(_square(n).laplacian_floor() - ref) for n in (16, 32)]
    assert vals[1] <= 0.35 * vals[0]
    assert vals[1] <= 0.01 * ref


def test_divergence_defect_rounding():
    r = _square(16)
    rng = np.random.default_rng(0)
    for _ in range(3):
        c = rng.standard_normal(r.nred)
        assert divergence_defect(r, c) <= 1e-12 * max(1.0, np.max(np.abs(c)))


def test_velocity_shapes_and_wall_values():
    r = _square(12)
    rng = np.random.default_rng(1)
    w1, w3 = velocity_from_psi(r, rng.standard_normal(r.nred))
    assert w1.shape == (r.nx, r.nz + 1)
    assert w3.shape == (r.nx + 1, r.nz)
    # no-penetration: the wall-adjacent fluxes come from clamped psi, so the
    # tangential shear at the walls stays finite while psi itself vanishes
    assert np.all(np.isfinite(w1)) and np.all(np.isfinite(w3))


def test_critical_m_2d_frozen(params):
    prof = _profile()
    v32 = critical_m_2d(_square(32), prof, params, 1)
    assert abs(v32 - MC2D_32) <= 1e-9
    v48 = critical_m_2d(_square(48), prof, params, 1)
    assert abs(v48 - MC2D_48) <= 1e-9
    # mesh gap under 1 percent
    assert abs(v48 - v32) <= 0.01 * v32


def test_critical_m_2d_both_directions_finite(params):
    prof = _profile()
    r = _square(16)
    for i in (1, 3):
        v = critical_m_2d(r, prof, params, i)
        assert np.isfinite(v) and v > 0.0
    with pytest.raises(InputError):
        critical_m_2d(r, prof, params, 2)


def test_growth_dichotomy_2d(params):
    prof = _profile()
    r = _square(16)
    mc = critical_m_2d(r, prof, params, 1)
    below = growth_rate_2d(r, prof, params, 0.9 * mc, 1)
    above = growth_rate_2d(r, prof, params, 1.1 * mc, 1)
    assert below.unstable and below.Lambda > 0.0
    assert not above.unstable


def test_wide_box_approaches_slab(params):
    # aspect-4 box, horizontal field: the lowest x-mode behaves like the slab
    # per-mode problem at xi1 = pi/(2*aspect); finite and below the slab
    # critical number
    prof = _profile()
    r = Rect2D((-4.0, 4.0), (-1.0, 1.0), 48, 12)
    v = critical_m_2d(r, prof, params, 1)
    assert 0.0 < v < 2.0 / np.pi


@pytest.mark.parametrize("i", [1, 3])
def test_box_terms_qform_matches_dense(params, i):
    # sparse operators: the long-double factored value against the dense
    # assembly
    r = Rect2D((-1.0, 1.0), (-1.0, 1.0), 12, 10)
    rng = np.random.default_rng(i)
    for terms in _box_terms(r, _profile(), params, i):
        assert all(sp.issparse(t.P) for t in terms)
        x = rng.standard_normal(r.nred)
        ref = float(x @ _dense(terms, r.nred) @ x)
        assert abs(float(qform_value_ld(terms, x)) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("i", [1, 3])
def test_growth_forms_share_quotient_terms(params, i):
    # growth energy = quotient numerator - m^2 * quotient denominator
    r = _square(12)
    prof = _profile()
    m = 0.2
    q = assemble_2d_quotient(r, prof, params, i)
    gr = _growth_forms_2d(r, prof, params, m, i)
    ref = q.E - m * m * q.D
    assert np.max(np.abs(gr.E - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(gr.J, _dense(_box_terms(r, prof, params, i)[3], r.nred))
