"""Streamfunction discretization of the bounded rectangle."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.optimize import brentq

from mrt import dispersion, eigcore, modeforms
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
from mrt.dispersion import _Pencil
from mrt.errors import InputError, TooFewNodes
from mrt.grid1d import Grid1D
from mrt.modeforms import _dense, _sparse, qform_value_ld
from mrt.profiles import PhysicalParams, make_affine_profile

from oracles import laplacian_floor

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
    with pytest.raises(InputError):
        Rect2D((1.0, -1.0), (-1.0, 1.0), 8, 8)
    with pytest.raises(TooFewNodes):
        Rect2D((-1.0, 1.0), (-1.0, 1.0), 4, 8)


def test_laplacian_floor_square():
    # continuum value 2*(pi/2)^2 on the unit square; second-order approach
    ref = 2.0 * (np.pi / 2.0) ** 2
    vals = [abs(laplacian_floor(_square(n)) - ref) for n in (16, 32)]
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
        # the dense form of sparse terms is the sparse assembly itself, and
        # its one product matches the term-by-term sum to rounding
        M = _sparse(terms, r.nred).toarray()
        assert np.array_equal(M, _dense(terms, r.nred))
        ref = sum(t.matrix() for t in terms)
        assert np.max(np.abs(M - ref)) <= 1e-14 * np.max(np.abs(ref))


def _clamped_basis(n):
    """The 1D clamped basis, column by column: each free node, and the wall
    slope 4ψ₁ − ψ₂ = 0 that puts 4 on the node beside each wall."""
    free = [i for i in range(n) if i not in (1, n - 2)]
    Z = np.zeros((n, n - 2))
    for col, i in enumerate(free):
        Z[i, col] = 1.0
    Z[1, 0] = Z[n - 2, n - 3] = 4.0
    return sp.csr_matrix(Z)


@pytest.mark.parametrize("nx, nz", [(16, 16), (12, 40), (40, 12), (17, 23)])
def test_box_terms_match_2d_stencils_times_basis(params, nx, nz):
    # the Kronecker-built term operators equal the 2D stencils times the 2D
    # basis, bit for bit
    r = Rect2D((-1.0, 1.0), (-1.0, 1.0), nx, nz)
    Ix, Iz = sp.identity(nx), sp.identity(nz)
    Z = sp.kron(_clamped_basis(nx), _clamped_basis(nz), format="csr")
    dx, dz, dxx, dzz, dxz = (
        (op @ Z).toarray() for op in
        (sp.kron(r.Gx, Iz), sp.kron(Ix, r.Gz), sp.kron(r.D2x, Iz),
         sp.kron(Ix, r.D2z), sp.kron(r.Gx, r.Gz)))
    assert np.array_equal(r.basis.toarray(), Z.toarray())
    for i in (1, 3):
        buoy, stretch, viscous, mass = _box_terms(r, _profile(), params, i)
        expected = ((dx,), (dxx if i == 1 else dzz, dxz), (dxx, dzz, dxz),
                    (dz, dx))
        for terms, ops in zip((buoy, stretch, viscous, mass), expected):
            assert len(terms) == len(ops)
            for t, op in zip(terms, ops):
                assert np.array_equal(t.P.toarray(), op)


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


def _dense_quotient(A, B, tA, tB):
    """λmax(A, B) by the dense LAPACK route: the top vector of the assembled
    matrices, read through the terms in long double."""
    n = A.shape[0]
    x = eigh(A, B, subset_by_index=[n - 1, n - 1])[1][:, 0]
    return float(qform_value_ld(tA, x) / qform_value_ld(tB, x))


@pytest.mark.parametrize("nx, nz, aspect, i", [
    (5, 5, 1.0, 1), (5, 5, 1.0, 3), (16, 16, 1.0, 3), (48, 12, 4.0, 1),
    (16, 16, 1.0, 1), (24, 24, 1.0, 1), (40, 40, 1.0, 1),
    # the band of the forms is 2(nz - 2) whatever nx: tall boxes are wide
    (12, 40, 1.0, 1), (40, 12, 1.0, 1),
])
def test_critical_m_2d_matches_dense_route(params, nx, nz, aspect, i):
    r = Rect2D((-aspect, aspect), (-1.0, 1.0), nx, nz)
    prof = _profile()
    q = assemble_2d_quotient(r, prof, params, i)
    ref = np.sqrt(_dense_quotient(q.E, q.D, q.terms_E, q.terms_D))
    assert abs(critical_m_2d(r, prof, params, i) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("n", [16, 20, 32])
def test_growth_rate_2d_matches_dense_route(params, n):
    r, prof, m = _square(n), _profile(), 0.1
    res = growth_rate_2d(r, prof, params, m, 1)
    f = _growth_forms_2d(r, prof, params, m, 1)

    def h(s):
        tA = f.terms_E + tuple(t.scaled(-s) for t in f.terms_V)
        return _dense_quotient(f.E - s * f.V, f.J, tA, f.terms_J) - s * s

    # the dense route confirms the sign change around Lambda, then finds
    # its own root inside
    lam = res.Lambda
    lo, hi = lam * (1.0 - 1e-9), lam * (1.0 + 1e-9)
    assert h(lo) > 0.0 > h(hi)
    ref = brentq(h, lo, hi, xtol=1e-17, rtol=1e-15)
    assert abs(lam - ref) <= 1e-12 * ref
    frak = _dense_quotient(f.E, f.V, f.terms_E, f.terms_V)
    assert abs(res.frak_s - frak) <= 1e-12 * frak


@pytest.mark.parametrize("i", [1, 3])
def test_box_growth_alpha_samples_match_dense_eigh(params, i):
    # each alpha(s) is read from a Lanczos vector refined with the factor
    # that certified its shift; it matches the dense top eigenvalue at the
    # same s (both directions re-certify a shift that had to climb)
    r, prof = _square(32), _profile()
    res = growth_rate_2d(r, prof, params, 0.12, i)
    f = _growth_forms_2d(r, prof, params, 0.12, i)
    n = f.size
    for s, a in res.alpha_samples:
        ref = eigh(f.E - s * f.V, f.J, eigvals_only=True,
                   subset_by_index=(n - 1, n - 1))[0]
        assert abs(a - ref) <= 1e-11 * max(1.0, res.alpha0)


def test_box_solves_never_go_dense(params, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("a box solve reached the dense path")

    monkeypatch.setattr(modeforms, "_dense", dense)
    for name in ("eigh", "cho_factor", "cholesky"):
        monkeypatch.setattr(eigcore, name, dense)
    r, prof = _square(16), _profile()
    mc = critical_m_2d(r, prof, params, 1)
    assert 0.29 < mc < 0.31
    assert growth_rate_2d(r, prof, params, 0.5 * mc, 1).unstable
    assert not growth_rate_2d(r, prof, params, 1.1 * mc, 1).unstable


@pytest.mark.parametrize("i", [1, 3])
def test_shift_factor_from_held_bands_is_the_csr_factor(params, i, monkeypatch):
    # every factor of sigma B - (A - sC) that a box evaluation forms on the
    # pencil's band arrays is, bit for bit, the factor of the same matrix
    # formed as CSR and then converted
    pen = _Pencil(_growth_forms_2d(_square(16), _profile(), params, 0.12, i))
    factor = eigcore._band_cholesky
    factors, taken = [], []

    def band_cholesky(ab):
        factors.append(factor(ab))
        return factors[-1]

    def shift_factor(*args, _f=eigcore._shift_factor):
        out = _f(*args)
        taken.append((out[1], factors[-1]))
        return out

    monkeypatch.setattr(eigcore, "_band_cholesky", band_cholesky)
    monkeypatch.setattr(eigcore, "_shift_factor", shift_factor)
    a0, _ = pen.alpha_ld(0.0)
    for s, upper in ((0.1, float(a0)), (0.2, None)):
        taken.clear()
        pen.alpha_ld(s, upper)
        assert taken
        M = pen.A - s * pen.C
        for shift, c in taken:
            assert np.array_equal(
                c, factor(eigcore.lower_band(shift * pen.B - M)))


@pytest.mark.parametrize("i", [1, 3])
def test_box_growth_converts_each_matrix_to_band_once(params, i, monkeypatch):
    # E, V and J are converted to band storage once each, as the pencil
    # builds them; no evaluation, shift or frak_s pencil converts again
    converted = []

    def counted(M, _f=eigcore.lower_band):
        converted.append(id(M))
        return _f(M)

    monkeypatch.setattr(dispersion, "lower_band", counted)
    monkeypatch.setattr(eigcore, "lower_band", counted)
    res = growth_rate_2d(_square(16), _profile(), params, 0.12, i)
    assert res.unstable
    assert len(converted) == len(set(converted)) == 3


@pytest.mark.parametrize("i, runs, applications", [(1, 9, 128), (3, 11, 227)])
def test_box_growth_operator_applications_per_solve(params, i, runs,
                                                    applications, monkeypatch):
    # the machine-independent cost of a 16² box growth solve: the Lanczos
    # runs of its sparse top pairs (the alpha(0) estimate, the re-estimates
    # of field 3's clustered top and one shift-invert run per evaluation)
    # and the operator applications they make, the start's included
    counts = []

    def counted(apply, *args, _f=eigcore._lanczos_top):
        counts.append(0)

        def counted_apply(q, Bq):
            counts[-1] += 1
            return apply(q, Bq)

        return _f(counted_apply, *args)

    monkeypatch.setattr(eigcore, "_lanczos_top", counted)
    res = growth_rate_2d(_square(16), _profile(), params, 0.12, i)
    assert res.unstable
    assert (len(counts), sum(counts)) == (runs, applications)
