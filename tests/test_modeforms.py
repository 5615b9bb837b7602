"""Assembled quadratic forms against direct quadrature of their integrands."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrt.bounded2d import Rect2D, _growth_forms_2d, assemble_2d_quotient
from mrt.errors import InputError, ZeroMode
from mrt.grid1d import Grid1D
from mrt.modeforms import (
    ModeSpec,
    _dense,
    assemble_compressible,
    assemble_cr_forms,
    assemble_incompressible,
    assemble_quotient,
    form_components,
    qform_reader,
    qform_value_ld,
)
from mrt.profiles import PhysicalParams, build_equilibrium, make_affine_profile

from oracles import blocks_read, components_by_entries, gauss_legendre_integral


def test_mode_spec_validation():
    with pytest.raises(InputError):
        ModeSpec(L=0.0, xi=(1.0, 0.0))
    with pytest.raises(InputError):
        ModeSpec(L=1.0, xi=(1.0, 0.0), field_dir=2)
    with pytest.raises(InputError):
        ModeSpec(L=1.0, xi=(0.5, 0.0))
    m = ModeSpec.from_integers(2.0, 3, -1)
    assert m.xi == (1.5, -0.5)
    assert abs(m.xi_norm2 - 2.5) <= 1e-15


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(-4, 4))
def test_from_integers_always_valid(k1, k2):
    m = ModeSpec.from_integers(1.0, k1, k2)
    assert m.xi == (float(k1), float(k2))


def _sym_err(M):
    return np.max(np.abs(M - M.T)) / max(1.0, np.max(np.abs(M)))


def test_forms_symmetric_and_j_spd(forms_std):
    assert _sym_err(forms_std.E) <= 1e-13
    assert _sym_err(forms_std.V) <= 1e-13
    assert _sym_err(forms_std.J) <= 1e-13
    np.linalg.cholesky(forms_std.J)
    # dissipation form is PSD
    assert np.min(np.linalg.eigvalsh(forms_std.V)) >= -1e-12


def test_zero_mode_rejected(affine64, params_std):
    mode = ModeSpec(L=1.0, xi=(0.0, 0.0))
    with pytest.raises(ZeroMode):
        assemble_incompressible(mode, affine64, params_std, affine64.grid)


def _incompressible_y(grid):
    # v3 = (1 - x^2)^2 lies in the clamped span; phi = x(1 - x^2) vanishes
    # at the walls so the zero extension is exact
    x = grid.nodes
    v3 = (1.0 - x**2) ** 2
    phi = x * (1.0 - x**2)
    y = np.zeros(grid.n - 2 + grid.n)
    y[: grid.n - 2] = grid.clamped.T @ v3
    y[grid.n - 2 :] = phi
    return y


def test_incompressible_forms_vs_quadrature(affine64, params_std):
    # polynomial data on the chebyshev grid: every flux-grid piece integrates
    # exactly, the nodal pieces to folding accuracy
    g1 = affine64.grid
    mode = ModeSpec.from_integers(1.0, 2, 0, field_dir=3, m=0.2)
    forms = assemble_incompressible(mode, affine64, params_std, g1)
    y = _incompressible_y(g1)

    xi2 = 4.0
    v3 = lambda x: (1.0 - x**2) ** 2
    dv3 = lambda x: -4.0 * x * (1.0 - x**2)
    d2v3 = lambda x: -4.0 + 12.0 * x**2
    phi = lambda x: x * (1.0 - x**2)
    dphi = lambda x: 1.0 - 3.0 * x**2
    rho = lambda x: 2.0 + x

    J_ref = gauss_legendre_integral(
        lambda x: rho(x) * (v3(x) ** 2 + dv3(x) ** 2 / xi2 + phi(x) ** 2),
        -1.0, 1.0)
    buoy_ref = gauss_legendre_integral(lambda x: v3(x) ** 2, -1.0, 1.0)
    bend_ref = gauss_legendre_integral(
        lambda x: dv3(x) ** 2 + d2v3(x) ** 2 / xi2 + dphi(x) ** 2, -1.0, 1.0)
    unit_ref = gauss_legendre_integral(
        lambda x: v3(x) ** 2 + dv3(x) ** 2 / xi2 + phi(x) ** 2, -1.0, 1.0)

    E_ref = buoy_ref - params_std.lambda0 * mode.m**2 * bend_ref
    V_ref = params_std.mu * (xi2 * unit_ref + bend_ref)

    assert abs(float(y @ (forms.J @ y)) - J_ref) <= 1e-8 * abs(J_ref)
    assert abs(float(y @ (forms.E @ y)) - E_ref) <= 1e-8 * max(1.0, abs(E_ref))
    assert abs(float(y @ (forms.V @ y)) - V_ref) <= 1e-8 * abs(V_ref)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(0.05, 2.0))
def test_field_strength_enters_quadratically(m1, m2):
    # (E(0) - E(m)) / m^2 is the same matrix for every m
    g1 = Grid1D("chebyshev", 1.0, 24)
    prof = make_affine_profile(g1, 2.0, 1.0)
    params = PhysicalParams(g=1.0, lambda0=1.3, mu=0.1)

    def diff(m, fd):
        mode = ModeSpec.from_integers(1.0, 2, 1, field_dir=fd, m=m)
        E = assemble_incompressible(mode, prof, params, g1).E
        mode0 = ModeSpec.from_integers(1.0, 2, 1, field_dir=fd, m=0.0)
        E0 = assemble_incompressible(mode0, prof, params, g1).E
        return (E0 - E) / m**2

    for fd in (3, 1):
        D1, D2 = diff(m1, fd), diff(m2, fd)
        scale = max(1.0, np.max(np.abs(D1)))
        assert np.max(np.abs(D1 - D2)) <= 1e-10 * scale


def test_quotient_forms_structure(affine64, params_std):
    g1 = affine64.grid
    mode = ModeSpec.from_integers(1.0, 2, 0, field_dir=3)
    q3 = assemble_quotient(mode, affine64, params_std, g1)
    growth = assemble_incompressible(
        ModeSpec.from_integers(1.0, 2, 0, field_dir=3, m=0.0),
        affine64, params_std, g1)
    # the quotient lives on the v3 block, where its numerator equals the
    # growth energy at m = 0
    sv = growth.layout["v3"]
    assert q3.layout == {"v3": sv} and q3.size == sv.stop
    assert np.max(np.abs(q3.E - growth.E[sv, sv])) <= 1e-13
    assert _sym_err(q3.D) <= 1e-13
    assert np.min(np.linalg.eigvalsh(q3.D)) >= -1e-10
    # a critical strength is lambda_max(E, D): the quotient builds no mass
    assert q3.V is None and q3.J is None

    q1 = assemble_quotient(mode, affine64, params_std, g1, i=1)
    assert q1.D.shape == q3.D.shape
    assert not np.allclose(q1.D, q3.D)


# --- compressible -----------------------------------------------------------


@pytest.fixture(scope="module")
def symbolic_eq():
    g1 = Grid1D("chebyshev", 1.0, 64)
    prof = make_affine_profile(g1, 1.0, 0.0)
    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.5, A=1.0, gamma=2.0)
    return build_equilibrium(prof, params, 4.0), params, g1


def test_compressible_forms_vs_quadrature(symbolic_eq):
    eq, params, g1 = symbolic_eq
    mode = ModeSpec.from_integers(1.0, 1, 2)
    forms = assemble_compressible(mode, eq, params, g1)

    x = g1.nodes
    v1 = lambda t: t * (1.0 - t**2)
    v2 = lambda t: 1.0 - t**2
    v3 = lambda t: (1.0 - t**2) ** 2
    dv3 = lambda t: -4.0 * t * (1.0 - t**2)
    y = np.concatenate([v1(x), v2(x), v3(x)])

    xi1, xi2c = 1.0, 2.0
    d = lambda t: -xi1 * v1(t) - xi2c * v2(t) + dv3(t)
    r = lambda t: -xi2c * v2(t) + dv3(t)
    # rho = 1, gamma = 2, A = 1: p'(rho) rho = 2; m_c^2(x) = 2(2 - x)
    mc2 = lambda t: 2.0 * (2.0 - t)

    E_ref = gauss_legendre_integral(
        lambda t: 2.0 * d(t) * v3(t) - 2.0 * d(t) ** 2
        - mc2(t) * (xi1**2 * v2(t) ** 2 + xi1**2 * v3(t) ** 2 + r(t) ** 2),
        -1.0, 1.0)
    J_ref = gauss_legendre_integral(
        lambda t: v1(t) ** 2 + v2(t) ** 2 + v3(t) ** 2, -1.0, 1.0)
    dv1 = lambda t: 1.0 - 3.0 * t**2
    dv2 = lambda t: -2.0 * t
    V_ref = gauss_legendre_integral(
        lambda t: params.mu * (
            mode.xi_norm2 * (v1(t) ** 2 + v2(t) ** 2 + v3(t) ** 2)
            + dv1(t) ** 2 + dv2(t) ** 2 + dv3(t) ** 2)
        + params.mu0 * d(t) ** 2,
        -1.0, 1.0)

    assert abs(float(y @ (forms.E @ y)) - E_ref) <= 1e-8 * max(1.0, abs(E_ref))
    assert abs(float(y @ (forms.J @ y)) - J_ref) <= 1e-8 * abs(J_ref)
    assert abs(float(y @ (forms.V @ y)) - V_ref) <= 1e-8 * abs(V_ref)


def test_compressible_requires_mu0(symbolic_eq):
    eq, _, g1 = symbolic_eq
    p_no = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, A=1.0, gamma=2.0)
    with pytest.raises(InputError):
        assemble_compressible(ModeSpec.from_integers(1.0, 1, 0), eq, p_no, g1)


def test_cr_forms_penalty(symbolic_eq):
    eq, params, g1 = symbolic_eq
    mode = ModeSpec.from_integers(1.0, 1, 2)
    forms = assemble_cr_forms(mode, eq, params, g1)
    assert _sym_err(forms.D) <= 1e-13
    assert np.min(np.linalg.eigvalsh(forms.D)) >= -1e-10
    # v1-only data lie in the penalty kernel and the energy is negative there
    y = np.zeros(forms.size)
    x = g1.nodes
    y[forms.layout["v1"]] = x * (1.0 - x**2)
    assert abs(float(y @ (forms.D @ y))) <= 1e-10
    assert float(y @ (forms.E @ y)) < 0.0


def test_compressible_field_term_oracle(symbolic_eq):
    # zeroing the carrier blocks isolates the field stabilization: for pure
    # v3 data the E difference between two modes with the same xi1 but
    # different xi2 comes only from the r-term
    eq, params, g1 = symbolic_eq
    x = g1.nodes
    v3 = (1.0 - x**2) ** 2
    y = np.concatenate([np.zeros(g1.n), np.zeros(g1.n), v3])
    Ea = assemble_compressible(ModeSpec.from_integers(1.0, 1, 0), eq, params, g1).E
    Eb = assemble_compressible(ModeSpec.from_integers(1.0, 1, 3), eq, params, g1).E
    # with v2 = 0 the r-term is xi2-independent, so the forms agree on y
    assert abs(float(y @ (Ea @ y)) - float(y @ (Eb @ y))) <= 1e-10


def _block_forms(scheme: str, xi: tuple) -> tuple:
    """Compressible and cr forms at xi on a 64-node grid of scheme."""
    g1 = Grid1D(scheme, 1.0, 64)
    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.5, A=1.0, gamma=2.0)
    eq = build_equilibrium(make_affine_profile(g1, 1.0, 0.0), params, 4.0)
    mode = ModeSpec.from_integers(1.0, *xi)
    return (assemble_compressible(mode, eq, params, g1),
            assemble_cr_forms(mode, eq, params, g1))


_BLOCK_CASES = pytest.mark.parametrize(
    "scheme, xi", [(scheme, xi) for scheme in ("chebyshev", "fd2")
                   for xi in ((0, 2), (2, 0), (1, 2))],
    ids=lambda v: v if isinstance(v, str) else "xi%d%d" % v)


@_BLOCK_CASES
def test_form_components_match_the_entry_scan(scheme, xi):
    # the components joined by the blocks each term's cols name are those
    # joined by the blocks where its operators hold a nonzero column
    for forms in _block_forms(scheme, xi):
        got, want = form_components(forms), components_by_entries(forms)
        assert len(got) == len(want), forms.kind
        for (cols, grows), (ref_cols, ref_grows) in zip(got, want):
            assert np.array_equal(cols, ref_cols) and grows == ref_grows


@_BLOCK_CASES
def test_terms_name_only_the_blocks_they_read(scheme, xi):
    # no compressible or cr term names a block on which P and Q are both
    # zero: d(v) leaves v1 out at xi1 = 0 and v2 at xi2 = 0, and r(v)
    # never reads v1
    for forms in _block_forms(scheme, xi):
        label = np.empty(forms.size, dtype=object)
        for name, b in forms.layout.items():
            label[b] = name
        groups = [forms.terms_E, forms.terms_V, forms.terms_J,
                  forms.terms_D or (), *forms.terms_aux.values()]
        for t in (t for terms in groups for t in terms):
            named = set(label[t.cols])
            assert named == blocks_read(forms, t), (forms.kind, named)


def _assert_qform_matches_dense(terms, M, seed):
    # the factored long-double value and the assembled matrix M are two
    # routes to the same form
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.standard_normal(M.shape[0])
        ref = float(x @ M @ x)
        assert abs(float(qform_value_ld(terms, x)) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("field_dir", [3, 1])
def test_qform_value_ld_incompressible(affine64, params_std, field_dir):
    mode = ModeSpec.from_integers(1.0, 2, 1, field_dir=field_dir, m=0.3)
    forms = assemble_incompressible(mode, affine64, params_std, affine64.grid)
    # every incompressible operator is stored at the width of its block
    for t in forms.terms_E + forms.terms_V + forms.terms_J:
        assert t.P.shape[1] == t.cols.stop - t.cols.start
    for terms in (forms.terms_E, forms.terms_V, forms.terms_J):
        _assert_qform_matches_dense(terms, _dense(terms, forms.size), field_dir)
    # the critical quotient's denominator is read through its terms too
    q = assemble_quotient(mode, affine64, params_std, affine64.grid)
    _assert_qform_matches_dense(q.terms_D, q.D, field_dir)


def test_qform_value_ld_compressible(symbolic_eq):
    # E carries d(v) on every block and r(v) on (v2, v3) next to
    # single-block operators
    eq, params, g1 = symbolic_eq
    forms = assemble_compressible(ModeSpec.from_integers(1.0, 1, 2), eq, params, g1)
    widths = {t.P.shape[1] for t in forms.terms_E}
    assert widths == {g1.n, 2 * g1.n, forms.size}
    for terms in (forms.terms_E, forms.terms_V, forms.terms_J):
        _assert_qform_matches_dense(terms, _dense(terms, forms.size), 5)
    cr = assemble_cr_forms(ModeSpec.from_integers(1.0, 1, 2), eq, params, g1)
    _assert_qform_matches_dense(cr.terms_D, cr.D, 5)


def _qform_longhand(terms, x):
    """A factored form in long double, one conversion and one product per
    term."""
    xl = np.asarray(x, dtype=np.longdouble)
    total = np.longdouble(0.0)
    for t in terms:
        y = xl[t.cols]
        Px = t.P.astype(np.longdouble) @ y
        Qx = Px if t.Q is None else t.Q.astype(np.longdouble) @ y
        total += np.longdouble(t.coef) * np.sum(t.w.astype(np.longdouble) * Px * Qx)
    return total


@pytest.mark.parametrize("kind", ["slab", "compressible", "box"])
def test_shared_operator_read_is_bit_identical(kind, affine64, params_std,
                                               symbolic_eq):
    # one product per distinct operator across E, V and J gives each form
    # the value it has read alone, and read one term at a time, bit for bit
    if kind == "slab":
        forms = assemble_incompressible(ModeSpec.from_integers(1.0, 2, 1, m=0.2),
                                        affine64, params_std, affine64.grid)
    elif kind == "compressible":
        eq, cparams, g1 = symbolic_eq
        forms = assemble_compressible(ModeSpec.from_integers(1.0, 1, 2), eq,
                                      cparams, g1)
    else:
        rect = Rect2D((-1.0, 1.0), (-1.0, 1.0), 12, 10)
        forms = _growth_forms_2d(rect, make_affine_profile(
            Grid1D("fd2", 1.0, 16), 2.0, 1.0), params_std, 0.1, 3)
    groups = (forms.terms_E, forms.terms_V, forms.terms_J)
    read = qform_reader(groups)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.standard_normal(forms.size)
        values = read(x)
        assert values == tuple(qform_value_ld(t, x) for t in groups)
        assert values == tuple(_qform_longhand(t, x) for t in groups)


def test_assemblers_build_no_dense_matrix(affine64, params_std, symbolic_eq):
    # each dense matrix, the evolution norms included, is assembled by the
    # code that reads it; an assembler hands over term tuples only
    eq, cparams, g1 = symbolic_eq
    mode = ModeSpec.from_integers(1.0, 1, 2)
    rect = Rect2D((-1.0, 1.0), (-1.0, 1.0), 8, 8)
    box_prof = make_affine_profile(Grid1D("fd2", 1.0, 16), 2.0, 1.0)
    built = (
        assemble_incompressible(ModeSpec.from_integers(1.0, 2, 1, m=0.2),
                                affine64, params_std, affine64.grid),
        assemble_quotient(ModeSpec.from_integers(1.0, 2, 1), affine64,
                          params_std, affine64.grid),
        assemble_compressible(mode, eq, cparams, g1),
        assemble_cr_forms(mode, eq, cparams, g1),
        assemble_2d_quotient(rect, box_prof, params_std, 1),
        _growth_forms_2d(rect, box_prof, params_std, 0.1, 3),
    )
    for forms in built:
        assert not {"E", "V", "J", "D", "aux"} & set(vars(forms)), forms.kind
    assert set(built[0].aux) == {"unit_mass", "bend"}
    assert set(built[3].aux) == {"unit_mass", "grad", "divsq"}
