"""Symmetric generalized eigensolver versus longhand references."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, cholesky, eigh
from scipy.sparse.linalg import ArpackNoConvergence

from mrt import eigcore
from mrt.bounded2d import Rect2D, _growth_forms_2d, assemble_2d_quotient
from mrt.eigcore import (psd_ratio_sup, refine_top, solve_gsym, spd_factor,
                         top_pair)
from mrt.errors import NotPositiveDefinite, NotSymmetric, SolverFailure
from mrt.grid1d import Grid1D
from mrt.modeforms import _sparse
from mrt.profiles import PhysicalParams, make_affine_profile

from oracles import (
    gsym_eigenvalues_reference,
    hermitian_top_eigenvalue,
    psd_ratio_bisection,
    rayleigh_ascent,
    rayleigh_monte_carlo,
)


def _random_pencil(seed, n, cond=10.0):
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(rng.standard_normal(n)) @ Q.T
    A = 0.5 * (A + A.T)
    R = rng.standard_normal((n, n)) / np.sqrt(n)
    B = np.eye(n) + (R @ R.T) * (cond - 1.0) / cond
    B = 0.5 * (B + B.T)
    return A, B


def test_solve_gsym_matches_jacobi_reference():
    # dual route: the top of the LAPACK reduction on B's factor against
    # hand-rolled Cholesky + Jacobi
    for seed in (0, 1, 2):
        A, B = _random_pencil(seed, 12)
        ref = gsym_eigenvalues_reference(A, B)
        scale = max(1.0, np.max(np.abs(ref)))
        assert abs(solve_gsym(A, B) - ref[-1]) <= 1e-10 * scale


def test_solve_gsym_deterministic():
    A, B = _random_pencil(5, 9)
    assert solve_gsym(A, B) == solve_gsym(A, B)


def test_not_symmetric_raises():
    A, B = _random_pencil(6, 6)
    A[0, 1] += 1e-6 * (1.0 + abs(A[0, 1]))
    with pytest.raises(NotSymmetric):
        solve_gsym(A, B)


def test_not_positive_definite_raises():
    A, _ = _random_pencil(7, 6)
    B = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1e-3])
    with pytest.raises(NotPositiveDefinite):
        solve_gsym(A, B)


def test_numerically_singular_mass_raises():
    # positive definite, but the Cholesky diagonal spans 1e8, so its squared
    # ratio 1e16 is past the conditioning guard that LAPACK does not apply
    A, _ = _random_pencil(8, 6)
    B = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-16])
    np.linalg.cholesky(B)
    with pytest.raises(NotPositiveDefinite, match="numerically singular"):
        solve_gsym(A, B)


def test_max_rayleigh_vs_gradient_ascent():
    # independent optimizer route: projected gradient ascent on the quotient
    for seed in (10, 11):
        A, B = _random_pencil(seed, 8)
        val, _ = top_pair(A, B)
        x0 = np.random.default_rng(seed).standard_normal(8)
        ref = rayleigh_ascent(A, B, x0, iters=20_000)
        assert abs(val - ref) <= 1e-7 * max(1.0, abs(val))


def test_max_rayleigh_monte_carlo_lower_bound():
    A, B = _random_pencil(12, 5)
    val, _ = top_pair(A, B)
    best = rayleigh_monte_carlo(A, B, np.random.default_rng(12), tries=4000)
    assert best <= val + 1e-10 * max(1.0, abs(val))
    # in five dimensions random search lands close to the top
    assert val - best <= 0.05 * max(1.0, abs(val))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(-5.0, 5.0))
def test_max_rayleigh_shift_rule(seed, c):
    # max over the quotient commutes with A -> A + c B up to rounding
    A, B = _random_pencil(seed, 6)
    base, _ = top_pair(A, B)
    shifted, _ = top_pair(A + c * B, B)
    assert abs(shifted - (base + c)) <= 1e-9 * max(1.0, abs(base), abs(c))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_top_pair_is_max_eigenvalue(seed):
    A, B = _random_pencil(seed, 7)
    lam, v = top_pair(A, B)
    ref = gsym_eigenvalues_reference(A, B)[-1]
    assert abs(lam - ref) <= 1e-9 * max(1.0, abs(ref))
    quotient = float(v @ (A @ v)) / float(v @ (B @ v))
    assert abs(quotient - lam) <= 1e-9 * max(1.0, abs(lam))


def test_refine_top_reduces_residual():
    A, B = _random_pencil(13, 20)
    lam, v = top_pair(A, B)
    # perturb the vector, then check refinement pulls the residual back down
    rng = np.random.default_rng(13)
    v_bad = v + 1e-4 * rng.standard_normal(v.shape)
    v_bad /= np.sqrt(float(v_bad @ (B @ v_bad)))

    def resid(w):
        return np.linalg.norm(A @ w - lam * (B @ w))

    v_ref = refine_top(A, B, lam, v_bad)
    assert resid(v_ref) < 1e-2 * resid(v_bad)
    assert abs(float(v_ref @ (B @ v_ref)) - 1.0) <= 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_warm_top_pair_runs_no_eigensolver(seed, monkeypatch):
    # from a bound above lambda_max, or a shift below it that is raised
    # until sigma B - A factors, and a start vector near the top one, the
    # dense path inverse-iterates to the top pair without LAPACK
    A, B = _random_pencil(seed, 16)
    ref, v = top_pair(A, B)
    rng = np.random.default_rng(seed)
    v0 = v + 1e-2 * rng.standard_normal(v.shape)
    calls = []
    monkeypatch.setattr(eigcore, "eigh", lambda *a, **k: calls.append(a))
    for sigma in (ref + 0.5, ref - 0.01):
        lam, x = top_pair(A, spd_factor(B), sigma=sigma, v0=v0)
        assert abs(lam - ref) <= 1e-12 * max(1.0, abs(ref))
        assert abs(float(x @ (B @ x)) - 1.0) <= 1e-12
    assert calls == []
    A[0, 1] += 1e-6
    with pytest.raises(NotSymmetric):
        top_pair(A, B, sigma=ref + 0.5, v0=v0)


def _sparse_pencil(seed, n=80, density=0.05):
    """Sparse symmetric A and sparse SPD B with a few nonzeros per row."""
    rng = np.random.default_rng(seed)
    R = sp.random(n, n, density=density, random_state=rng,
                  data_rvs=rng.standard_normal)
    S = sp.random(n, n, density=density, random_state=rng,
                  data_rvs=rng.standard_normal)
    A = (R + R.T).tocsr()
    B = (S @ S.T + sp.diags(rng.uniform(0.5, 2.0, n))).tocsr()
    return A, B


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sparse_top_pair_and_max_rayleigh_match_dense(seed):
    A, B = _sparse_pencil(seed)
    Ad, Bd = A.toarray(), B.toarray()
    ref, _ = top_pair(Ad, Bd)
    tol = 1e-12 * max(1.0, abs(ref))
    lam, v = top_pair(A, B)
    assert abs(lam - ref) <= tol
    assert abs(float(v @ (B @ v)) - 1.0) <= 1e-10
    assert abs(float(v @ (A @ v)) - lam) <= tol
    # shift-invert from a certified bound above lambda_max, and from a
    # shift below it, which is raised until sigma B - A factors with
    # positive pivots
    for sigma in (ref + 0.5, ref - 0.01):
        lam_si, _ = top_pair(A, spd_factor(B), sigma=sigma, v0=v)
        assert abs(lam_si - ref) <= tol
    x_ref = refine_top(A, B, lam, v)
    assert np.array_equal(x_ref, refine_top(A, B, lam, v))


def test_sparse_top_pair_is_deterministic():
    # the start vector is fixed, so ARPACK repeats itself bit for bit
    A, B = _sparse_pencil(4)
    l1, v1 = top_pair(A, B)
    l2, v2 = top_pair(A, B)
    assert l1 == l2 and np.array_equal(v1, v2)


def test_sparse_not_symmetric_raises():
    A, B = _sparse_pencil(5)
    A_bad = A.tolil()
    A_bad[0, 1] = A_bad[0, 1] + 1e-6
    with pytest.raises(NotSymmetric):
        top_pair(A_bad.tocsr(), B)
    B_bad = B.tolil()
    B_bad[2, 0] = B_bad[2, 0] + 1e-6
    with pytest.raises(NotSymmetric):
        top_pair(A, B_bad.tocsr())


@pytest.mark.parametrize("d, match", [
    (-1e-3, "nonpositive pivot"),      # indefinite
    (1e-16, "numerically singular"),   # positive, past the 1e15 limit
])
def test_sparse_mass_checks_match_dense(d, match):
    A, _ = _sparse_pencil(6, n=12, density=0.2)
    B = np.diag([1.0] * 11 + [d])
    with pytest.raises(NotPositiveDefinite):
        solve_gsym(A.toarray(), B)
    with pytest.raises(NotPositiveDefinite, match=match):
        top_pair(A, sp.csr_matrix(B))


@pytest.mark.parametrize("d, match", [
    (-1e-3, "not positive definite"),  # indefinite: no Cholesky factor
    (1e-16, "numerically singular"),   # positive, past the 1e15 limit
])
def test_dense_mass_checks(d, match):
    with pytest.raises(NotPositiveDefinite, match=match):
        spd_factor(np.diag([1.0] * 5 + [d]))


def test_dense_mass_asymmetry_raises():
    _, B = _random_pencil(9, 6)
    B[0, 1] += 1e-6
    with pytest.raises(NotSymmetric):
        spd_factor(B)


@pytest.mark.parametrize("sparse", [False, True])
def test_spd_factor_solves_against_b(sparse):
    _, B = _sparse_pencil(8, n=30, density=0.2)
    Bf = spd_factor(B if sparse else B.toarray())
    b = np.arange(30.0)
    assert np.allclose(B @ Bf.solve(b), b, rtol=0, atol=1e-10 * np.abs(b).max())


def test_dense_factor_solves_are_cho_solve_bit_for_bit():
    # the dense factors hand back the potrs that cho_solve calls, so the
    # solves keep cho_solve's floats
    A, B = _random_pencil(21, 12)
    b = np.random.default_rng(4).standard_normal(12)
    want = cho_solve((cholesky(B, lower=True), True), b)
    assert np.array_equal(spd_factor(B).solve(b), want)
    lam = solve_gsym(A, B)
    solve, shift, _ = eigcore._shift_factor(A, B, lam)
    assert np.array_equal(solve(b), cho_solve(cho_factor(shift * B - A), b))


def test_solve_gsym_takes_a_checked_mass_as_is(monkeypatch):
    # an SPD from spd_factor is not checked or factored again, and gives the
    # same bits as the raw matrix
    A, B = _random_pencil(15, 10)
    ref = solve_gsym(A, B)
    Bf = spd_factor(B)
    calls = []
    monkeypatch.setattr(eigcore, "cholesky", lambda *a, **k: calls.append(a))
    res = solve_gsym(A, Bf)
    assert calls == []
    assert res == ref


def test_spd_factor_keeps_the_dense_cholesky_factor():
    # the lower factor the cold top reduces on; a sparse mass holds none
    _, B = _random_pencil(16, 10)
    assert np.array_equal(spd_factor(B).factor, cholesky(B, lower=True))
    _, Bs = _sparse_pencil(8, n=30, density=0.2)
    assert spd_factor(Bs).factor is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cold_top_pair_reduces_on_the_held_factor(seed, monkeypatch):
    # a cold dense top is one standard eigensolve of L^-1 A L^-T on the
    # held factor of B, with no factorization of B; its eigenvalue and
    # vector are those of scipy's generalized solve to rounding
    A, B = _random_pencil(seed, 40)
    lams, V = eigh(A, B, subset_by_index=(39, 39))
    Bf = spd_factor(B)
    calls = []

    def counted(*args, _f=eigcore.eigh, **kwargs):
        calls.append((len(args), "b" in kwargs))
        return _f(*args, **kwargs)

    monkeypatch.setattr(eigcore, "eigh", counted)
    monkeypatch.setattr(eigcore, "cholesky", lambda *a, **k: calls.append(a))
    lam, x = eigcore._lapack_top(A, Bf)
    assert calls == [(1, False)]
    lam_ref, v = float(lams[0]), V[:, 0]
    assert abs(lam - lam_ref) <= 1e-13 * max(1.0, abs(lam_ref))
    assert np.max(np.abs(x * np.sign(x @ v) - v)) <= 1e-10
    q, y = top_pair(A, Bf)
    assert abs(q - lam_ref) <= 1e-12 * max(1.0, abs(lam_ref))
    assert abs(float(y @ (B @ y)) - 1.0) <= 1e-12


def test_cold_top_keeps_the_b_orthonormality_check():
    # a factor that does not belong to B leaves x off the B-unit sphere
    A, B = _random_pencil(3, 12)
    held = spd_factor(2.0 * B)
    with pytest.raises(SolverFailure, match="B-orthonormality"):
        eigcore._lapack_top(A, eigcore.SPD(B, held.solve, held.factor))


def _box_forms(growth: bool):
    """Growth (m = 0.12) or quotient forms of the 16² box, field 1, CSR."""
    r = Rect2D((-1.0, 1.0), (-1.0, 1.0), 16, 16)
    prof = make_affine_profile(Grid1D("fd2", 1.0, 64), 2.0, 1.0)
    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1)
    if growth:
        f = _growth_forms_2d(r, prof, params, 0.12, 1)
        return [_sparse(t, r.nred) for t in (f.terms_E, f.terms_V, f.terms_J)]
    q = assemble_2d_quotient(r, prof, params, 1)
    return [_sparse(t, r.nred) for t in (q.terms_E, q.terms_D)]


def test_band_factor_certifies_the_box_top():
    # sigma B - A has a banded Cholesky factor just above lambda_max and none
    # just below it; lambda_max is read by dense eigh
    A, B = _box_forms(growth=False)
    lam = float(eigh(A.toarray(), B.toarray(), eigvals_only=True)[-1])
    assert eigcore._band_cholesky(lam * (1.0 + 1e-6) * B - A) is not None
    assert eigcore._band_cholesky(lam * (1.0 - 1e-6) * B - A) is None
    delta = 1e-6 * max(1.0, abs(lam))
    solve, shift, first = eigcore._shift_factor(A, B, lam * (1.0 + 1e-6) - delta)
    assert first and shift > lam
    solve, shift, first = eigcore._shift_factor(A, B, lam * (1.0 - 1e-6) - delta)
    assert not first and shift > lam
    # the certifying factor solves (sigma B - A) x = b to rounding
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    S = shift * B - A
    x = solve(b)
    assert np.max(np.abs(S @ x - b)) <= 1e-10 * eigcore.norm_inf(S) * np.max(np.abs(x))


def _indefinite(M):
    """M minus its middle eigenvalue times the identity."""
    mid = np.linalg.eigvalsh(M.toarray())[M.shape[0] // 2]
    return (M - mid * sp.identity(M.shape[0])).tocsr()


def test_spd_factor_passes_the_box_mass_dense_and_sparse():
    J = _box_forms(growth=True)[2]
    b = np.random.default_rng(1).standard_normal(J.shape[0])
    xd, xs = spd_factor(J.toarray()).solve(b), spd_factor(J).solve(b)
    assert np.max(np.abs(xs - xd)) <= 1e-12 * np.max(np.abs(xd))


@pytest.mark.parametrize("case", ["indefinite", "conditioning 2e15"])
def test_spd_factor_rejects_dense_and_sparse_alike(case):
    if case == "indefinite":
        M = _indefinite(_box_forms(growth=True)[2])
    else:
        M = sp.diags([1.0] * 5 + [0.5e-15]).tocsr()
    for copy in (M.toarray(), M):
        with pytest.raises(NotPositiveDefinite):
            spd_factor(copy)


def test_pbtrs_info_is_solver_failure(monkeypatch):
    real = eigcore.get_lapack_funcs

    def lapack(names, arrays):
        if names == ("pbtrs",):
            return (lambda c, b, lower: (b, -2),)
        return real(names, arrays)

    monkeypatch.setattr(eigcore, "get_lapack_funcs", lapack)
    A, B = _sparse_pencil(4)
    Bf = spd_factor(B)
    with pytest.raises(SolverFailure, match="pbtrs"):
        Bf.solve(np.ones(B.shape[0]))
    with pytest.raises(SolverFailure, match="pbtrs"):
        top_pair(A, Bf)


def test_sparse_zero_pivot_mass_raises():
    # a zero leading diagonal entry is a zero first pivot: no Cholesky factor
    B = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                [0.0, 0.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        spd_factor(B)


def test_sparse_arpack_no_convergence_is_solver_failure(monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(eigcore, "eigsh", stalled)
    A, B = _sparse_pencil(7)
    with pytest.raises(SolverFailure, match="ARPACK"):
        top_pair(A, B)


def test_hermitian_embedding_oracle_consistency():
    # the real-embedding trick used by the oracle agrees with numpy's
    # complex Hermitian solver; anchors the oracle itself
    rng = np.random.default_rng(14)
    H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    H = 0.5 * (H + H.conj().T)
    ref = np.linalg.eigvalsh(H)[-1]
    assert abs(hermitian_top_eigenvalue(H) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_psd_ratio_sup_diagonal_cases():
    I2 = np.eye(2)
    # g(c) = max(1 - c, -1 - c) <= 0 exactly at c = 1
    c = psd_ratio_sup(np.diag([1.0, -1.0]), I2)
    assert abs(c - 1.0) <= 1e-9
    # D singular but N negative on its kernel: finite answer c = -1
    c = psd_ratio_sup(np.diag([-1.0, -2.0]), np.diag([1.0, 0.0]))
    assert abs(c - (-1.0)) <= 1e-9
    # N null on the kernel and uncoupled from the range: that direction
    # drops out and the answer is still c = -1
    c = psd_ratio_sup(np.diag([-1.0, 0.0]), np.diag([1.0, 0.0]))
    assert abs(c - (-1.0)) <= 1e-9


def test_psd_ratio_sup_unbounded():
    # N positive on the kernel of D: no finite c works
    c = psd_ratio_sup(np.eye(2), np.diag([1.0, 0.0]))
    assert c == np.inf
    # N null on the kernel but coupled to the range: (t e2 + e1) grows like 2t
    c = psd_ratio_sup(np.array([[-1.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 0.0]))
    assert c == np.inf


def test_psd_ratio_sup_denominator_not_psd():
    with pytest.raises(NotPositiveDefinite):
        psd_ratio_sup(np.eye(2), np.diag([1.0, -1.0]))


def test_psd_ratio_sup_vanishing_penalty():
    # D = 0 makes N - cD = N for every c: inf{c} is -inf when N is negative
    # semidefinite and +inf (the empty set) otherwise
    assert psd_ratio_sup(-np.eye(2), np.zeros((2, 2))) == -np.inf
    assert psd_ratio_sup(np.eye(2), np.zeros((2, 2))) == np.inf


@pytest.mark.parametrize("seed", range(4))
def test_psd_ratio_sup_vs_bisection_oracle(seed):
    # D with a two-dimensional kernel on which N is negative definite: the
    # Schur-complement value against slack-free longhand bisection
    n = 6
    A, B = _random_pencil(100 + seed, n)
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = np.concatenate([rng.uniform(0.5, 2.0, n - 2), np.zeros(2)])
    D = Q @ np.diag(d) @ Q.T
    K = Q[:, n - 2:]
    N = A - 3.0 * K @ K.T
    N, D = 0.5 * (N + N.T), 0.5 * (D + D.T)
    c = psd_ratio_sup(N, D)
    ref = psd_ratio_bisection(N, D, B, -100.0, 100.0)
    assert abs(c - ref) <= 1e-9 * max(1.0, abs(ref))
