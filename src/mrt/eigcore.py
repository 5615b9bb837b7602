"""Symmetric-definite generalized eigensolvers, dense and sparse, and the
refined top eigenpair.

spd_factor checks a mass matrix B once and keeps its Cholesky factor: a
dense one when B is dense, LAPACK's banded one (pbtrf) when B is sparse,
and a conditioning of at most 1e15 either way.  solve_gsym returns the
top eigenvalue of a dense A v = lam B v from LAPACK's top vector on B's
Cholesky factor (_lapack_top, below); a factored B is not checked again.
psd_ratio_sup solves the cr ratio with it.

top_pair returns the top Rayleigh quotient of (A, B) and its maximizer,
refined by shifted inverse iteration on a Cholesky factor of σB − A, whose
existence certifies σ above λmax.  A warm dense call, one that brings
an upper bound and a start vector, as each growth iterate does, runs no
eigensolver: it inverse-iterates from the start vector at certified shifts
until the quotient q settles to its rounding floor, certifies
q + 1e-6·max(1, |q|) above λmax and refines with that factor.  A cold dense
call, or a warm one that does not settle on the top within its budget,
takes LAPACK's top vector on B's held Cholesky factor (sygst, a standard
eigh, trtrs: _lapack_top), and refine_top refines it at
σ = λ + 1e-6·max(1, |λ|).  A sparse top vector (the 2D box) comes from
ARPACK shift-invert, and the factor that certified its shift refines it.
ARPACK starts from a fixed or the caller's vector, so the same inputs give
the same bits.  The LAPACK vector carries an absolute noise floor of order
eps·‖L⁻¹AL⁻ᵀ‖ (B = LLᵀ), many orders above eps on stiff pencils;
refinement brings the quotient down to quadrature rounding, which the
growth-rate fixed point relies on.

pin_blas_threads sets the OpenBLAS builds of numpy and scipy to one thread
for the rest of the process, as the CLI does before every command.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.linalg import (cholesky, cho_factor, eigh, get_lapack_funcs,
                          LinAlgError)
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import NotPositiveDefinite, NotSymmetric, SolverFailure

_SYM_TOL = 1e-12
_COND_LIMIT = 1e15
# relative tolerances of the runs that only estimate λmax: the Lanczos run
# without a bound, and the shift-invert run that improves a poor estimate
_LANCZOS_TOL = 1e-2
_REESTIMATE_TOL = 1e-8
# Lanczos vectors of a shift-invert run whose certified shift sits close
# above λmax, where the top of the transformed spectrum stands well apart
_NCV_SHIFT = 6
# inverse-iteration steps that refine a top vector
_REFINE_ITERS = 3
# the warm dense path: the inverse-iteration steps it may take before it
# falls back to LAPACK; the quotient's rounding floor, in units of
# eps·(|x|ᵀ|A||x| + |q|); and the steps within which the quotient must reach
# that floor at its current rate, or else the shift moves down to the
# quotient (one factorization costs about as much as a few steps)
_WARM_STEPS = 30
_WARM_FLOOR = 32.0
_WARM_AHEAD = 3


# the thread-count setters exported by the OpenBLAS builds in numpy's
# (ILP64) and scipy's (LP64) wheels
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads")


@functools.cache
def _openblas_setters() -> tuple:
    """The setter of every OpenBLAS in the numpy.libs and scipy.libs
    directories; empty under any other BLAS."""
    setters = []
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            fn = next((getattr(lib, sym) for sym in _OPENBLAS_SETTERS
                       if hasattr(lib, sym)), None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                setters.append(fn)
    return tuple(setters)


def pin_blas_threads() -> int:
    """Set every OpenBLAS that numpy and scipy ship to one thread, for the
    rest of the process, and return how many were set (0 under any other
    BLAS).  The pencils are too small for a second BLAS thread to pay, a
    fresh process pays for starting the threads in its first large solves,
    and one thread gives the same bits on any host."""
    setters = _openblas_setters()
    for set_threads in setters:
        set_threads(1)
    return len(setters)


def _absmax(M) -> float:
    return float(np.max(np.abs(M.data if sp.issparse(M) else M), initial=0.0))


def require_symmetric(M, name: str):
    """M as a float matrix, checked symmetric to 1e-12 relative: itself
    when it is symmetric bit for bit, else its symmetric part.

    :raises NotSymmetric: M is not square or fails the tolerance.
    """
    sparse = sp.issparse(M)
    M = sp.csr_matrix(M, dtype=float) if sparse else np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"{name} must be square")
    MT = M.T.tocsr() if sparse else M.T
    scale = _absmax(M) + 1.0
    gap = _absmax(M - MT)
    if gap > _SYM_TOL * scale:
        raise NotSymmetric(f"{name} asymmetry {gap:.3e} exceeds {_SYM_TOL:g} relative")
    return M if gap == 0.0 else 0.5 * (M + MT)


def norm_inf(M) -> float:
    """Largest absolute row sum of a dense or sparse matrix."""
    if sp.issparse(M):
        return float(abs(M).sum(axis=1).max())
    return float(np.linalg.norm(M, ord=np.inf))


def _band_cholesky(M):
    """LAPACK pbtrf's lower Cholesky factor of a sparse symmetric M, in the
    band storage ab[i − j, j] = M[i, j] as deep as M's lowest nonzero
    diagonal; None when a leading minor is not positive (info > 0; the
    arguments built here leave no other nonzero info).  Golub & Van Loan,
    Matrix Computations, §4.3."""
    T = sp.tril(M, format="coo")
    ab = np.zeros((int(np.max(T.row - T.col, initial=0)) + 1, M.shape[0]))
    np.add.at(ab, (T.row - T.col, T.col), T.data)
    pbtrf, = get_lapack_funcs(("pbtrf",), (ab,))
    c, info = pbtrf(ab, lower=1, overwrite_ab=1)
    return None if info else c


@dataclass(frozen=True)
class SPD:
    """A symmetric positive definite matrix, checked and factored once for
    every solve against it; solve(b) returns matrix⁻¹b, and factor is the
    lower Cholesky factor of a dense matrix (None when sparse)."""

    matrix: object
    solve: Callable[[np.ndarray], np.ndarray]
    factor: Optional[np.ndarray] = None


def spd_factor(B, name: str = "B", checked: bool = False) -> SPD:
    """Check a mass matrix and factor it by Cholesky: dense B in full
    storage, sparse B in band storage (_band_cholesky).  checked says that
    B came from require_symmetric already, as a pencil's matrices do, and
    skips the check.

    :raises NotSymmetric: B fails the symmetry tolerance.
    :raises NotPositiveDefinite: B has no Cholesky factor, or is
        numerically singular: the squared ratio of the largest to the
        smallest diagonal entry of the factor exceeds 1e15.
    """
    if not checked:
        B = require_symmetric(B, name)
    if sp.issparse(B):
        c = _band_cholesky(B)
        if c is None:
            raise NotPositiveDefinite(f"{name}: Cholesky has a nonpositive pivot")
        d, solve, L = c[0], _trs_solver("pbtrs", c), None
    else:
        try:
            L = cholesky(B, lower=True)
        except LinAlgError as e:
            raise NotPositiveDefinite(f"{name}: {e}") from None
        d, solve = np.diag(L), _trs_solver("potrs", L)
    ratio = (d.max() / d.min()) ** 2
    if ratio > _COND_LIMIT:
        raise NotPositiveDefinite(
            f"{name} numerically singular (condition ~{ratio:.1e})")
    return SPD(B, solve, L)


def _trs_solver(routine: str, c: np.ndarray, lower: bool = True):
    """Solver x = S⁻¹b on a checked Cholesky factor c of S: LAPACK potrs
    (full storage) or pbtrs (band storage) bound to c.  potrs is the call
    cho_solve makes, so the floats are the same, without cho_solve's scans
    of the factor and the right-hand side, which cost as much again as the
    solve."""
    trs, = get_lapack_funcs((routine,), (c,))

    def solve(b):
        x, info = trs(c, b, lower=lower)
        if info != 0:
            raise SolverFailure(f"{routine} rejected its arguments (info {info})")
        return x

    return solve


def _shift_factor(A, B, lam: float):
    """Solver of (σB − A)x = b at the first σ = lam + δ·32ᵏ, δ =
    1e-6·max(1, |lam|), k < 12, where σB − A has a Cholesky factor (in
    band storage when sparse), which certifies σ above λmax(A, B); also σ,
    and whether it is the first one tried."""
    delta = 1e-6 * max(1.0, abs(lam))
    for k in range(12):
        shift = lam + delta * 32.0 ** k
        S = shift * B - A
        if sp.issparse(S):
            c = _band_cholesky(S)
            if c is not None:
                return _trs_solver("pbtrs", c), shift, k == 0
        else:
            try:
                c, lower = cho_factor(S)
                return _trs_solver("potrs", c, lower), shift, k == 0
            except LinAlgError:
                pass
    raise SolverFailure("could not shift the pencil to SPD")


def _inverse_iteration(solve, B, v: np.ndarray) -> np.ndarray:
    """_REFINE_ITERS steps x ← (σB − A)⁻¹Bx from v, B-normalized."""
    x = v / np.sqrt(v @ (B @ v))
    for _ in range(_REFINE_ITERS):
        x = solve(B @ x)
        x = x / np.sqrt(x @ (B @ x))
    return x


def _warm_top(A, B, sigma: float, v0: np.ndarray):
    """The top vector of a dense pencil by inverse iteration from v0 at
    shifts certified above λmax, refined as refine_top refines; None when
    _WARM_STEPS steps do not get there.

    The first shift is the first σ at or above sigma where σB − A factors.
    The quotient q of the iterate settles when a step moves it by no more
    than its rounding floor; q + 1e-6·max(1, |q|) is then certified above
    λmax, and the factor there refines the vector.  Where that first shift
    does not factor, or the current rate would not bring q to its floor
    within _WARM_AHEAD more steps, the pencil is shifted down to the first
    σ above q that factors, and the iteration goes on from there (inverse
    iteration at a certified shift: Parlett, The Symmetric Eigenvalue
    Problem, ch. 4).  A v0 with no part in the top eigenspace settles on a
    lower eigenvalue, where the first shift cannot factor; once that shift
    stops falling the path gives up.
    """
    solve, shift, _ = _shift_factor(A, B, sigma)
    x = v0 / np.sqrt(v0 @ (B @ v0))
    q = float(x @ (A @ x))
    floor = _WARM_FLOOR * np.finfo(float).eps * (
        float(np.abs(x) @ (np.abs(A) @ np.abs(x))) + abs(q))
    moved = np.inf
    for _ in range(_WARM_STEPS):
        y = solve(B @ x)
        x = y / np.sqrt(y @ (B @ y))
        q_next = float(x @ (A @ x))
        step, q = abs(q_next - q), q_next
        settled = step <= floor
        slow = moved > 0.0 and step * min(step / moved, 1.0) ** _WARM_AHEAD > floor
        if settled or slow:
            solve_q, shift_q, close = _shift_factor(A, B, q)
            if settled and close:
                return _inverse_iteration(solve_q, B, x)
            if shift_q < shift:
                solve, shift = solve_q, shift_q
            elif settled:
                return None
        moved = step
    return None


def solve_gsym(A: np.ndarray, B) -> float:
    """The largest eigenvalue of A v = lam B v for symmetric A and SPD B,
    from LAPACK's top vector on B's Cholesky factor (_lapack_top).

    :param B: a dense matrix, checked and factored here, or an SPD from
        spd_factor, checked already.
    :raises NotSymmetric: either matrix fails the symmetry tolerance.
    :raises NotPositiveDefinite: B fails spd_factor's checks.
    :raises SolverFailure: LAPACK fails, or the top vector is not
        B-normalized to 1e-8.
    """
    A = require_symmetric(A, "A")
    return _lapack_top(A, B if isinstance(B, SPD) else spd_factor(B))[0]


def _lapack_top(A: np.ndarray, Bf: SPD) -> tuple[float, np.ndarray]:
    """LAPACK's top eigenpair of a dense pencil on B's held factor L.

    sygst reduces the pencil to C = L⁻¹AL⁻ᵀ, eigh takes the top of the
    standard problem C y = λy, and trtrs maps y back to x = L⁻ᵀy; the
    reduction LAPACK's generalized drivers make, without factoring B
    again.

    :raises SolverFailure: LAPACK fails, or x is not B-normalized to 1e-8.
    """
    sygst, trtrs = get_lapack_funcs(("sygst", "trtrs"), (A,))
    C, info = sygst(A, Bf.factor, lower=1)
    if info != 0:
        raise SolverFailure(f"sygst rejected its arguments (info {info})")
    n = A.shape[0]
    try:
        lam, Y = eigh(C, subset_by_index=[n - 1, n - 1])
    except LinAlgError as e:
        raise SolverFailure(f"eigh: {e}") from None
    x, info = trtrs(Bf.factor, Y, lower=1, trans=1)
    if info != 0:
        raise SolverFailure(f"trtrs rejected its arguments (info {info})")
    x = x[:, 0]
    ortho = abs(float(x @ (Bf.matrix @ x)) - 1.0)
    if ortho > 1e-8:
        raise SolverFailure(f"B-orthonormality defect {ortho:.3e} exceeds 1e-8")
    return float(lam[0]), x


def _arpack_top(A, Bf: SPD, sigma, v0):
    """ARPACK's top vector of a sparse pencil and the factor of σB − A at
    the shift that certified it.

    Every vector comes from shift-invert at a certified σ.  Without a
    bound, a loose Lanczos run supplies an estimate from below and the
    start vector.  When σ has to climb past its first try, the estimate was
    poor (a clustered top, as on the vertical-field box): a loose
    shift-invert run at that σ improves it and σ is certified again from
    there, so that the final run sits close above λmax, where the top of
    the transformed spectrum stands apart.
    """
    n = A.shape[0]
    if v0 is None:
        v0 = np.random.default_rng(0).standard_normal(n)

    def shift_invert(solve, shift, v0, tol, ncv):
        OPinv = LinearOperator((n, n), matvec=lambda b: -solve(b), dtype=float)
        return eigsh(A, k=1, M=Bf.matrix, sigma=shift, OPinv=OPinv,
                     which="LM", v0=v0, ncv=min(ncv, n), tol=tol)

    try:
        if sigma is None:
            Minv = LinearOperator((n, n), matvec=Bf.solve, dtype=float)
            theta, V = eigsh(A, k=1, M=Bf.matrix, Minv=Minv, which="LA", v0=v0,
                             tol=_LANCZOS_TOL)
            sigma, v0 = float(theta[0]), V[:, 0]
        solve, shift, close = _shift_factor(A, Bf.matrix, sigma)
        if not close:
            lam, V = shift_invert(solve, shift, v0, _REESTIMATE_TOL, 20)
            solve, shift, _ = _shift_factor(A, Bf.matrix, float(lam[0]))
            v0 = V[:, 0]
        _, V = shift_invert(solve, shift, v0, 0.0, _NCV_SHIFT)
    except ArpackNoConvergence as e:
        raise SolverFailure(f"ARPACK: {e}") from None
    v = V[:, 0]
    ortho = abs(float(v @ (Bf.matrix @ v)) - 1.0)
    if ortho > 1e-8:
        raise SolverFailure(f"B-orthonormality defect {ortho:.3e} exceeds 1e-8")
    return solve, v


def top_pair(A, B, sigma: float | None = None, v0: np.ndarray | None = None,
             checked: bool = False) -> tuple[float, np.ndarray]:
    """Maximum of x·Ax / x·Bx over x ≠ 0, and its B-normalized maximizer.

    The value is the Rayleigh quotient of the refined vector: a lower bound
    on λmax(A, B) that keeps the shift rule max(A + cB, B) = max(A, B) + c
    to rounding.  B may be an SPD from spd_factor, built once for many
    pencils.  sigma is a known upper bound on λmax and v0 a start vector.
    Dense with both: inverse iteration from v0 on a Cholesky factor of
    σB − A, σ certified from sigma upward and lowered toward the quotient
    when convergence is slow, then refinement at the settled quotient
    certified as the top (_warm_top); when that fails within its budget,
    the cold path.  Dense otherwise (cold): LAPACK's top vector on the
    held Cholesky factor of B (_lapack_top), refined by refine_top.
    Sparse: ARPACK shift-invert at a σ that a banded Cholesky factor of
    σB − A certifies above λmax, searched upward from sigma or else from
    a Lanczos estimate; that factor refines the vector.  v0 is
    ARPACK's start vector, a fixed one when None.  checked says that A is
    known to be symmetric bit for bit, as a pencil that checked its
    matrices once knows of A − sC, and skips the check.

    :raises NotSymmetric: A fails the symmetry tolerance.
    :raises SolverFailure: ARPACK did not converge, or its vector is not
        B-normalized.
    """
    B = B if isinstance(B, SPD) else spd_factor(B)
    if not checked:
        A = require_symmetric(A, "A")
    if sp.issparse(B.matrix):
        solve, v = _arpack_top(A, B, sigma, v0)
        x = _inverse_iteration(solve, B.matrix, v)
    else:
        x = None
        if sigma is not None and v0 is not None:
            try:
                x = _warm_top(A, B.matrix, sigma, v0)
            except SolverFailure:
                pass
        if x is None:
            x = refine_top(A, B, *_lapack_top(A, B))
    return float((x @ (A @ x)) / (x @ (B.matrix @ x))), x


def refine_top(A, B, lam: float, v: np.ndarray) -> np.ndarray:
    """Shifted inverse iteration toward the top eigenvector, from LAPACK's
    vector on the cold dense path of top_pair.

    The shift sits just above the given eigenvalue estimate, at the first
    lam + 1e-6·max(1, |lam|)·32ᵏ where σB − A factors, so the shifted pencil
    is SPD; each of the _REFINE_ITERS solves multiplies the error transverse
    to the top eigenspace by gap ratios < 1 while solve roundoff stays at
    the eps level in the directions that matter.  The warm path of top_pair
    refines the same way, on the factor that certified its settled
    quotient.  B may be an SPD.  Returns the B-normalized vector.
    """
    B = B.matrix if isinstance(B, SPD) else B
    solve, _, _ = _shift_factor(A, B, lam)
    return _inverse_iteration(solve, B, v)


def _fold_kernel(Nkk: np.ndarray, Nkr: np.ndarray, tol: float):
    """W with N_rr + WᵀW the Schur complement that removes a block k on
    which no c moves N − cD, or None when N is positive there.

    N_kk = Z diag(ν) Zᵀ.  A null direction (|ν| ≤ tol) that N does not
    couple to r drops out of N − cD altogether; a positive one, or a null
    one N couples to r, keeps N − cD positive for every c.  The rest of
    N_kk is negative definite, and −N_rk N_kk⁻¹ N_kr = WᵀW over it.
    """
    nu, Z = np.linalg.eigh(Nkk)
    C = Z.T @ Nkr
    null = nu >= -tol
    if nu[-1] > tol or np.any(np.abs(C[null]) > tol):
        return None
    return C[~null] / np.sqrt(-nu[~null])[:, None]


def psd_ratio_sup(N: np.ndarray, D: np.ndarray) -> float:
    """inf{c : N - c D is negative semidefinite}, as one eigenproblem.

    The kernel K of the PSD form D is removed first, where no c moves N:
    the ratio is +inf if N_KK has a positive eigenvalue, or a null
    direction (|ν| ≤ 1e-12·‖N‖) that N couples to the rest.  Null
    directions N leaves uncoupled drop out; on the rest of K, N_KK is
    negative definite, and Haynsworth inertia additivity makes N - cD ⪯ 0
    equivalent to the Schur complement N_RR - N_RK N_KK⁻¹ N_KR - c·D_RR ⪯ 0
    (_fold_kernel).  This runs in two stages.  The structural part of K,
    the columns where D is exactly zero (v₁ of the cr forms: at ξ₁ = 0
    neither form sees it, and at ξ₁ ≠ 0 N is negative definite there),
    is folded in the unit basis, so that D is eigendecomposed only on the
    rest; the remaining kernel, eigenvalues d ≤ 1e-12·‖D‖, is folded in
    that eigenbasis.  The answer is the top eigenvalue of the complement
    against diag(d_R) on the range R.  The result is positive exactly when
    N is positive somewhere that D is too.  The mass form of the
    certificate pencil (N - cD; J) does not enter the ratio.  When D
    vanishes, N - cD = N for every c, and the answer is -inf if N ⪯ 0 and
    +inf otherwise.

    :raises NotPositiveDefinite: D has an eigenvalue below -1e-10 * ||D||.
    """
    N = require_symmetric(N, "N")
    D = require_symmetric(D, "D")
    tiny = np.finfo(float).tiny
    tol = 1e-12 * (norm_inf(N) + tiny)
    dnorm = norm_inf(D)
    live = np.any(D != 0.0, axis=0)
    dvals, dvecs = np.linalg.eigh(D[np.ix_(live, live)])
    if dvals.size and dvals[0] < -1e-10 * (dnorm + tiny):
        raise NotPositiveDefinite(f"penalty form has eigenvalue {dvals[0]:.3e} < 0")
    if not live.all():
        z = ~live
        W = _fold_kernel(N[np.ix_(z, z)], N[np.ix_(z, live)], tol)
        if W is None:
            return float("inf")
        N = N[np.ix_(live, live)] + W.T @ W

    in_range = dvals > 1e-12 * (dnorm + tiny)
    K, R = dvecs[:, ~in_range], dvecs[:, in_range]
    S = R.T @ N @ R
    if K.shape[1]:
        W = _fold_kernel(K.T @ N @ K, K.T @ N @ R, tol)
        if W is None:
            return float("inf")
        S = S + W.T @ W
    if S.shape[0] == 0:
        return float("-inf")
    return solve_gsym(0.5 * (S + S.T), np.diag(dvals[in_range]))
