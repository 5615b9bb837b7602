"""Symmetric-definite generalized eigensolvers, dense and sparse, with refinement.

solve_gsym hands a dense A v = lam B v to LAPACK's symmetric-definite drivers
(sygvx for an index subset, sygvd for the whole spectrum) after checking
symmetry and the conditioning of B, and reports the residual and the
B-orthonormality of what comes back.

top_pair, refine_top and max_rayleigh also take scipy sparse A and B (the 2D
box).  There B is checked and factored once (spd_factor): a SuperLU LDLᵀ
with diagonal pivots on a symmetric fill-reducing order, whose positive
pivots prove B positive definite and whose pivot ratio stands in for the
dense conditioning limit.  ARPACK finds the top pair: Lanczos in B's inner
product when nothing bounds λmax, shift-invert when the caller knows an
upper bound σ, which counts only once σB − A factors as LDLᵀ with positive
pivots.  The start vector is a fixed one or the caller's, never ARPACK's
random one.  Everything is deterministic: same inputs, same bits out.

refine_top polishes the extreme eigenpair by shifted inverse iteration in the
original coordinates.  The dense solver's output carries an absolute noise
floor of order eps times the norm of L⁻¹AL⁻ᵀ (B = LLᵀ), the standard-form
matrix the driver works on, which for stiff pencils is many orders above eps; a few SPD-shifted solves push the eigenvector error
down to the level where Rayleigh quotients are limited only by quadrature
rounding.  The growth-rate fixed point relies on this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky, cho_factor, cho_solve, eigh, LinAlgError
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 splu)

from .errors import (BracketExhausted, NotPositiveDefinite, NotSymmetric,
                     SolverFailure)

_SYM_TOL = 1e-12
_COND_LIMIT = 1e15
# relative tolerances of the runs that only estimate λmax: the Lanczos run
# without a bound, and the shift-invert run that improves a poor estimate
_LANCZOS_TOL = 1e-2
_REESTIMATE_TOL = 1e-8
# Lanczos vectors of a shift-invert run whose certified shift sits close
# above λmax, where the top of the transformed spectrum stands well apart
_NCV_SHIFT = 6


@dataclass(frozen=True)
class GEigResult:
    """Eigenvalues ascending; eigenvectors B-orthonormal in matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norm: float
    orthonormality: float


def _absmax(M) -> float:
    return float(np.max(np.abs(M.data if sp.issparse(M) else M), initial=0.0))


def _require_symmetric(M, name: str):
    sparse = sp.issparse(M)
    M = sp.csr_matrix(M, dtype=float) if sparse else np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"{name} must be square")
    MT = M.T.tocsr() if sparse else M.T
    scale = _absmax(M) + 1.0
    gap = _absmax(M - MT)
    if gap > _SYM_TOL * scale:
        raise NotSymmetric(f"{name} asymmetry {gap:.3e} exceeds {_SYM_TOL:g} relative")
    return 0.5 * (M + MT)


def norm_inf(M) -> float:
    """Largest absolute row sum of a dense or sparse matrix."""
    if sp.issparse(M):
        return float(abs(M).sum(axis=1).max())
    return float(np.linalg.norm(M, ord=np.inf))


def _chol_mass(B: np.ndarray) -> None:
    """Reject a B that is not positive definite or is numerically singular."""
    try:
        L = cholesky(B, lower=True)
    except LinAlgError as e:
        raise NotPositiveDefinite(f"B: {e}") from None
    d = np.diag(L)
    if (d.max() / d.min()) ** 2 > _COND_LIMIT:
        raise NotPositiveDefinite(
            f"B numerically singular (condition ~{(d.max()/d.min())**2:.1e})"
        )


def _ldl(M):
    """SuperLU LDLᵀ of a sparse symmetric M and its pivots D.

    diag_pivot_thresh = 0 keeps every pivot on the diagonal of a symmetric
    fill-reducing order, so by Sylvester's law the pivots carry the inertia
    of M.  None when SuperLU had to leave the diagonal (its row and column
    permutations differ, which a zero pivot forces) or found M singular.
    """
    try:
        lu = splu(sp.csc_matrix(M), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return lu, lu.U.diagonal()


@dataclass(frozen=True)
class SparseSPD:
    """A sparse symmetric positive definite matrix and its LDLᵀ factor,
    checked and factored once for every solve against it."""

    matrix: sp.csr_matrix
    lu: object


def spd_factor(B, name: str = "B") -> SparseSPD:
    """Check a sparse B like the dense path does and factor it.

    :raises NotSymmetric: B fails the symmetry tolerance.
    :raises NotPositiveDefinite: a pivot of B's LDLᵀ is not positive, or the
        pivot ratio exceeds the 1e15 conditioning limit.
    """
    B = _require_symmetric(B, name)
    f = _ldl(B)
    if f is None or f[1].min() <= 0.0:
        raise NotPositiveDefinite(f"{name}: LDLᵀ has a nonpositive pivot")
    d = f[1]
    if d.max() / d.min() > _COND_LIMIT:
        raise NotPositiveDefinite(
            f"{name} numerically singular (condition ~{d.max() / d.min():.1e})")
    return SparseSPD(B, f[0])


def _sparse_pair(A, B):
    """(A, B) as checked CSR A and SparseSPD B; a SparseSPD passes as is."""
    A = _require_symmetric(A, "A")
    return A, (B if isinstance(B, SparseSPD) else spd_factor(B))


def _is_sparse(A, B) -> bool:
    return sp.issparse(A) or sp.issparse(B) or isinstance(B, SparseSPD)


def _shifted_solver(A, B, lam: float, delta: float, tries: int):
    """Solver of ((lam + δ)B − A)x = b at the first δ·32^k, k < tries, where
    that matrix is positive definite (Cholesky, or LDLᵀ with positive
    pivots when sparse), which puts lam + δ above λmax(A, B)."""
    for _ in range(tries):
        S = (lam + delta) * B - A
        if sp.issparse(S):
            f = _ldl(S)
            if f is not None and f[1].min() > 0.0:
                return f[0].solve, lam + delta
        else:
            try:
                F = cho_factor(S)
                return (lambda b: cho_solve(F, b)), lam + delta
            except LinAlgError:
                pass
        delta *= 32.0
    raise SolverFailure("could not shift the pencil to SPD")


def _certified_shift(A, B, sigma: float):
    """Solver of (σB − A)x = b at the first σ = sigma + δ·32^k, δ =
    1e-6·max(1, |sigma|), that certifies σ above λmax; also whether that σ
    is the first one."""
    delta = 1e-6 * max(1.0, abs(sigma))
    solve, shift = _shifted_solver(A, B, sigma, delta, 12)
    return solve, shift, shift == sigma + delta


def _shift_invert(A, Bf: SparseSPD, solve, shift: float, v0: np.ndarray,
                  tol: float, ncv: int):
    """ARPACK's top pair of (A, B) from the factored shifted pencil."""
    n = A.shape[0]
    OPinv = LinearOperator((n, n), matvec=lambda b: -solve(b), dtype=float)
    return eigsh(A, k=1, M=Bf.matrix, sigma=shift, OPinv=OPinv, which="LM",
                 v0=v0, ncv=min(ncv, n), tol=tol)


def _sparse_top(A, B, sigma, v0) -> GEigResult:
    """ARPACK's top pair of a sparse pencil, with solve_gsym's checks.

    Every pair comes from shift-invert at a certified σ.  Without a bound,
    a loose Lanczos run supplies an estimate from below and the start
    vector.  When σ has to climb past its first try, the estimate was poor
    (a clustered top, as on the vertical-field box): a loose shift-invert
    run at that σ improves it and σ is certified again from there, so that
    the final run sits close above λmax, where the top of the transformed
    spectrum stands apart.
    """
    A, Bf = _sparse_pair(A, B)
    n = A.shape[0]
    if v0 is None:
        v0 = np.random.default_rng(0).standard_normal(n)
    try:
        if sigma is None:
            Minv = LinearOperator((n, n), matvec=Bf.lu.solve, dtype=float)
            theta, V = eigsh(A, k=1, M=Bf.matrix, Minv=Minv, which="LA", v0=v0,
                             tol=_LANCZOS_TOL)
            sigma, v0 = float(theta[0]), V[:, 0]
        solve, shift, close = _certified_shift(A, Bf.matrix, sigma)
        if not close:
            lam, V = _shift_invert(A, Bf, solve, shift, v0, _REESTIMATE_TOL, 20)
            solve, shift, _ = _certified_shift(A, Bf.matrix, float(lam[0]))
            v0 = V[:, 0]
        lam, V = _shift_invert(A, Bf, solve, shift, v0, 0.0, _NCV_SHIFT)
    except ArpackNoConvergence as e:
        raise SolverFailure(f"ARPACK: {e}") from None
    v = V[:, 0]
    Bv = Bf.matrix @ v
    denom = (norm_inf(A) + abs(lam[0]) * norm_inf(Bf.matrix)) * np.linalg.norm(v)
    rn = np.linalg.norm(A @ v - lam[0] * Bv) / (denom + np.finfo(float).tiny)
    ortho = abs(float(v @ Bv) - 1.0)
    if ortho > 1e-8:
        raise SolverFailure(f"B-orthonormality defect {ortho:.3e} exceeds 1e-8")
    return GEigResult(eigenvalues=lam, eigenvectors=V,
                      residual_norm=float(rn), orthonormality=ortho)


def solve_gsym(A: np.ndarray, B: np.ndarray, subset: tuple | None = None) -> GEigResult:
    """Solve A v = lam B v for symmetric A and SPD B.

    :param subset: optional (lo, hi) index range of eigenvalues to compute
        (inclusive, ascending order); None computes all of them.
    :raises NotSymmetric: either matrix fails the symmetry tolerance.
    :raises NotPositiveDefinite: B fails Cholesky or is near singular, or
        the LAPACK driver cannot factor it.
    """
    A = _require_symmetric(A, "A")
    B = _require_symmetric(B, "B")
    _chol_mass(B)
    try:
        lam, V = eigh(A, B, subset_by_index=subset)
    except LinAlgError as e:
        raise NotPositiveDefinite(f"B: {e}") from None

    R = A @ V - B @ V * lam[None, :]
    nA = np.linalg.norm(A, ord=np.inf)
    nB = np.linalg.norm(B, ord=np.inf)
    rn = 0.0
    for i in range(lam.size):
        denom = (nA + abs(lam[i]) * nB) * np.linalg.norm(V[:, i]) + np.finfo(float).tiny
        rn = max(rn, np.linalg.norm(R[:, i]) / denom)
    G = V.T @ B @ V - np.eye(lam.size)
    ortho = float(np.max(np.abs(G)))
    if ortho > 1e-8:
        raise SolverFailure(f"B-orthonormality defect {ortho:.3e} exceeds 1e-8")
    return GEigResult(eigenvalues=lam, eigenvectors=V,
                      residual_norm=float(rn), orthonormality=ortho)


def top_pair(A, B, sigma: float | None = None,
             v0: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and its vector, without the full spectrum.

    Dense A and B go to solve_gsym, which needs neither sigma nor v0.
    Sparse ones (B may be a SparseSPD) go to ARPACK shift-invert at a σ
    that σB − A certifies above λmax, searched upward from sigma, a known
    upper bound, or else from a Lanczos estimate.  v0 is ARPACK's start
    vector; a fixed one when None.

    :raises SolverFailure: ARPACK did not converge, or its vector is not
        B-normalized.
    """
    if _is_sparse(A, B):
        r = _sparse_top(A, B, sigma, v0)
    else:
        n = A.shape[0]
        r = solve_gsym(A, B, subset=(n - 1, n - 1))
    return float(r.eigenvalues[-1]), r.eigenvectors[:, -1]


def refine_top(A, B, lam: float, v: np.ndarray, iters: int = 3) -> np.ndarray:
    """Shifted inverse iteration toward the top eigenvector.

    The shift sits just above the given eigenvalue estimate so the shifted
    pencil stays SPD; each solve multiplies the error transverse to the top
    eigenspace by gap ratios < 1 while solve roundoff stays at the eps level
    in the directions that matter.  Returns the B-normalized vector.
    """
    if _is_sparse(A, B):
        B = B.matrix if isinstance(B, SparseSPD) else B
    else:
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
    scale = max(1.0, abs(lam))
    solve, _ = _shifted_solver(A, B, lam, 1e-6 * scale, 6)
    x = v / np.sqrt(v @ (B @ v))
    for _ in range(iters):
        x = solve(B @ x)
        x = x / np.sqrt(x @ (B @ x))
    return x


def max_rayleigh(A, B, v0: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Maximum of x·Ax / x·Bx over x != 0, with the refined maximizer.

    The returned value is the Rayleigh quotient of the refined vector, so it
    is always a lower bound on the true maximum and satisfies the shift rule
    max(A + c B, B) = max(A, B) + c to rounding.  Sparse A and B are solved
    without a bound, from v0 (see top_pair).
    """
    if _is_sparse(A, B):
        A, B = _sparse_pair(A, B)
    lam, v = top_pair(A, B, v0=v0)
    x = refine_top(A, B, lam, v)
    Bm = B.matrix if isinstance(B, SparseSPD) else B
    return float((x @ (A @ x)) / (x @ (Bm @ x))), x


def psd_ratio_sup(N: np.ndarray, D: np.ndarray) -> float:
    """inf{c : N - c D is negative semidefinite}, as one eigenproblem.

    In the eigenbasis of the PSD form D, split its kernel K (eigenvalues
    d ≤ 1e-12·‖D‖) from its range R.  No c moves N on K, so the ratio is
    +inf if N_KK has a positive eigenvalue, or a null direction (|ν| ≤
    1e-12·‖N‖) that N couples to R.  Null directions N leaves uncoupled
    drop out; on the rest of K, N_KK is negative definite, and Haynsworth
    inertia additivity makes N - cD ⪯ 0 equivalent to the Schur complement
    N_RR - N_RK N_KK⁻¹ N_KR - c·diag(d_R) ⪯ 0.  The answer is the top
    eigenvalue of that complement against diag(d_R).  The result is
    positive exactly when N is positive somewhere that D is too.  The mass
    form of the certificate pencil (N - cD; J) does not enter the ratio.

    :raises NotPositiveDefinite: D has an eigenvalue below -1e-10 * ||D||.
    :raises BracketExhausted: D vanishes, so no c changes N - cD at all.
    """
    N = _require_symmetric(N, "N")
    D = _require_symmetric(D, "D")
    dvals, dvecs = np.linalg.eigh(D)
    dmin = float(dvals[0])
    dnorm = float(np.linalg.norm(D, ord=np.inf))
    if dmin < -1e-10 * (dnorm + np.finfo(float).tiny):
        raise NotPositiveDefinite(f"penalty form has eigenvalue {dmin:.3e} < 0")

    in_range = dvals > 1e-12 * (dnorm + np.finfo(float).tiny)
    if not in_range.any():
        raise BracketExhausted("penalty form vanishes: N - cD is the same for every c")
    K, R = dvecs[:, ~in_range], dvecs[:, in_range]
    S = R.T @ N @ R
    if K.shape[1]:
        # N_KK = Z diag(nu) Z^T.  A null direction of N_KK that N does not
        # couple to R drops out of N - cD altogether (at xi1 = 0 neither cr
        # form sees the v1 component); a positive or a coupled null
        # direction keeps N - cD positive for every c.
        tol = 1e-12 * (float(np.linalg.norm(N, ord=np.inf)) + np.finfo(float).tiny)
        nu, Z = np.linalg.eigh(K.T @ N @ K)
        C = Z.T @ (K.T @ N @ R)
        null = nu >= -tol
        if nu[-1] > tol or np.any(np.abs(C[null]) > tol):
            return float("inf")
        W = C[~null] / np.sqrt(-nu[~null])[:, None]
        S = S + W.T @ W
    lam, _ = top_pair(0.5 * (S + S.T), np.diag(dvals[in_range]))
    return lam
