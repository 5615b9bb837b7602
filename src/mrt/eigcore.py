"""Dense symmetric-definite generalized eigensolver with refinement.

solve_gsym hands A v = lam B v to LAPACK's symmetric-definite drivers (sygvx
for an index subset, sygvd for the whole spectrum) after checking symmetry
and the conditioning of B, and reports the residual and the B-orthonormality
of what comes back.  Everything is deterministic: same inputs, same bits out.

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
from scipy.linalg import cholesky, cho_factor, cho_solve, eigh, LinAlgError

from .errors import (BracketExhausted, NotPositiveDefinite, NotSymmetric,
                     SolverFailure)

_SYM_TOL = 1e-12
_COND_LIMIT = 1e15


@dataclass(frozen=True)
class GEigResult:
    """Eigenvalues ascending; eigenvectors B-orthonormal in matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norm: float
    orthonormality: float


def _require_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"{name} must be square")
    scale = np.max(np.abs(M)) + 1.0
    gap = np.max(np.abs(M - M.T))
    if gap > _SYM_TOL * scale:
        raise NotSymmetric(f"{name} asymmetry {gap:.3e} exceeds {_SYM_TOL:g} relative")
    return 0.5 * (M + M.T)


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


def top_pair(A: np.ndarray, B: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and its vector, without the full spectrum."""
    n = A.shape[0]
    r = solve_gsym(A, B, subset=(n - 1, n - 1))
    return float(r.eigenvalues[-1]), r.eigenvectors[:, -1]


def refine_top(A: np.ndarray, B: np.ndarray, lam: float, v: np.ndarray,
               iters: int = 3) -> np.ndarray:
    """Shifted inverse iteration toward the top eigenvector.

    The shift sits just above the given eigenvalue estimate so the shifted
    pencil stays SPD; each solve multiplies the error transverse to the top
    eigenspace by gap ratios < 1 while solve roundoff stays at the eps level
    in the directions that matter.  Returns the B-normalized vector.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    scale = max(1.0, abs(lam))
    delta = 1e-6 * scale
    for _ in range(6):
        try:
            S = cho_factor((lam + delta) * B - A)
            break
        except LinAlgError:
            delta *= 32.0
    else:
        raise SolverFailure("could not shift the pencil to SPD for refinement")
    x = v / np.sqrt(v @ (B @ v))
    for _ in range(iters):
        x = cho_solve(S, B @ x)
        x = x / np.sqrt(x @ (B @ x))
    return x


def max_rayleigh(A: np.ndarray, B: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximum of x·Ax / x·Bx over x != 0, with the refined maximizer.

    The returned value is the Rayleigh quotient of the refined vector, so it
    is always a lower bound on the true maximum and satisfies the shift rule
    max(A + c B, B) = max(A, B) + c to rounding.
    """
    lam, v = top_pair(A, B)
    x = refine_top(A, B, lam, v)
    return float((x @ (A @ x)) / (x @ (B @ x))), x


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
