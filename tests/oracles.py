"""Independent reference routines the tests check the package against.

Everything here deliberately avoids the code paths under test: eigenvalues
come from cyclic Jacobi rotations or scalar search instead of LAPACK
drivers, quadratures are composed by hand, and maximization is done by
projected gradient ascent or random probing.  Slow and simple on purpose.
"""

from __future__ import annotations

import math

import numpy as np


def jacobi_eigenvalues(A: np.ndarray, sweeps: int = 60,
                       tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    M = np.array(A, dtype=float, copy=True)
    n = M.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(M[p, q]) <= tol * math.sqrt(abs(M[p, p] * M[q, q]) + 1e-300):
                    continue
                off += M[p, q] ** 2
                theta = 0.5 * math.atan2(2.0 * M[p, q], M[q, q] - M[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot_p = c * M[:, p] - s * M[:, q]
                rot_q = s * M[:, p] + c * M[:, q]
                M[:, p], M[:, q] = rot_p, rot_q
                rot_p = c * M[p, :] - s * M[q, :]
                rot_q = s * M[p, :] + c * M[q, :]
                M[p, :], M[q, :] = rot_p, rot_q
        if off <= n * n * tol ** 2:
            break
    return np.sort(np.diag(M))


def cholesky_lower(B: np.ndarray) -> np.ndarray:
    """Textbook Cholesky factor, written out longhand."""
    n = B.shape[0]
    L = np.zeros_like(np.asarray(B, dtype=float))
    for i in range(n):
        for j in range(i + 1):
            s = float(B[i, j]) - float(L[i, :j] @ L[j, :j])
            if i == j:
                if s <= 0.0:
                    raise ValueError("matrix is not positive definite")
                L[i, i] = math.sqrt(s)
            else:
                L[i, j] = s / L[j, j]
    return L


def gsym_eigenvalues_reference(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Generalized symmetric eigenvalues via hand Cholesky + Jacobi."""
    L = cholesky_lower(B)
    Linv = np.eye(B.shape[0])
    # forward-substitute column by column
    for k in range(B.shape[0]):
        for i in range(B.shape[0]):
            s = Linv[i, k] - float(L[i, :i] @ Linv[:i, k])
            Linv[i, k] = s / L[i, i]
    C = Linv @ np.asarray(A, dtype=float) @ Linv.T
    return jacobi_eigenvalues(0.5 * (C + C.T))


def rayleigh_ascent(A: np.ndarray, B: np.ndarray, x0: np.ndarray,
                    iters: int = 4000, lr: float = 0.1) -> float:
    """Largest generalized Rayleigh quotient by projected gradient ascent."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    x = np.asarray(x0, dtype=float)
    x = x / math.sqrt(float(x @ (B @ x)))
    val = float(x @ (A @ x))
    step = lr / max(1.0, float(np.linalg.norm(A, np.inf)))
    for _ in range(iters):
        grad = 2.0 * (A @ x - val * (B @ x))
        xn = x + step * grad
        xn = xn / math.sqrt(float(xn @ (B @ xn)))
        vn = float(xn @ (A @ xn))
        if vn < val - 1e-15:
            step *= 0.5
            continue
        if abs(vn - val) <= 1e-15 * max(1.0, abs(val)):
            x, val = xn, vn
            break
        x, val = xn, vn
    return val


def rayleigh_monte_carlo(A: np.ndarray, B: np.ndarray, rng,
                         tries: int = 2000) -> float:
    """Lower bound on the top generalized Rayleigh quotient by probing."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    best = -math.inf
    n = A.shape[0]
    for _ in range(tries):
        x = rng.standard_normal(n)
        denom = float(x @ (B @ x))
        if denom <= 0.0:
            continue
        best = max(best, float(x @ (A @ x)) / denom)
    return best


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for arbitrary sorted abscissae."""
    x = np.asarray(x, dtype=float)
    w = np.zeros_like(x)
    w[:-1] += 0.5 * np.diff(x)
    w[1:] += 0.5 * np.diff(x)
    return w


def gauss_legendre_integral(f, a: float, b: float, panels: int = 64,
                            order: int = 5) -> float:
    """Composite Gauss-Legendre quadrature of f on [a, b]."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    total = 0.0
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * float(np.sum(ws * f(mid + half * xs)))
    return total


def hermitian_top_eigenvalue(H: np.ndarray) -> float:
    """Top eigenvalue of a complex Hermitian matrix via its real embedding.

    [[Re H, -Im H], [Im H, Re H]] is symmetric with the same spectrum
    doubled, so the Jacobi route applies unchanged.
    """
    H = np.asarray(H, dtype=complex)
    R = np.block([[H.real, -H.imag], [H.imag, H.real]])
    return float(gsym_eigenvalues_reference(R, np.eye(R.shape[0]))[-1])


def scalar_growth_bisection(alpha, lo: float, hi: float,
                            iters: int = 200) -> float:
    """Root of alpha(s) - s^2 on [lo, hi] by plain bisection.

    alpha must be nonincreasing so the root is unique once bracketed.
    """
    flo = alpha(lo) - lo * lo
    fhi = alpha(hi) - hi * hi
    if flo <= 0.0 or fhi >= 0.0:
        raise ValueError("bracket does not straddle the root")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if alpha(mid) - mid * mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def psd_ratio_bisection(N: np.ndarray, D: np.ndarray, B: np.ndarray,
                        lo: float, hi: float, iters: int = 200) -> float:
    """inf{c : N - cD is negative semidefinite} by plain bisection on c.

    The sign of the top eigenvalue of (N - cD, B), from the longhand
    Cholesky + Jacobi route, decides each step with no slack.  D must be
    PSD so that eigenvalue is nonincreasing in c, and the bracket must have
    it positive at lo and nonpositive at hi.
    """
    def top(c):
        return gsym_eigenvalues_reference(N - c * D, B)[-1]

    if top(lo) <= 0.0 or top(hi) > 0.0:
        raise ValueError("bracket does not straddle the ratio")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if top(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
