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


def _l2(w: np.ndarray, *fields) -> float:
    """Weighted L² size of the fields stacked together."""
    return math.sqrt(sum(float(w @ (np.abs(f) ** 2)) for f in fields))


def growing_mode_checks(forms, lam: float, y: np.ndarray):
    """Strong-form checks of a growing mode e^{Λt} with reduced maximizer y.

    Returns (non_vanishing, residual).  non_vanishing maps named functionals
    of the mode to their L² sizes; a genuine growing mode has every one of
    them positive (on compressible interchange modes, ξ₁ = 0, the ∂₁u₃
    entry vanishes by symmetry).  residual is the relative defect of the
    momentum balance in strong form, with the pressure head projected out
    in the incompressible case.

    The velocity is rebuilt from y by the reduction of the modeforms
    module, and the balance is written with the nodal derivative matrices
    d1 and d2 and np.gradient, not with the staggered flux-grid operators
    the forms are assembled from.  That makes it an independent route, but
    a sharp one only where the two kinds of derivative agree.  On chebyshev
    grids the residual reads at the level of the head projection's
    truncation (1e-4 at n = 64).  On fd2 grids the nodal stencils are not
    the staggered ones, and it reads O(1): 2.0 for the vertical field at
    ξ = (2, 0) and 0.87 for the horizontal field at ξ = (2, 1), fd2 n = 64,
    ρ̄ = 2 + x, m = 0.2, while the seeded mode satisfies ẏ(0) = Λy to 1e-12.
    """
    if forms.kind == "incompressible":
        return _incompressible_checks(forms, lam, y)
    return _compressible_checks(forms, lam, y)


def _incompressible_checks(forms, lam, y):
    g1 = forms.grid
    mode = forms.mode
    params = forms.params
    p = forms.profile
    xi1, xi2 = mode.xi
    xin2 = mode.xi_norm2
    nx = math.sqrt(xin2)
    m2 = mode.m * mode.m

    # û₃ = v₃ on the clamped basis, û_⊥ = iφ, and the parallel horizontal
    # component i·v₃′/|ξ|; the density follows from ϱ_t = −ρ̄′u₃
    v3 = g1.clamped @ y[forms.layout["v3"]]
    phi = y[forms.layout["phi"]]
    dv3 = g1.d1 @ v3
    u1 = 1j * (xi1 * dv3 / xin2 - xi2 * phi / nx)
    u2 = 1j * (xi2 * dv3 / xin2 + xi1 * phi / nx)
    u3 = v3.astype(complex)
    rho = -p.drho * v3 / lam
    nv = {
        "u3": _l2(g1.quad, u3),
        "uh": _l2(g1.quad, u1, u2),
        "di_u3": (_l2(g1.flux_weights, g1.deriv_flux @ u3.real)
                  if mode.field_dir == 3 else abs(xi1) * _l2(g1.quad, u3)),
        "rho": _l2(g1.quad, rho),
    }

    def lap(f):
        return g1.d2 @ f - xin2 * f

    # momentum balance without the gradient head
    L = []
    for comp, e3 in ((u1, 0.0), (u2, 0.0), (u3, 1.0)):
        t = -lam * lam * p.rho * comp + lam * params.mu * lap(comp)
        if mode.field_dir == 3:
            t = t + params.lambda0 * m2 * (g1.d2 @ comp)
        else:
            t = t - params.lambda0 * m2 * xi1 * xi1 * comp
        t = t + params.g * p.drho * u3 * e3
        L.append(t)
    L = np.concatenate(L)

    # the scalar head on the flux grid whose gradient best absorbs the
    # imbalance; the residual is what remains
    nf = g1.flux_points.size
    P = g1.flux_to_node
    grad = np.vstack([1j * xi1 * P, 1j * xi2 * P, g1.flux_div])
    w = np.tile(g1.quad, 3)
    A = (grad.conj().T @ (w[:, None] * grad)).real
    rhs = -(grad.conj().T @ (w * L))
    head = np.linalg.solve(A + 1e-30 * np.eye(nf), rhs)
    resid = L + grad @ head

    def wnorm(z):
        return _l2(g1.quad, *z.reshape(3, -1))

    terms = [
        wnorm(np.concatenate([lam * lam * p.rho * c for c in (u1, u2, u3)])),
        wnorm(np.concatenate([lam * params.mu * lap(c) for c in (u1, u2, u3)])),
        wnorm(grad @ head),
        _l2(g1.quad, params.g * p.drho * u3),
    ]
    return nv, wnorm(resid) / max(max(terms), 1e-300)


def _compressible_checks(forms, lam, y):
    g1 = forms.grid
    mode = forms.mode
    params = forms.params
    eq = forms.equilibrium
    p = forms.profile
    xi1, xi2 = mode.xi
    xin2 = mode.xi_norm2
    v1, v2, v3 = (y[forms.layout[k]] for k in ("v1", "v2", "v3"))
    wq = g1.quad
    mc = eq.field
    dmc = eq.dfield

    # divergence d(v) = −ξ₁v₁ − ξ₂v₂ + v₃′, on the flux grid and the nodes
    d_f = (-xi1 * (g1.value_flux @ v1) - xi2 * (g1.value_flux @ v2)
           + g1.deriv_flux @ v3)
    dv3 = g1.d1 @ v3
    d_n = -xi1 * v1 - xi2 * v2 + dv3
    nv = {
        "u3": _l2(wq, v3),
        "dp1_u3": abs(xi1) * _l2(wq, mc * v3),
        "qcomb": _l2(wq, dmc * v3 + mc * (-xi2 * v2 + dv3), mc * xi1 * v2),
        "uh": _l2(wq, v1, v2),
        "div_u": _l2(g1.flux_weights, d_f),
    }
    if float(np.min(p.drho)) >= 0.0:
        nv["div_rho_u"] = _l2(wq, p.rho * d_n + p.drho * v3)

    u = (1j * v1, 1j * v2, v3.astype(complex))
    x = g1.nodes

    def ddx(f):
        # nodal derivative of a scalar that need not vanish at the walls
        return (np.gradient(f.real, x, edge_order=2)
                + 1j * np.gradient(f.imag, x, edge_order=2))

    def lap(f):
        return g1.d2 @ f - xin2 * f

    dc = d_n.astype(complex)
    div_rho_u = p.rho * dc + p.drho * u[2]
    S = params.dpressure(p.rho) * div_rho_u + params.lambda0 * mc * (
        mc * (1j * xi2 * u[1] + dv3) + dmc * u[2])
    dS = (1j * xi1 * S, 1j * xi2 * S, ddx(S))
    ddiv = (1j * xi1 * dc, 1j * xi2 * dc, ddx(dc))

    L = []
    for k in range(3):
        e3 = 1.0 if k == 2 else 0.0
        t = (-lam * lam * p.rho * u[k]
             + params.g * p.drho * u[2] * e3
             + dS[k]
             + params.g * p.rho * d_n * e3
             + params.lambda0 * mc * (mc * (-xi1 * xi1) * u[k])
             + lam * params.mu * lap(u[k])
             + lam * params.mu0 * ddiv[k])
        if k == 0:
            t = t - params.lambda0 * mc * mc * 1j * xi1 * d_n
        L.append(t)

    scales = [
        _l2(wq, *(lam * lam * p.rho * u[k] for k in range(3))),
        _l2(wq, *dS),
        _l2(wq, *(lam * params.mu * lap(u[k]) for k in range(3))),
        _l2(wq, params.g * p.drho * u[2], params.g * p.rho * d_n),
        _l2(wq, *(params.lambda0 * mc * mc * xin2 * u[k] for k in range(3))),
    ]
    return nv, _l2(wq, *L) / max(max(scales), 1e-300)


def stepwise_carriers(rates, rho0, N0, ys, dt: float):
    """ϱ and N after trapezoidal quadrature of ϱ̇ = R_ρ y and Ṅ = R_N y
    along the velocity path ys = (y₀, y₁, …), one step of width dt at a
    time: ϱ ← ϱ + (dt/2)(R_ρ y_old + R_ρ y_new), likewise for each row of N.

    This is the route of an integrator that carries ϱ and N as state and
    evaluates the rate laws at every step; the evolve module recovers them
    from the integrated velocity instead.  rates(y) returns (R_ρ y, R_N y).
    """
    rho = np.array(rho0, dtype=float)
    N = [np.array(c, dtype=float) for c in N0]
    r_old, n_old = rates(ys[0])
    for y in ys[1:]:
        r_new, n_new = rates(y)
        rho = rho + (dt / 2.0) * (r_old + r_new)
        N = [Nk + (dt / 2.0) * (ro + rn) for Nk, ro, rn in zip(N, n_old, n_new)]
        r_old, n_old = r_new, n_new
    return rho, np.array(N)


def newmark_step_reference(M, C, K, dt: float):
    """One average-acceleration step of M ÿ + C ẏ = K y, written plainly:
    cho_solve on its own Cholesky factor of S = M + (dt/2)C − (dt²/4)K,
    four matrix-vector products, and the dissipation rate ẏᵀCẏ formed
    afresh at both ends of the step.

    Returns step(y, v, a, Y, diss) -> (y, v, a, Y, diss), with Y the
    trapezoidal integral of y and diss the integral 2∫ẏᵀCẏ.
    """
    from scipy.linalg import cho_factor, cho_solve

    fac = cho_factor(M + (dt / 2.0) * C - (dt * dt / 4.0) * K, lower=True)

    def step(y, v, a, Y, diss):
        y_pred = y + dt * v + (dt * dt / 4.0) * a
        v_pred = v + (dt / 2.0) * a
        a_new = cho_solve(fac, K @ y_pred - C @ v_pred)
        v_new = v_pred + (dt / 2.0) * a_new
        y_new = y_pred + (dt * dt / 4.0) * a_new
        diss_new = diss + dt * (float(v @ (C @ v))
                                + float(v_new @ (C @ v_new)))
        return y_new, v_new, a_new, Y + (dt / 2.0) * (y + y_new), diss_new

    return step


def congruent_steps_reference(M, C, K, dt: float):
    """The average-acceleration steps in one congruent basis over every
    column, components unsplit: X with XᵀSX = I and XᵀCX = diag(c) from
    the Cholesky factor L of S = M + (dt/2)C − (dt²/4)K and an eigh of
    L⁻¹CL⁻ᵀ, and K̂ = XᵀKX.

    Returns steps(y, v, a, n) -> (y, v, a): the state mapped in by LQ once,
    n steps of â = K̂ŷ_pred − c⊙v̂_pred with plain elementwise predictors
    and correctors, and one map back by X.
    """
    from scipy.linalg import cholesky, eigh, solve_triangular

    h, q = dt / 2.0, dt * dt / 4.0
    L = cholesky(M + h * C - q * K, lower=True)
    Ch = solve_triangular(L, solve_triangular(L, C, lower=True).T, lower=True)
    c, Q = eigh(0.5 * (Ch + Ch.T))
    X = solve_triangular(L, Q, lower=True, trans="T")
    W = L @ Q
    Kh = X.T @ K @ X
    Kh = 0.5 * (Kh + Kh.T)

    def steps(y, v, a, n: int):
        y, v, a = (x @ W for x in (y, v, a))
        for _ in range(n):
            y_pred, v_pred = y + dt * v + q * a, v + h * a
            a = Kh @ y_pred - c * v_pred
            y, v = y_pred + q * a, v_pred + h * a
        return tuple(X @ x for x in (y, v, a))

    return steps


def newmark_step_longdouble(M, C, K, dt: float, refinements: int = 3):
    """The average-acceleration step of newmark_step_reference carried in
    long double: the predictor, the corrector and the right-hand side
    K y_pred − C v_pred are formed in long double, and the solve with
    S = M + (dt/2)C − (dt²/4)K takes a double Cholesky solve and then
    `refinements` rounds of residual refinement, with S and the residual in
    long double (mixed-precision iterative refinement).

    Returns step(y, v, a) -> (y, v, a) on long-double arrays; seed it with
    np.longdouble copies of a double state.
    """
    from scipy.linalg import cho_factor, cho_solve

    ld = np.longdouble
    h, q = ld(dt) / 2, ld(dt) * ld(dt) / 4
    S = M.astype(ld) + h * C.astype(ld) - q * K.astype(ld)
    Cl, Kl = C.astype(ld), K.astype(ld)
    fac = cho_factor(S.astype(float), lower=True)

    def solve(r):
        x = cho_solve(fac, r.astype(float)).astype(ld)
        for _ in range(refinements):
            x = x + cho_solve(fac, (r - S @ x).astype(float))
        return x

    def step(y, v, a):
        y_pred = y + ld(dt) * v + q * a
        v_pred = v + h * a
        a_new = solve(Kl @ y_pred - Cl @ v_pred)
        return y_pred + q * a_new, v_pred + h * a_new, a_new

    return step


def viscous_time(forms) -> float:
    """Slowest decay time of the mode: 1/|spectral abscissa| of
    M ÿ + C ẏ − K y = 0, from its first linearization as the generalized
    problem [[0, I], [K, −C]] z = λ diag(I, M) z (Tisseur & Meerbergen,
    SIAM Review 43, 2001), with no inverse of M formed.  A time scale for
    the tests' horizons, not a checked value: it takes LAPACK's dense QZ
    on the 2n × 2n pencil."""
    from scipy.linalg import eig

    M, C, K = forms.J, forms.V, forms.E
    n = M.shape[0]
    Z, I = np.zeros((n, n)), np.eye(n)
    w = eig(np.block([[Z, I], [K, -C]]), np.block([[I, Z], [Z, M]]),
            right=False)
    absc = float(np.max(w.real))
    if abs(absc) < 1e-300:
        raise ValueError("spectral abscissa vanishes; no viscous time scale")
    return 1.0 / abs(absc)


def psd_ratio_schur(N: np.ndarray, D: np.ndarray, tol: float = 1e-12) -> float:
    """inf{c : N - cD is negative semidefinite} when N is negative definite
    on the kernel of the PSD form D, on the full width in one pass.

    D is eigendecomposed whole (LAPACK through numpy, the only step not
    written out here), its kernel block of N is eliminated by a linear
    solve, N_RR - N_RK N_KK⁻¹ N_KR, and the answer is the top eigenvalue of
    that Schur complement scaled by diag(d_R)^(-1/2) on both sides.
    """
    d, Q = np.linalg.eigh(D)
    in_range = d > tol * float(np.max(np.abs(d)))
    K, R = Q[:, ~in_range], Q[:, in_range]
    Nkk, Nkr = K.T @ N @ K, K.T @ N @ R
    S = R.T @ N @ R - Nkr.T @ np.linalg.solve(Nkk, Nkr)
    h = 1.0 / np.sqrt(d[in_range])
    T = h[:, None] * S * h[None, :]
    return float(np.linalg.eigvalsh(0.5 * (T + T.T))[-1])


def dirichlet_floor(G, w: np.ndarray, m: np.ndarray) -> float:
    """Smallest eigenvalue of the pencil (GᵀWG, diag(m)), W = diag(w): the
    discrete Dirichlet floor of −d²/dx² on a grid whose derivative onto the
    flux points is G (dense or sparse), with flux weights w and nodal
    weights m.  LAPACK through numpy on the scaled matrix
    diag(m)^(-1/2) GᵀWG diag(m)^(-1/2)."""
    G = G.toarray() if hasattr(G, "toarray") else np.asarray(G)
    h = 1.0 / np.sqrt(m)
    T = h[:, None] * (G.T @ (w[:, None] * G)) * h[None, :]
    return float(np.linalg.eigvalsh(0.5 * (T + T.T))[0])


def laplacian_floor(rect) -> float:
    """Smallest Dirichlet eigenvalue of −Δ on a bounded2d.Rect2D: on its
    tensor grid the 2D spectrum is the sum of the two 1D ones, each with
    the uniform weight h at the nodes and the flux points."""
    return sum(dirichlet_floor(G, np.full(n + 1, h), np.full(n, h))
               for G, h, n in ((rect.Gx, rect.hx, rect.nx),
                               (rect.Gz, rect.hz, rect.nz)))


def blocks_read(forms, t) -> set:
    """The names of the layout blocks of forms on which the operator P or
    Q of the term t holds a nonzero column (a stored entry, when sparse):
    the blocks t reads, found by scanning its operators' entries."""
    def nonzero(op):
        if hasattr(op, "getnnz"):
            return op.getnnz(axis=0) > 0
        return np.any(np.asarray(op) != 0.0, axis=0)

    nz = nonzero(t.P) if t.Q is None else nonzero(t.P) | nonzero(t.Q)
    cols = np.arange(forms.size)[t.cols][nz]
    return {name for name, b in forms.layout.items()
            if np.any((cols >= b.start) & (cols < b.stop))}


def components_by_entries(forms) -> tuple:
    """The (columns, grows) components of the block coupling of forms, as
    modeforms.form_components defines them, with each term's blocks found
    by the entry scan of blocks_read: blocks that one E, V or J term reads
    are joined, and a component grows when it holds the blocks of an E
    term that is not a nonpositive square (coef ≤ 0, w ≥ 0, Q None).
    Components come in the order of their first column."""
    names = list(forms.layout)
    root = {k: k for k in names}

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    e_terms = []
    for form in ("E", "V", "J"):
        for t in getattr(forms, "terms_" + form) or ():
            ks = blocks_read(forms, t)
            if form == "E":
                e_terms.append((t, ks))
            roots = sorted({find(k) for k in ks}, key=names.index)
            for r in roots[1:]:
                root[r] = roots[0]
    grows = {find(next(iter(ks))) for t, ks in e_terms
             if ks and not (t.Q is None and t.coef <= 0.0 and np.all(t.w >= 0.0))}
    members = {}
    for k in names:
        members.setdefault(find(k), []).append(k)
    out = []
    for r, ks in members.items():
        cols = np.sort(np.concatenate(
            [np.arange(forms.layout[k].start, forms.layout[k].stop) for k in ks]))
        out.append((cols, r in grows))
    return tuple(sorted(out, key=lambda c: c[0][0]))
