"""Linearized time evolution: identities, guards, and envelope checks."""

import json
from dataclasses import replace

import numpy as np
import pytest

from mrt import dispersion, evolve
from mrt.cli import main
from mrt.dispersion import build_growing_mode, solve_growth_rate
from mrt.errors import IncompatibleData, InputError, SolverFailure
from mrt.evolve import envelope_check, init_state, run_trajectory, step
from mrt.grid1d import Grid1D
from mrt.modeforms import (ModeSpec, assemble_compressible,
                           assemble_incompressible, form_components)
from mrt.profiles import PhysicalParams, build_equilibrium, make_affine_profile

from oracles import (congruent_steps_reference, newmark_step_longdouble,
                     newmark_step_reference, stepwise_carriers, viscous_time)


@pytest.fixture(scope="module")
def growing(forms_std):
    res = solve_growth_rate(forms_std)
    gm = build_growing_mode(forms_std, res)
    return res, gm


@pytest.mark.parametrize("scheme, n", [("chebyshev", 48), ("fd2", 64)])
@pytest.mark.parametrize("case", ["compressible-12", "compressible-31",
                                  "incompressible-h", "incompressible-v"])
def test_forcing_of_the_rates_is_the_energy(scheme, n, case):
    # b(R_rho y, R_N y) = E y: the rate laws read the flux-point samples the
    # energy terms are built from, including the xi1 != 0 field laws of the
    # compressible problem that couple every block
    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.5)
    g1 = Grid1D(scheme, 1.0, n)
    if case.startswith("compressible"):
        eq = build_equilibrium(make_affine_profile(g1, 2.0, 0.5), params, 10.0)
        xi = (1, 2) if case == "compressible-12" else (3, 1)
        forms = assemble_compressible(ModeSpec.from_integers(1.0, *xi), eq,
                                      params, g1)
    else:
        mode = ModeSpec.from_integers(1.0, 2, 1, m=0.3,
                                      field_dir=1 if case.endswith("h") else 3)
        forms = assemble_incompressible(mode, make_affine_profile(g1, 2.0, 1.0),
                                        params, g1)
    laws = evolve.RateLaws(forms)
    y = np.random.default_rng(7).standard_normal(forms.size)
    Ey = forms.E @ y
    b = laws.forcing(*laws.rates(y))
    assert np.max(np.abs(b - Ey)) <= 1e-13 * np.max(np.abs(Ey))


def test_zero_data_stays_zero(forms_std):
    st = init_state(forms_std, np.zeros(forms_std.size))
    rec = run_trajectory(st, T=0.5, dt=0.1)
    assert np.max(rec.norm_u) == 0.0
    assert np.max(rec.norm_N) == 0.0
    assert np.max(np.abs(rec.energy_drift)) == 0.0
    rep = envelope_check(rec)
    assert not rep.flagged


def test_growing_mode_tracks_rate(forms_std, growing):
    res, gm = growing
    lam = res.Lambda
    st = init_state(forms_std, gm.y, gm.rho, gm.N)
    rec = run_trajectory(st, T=1.0 / lam, dt=2e-3 / lam)
    assert abs(rec.fit_rate - lam) <= 1e-4 * lam
    assert np.max(np.abs(rec.energy_drift)) <= 1e-6
    assert np.max(np.abs(rec.first_order_defect)) <= 1e-6
    rep = envelope_check(rec, lam)
    assert not rep.flagged
    # a true eigenmode rides the envelope with constant 1
    for c in rep.constants.values():
        assert c <= 1.0 + 1e-4


def test_energy_drift_second_order(forms_std, growing):
    res, gm = growing
    lam = res.Lambda
    drifts = []
    for dt in (2e-3 / lam, 1e-3 / lam):
        st = init_state(forms_std, gm.y, gm.rho, gm.N)
        rec = run_trajectory(st, T=0.5 / lam, dt=dt)
        drifts.append(np.max(np.abs(rec.energy_drift)))
    ratio = drifts[0] / drifts[1]
    assert 2.5 <= ratio <= 6.0


def test_u0_shape_and_phase_guards(forms_std):
    with pytest.raises(IncompatibleData):
        init_state(forms_std, np.zeros(forms_std.size + 1))
    bad = np.zeros(forms_std.size, dtype=complex)
    bad[0] = 1.0 + 1.0j
    with pytest.raises(IncompatibleData):
        init_state(forms_std, bad)


def test_rho_phase_guard(forms_std):
    n = forms_std.grid.n
    y = np.zeros(forms_std.size)
    # the density perturbation carries the real phase; dominantly imaginary
    # data violates the mode's phase convention
    with pytest.raises(IncompatibleData):
        init_state(forms_std, y, rho0=1.0j * np.ones(n))
    # real content in complex storage passes
    st = init_state(forms_std, y, rho0=(1.0 + 0.0j) * np.ones(n))
    assert st.rho.dtype == float


def test_div_guard(forms_std, growing):
    _, gm = growing
    nf = gm.N[0].shape[0]
    ramp = np.linspace(0.0, 1.0, nf)
    bad = (np.zeros(nf), np.zeros(nf), ramp)
    with pytest.raises(IncompatibleData):
        init_state(forms_std, np.zeros(forms_std.size), N0=bad)


_CASES = ["growing-96", "random-96", "compressible-64"]


def _compressible_forms(k1: int, k2: int):
    """n = 64 compressible forms of the CI config at xi = (k1, k2)."""
    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.5)
    g1 = Grid1D("chebyshev", 1.0, 64)
    eq = build_equilibrium(make_affine_profile(g1, 2.0, 0.5), params, 10.0)
    return assemble_compressible(ModeSpec.from_integers(1.0, k1, k2), eq,
                                 params, g1)


def _case_state(case):
    """Initial state of one of four reference trajectories: the n = 96
    incompressible growing mode at xi = (3, 0), random data on the same grid
    at xi = (2, 1) above the threshold, the n = 64 compressible growing
    mode at xi = (0, 2), and random data on the stable compressible mode
    at xi = (2, 0), whose (v1, v3) block is not contiguous."""
    params = PhysicalParams(g=1.0, lambda0=1.0, mu=0.1, mu0=0.5)
    if case == "compressible-20":
        forms = _compressible_forms(2, 0)
        rng = np.random.default_rng(3)
        return init_state(forms, rng.standard_normal(forms.size),
                          rho0=rng.standard_normal(forms.grid.flux_points.size))
    if case == "compressible-64":
        forms = _compressible_forms(0, 2)
    else:
        g1 = Grid1D("chebyshev", 1.0, 96)
        prof = make_affine_profile(g1, 2.0, 1.0)
        xi, m = ((3, 0), 0.2) if case == "growing-96" else ((2, 1), 0.8)
        forms = assemble_incompressible(
            ModeSpec.from_integers(1.0, *xi, field_dir=3, m=m), prof, params, g1)
    if case == "random-96":
        rng = np.random.default_rng(5)
        return init_state(forms, rng.standard_normal(forms.size),
                          rho0=rng.standard_normal(g1.n))
    gm = build_growing_mode(forms)
    return init_state(forms, gm.y, gm.rho, gm.N)


@pytest.mark.parametrize("case", _CASES)
def test_recovered_carriers_match_stepwise_quadrature(case):
    # rho = rho0 + R_rho Y and N = N0 + R_N Y against the per-step
    # trapezoidal quadrature of the rate laws along the same velocity path
    st = _case_state(case)
    dt = 0.002
    ys = [st.y]
    for _ in range(2000):
        st = step(st, dt)
        ys.append(st.y)
    rho, N = stepwise_carriers(st.ws.rates, st.rho0, st.N0, ys, dt)
    assert np.max(np.abs(st.rho - rho)) <= 1e-9 * np.max(np.abs(rho))
    assert np.max(np.abs(st.N - N)) <= 1e-9 * np.max(np.abs(N))


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("case", _CASES)
def test_step_matches_the_long_double_newmark_oracle(case):
    # against a long-double Newmark step with a refined solve, the congruent
    # step loses at most 4x what the plain double step with its solve loses
    st = _case_state(case)
    forms = st.ws.forms
    dt = 0.002
    ref_step = newmark_step_reference(forms.J, forms.V, forms.E, dt)
    ld_step = newmark_step_longdouble(forms.J, forms.V, forms.E, dt)
    ref = (st.y, st.ydot, st.acc, st.Y, st.diss)
    exact = tuple(x.astype(np.longdouble) for x in (st.y, st.ydot, st.acc))
    done = 0
    for k in (20, 200):
        st = step(st, dt, k - done)
        for _ in range(k - done):
            ref = ref_step(*ref)
            exact = ld_step(*exact)
        done = k
        for name, got, plain, want in zip(("y", "ydot", "acc"),
                                          (st.y, st.ydot, st.acc), ref, exact):
            err, err_ref = _rel_err(got, want), _rel_err(plain, want)
            assert err <= max(4.0 * err_ref, 1e-11), (k, name, err, err_ref)


@pytest.mark.parametrize("case", ["compressible-20", "compressible-64"])
def test_block_step_matches_the_long_double_newmark_oracle(case):
    # xi = (2, 0) and (0, 2) split into two components, the first with the
    # non-contiguous (v1, v3) block.  Against the long-double Newmark step,
    # the block step loses at most 4x what the same congruent step over
    # every column, components unsplit, loses.  The plain step with its
    # solve is no yardstick on random compressible data: there the unsplit
    # congruent step loses 3-20x what it does
    st = _case_state(case)
    forms = st.ws.forms
    dt = 0.002
    ld_step = newmark_step_longdouble(forms.J, forms.V, forms.E, dt)
    unsplit = congruent_steps_reference(forms.J, forms.V, forms.E, dt)
    start = (st.y, st.ydot, st.acc)
    exact = tuple(x.astype(np.longdouble) for x in start)
    done = 0
    for k in (20, 200):
        st = step(st, dt, k - done)
        for _ in range(k - done):
            exact = ld_step(*exact)
        done = k
        for name, got, whole, want in zip(("y", "ydot", "acc"),
                                          (st.y, st.ydot, st.acc),
                                          unsplit(*start, k), exact):
            err, err_ref = _rel_err(got, want), _rel_err(whole, want)
            assert err <= max(4.0 * err_ref, 1e-11), (k, name, err, err_ref)


@pytest.mark.parametrize("case", ["growing-96", "compressible-64"])
def test_steps_in_one_call_match_single_steps(case):
    # each state carries its congruent coordinates into the next call, so
    # how the steps are split into calls does not change the trajectory
    st = _case_state(case)
    dt = 0.002
    many = step(st, dt, 50)
    one = st
    for _ in range(50):
        one = step(one, dt)
    assert many.t == one.t
    for got, want in ((many.y, one.y), (many.ydot, one.ydot),
                      (many.acc, one.acc), (many.Y, one.Y)):
        assert _rel_err(got, want) <= 1e-12
    assert abs(many.diss - one.diss) <= 1e-12 * abs(one.diss)


def test_record_times_accumulate_dt(forms_std):
    st = init_state(forms_std, np.zeros(forms_std.size))
    dt, every = 0.003, 7
    rec = run_trajectory(st, T=0.3, dt=dt, diagnostics_every=every)
    n_steps = int(round(0.3 / dt))
    want, t = [0.0], 0.0
    for k in range(1, n_steps + 1):
        t += dt
        if k % every == 0 or k == n_steps:
            want.append(t)
    assert np.array_equal(rec.times, want)


def test_a_run_solves_once_per_record(forms_std, growing, monkeypatch):
    # one Cholesky and one symmetric eigensolve of the step matrix per
    # component (v3 and phi) per run, and one congruence for the run's step
    # kernel; once the basis is built, no step and no map back solves
    # anything
    _, gm = growing
    st = init_state(forms_std, gm.y, gm.rho, gm.N)
    counts = {"cholesky": 0, "eigh": 0}
    built = []

    def counted(name):
        fn = getattr(evolve, name)

        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)

        return wrapper

    solve_triangular = evolve.solve_triangular

    def solve_while_building(*args, **kw):
        if built:
            raise AssertionError("a step solved a triangular system")
        return solve_triangular(*args, **kw)

    congruence = evolve.RateLaws.congruence

    def marked_congruence(self, dt):
        out = congruence(self, dt)
        built.append(dt)
        return out

    def no_solve(*args, **kw):
        raise AssertionError("a step solved with the mass factor")

    monkeypatch.setattr(evolve, "cholesky", counted("cholesky"))
    monkeypatch.setattr(evolve, "eigh", counted("eigh"))
    monkeypatch.setattr(evolve, "solve_triangular", solve_while_building)
    monkeypatch.setattr(evolve.RateLaws, "congruence", marked_congruence)
    monkeypatch.setattr(evolve, "cho_solve", no_solve)
    rec = run_trajectory(st, T=0.5, dt=0.001, diagnostics_every=25)
    assert len(rec.times) == 21
    assert len(built) == 1
    assert counts == {"cholesky": 2, "eigh": 2}


@pytest.mark.parametrize("layout", ["incompressible", "compressible-02",
                                    "compressible-20", "compressible-12"])
def test_evolution_steps_on_the_growth_pencils_components(layout, forms_std):
    # the evolution's blocks are the components of form_components, the
    # relation the growth pencil keeps its columns from: v3 | phi; {v1} |
    # {v2, v3} at xi1 = 0; {v1, v3} | {v2} at xi2 = 0; one block otherwise.
    # The pencil keeps the components that can grow
    if layout == "incompressible":
        forms = forms_std
        names, grow = [["v3"], ["phi"]], [True, False]
    else:
        k1, k2 = (int(k) for k in layout[-2:])
        forms = _compressible_forms(k1, k2)
        names, grow = {"02": ([["v1"], ["v2", "v3"]], [False, True]),
                       "20": ([["v1", "v3"], ["v2"]], [True, False]),
                       "12": ([["v1", "v2", "v3"]], [True])}[layout[-2:]]
    index = np.arange(forms.size)
    want = [np.concatenate([index[forms.layout[k]] for k in ks]) for ks in names]
    _, blocks = evolve.RateLaws(forms).congruence(0.002)
    got = [index[b.cols] for b in blocks]
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    kept = np.zeros(forms.size, dtype=bool)
    for cols, g in zip(want, grow):
        kept[cols] = g
    assert np.array_equal(dispersion._kept_columns(forms), kept)
    assert [g for _, g in form_components(forms)] == grow


def _within(got, want, tol: float) -> bool:
    """got agrees with want to tol relative to want's largest entry (and
    exactly where want is zero)."""
    return bool(np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)))


@pytest.mark.parametrize("case", _CASES + ["compressible-20"])
def test_congruence_diagonalizes_the_step_matrix_and_the_dissipation(case):
    # on each block, X^T S X = I, X^T V X = diag(c), X^T E X = K, and
    # W^T X = I, so that mapping in by W and back by X is the identity; S,
    # V and E vanish between blocks, and the blocks fill the congruent
    # coordinates in order
    forms = _case_state(case).ws.forms
    dt = 0.002
    c, blocks = evolve.RateLaws(forms).congruence(dt)
    S = forms.J + (dt / 2.0) * forms.V - (dt * dt / 4.0) * forms.E
    index = np.arange(forms.size)
    cols = [index[b.cols] for b in blocks]
    assert np.array_equal(np.sort(np.concatenate(cols)), index)
    assert [b.span.start for b in blocks] == [0] + [b.span.stop for b in blocks][:-1]
    assert blocks[-1].span.stop == c.size == forms.size
    for b, ix in zip(blocks, cols):
        X = b.Xt.T
        eye = np.eye(ix.size)
        sub = np.ix_(ix, ix)
        assert _within(X.T @ S[sub] @ X, eye, 1e-12)
        assert _within(X.T @ forms.V[sub] @ X, np.diag(c[b.span]), 1e-12)
        # E vanishes on v1 at xi1 = 0, and so does K there
        assert _within(X.T @ forms.E[sub] @ X, b.K, 1e-12)
        assert _within(b.W.T @ X, eye, 1e-12)
        assert np.array_equal(b.K, b.K.T)
        rest = np.setdiff1d(index, ix)
        for M in (S, forms.V, forms.E):
            assert not np.any(M[np.ix_(ix, rest)])


class _CountedProducts(np.ndarray):
    """A matrix that counts its products by @, matmul or dot: with a single
    vector in vector_products, with a block of rows in matrix_products."""

    vector_products = 0
    matrix_products = 0

    @classmethod
    def _count(cls, args):
        if any(np.ndim(x) == 1 for x in args):
            cls.vector_products += 1
        else:
            cls.matrix_products += 1

    @staticmethod
    def _plain(args):
        return tuple(x.view(np.ndarray) if isinstance(x, _CountedProducts)
                     else x for x in args)

    def __array_ufunc__(self, ufunc, method, *inputs, **kw):
        if ufunc is np.matmul:
            self._count(inputs)
        return getattr(ufunc, method)(*self._plain(inputs), **kw)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            self._count(args)
        return func(*self._plain(args), **kwargs)


@pytest.mark.parametrize("case", ["growing-96", "compressible-20"])
def test_a_step_applies_one_product_per_block(case, monkeypatch):
    # every matrix of the congruence counts its products with one vector:
    # a step makes one per block, K_b on the predictor's slice; the maps in
    # and back are products with the block of four rows
    st = _case_state(case)
    congruence = evolve.RateLaws.congruence

    def counted_congruence(self, dt):
        c, blocks = congruence(self, dt)
        return c, tuple(b._replace(**{k: getattr(b, k).view(_CountedProducts)
                                      for k in ("K", "W", "Xt")})
                        for b in blocks)

    monkeypatch.setattr(evolve.RateLaws, "congruence", counted_congruence)
    monkeypatch.setattr(_CountedProducts, "vector_products", 0)
    st = step(st, 0.001, 7)
    assert _CountedProducts.vector_products == 7 * 2
    st = step(st, 0.001, 5)
    assert _CountedProducts.vector_products == 12 * 2
    assert type(st.y) is np.ndarray


def _counting_congruence(monkeypatch):
    """Make every matrix of RateLaws.congruence count its products."""
    congruence = evolve.RateLaws.congruence

    def counted_congruence(self, dt):
        c, blocks = congruence(self, dt)
        return c, tuple(b._replace(**{k: getattr(b, k).view(_CountedProducts)
                                      for k in ("K", "W", "Xt")})
                        for b in blocks)

    monkeypatch.setattr(evolve.RateLaws, "congruence", counted_congruence)
    monkeypatch.setattr(_CountedProducts, "vector_products", 0)
    monkeypatch.setattr(_CountedProducts, "matrix_products", 0)


@pytest.mark.parametrize("case", ["growing-96", "compressible-20"])
def test_a_run_applies_one_product_per_block_per_step(case, monkeypatch):
    # 100 steps recorded every 3 give 35 records, read in two blocks of up
    # to 32: one product with K_b per block per step, one map in per block,
    # and one map back per block per record block
    st = _case_state(case)
    _counting_congruence(monkeypatch)
    monkeypatch.setattr(evolve, "_RECORD_BLOCK", 32)
    rec = run_trajectory(st, T=0.1, dt=0.001, diagnostics_every=3)
    assert len(rec.times) == 35
    assert _CountedProducts.vector_products == 100 * 2
    assert _CountedProducts.matrix_products == 2 * (1 + 2)


def _state_records(states):
    """The recorded norms and energy drift of a list of states, each read
    on its own."""
    ws, j0 = states[0].ws, states[0].meta["J0"]
    norms, drift = [], []
    for st in states:
        rho, N = st.carriers()
        norms.append(evolve._norms(ws, st.y[:, None], st.ydot[:, None],
                                   rho[:, None], N[..., None])[:, 0])
        en = float(ws.energy(st.y, st.ydot))
        scale = max(max(1.0, abs(j0)), abs(en) + abs(st.diss))
        drift.append(abs(en + st.diss - j0) / scale)
    return np.array(norms).T, np.array(drift)


@pytest.mark.parametrize("record_block", [1, 32])
@pytest.mark.parametrize("every", [1, 3, 25])
def test_run_records_match_one_step_call_per_interval(every, record_block,
                                                      monkeypatch):
    # the run's one loop against a step call per recorded interval: 101
    # steps, so the last interval is short at every 3 and every 25
    st = _case_state("growing-96")
    dt, n_steps = 0.001, 101
    monkeypatch.setattr(evolve, "_RECORD_BLOCK", record_block)
    rec = run_trajectory(st, T=n_steps * dt, dt=dt, diagnostics_every=every)
    states, done = [st], 0
    while done < n_steps:
        k = min(every, n_steps - done)
        states.append(step(states[-1], dt, k))
        done += k
    assert np.array_equal(rec.times, [s.t for s in states])
    norms, drift = _state_records(states)
    for name, want in zip(("norm_rho", "norm_u", "norm_diu", "norm_ut",
                           "norm_gradu", "norm_N"), norms):
        assert _within(getattr(rec, name), want, 1e-13), name
    assert np.max(np.abs(rec.energy_drift - drift)) <= 1e-13


@pytest.mark.parametrize("case", ["growing-96", "compressible-20"])
def test_long_intervals_run_in_chunks_bit_for_bit(case, monkeypatch):
    # an interval longer than the kernel's buffer runs in chunks that carry
    # the sums of y and v*v on, so 150 steps in chunks of 64 and in one
    # chunk agree to the bit
    st = _case_state(case)
    monkeypatch.setattr(evolve, "_STEP_BLOCK", 64)
    chunked = step(st, 0.001, 150)
    monkeypatch.setattr(evolve, "_STEP_BLOCK", 150)
    whole = step(st, 0.001, 150)
    assert chunked.t == whole.t
    assert chunked.diss == whole.diss and chunked.diss_rate == whole.diss_rate
    for name in ("y", "ydot", "acc", "Y"):
        assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name


def test_record_blocks_match_one_record_at_a_time(forms_std, growing,
                                                  monkeypatch):
    # 400 steps recorded every 3: 135 records in blocks of 32, four full
    # ones and 7 more, the last interval one step long
    _, gm = growing
    st = init_state(forms_std, gm.y, gm.rho, gm.N)
    monkeypatch.setattr(evolve, "_RECORD_BLOCK", 32)
    blocked = run_trajectory(st, T=0.4, dt=0.001, diagnostics_every=3)
    monkeypatch.setattr(evolve, "_RECORD_BLOCK", 1)
    single = run_trajectory(st, T=0.4, dt=0.001, diagnostics_every=3)
    assert len(blocked.times) == 135
    assert np.array_equal(blocked.times, single.times)
    for name in ("norm_rho", "norm_u", "norm_diu", "norm_ut", "norm_gradu",
                 "norm_N"):
        got, want = getattr(blocked, name), getattr(single, name)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
    assert np.max(np.abs(blocked.energy_drift - single.energy_drift)) <= 1e-13
    # the defect is a residual at rounding level, whose floats depend on the
    # shape of the products (one column or a block)
    for rec in (blocked, single):
        assert np.max(rec.first_order_defect) <= 1e-9
    # increments are differences of the carriers, which agree to rounding
    for key, size in (("rho_increment_late", single.norm_rho),
                      ("N_increment_late", single.norm_N)):
        got, want = blocked.ledger[key], single.ledger[key]
        assert abs(got - want) <= 1e-13 * np.max(size), key


def test_first_order_defect_stays_at_rounding_on_decaying_data():
    # above the threshold random data decay by 460x over t = 4; the residual
    # keeps the rounding of the initial sizes, and so does its scale
    rec = run_trajectory(_case_state("random-96"), T=4.0, dt=0.002,
                         diagnostics_every=10)
    assert rec.norm_u[-1] < 1e-2 * rec.norm_u[0]
    assert np.max(rec.first_order_defect) <= 1e-8


def test_non_finite_state_raises_solver_failure(forms_std, growing):
    _, gm = growing
    st = init_state(forms_std, gm.y, gm.rho, gm.N)
    # the finiteness guard after the solve reports it as a solver failure
    with np.errstate(all="ignore"), pytest.raises(SolverFailure):
        step(replace(st, y=st.y * np.inf), 1e-3)


def test_step_validation(forms_std):
    st = init_state(forms_std, np.zeros(forms_std.size))
    with pytest.raises(InputError):
        step(st, 0.0)
    with pytest.raises(InputError):
        step(st, 0.1, 0)


def test_run_trajectory_validation(forms_std):
    st = init_state(forms_std, np.zeros(forms_std.size))
    with pytest.raises(InputError):
        run_trajectory(st, T=-1.0, dt=0.1)
    with pytest.raises(InputError):
        run_trajectory(st, T=1.0, dt=0.1, diagnostics_every=0)


def test_run_trajectory_stops_at_the_horizon(forms_std):
    # a step longer than T used to integrate one step past the horizon
    st = init_state(forms_std, np.zeros(forms_std.size))
    with pytest.raises(InputError):
        run_trajectory(st, T=1.0, dt=2.0)
    assert run_trajectory(st, T=1.0, dt=1.0).times[-1] == 1.0
    # round(T/dt) steps end within dt/2 of T
    assert abs(run_trajectory(st, T=1.0, dt=0.3).times[-1] - 1.0) <= 0.15


def test_record_csv_and_summary(tmp_path, forms_std, growing):
    # `mrt evolve` on the forms_std mode writes the record's rows and fit
    res, gm = growing
    st = init_state(forms_std, gm.y, gm.rho, gm.N)
    rec = run_trajectory(st, T=0.2, dt=0.02, diagnostics_every=2)
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({"problem": "incompressible", "n": 64, "m": 0.2,
                               "xi": [2, 0], "T": 0.2, "dt": 0.02,
                               "diagnostics_every": 2}))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,norm_rho,norm_u,norm_diu,norm_ut,norm_gradu,norm_N,energy_drift"
    # full-precision round trip
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == rec.times[0]
    assert first[2] == rec.norm_u[0]
    s = json.loads((out / "summary.json").read_text())
    assert s["fit"]["lambda"] == rec.fit_rate
    assert "J0" in s and "max_energy_drift" in s


def test_diagnostics_every_keeps_endpoints(forms_std, growing):
    _, gm = growing
    st = init_state(forms_std, gm.y, gm.rho, gm.N)
    rec = run_trajectory(st, T=0.1, dt=0.01, diagnostics_every=4)
    assert rec.times[0] == 0.0
    assert abs(rec.times[-1] - 0.1) <= 1e-12


def test_viscous_time_positive(forms_std):
    tau = viscous_time(forms_std)
    assert tau > 0.0 and np.isfinite(tau)


def test_envelope_flag_threshold(forms_std, growing, monkeypatch):
    res, gm = growing
    st = init_state(forms_std, gm.y, gm.rho, gm.N)
    rec = run_trajectory(st, T=1.0 / res.Lambda, dt=5e-3 / res.Lambda)
    # an understated rate inflates every constant; a tight threshold flags it
    monkeypatch.setattr(evolve, "_FLAG_THRESHOLD", 1.5)
    rep = envelope_check(rec, 0.25 * res.Lambda)
    assert rep.flagged
    ok = envelope_check(rec, res.Lambda)
    assert not ok.flagged
