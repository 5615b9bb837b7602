"""Spans and counters wrapped around each layer's public functions.

Nothing inside src/ is edited: install_lapack_counters() replaces the
public dense eigensolvers and Cholesky factorizations of scipy.linalg and
numpy.linalg before mrt is imported (so `from scipy.linalg import eigh`
inside mrt binds the counting version), and install_layer_spans() then
rebinds every mrt module attribute that refers to a wrapped function.
Wrappers pass straight through while the tracer is inactive.

A span's time is counted once per outermost call of its key, so nested
calls of one key (assemble_cr_forms calling assemble_compressible) are not
counted twice; calls count every call.  Self time is the span's duration
minus the time of the spans it called.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Per-round span and counter store; reset() starts a new round."""

    def __init__(self):
        self.active = False
        self.reset()

    def reset(self):
        self.stack = []                 # frames: [key, child_seconds]
        self.calls = Counter()
        self.time = defaultdict(float)  # outermost-span seconds per key
        self.self_time = defaultdict(float)
        self.within = defaultdict(Counter)  # key -> calls made while key open
        self.records = defaultdict(list)    # key -> hook records

    def _enter(self, key: str):
        for k in {f[0] for f in self.stack}:
            self.within[k][key] += 1
        self.calls[key] += 1

    def span(self, key: str, fn, hook=None):
        """fn wrapped in a timed span; hook(tracer, key, args, result, seconds)."""
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            tr._enter(key)
            frame = [key, 0.0]
            tr.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tr.stack.pop()
                if tr.stack:
                    tr.stack[-1][1] += dt
                tr.self_time[key] += dt - frame[1]
                if all(f[0] != key for f in tr.stack):
                    tr.time[key] += dt
            if hook is not None:
                hook(tr, key, args, out, dt)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn, n3: bool = False):
        """fn wrapped in a call counter; n3 also adds n^3 of the matrix."""
        tr = self

        def wrapper(*args, **kwargs):
            if tr.active:
                tr._enter(key)
                if n3:
                    n = args[0].shape[0]
                    tr.calls["eig_n3"] += n * n * n
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


_EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")
_FACTORIZATIONS = ("cholesky", "cho_factor")


def install_lapack_counters(tr: Tracer):
    """Count dense eigensolves and factorizations at the public entry points.

    Must run before mrt is imported.
    """
    if any(name == "mrt" or name.startswith("mrt.") for name in sys.modules):
        raise RuntimeError("lapack counters must be installed before importing mrt")
    import numpy.linalg
    import scipy.linalg
    for mod in (scipy.linalg, numpy.linalg):
        for name in _EIGENSOLVERS:
            if hasattr(mod, name):
                setattr(mod, name, tr.counter("lapack.eig", getattr(mod, name), n3=True))
        for name in _FACTORIZATIONS:
            if hasattr(mod, name):
                setattr(mod, name, tr.counter("lapack.chol", getattr(mod, name)))


def _nbytes(forms) -> int:
    total = 0
    for m in (forms.E, forms.V, forms.J, forms.D, *forms.aux.values()):
        if m is not None:
            total += m.nbytes
    return total


def _record_forms(tr, key, args, out, dt):
    if all(f[0] != key for f in tr.stack):
        tr.records[key].append(_nbytes(out))


def _record_mesh(tr, key, args, out, dt):
    tr.records[key].append((args[0].nx, dt))


def _record_growth(tr, key, args, out, dt):
    tr.records[key].append(out.evaluations)


def _record_cr(tr, key, args, out, dt):
    tr.records[key].append(len(out.per_mode))


# (module, attribute, span key, hook); classes are wrapped at __init__.
# Every layer function the CLI calls is here, so that cli self time is the
# CLI's own work (validation and artifact writing) and nothing else.
_SPANS = (
    ("mrt.grid1d", "Grid1D.__init__", "grid1d.build", None),
    ("mrt.profiles", "make_affine_profile", "profiles.build", None),
    ("mrt.profiles", "make_tanh_profile", "profiles.build", None),
    ("mrt.profiles", "make_table_profile", "profiles.build", None),
    ("mrt.profiles", "build_equilibrium", "profiles.build", None),
    ("mrt.modeforms", "assemble_incompressible", "modeforms.assemble", _record_forms),
    ("mrt.modeforms", "assemble_compressible", "modeforms.assemble", _record_forms),
    ("mrt.modeforms", "assemble_cr_forms", "modeforms.assemble", _record_forms),
    ("mrt.modeforms", "assemble_quotient", "modeforms.assemble", _record_forms),
    ("mrt.modeforms", "qform_value_ld", "modeforms.qform_ld", None),
    ("mrt.eigcore", "solve_gsym", "eigcore.solve_gsym", None),
    ("mrt.eigcore", "top_pair", "eigcore.top_pair", None),
    ("mrt.eigcore", "refine_top", "eigcore.refine_top", None),
    ("mrt.eigcore", "psd_ratio_sup", "eigcore.psd_ratio_sup", None),
    ("mrt.dispersion", "solve_growth_rate", "dispersion.growth", _record_growth),
    ("mrt.dispersion", "critical_m_sweep", "dispersion.critical", None),
    ("mrt.dispersion", "critical_M", "dispersion.critical", None),
    ("mrt.dispersion", "compute_cr", "dispersion.cr", _record_cr),
    ("mrt.dispersion", "build_growing_mode", "dispersion.growing_mode", None),
    ("mrt.bounded2d", "Rect2D.__init__", "bounded2d.rect", None),
    ("mrt.bounded2d", "assemble_2d_quotient", "bounded2d.assemble", _record_forms),
    ("mrt.bounded2d", "_growth_forms_2d", "bounded2d.assemble", _record_forms),
    ("mrt.bounded2d", "critical_m_2d", "bounded2d.critical", _record_mesh),
    ("mrt.bounded2d", "growth_rate_2d", "bounded2d.growth", _record_mesh),
    ("mrt.evolve", "init_state", "evolve.init", None),
    ("mrt.evolve", "step", "evolve.step", None),
    ("mrt.evolve", "run_trajectory", "evolve.trajectory", None),
    ("mrt.evolve", "envelope_check", "evolve.envelope", None),
)


def install_layer_spans(tr: Tracer):
    """Wrap every function in _SPANS wherever an mrt module binds it."""
    mods = [m for name, m in sorted(sys.modules.items())
            if (name == "mrt" or name.startswith("mrt.")) and m is not None]
    for modname, attr, key, hook in _SPANS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tr.span(key, getattr(cls, meth), hook))
            continue
        fn = getattr(owner, attr)
        wrapped = tr.span(key, fn, hook)
        for m in mods:
            for name, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, name, wrapped)


# per-layer metrics: (name, unit, better); the traced run reports all of them
# on every workload, 0 where the workload does not reach the layer
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "B", "lower"),
    ("grid1d.build_s", "s", "lower"),
    ("profiles.build_s", "s", "lower"),
    ("modeforms.assemble_calls", "count", "lower"),
    ("modeforms.assemble_s", "s", "lower"),
    ("modeforms.dense_bytes", "B", "lower"),
    ("modeforms.qform_ld_calls", "count", "lower"),
    ("modeforms.qform_ld_s", "s", "lower"),
    ("eigcore.solve_gsym_calls", "count", "lower"),
    ("eigcore.solve_gsym_s", "s", "lower"),
    ("eigcore.top_pair_calls", "count", "lower"),
    ("eigcore.refine_top_calls", "count", "lower"),
    ("eigcore.refine_top_s", "s", "lower"),
    ("eigcore.psd_ratio_sup_s", "s", "lower"),
    ("eigcore.dense_eigensolves", "count", "lower"),
    ("eigcore.dense_factorizations", "count", "lower"),
    ("eigcore.eig_n3", "count", "lower"),
    ("dispersion.growth_s", "s", "lower"),
    ("dispersion.growth_self_s", "s", "lower"),
    ("dispersion.alpha_evals_per_mode", "count", "lower"),
    ("dispersion.alpha_evals_max", "count", "lower"),
    ("dispersion.critical_s", "s", "lower"),
    ("dispersion.cr_s", "s", "lower"),
    ("dispersion.eigensolves_per_cr_mode", "count", "lower"),
    ("dispersion.fixed_point_residual_max", "1", "lower"),
    ("dispersion.cr_rel_err_max", "1", "lower"),
    ("bounded2d.critical_s.n16", "s", "lower"),
    ("bounded2d.critical_s.n24", "s", "lower"),
    ("bounded2d.critical_s.n32", "s", "lower"),
    ("bounded2d.critical_s.n40", "s", "lower"),
    ("bounded2d.growth_s.n16", "s", "lower"),
    ("bounded2d.growth_s.n20", "s", "lower"),
    ("bounded2d.dense_bytes", "B", "lower"),
    ("evolve.init_s", "s", "lower"),
    ("evolve.steps", "count", "lower"),
    ("evolve.step_us", "us", "lower"),
    ("evolve.max_energy_drift", "1", "lower"),
    ("evolve.fit_rel_err", "1", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)

# values that depend only on the code and the seed; they must repeat exactly
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "B"))


def _median(xs) -> float:
    xs = sorted(xs)
    if not xs:
        return 0.0
    mid = len(xs) // 2
    return float(xs[mid]) if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def round_layers(tr: Tracer) -> dict:
    """The span- and counter-derived per-layer values of one traced round."""
    t, c, rec = tr.time, tr.calls, tr.records
    evals = rec["dispersion.growth"]
    cr_modes = sum(rec["dispersion.cr"])
    steps = c["evolve.step"]
    out = {
        "cli.self_s": tr.self_time["cli"],
        "grid1d.build_s": t["grid1d.build"],
        "profiles.build_s": t["profiles.build"],
        "modeforms.assemble_calls": c["modeforms.assemble"],
        "modeforms.assemble_s": t["modeforms.assemble"],
        "modeforms.dense_bytes": sum(rec["modeforms.assemble"]),
        "modeforms.qform_ld_calls": c["modeforms.qform_ld"],
        "modeforms.qform_ld_s": t["modeforms.qform_ld"],
        "eigcore.solve_gsym_calls": c["eigcore.solve_gsym"],
        "eigcore.solve_gsym_s": t["eigcore.solve_gsym"],
        "eigcore.top_pair_calls": c["eigcore.top_pair"],
        "eigcore.refine_top_calls": c["eigcore.refine_top"],
        "eigcore.refine_top_s": t["eigcore.refine_top"],
        "eigcore.psd_ratio_sup_s": t["eigcore.psd_ratio_sup"],
        "eigcore.dense_eigensolves": c["lapack.eig"],
        "eigcore.dense_factorizations": c["lapack.chol"],
        "eigcore.eig_n3": c["eig_n3"],
        "dispersion.growth_s": t["dispersion.growth"],
        "dispersion.growth_self_s": tr.self_time["dispersion.growth"],
        "dispersion.alpha_evals_per_mode": _median(evals),
        "dispersion.alpha_evals_max": max(evals, default=0),
        "dispersion.critical_s": t["dispersion.critical"],
        "dispersion.cr_s": t["dispersion.cr"],
        "dispersion.eigensolves_per_cr_mode":
            tr.within["dispersion.cr"]["lapack.eig"] / cr_modes if cr_modes else 0.0,
        "bounded2d.dense_bytes": sum(rec["bounded2d.assemble"]),
        "evolve.init_s": t["evolve.init"],
        "evolve.steps": steps,
        "evolve.step_us": 1e6 * t["evolve.step"] / steps if steps else 0.0,
    }
    for kind in ("critical", "growth"):
        for name, _, _ in PER_LAYER:
            prefix = f"bounded2d.{kind}_s.n"
            if name.startswith(prefix):
                nx = int(name[len(prefix):])
                out[name] = sum(dt for n, dt in rec[f"bounded2d.{kind}"] if n == nx)
    return out


def growth_cross_check(tr: Tracer) -> dict:
    """top_pair calls inside growth solves against their reported evaluations."""
    return {"top_pair_in_growth": tr.within["dispersion.growth"]["eigcore.top_pair"],
            "evaluations": sum(tr.records["dispersion.growth"])}
