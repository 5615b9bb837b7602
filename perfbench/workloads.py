"""Seeded workload generators: the CLI commands and configs of each workload.

A workload is a fixed list of commands.  The seed draws the inputs (modes,
field strengths, random-data seeds), never how many: every seed of one
workload runs the same commands over the same number of ops, so the work
does not depend on the seed.  One op is one mode, one mesh or one
trajectory.  Why each workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("slab_sweep", "compressible_cr", "box_ladder", "evolve_long")

# |xi| ranges over integer wavenumber pairs (L = 1)
_SLAB_DRAWN = 6
_SLAB_STABLE = ((1, 0), (0, 1))  # m_C(|xi| = 1) = 0.17 < m = 0.2
_CR_MODES = 6
_CR_INTERCHANGE = 2
_BOX_CRITICAL = (16, 24, 32, 40)
_BOX_GROWTH = (16, 20)
_EVOLVE_STEPS = 10_000
_EVOLVE_RANDOM_STEPS = 2_000
_EVOLVE_DT = 0.002


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `mrt <verb> --config <config> --out <dir>`.

    name is unique within the workload and names the output directory;
    op_labels names the ops the command covers, in artifact row order.
    """

    name: str
    verb: str
    config: dict
    op_labels: tuple

    @property
    def ops(self) -> int:
        return len(self.op_labels)


def _pairs(rng: random.Random, k1_range, k2_range, norm_range, count):
    lo, hi = norm_range
    pool = [(a, b) for a in k1_range for b in k2_range
            if lo <= math.hypot(a, b) <= hi]
    return [list(p) for p in rng.sample(pool, count)]


def _mode_labels(modes) -> tuple:
    return tuple(f"xi=({a},{b})" for a, b in modes)


def _slab_sweep(rng: random.Random) -> list:
    base = {"problem": "incompressible", "scheme": "chebyshev", "n": 96,
            "profile": "affine", "rho_mid": 2.0, "beta": 1.0, "m": 0.2,
            "field_dir": 3}
    modes = _pairs(rng, range(0, 9), range(0, 9), (2.0, 8.0), _SLAB_DRAWN)
    modes += [list(p) for p in _SLAB_STABLE]
    return [
        Command("growth", "growth", dict(base, modes=modes), _mode_labels(modes)),
        Command("critical", "critical", dict(base, modes=modes),
                _mode_labels(modes)),
    ]


def _compressible_cr(rng: random.Random) -> list:
    base = {"problem": "compressible", "scheme": "chebyshev", "n": 64,
            "profile": "affine", "rho_mid": 2.0, "beta": 0.5, "mu0": 0.5,
            "pressure_const": 10.0}
    cr_modes = _pairs(rng, range(1, 5), range(0, 4), (1.0, 6.0), _CR_MODES)
    inter = [[0, k] for k in sorted(rng.sample(range(1, 5), _CR_INTERCHANGE))]
    return [
        Command("cr", "cr", dict(base, modes=cr_modes), _mode_labels(cr_modes)),
        Command("growth", "growth", dict(base, modes=inter), _mode_labels(inter)),
    ]


def _box_ladder(rng: random.Random) -> list:
    # the critical configs are fixed so the 32x32 row can be held to the
    # frozen MC2D_32 reference; the seed draws the growth field strength
    base = {"problem": "bounded2d", "profile": "affine", "rho_mid": 2.0,
            "beta": 1.0, "field_dir": 1}
    m = rng.uniform(0.05, 0.2)
    cmds = [Command(f"critical_n{n}", "critical", dict(base, nx=n, nz=n),
                    (f"mesh={n}x{n}",)) for n in _BOX_CRITICAL]
    cmds += [Command(f"growth_n{n}", "growth", dict(base, nx=n, nz=n, m=m),
                     (f"mesh={n}x{n}",)) for n in _BOX_GROWTH]
    return cmds


def _evolve_long(rng: random.Random) -> list:
    base = {"problem": "incompressible", "scheme": "chebyshev", "n": 96,
            "profile": "affine", "rho_mid": 2.0, "beta": 1.0, "field_dir": 3,
            "dt": _EVOLVE_DT, "diagnostics_every": 10}
    # m_C(|xi| >= 2) >= 0.303 > 0.25: the growing seed always grows
    xi = _pairs(rng, range(0, 5), range(0, 5), (2.0, 5.0), 1)[0]
    growing = dict(base, xi=xi, m=rng.uniform(0.1, 0.25), seed="growing",
                   T=_EVOLVE_STEPS * _EVOLVE_DT)
    # above 2/pi every mode is stable: random data must stay bounded
    xi_r = _pairs(rng, range(0, 4), range(0, 4), (1.0, 3.0), 1)[0]
    random_data = dict(base, xi=xi_r, m=rng.uniform(0.7, 0.9), seed="random",
                       seed_rng=rng.randrange(2 ** 31),
                       T=_EVOLVE_RANDOM_STEPS * _EVOLVE_DT)
    return [
        Command("growing", "evolve", growing, (f"growing xi=({xi[0]},{xi[1]})",)),
        Command("random", "evolve", random_data,
                (f"random xi=({xi_r[0]},{xi_r[1]})",)),
    ]


_GENERATORS = {
    "slab_sweep": _slab_sweep,
    "compressible_cr": _compressible_cr,
    "box_ladder": _box_ladder,
    "evolve_long": _evolve_long,
}


def warmup(commands) -> list:
    """Small copies of the commands: one mode, coarse grids, few steps.

    Running them once before timing pays the first-call costs (lazy
    imports, first allocations) outside the timed rounds.
    """
    small = []
    for c in commands:
        cfg = dict(c.config)
        if cfg["problem"] == "bounded2d":
            cfg.update(nx=8, nz=8)
        else:
            cfg["n"] = 16
        if "modes" in cfg:
            cfg["modes"] = cfg["modes"][:1]
        if "T" in cfg:
            cfg["T"] = 100 * cfg["dt"]
        small.append(Command(f"warmup_{c.name}", c.verb, cfg, c.op_labels[:1]))
    return small


def generate(workload: str, seed: int) -> list:
    """The commands of one workload, drawn from the seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
