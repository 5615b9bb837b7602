"""Fail when an `mrt evolve` run breaks its own identities.

Usage: python .github/scripts/evolve_gate.py OUT_DIR [OUT_DIR ...]

Reads OUT_DIR/summary.json of each run and exits 1 when the largest
first-order defect exceeds 1e-8, or when a growing-mode run's largest
energy drift exceeds 1e-6.  Random data put energy into modes far stiffer
than 1/dt, whose dissipation the trapezoidal quadrature does not resolve,
so their drift is reported but not gated.
"""

import json
import sys
from pathlib import Path

DRIFT_MAX = 1e-6
DEFECT_MAX = 1e-8


def main(dirs) -> int:
    failed = False
    for d in dirs:
        s = json.loads((Path(d) / "summary.json").read_text())
        drift, defect = s["max_energy_drift"], s["max_first_order_defect"]
        bad = defect > DEFECT_MAX or (s["seed"] == "growing" and drift > DRIFT_MAX)
        failed |= bad
        print(f"{'FAIL' if bad else 'ok'} {d}: seed {s['seed']}, "
              f"max_energy_drift {drift:.3e}, max_first_order_defect {defect:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
