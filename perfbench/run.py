"""mrt benchmark: four CLI workloads timed end to end, traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload slab_sweep --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics (run_s, setup_s, peak_rss_mb,
pass_frac); --trace 1 prints the per-layer metrics of tracer.PER_LAYER.
Every op is checked against an independent route (checks.py).  Lines
starting with '#' report the environment, each op's check (pass, FAIL, or
KNOWN for a failure that matches a known defect listed in checks.py) and
the rounds; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  failed counts FAIL op-rounds only; KNOWN
ones lower pass_frac but leave correct true.  The exit code is 0 when a
result was printed, whether or not every check passed; it is non-zero
when no result could be produced, for example in a directory that holds
no mrt sources.

The loop is closed: one client, one command at a time, MRT_THREADS=1 (the
CLI default).  OpenBLAS keeps the thread count it starts with, and the
environment line records it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNTS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_frac", "1", "higher"),
)
SETUP_PROBES = 9
DEADLINE_S = 170.0


def _spawn(args, work: Path, deadline: float, probe: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, MRT_THREADS="1")
    t0 = perf_counter()
    proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _max_info(ops, verb: str, key: str) -> float:
    vals = [op["info"][key] for op in ops
            if op["verb"] == verb and op["info"].get(key) is not None]
    return max(vals, default=0.0)


def _layer_metrics(res: dict) -> tuple:
    """(per-layer values, harness cross-checks passed)."""
    rounds = res["layer_rounds"]
    values = {}
    for name in rounds[0]:
        seq = [r[name] for r in rounds]
        values[name] = seq[0] if name in COUNTS else statistics.median(seq)
    counts_repeat = all(r[k] == rounds[0][k] for r in rounds for k in COUNTS)
    cross = res["cross_checks"]
    cross_ok = all(c["top_pair_in_growth"] == c["evaluations"] for c in cross)
    ops = res["ops"]
    values["dispersion.fixed_point_residual_max"] = _max_info(
        ops, "growth", "fixed_point_residual")
    values["dispersion.cr_rel_err_max"] = _max_info(ops, "cr", "rel_err")
    values["evolve.max_energy_drift"] = _max_info(ops, "evolve", "max_energy_drift")
    values["evolve.fit_rel_err"] = _max_info(ops, "evolve", "fit_rel_err")
    traced = [r["s"] for r in res["rounds"] if r["traced"]]
    plain = [r["s"] for r in res["rounds"] if not r["traced"]]
    values["bench.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"# crosscheck {json.dumps({'counts_repeat': counts_repeat, 'growth': cross})}")
    return values, counts_repeat and cross_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "mrt" / "cli.py").is_file():
        print(f"run.py: no mrt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_spawn(args, work, deadline, probe=True)["setup_s"])
        res = _spawn(args, work, deadline, probe=False)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()

    print(f"# env {json.dumps(res['env'], sort_keys=True)}")
    for op in res["ops"]:
        verdict = "pass" if op["passed"] else "KNOWN" if op["known"] else "FAIL"
        print(f"# op {op['command']} {op['op']} {verdict} {json.dumps(op['info'])}")
    known = sorted({op["known"] for op in res["ops"] if op["known"]})
    print(f"# known_defects {res['known']} op-rounds {json.dumps(known)}")
    times = [r["s"] for r in res["rounds"]]
    print(f"# rounds {len(times)} seconds {json.dumps(times)}")

    correct = res["failed"] == 0
    if args.trace:
        values, harness_ok = _layer_metrics(res)
        correct = correct and harness_ok
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        setups.append(res["setup_s"])
        print(f"# setup_s samples {json.dumps(setups)}")
        # per command, the median over rounds; run_s is their sum
        cmd_s = {name: statistics.median(r["cmd_s"][name] for r in res["rounds"])
                 for name in res["rounds"][0]["cmd_s"]}
        print(f"# command medians {json.dumps(cmd_s)}")
        values = {
            "run_s": sum(cmd_s.values()),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_frac": 1.0 - (res["failed"] + res["known"]) / res["attempted"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
