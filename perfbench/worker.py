"""One fresh benchmark process: set up, run rounds of a workload, check.

run.py starts this process; it is not meant to be run by hand.  Setup is
everything from process start to the first command: interpreter start,
(for a traced run) installing the wrappers, `import mrt.cli`, and writing
the generated configs.  A --probe process stops there and reports its
setup time.  Otherwise the worker runs small copies of the commands once,
untimed, to pay first-call costs, then calls mrt.cli.main in-process for
every command of the workload, one command at a time, in rounds until
--seconds have passed, timing each command, then checks every op and
prints one JSON line.

A traced run alternates untraced and traced rounds in the same process,
starting with an untraced one, so that the trace overhead is the
difference of their medians.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="parent's perf_counter() just before the spawn")
    ap.add_argument("--probe", action="store_true")
    return ap.parse_args(argv)


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS copy mapped into this process."""
    libs = set()
    with open("/proc/self/maps") as f:
        for line in f:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.endswith(".so"):
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment(args, hashes: dict) -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        b = cfg["Build Dependencies"]["blas"]
        return {"name": b.get("name"), "version": b.get("version"),
                "config": b.get("openblas configuration")}

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MRT_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "config_sha256": hashes,
    }


def _artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def main(argv=None) -> int:
    args = _args(argv)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install_lapack_counters(tracer)
    sys.path.insert(0, str(ROOT / "src"))
    import mrt
    import mrt.cli
    if Path(mrt.__file__).resolve().parent != (ROOT / "src" / "mrt").resolve():
        print(f"worker: imported mrt from {mrt.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    cli_main = mrt.cli.main
    if tracer is not None:
        tracing.install_layer_spans(tracer)
        cli_main = tracer.span("cli", cli_main)
    from workloads import generate, warmup

    work = Path(args.work)
    commands = generate(args.workload, args.seed)
    cfg_paths, hashes = {}, {}
    for c in commands:
        blob = json.dumps(c.config, sort_keys=True).encode()
        cfg_paths[c.name] = work / f"{c.name}.json"
        cfg_paths[c.name].write_bytes(blob)
        hashes[c.name] = hashlib.sha256(blob).hexdigest()
    setup_s = perf_counter() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # untimed warm-up: small copies of the commands pay first-call costs
    for c in warmup(commands):
        path = work / f"{c.name}.json"
        path.write_text(json.dumps(c.config))
        try:
            cli_main([c.verb, "--config", str(path), "--out", str(work / c.name)])
        except Exception:  # a real failure shows in the timed rounds
            traceback.print_exc()
        shutil.rmtree(work / c.name, ignore_errors=True)

    # rounds: {"traced", "s", "cmd_s": {name: s}, "rc": {name: rc},
    #          "same": {name: bool}}
    rounds = []
    first = {}      # round-0 artifacts per command
    layer_rounds, cross = [], []
    t_start = perf_counter()
    min_rounds = 3 if tracer is not None else 1
    # stop before a round that would end past --seconds, judged by the last
    while (len(rounds) < min_rounds
           or perf_counter() - t_start + rounds[-1]["s"] <= args.seconds):
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        outroot = work / f"round{r}"
        rcs, cmd_s = {}, {}
        if tracer is not None:
            tracer.reset()
            tracer.active = traced
        for c in commands:
            argv_c = [c.verb, "--config", str(cfg_paths[c.name]),
                      "--out", str(outroot / c.name)]
            t0 = perf_counter()
            try:
                rcs[c.name] = cli_main(argv_c)
            except Exception:  # one broken command must not end the run
                traceback.print_exc()
                rcs[c.name] = None
            cmd_s[c.name] = perf_counter() - t0
        elapsed = sum(cmd_s.values())
        if tracer is not None:
            tracer.active = False
        same, nbytes = {}, 0
        for c in commands:
            blobs = _artifacts(outroot / c.name)
            nbytes += sum(len(b) for b in blobs.values())
            if r == 0:
                first[c.name] = blobs
            same[c.name] = blobs == first[c.name]
        if traced:
            vals = tracing.round_layers(tracer)
            vals["cli.artifact_bytes"] = nbytes
            layer_rounds.append(vals)
            cross.append(tracing.growth_cross_check(tracer))
        if r > 0:
            shutil.rmtree(outroot)
        rounds.append({"traced": traced, "s": elapsed, "cmd_s": cmd_s,
                       "rc": rcs, "same": same})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import OpCheck, check_commands
    ok = [c for c in commands if rounds[0]["rc"][c.name] == 0]
    try:
        verdicts = check_commands(ok, {c.name: work / "round0" / c.name for c in ok})
    except Exception:
        traceback.print_exc()
        verdicts = {c.name: [OpCheck(lab, False, {"error": "check raised"})
                             for lab in c.op_labels] for c in ok}
    attempted = failed = known = 0
    ops = []
    for c in commands:
        rc0 = rounds[0]["rc"][c.name]
        checked = verdicts.get(c.name) or [
            OpCheck(lab, False, {"error": f"exit code {rc0}"}) for lab in c.op_labels]
        # rounds in which the command failed or wrote different bytes
        bad = sum(rd["rc"][c.name] != 0 or not rd["same"][c.name] for rd in rounds)
        good = len(rounds) - bad
        attempted += c.ops * len(rounds)
        failed += c.ops * bad + sum(not v.passed and not v.known for v in checked) * good
        known += sum(not v.passed and bool(v.known) for v in checked) * good
        ops += [{"command": c.name, "verb": c.verb, "op": v.label,
                 "passed": v.passed and not bad, "known": "" if bad else v.known,
                 "info": dict(v.info, bad_rounds=bad)}
                for v in checked]

    result = {
        "setup_s": setup_s,
        "rounds": [{"traced": rd["traced"], "s": rd["s"], "cmd_s": rd["cmd_s"]}
                   for rd in rounds],
        "attempted": attempted,
        "failed": failed,
        "known": known,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "env": environment(args, hashes),
    }
    if tracer is not None:
        result["layer_rounds"] = layer_rounds
        result["cross_checks"] = cross
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
