#!/usr/bin/env python3
"""radmm benchmark: times the `radmm` CLI on one workload and checks its outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_fig1 --seed 1 --seconds 10 --trace 0

With --trace 0 it times `radmm generate` (set-up) and then repeats the
workload's main command on the generated instance until --seconds have
passed, and reports the end-to-end metrics. Command times are reported
relative to a calibration job timed around each repetition (see
calibration.py), because the host's speed drifts more than a change to
radmm should be allowed to move them; the raw times are printed too.
With --trace 1 it instead calls each module's public functions in-process
with spans around them and reports per-layer metrics (see traced.py). Either way the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--seed reaches the CLI as --seed-override on the main command only, so the
instance stays the preset's and the seed picks the loss schedules (and the
start vector of `check`). Without --seed the preset seeds are used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from harness import (
    BLAS_THREADS, BLAS_VARS, ROOT, calibrate, cli_env, generate, machine, main_args, run_cli,
)
from workloads import WORKLOADS, Checks, Workload, check_outputs, config_doc, output_files, sha256

SETUP_REPS = 9
# Calibration time after each command, as a share of the command's: a single
# 0.2 s calibration is itself noisy next to a command of several seconds.
CALIBRATION_SHARE = 0.2


def timed(w: Workload, doc: dict, cfg: Path, work: Path, seed: int | None, seconds: float,
          checks: Checks) -> dict:
    """Set-up and command metrics.

    One untimed command warms up. Then the calibration job runs before the
    first timed command and after each one, for CALIBRATION_SHARE of the
    command's time; a command's relative time is its wall time over the mean
    of the calibrations on either side. The command repeats while the next
    repetition, if it and its calibration take as long as the last, still
    ends within `seconds`; the first always runs.
    """
    env = cli_env()
    inst, setup_walls = generate(cfg, work, env, checks, SETUP_REPS)
    out = work / "out"
    warm = run_cli(main_args(w, cfg, inst, out, seed), env, work / "main.log")
    checks.add(f"warm-up {w.command} exit code {warm.rc}", warm.rc == 0)
    walls, cals, rels, rss, units = [], [calibrate(env, CALIBRATION_SHARE * warm.wall_s)], [], [], []
    digests: dict[str, set] = defaultdict(set)
    t0 = time.perf_counter()
    last = 0.0  # time of the last repetition with its calibration
    while not walls or time.perf_counter() - t0 + last <= seconds:
        t1 = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        r = run_cli(main_args(w, cfg, inst, out, seed), env, work / "main.log")
        cals.append(calibrate(env, CALIBRATION_SHARE * r.wall_s))
        checks.add(f"{w.command} exit code {r.rc}", r.rc == 0)
        units.append(check_outputs(w, doc, out, checks))
        for name in output_files(doc):
            if (out / name).is_file():
                digests[name].add(sha256(out / name))
        walls.append(r.wall_s)
        rels.append(r.wall_s / ((cals[-2] + cals[-1]) / 2))
        rss.append(r.peak_rss_mb)
        last = time.perf_counter() - t1
    for name, ds in sorted(digests.items()):
        checks.add(f"{name} identical across repetitions", len(ds) == 1)
        print(f"sha256 {name} {' '.join(sorted(ds))}")
    med = statistics.median
    print(f"{w.command} repetitions: {len(walls)}; wall_s each: "
          + " ".join(f"{x:.4f}" for x in walls))
    print("calibration job wall_s each: " + " ".join(f"{x:.4f}" for x in cals))
    print(f"{w.name} wall_s: {med(walls):.6g} s (raw)")
    print(f"{w.name} {w.rate}: {med(u / x for u, x in zip(units, walls)):.6g} 1/s (raw)")
    print(f"{w.name} calibration_s: {med(cals):.6g} s")
    return {
        "setup_s": (med(setup_walls), "s"),
        "wall_rel": (med(rels), "x"),
        "throughput_rel": (med(u / x for u, x in zip(units, rels)), "1/cal"),
        "peak_rss_mb": (med(rss), "MB"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="loss-schedule seed, passed as --seed-override (default: preset seeds)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "radmm" / "cli.py").is_file():
        print(f"radmm sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    # The traced run starts a 2-worker pool in-process to time it.
    workers = 2 if args.trace else 1
    os.environ.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
    work = ROOT / ".perfbench_work" / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc = config_doc(ROOT, w.name)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(doc, indent=1))
    print("machine", json.dumps(machine(workers)))

    checks = Checks()
    if args.trace:
        sys.path.insert(0, str(ROOT / "src"))
        from traced import traced

        metrics = traced(w, doc, cfg, work, args.seed, checks, cli_env())
    else:
        metrics = timed(w, doc, cfg, work, args.seed, args.seconds, checks)

    for name in checks.failures:
        print(f"FAILED check: {name}")
    print(f"{w.name} failed_ratio: {len(checks.failures)}/{checks.attempted} checks")
    for name, (value, unit) in metrics.items():
        print(f"{w.name} {name}: {value:.6g} {unit}")
    # last line: the machine-readable result
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
