"""Runs the radmm CLI as a child process and measures it.

Shared by the timed run (run.py) and the traced run (traced.py).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Checks, Workload, sha256

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION = Path(__file__).resolve().parent / "calibration.py"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread per process, so threads x worker processes <= nproc for up
# to nproc workers. radmm's matrices are small, and a second OpenBLAS thread
# only spins: with two, `radmm run` on mc_fig1 used 10% more CPU than wall time.
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cli_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
    return env


def machine(workers: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_per_process": BLAS_THREADS,
        "worker_processes": workers,
    }


@dataclass
class CliResult:
    rc: int
    wall_s: float
    peak_rss_mb: float


def run_cli(args: list[str], env: dict, log: Path) -> CliResult:
    """Run `python -m radmm.cli *args`, with its wall time and peak RSS."""
    with log.open("w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "radmm.cli", *args],
            cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def calibrate(env: dict, seconds: float) -> float:
    """Mean wall time of the calibration job (see calibration.py), run back to
    back until `seconds` have passed, and at least once."""
    walls = []
    while not walls or sum(walls) < seconds:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(CALIBRATION)], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
    return sum(walls) / len(walls)


def generate(cfg: Path, work: Path, env: dict, checks: Checks, reps: int):
    """Run `radmm generate` reps times; return the instance path and wall times."""
    walls, digests = [], set()
    inst = work / "setup" / f"{json.loads(cfg.read_text())['output']['prefix']}_instance.json"
    for i in range(reps):
        r = run_cli(["generate", "--config", str(cfg), "--out", str(inst.parent)], env,
                    work / "generate.log")
        if checks.add(f"generate exit code {r.rc}", r.rc == 0):
            digests.add(sha256(inst))
        walls.append(r.wall_s)
    checks.add("instance identical across set-ups", len(digests) == 1)
    return inst, walls


def main_args(w: Workload, cfg: Path, inst: Path, out: Path, seed: int | None) -> list[str]:
    args = [w.command, "--config", str(cfg), "--instance", str(inst), "--out", str(out),
            "--jobs", "1"]
    return args + ([] if seed is None else ["--seed-override", str(seed)])
