#!/usr/bin/env python3
"""Run the four bundled figure presets and drop their CSVs under out/figures/.

fig1/fig3/fig4 are Monte Carlo error traces (vs loss probability, step size,
and penalty respectively); fig2 is the stability-boundary sweep. Each preset
runs as `python -m radmm.cli`, the process entry a user's `radmm` command
takes, in a fresh interpreter that imports this radmm. The full presets take
a few seconds on one core.

Each regeneration also writes out/figures/MANIFEST.json: the radmm version,
the loss-mask contract version (`radmm.MASK_CONTRACT`), and per preset its
command and the sha256 of every CSV. With --check nothing under out/ is
written: the presets run again into a temporary directory, and the script
exits 1 unless that output and the committed CSVs both match the manifest.

--check then checks the paper's claims on the committed CSVs, one PASS or
FAIL line each with its numbers, and exits 1 on a FAIL:
- robustness: every fig2 cell with alpha in (0, 1) converged, at every p;
- loss slows convergence: for every (rho, alpha < 1), fig2's median
  convergence round does not decrease as p grows, and neither does fig1's
  late decay rate (the per-round factor fitted where the mean trace lies in
  LATE_WINDOW).
Two numbers are reported and not asserted (REPORT lines): fig2's alpha = 1
column and fig3's fastest-decaying alpha.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import radmm

FIGDIR = Path(__file__).resolve().parent.parent / "out" / "figures"
MANIFEST = FIGDIR / "MANIFEST.json"
PRESETS = [("fig1", "run"), ("fig2", "sweep"), ("fig3", "run"), ("fig4", "run")]
# mean relative errors between which a trace's late decay rate is fitted
LATE_WINDOW = (1e-7, 1e-4)
# the preset commands import the radmm this script imported
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(radmm.__file__).resolve().parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
))


def run_preset(name: str, command: str, out: Path) -> int:
    t0 = time.perf_counter()
    argv = [sys.executable, "-m", "radmm.cli", command, "--preset", name, "--out", str(out)]
    rc = subprocess.run(argv, env=ENV).returncode
    print(f"{name}: exit {rc} in {time.perf_counter() - t0:.1f}s", flush=True)
    return rc


def digests(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.glob("*.csv"))}


def regenerate(root: Path) -> tuple[int, dict]:
    """Run every preset into root/<name>; the worst exit code and the manifest."""
    worst = 0
    presets = {}
    for name, command in PRESETS:
        worst = max(worst, run_preset(name, command, root / name))
        presets[name] = {"command": command, "files": digests(root / name)}
    return worst, {
        "radmm_version": radmm.__version__,
        "mask_contract": radmm.MASK_CONTRACT,
        "presets": presets,
    }


def mismatches(want: dict, got: dict, what: str) -> list[str]:
    out = []
    for key in ("radmm_version", "mask_contract"):
        if got.get(key) != want.get(key):
            out.append(f"{what}: {key} {got.get(key)} != {want.get(key)}")
    for name in sorted(set(want["presets"]) | set(got["presets"])):
        w, g = want["presets"].get(name), got["presets"].get(name)
        if w is None or g is None:
            out.append(f"{what}: preset {name} only in {'the manifest' if g is None else what}")
            continue
        if w["command"] != g["command"]:
            out.append(f"{what}: {name} command {g['command']} != {w['command']}")
        for f in sorted(set(w["files"]) | set(g["files"])):
            if w["files"].get(f) != g["files"].get(f):
                out.append(f"{what}: {name}/{f} differs from the manifest")
    return out


def late_rate(path: Path) -> float:
    """A Monte Carlo trace's late decay rate: exp of the least-squares slope
    of log(mean error) against k over the rounds whose mean error lies in
    LATE_WINDOW; NaN with fewer than two such rounds."""
    ks, logs = [], []
    with path.open(newline="") as f:
        for row in csv.DictReader(f):
            mean = float(row["mean_rel_error"])
            if LATE_WINDOW[0] < mean < LATE_WINDOW[1]:
                ks.append(int(row["k"]))
                logs.append(math.log(mean))
    return math.exp(statistics.linear_regression(ks, logs).slope) if len(ks) > 1 else math.nan


def trace_rates(figdir: Path, name: str, key: str) -> dict[float, float]:
    """`late_rate` of each trace name/name_trace_<key><value>.csv, by value ascending."""
    files = (figdir / name).glob(f"{name}_trace_{key}*.csv")
    return dict(sorted((float(f.stem.rsplit(f"_{key}", 1)[1]), late_rate(f)) for f in files))


def non_decreasing(values: list[float]) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))  # NaN fails


def claims(figdir: Path = FIGDIR) -> list[str]:
    """One line per claim on the CSVs under figdir: PASS or FAIL, its name
    and its numbers; then the REPORT lines, which assert nothing."""
    with (figdir / "fig2" / "fig2_sweep.csv").open(newline="") as f:
        cells = [dict(row, rho=float(row["rho"]), alpha=float(row["alpha"]), p=float(row["p"]))
                 for row in csv.DictReader(f)]
    stable = [c for c in cells if 0 < c["alpha"] < 1]
    converged = sum(c["outcome"] == "converged" for c in stable)
    medians: dict[tuple[float, float], list[float]] = {}
    for c in sorted(stable, key=lambda c: c["p"]):
        medians.setdefault((c["rho"], c["alpha"]), []).append(
            float(c["converged_at_median"] or "nan"))
    ordered = sum(map(non_decreasing, medians.values()))
    rates = trace_rates(figdir, "fig1", "p")
    asserted = [
        (stable and converged == len(stable), "robustness",
         f"{converged} of {len(stable)} fig2 cells with alpha in (0, 1) converged, at p in "
         f"{sorted({c['p'] for c in stable})}"),
        (medians and ordered == len(medians), "loss slows convergence (fig2 medians)",
         f"{ordered} of {len(medians)} (rho, alpha < 1) pairs' median convergence "
         "rounds do not decrease as p grows"),
        (rates and non_decreasing(list(rates.values())), "loss slows convergence (fig1 rate)",
         "late decay rate by p: " + ", ".join(f"{p}: {r:.3f}" for p, r in rates.items())),
    ]
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {numbers}" for ok, name, numbers in asserted]
    edge = sorted((c for c in cells if c["alpha"] == 1), key=lambda c: (c["rho"], c["p"]))
    lines.append("REPORT fig2 alpha = 1: " + "; ".join(
        f"rho {c['rho']} p {c['p']} {c['outcome']}" for c in edge))
    rates = trace_rates(figdir, "fig3", "a")
    lines.append(f"REPORT fig3 fastest-decaying alpha: {min(rates, key=rates.get)} (late decay "
                 "rate by alpha: " + ", ".join(f"{a}: {r:.3f}" for a, r in rates.items()) + ")")
    return lines


def check() -> int:
    want = json.loads(MANIFEST.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        rc, fresh = regenerate(Path(tmp))
    committed = {
        "radmm_version": want["radmm_version"],
        "mask_contract": want.get("mask_contract"),
        "presets": {
            name: dict(entry, files=digests(FIGDIR / name)) for name, entry in want["presets"].items()
        },
    }
    bad = mismatches(want, fresh, "regenerated") + mismatches(want, committed, "committed")
    for line in bad:
        print(line)
    print("figures match the manifest" if not bad else f"{len(bad)} mismatches")
    verdicts = claims()
    for line in verdicts:
        print(line)
    failed = any(line.startswith("FAIL") for line in verdicts)
    return 1 if bad or rc or failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a temporary directory and compare with the manifest")
    args = parser.parse_args()
    if args.check:
        return check()
    rc, manifest = regenerate(FIGDIR)
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
