"""Benchmark workloads: bench-owned configs, the CLI command each one times,
and the checks that its outputs are correct.

Every config is derived from the bundled fig1/fig2 presets so that a preset
change reaches the benchmark. Each config also carries a `sweep` section and
a `check` section, which the traced run uses to time the `experiments` and
`reference` layers on that workload's own instance: for mc_fig1 the rho=3
slice of the fig2 grid (fig1 and fig2 share their instance), for large_graph
its own cells.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Monte Carlo runs per loss probability in mc_fig1 (the preset has 100): one
# `radmm run` takes about a second, so a run takes the median of many.
MC_RUNS = 4


class Checks:
    """Correctness checks attempted and failed in one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # radmm subcommand the run times, always with --jobs 1
    rate: str  # name of the workload's throughput metric
    fig1_instance: bool  # runs on the instance the ROADMAP baseline used


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_fig1", "run", "runs_per_s", True),
        Workload("large_graph", "run", "rounds_per_s", False),
    )
}


def _preset(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "radmm" / "presets" / f"{name}.json").read_text())


def _as_list(v) -> list:
    return v if isinstance(v, list) else [v]


def _own_cells_sweep(doc: dict, runs: int) -> dict:
    return {
        "rho": _as_list(doc["params"]["rho"]),
        "alpha": _as_list(doc["params"]["alpha"]),
        "p": _as_list(doc["loss"]["p"]),
        "runs": runs,
        "k_max": doc["run"]["k_max"],
        "tol": doc["run"]["tol"],
    }


def config_doc(root: Path, name: str) -> dict:
    """The radmm-config/1 document of workload `name`."""
    doc = _preset(root, "fig1")
    doc["output"] = {"prefix": name}
    if name == "mc_fig1":
        doc["run"]["runs"] = MC_RUNS
        # One rho of the fig2 grid's four: 57 cells, of which 29 converge, 27
        # diverge and 1 is undecided, as in each rho slice of the full grid.
        doc["sweep"] = dict(_preset(root, "fig2")["sweep"], rho=[3.0])
        return doc
    elif name == "large_graph":
        # radius 0.2 at seed 7: 483 edges, ~450 rounds to tol at p=0.2
        doc["graph"] = {"nodes": 100, "radius": 0.2, "seed": 7}
        doc["loss"]["p"] = 0.2
        doc["run"] = {"k_max": 5000, "runs": 1, "tol": 1e-4}
        # the dense oracle takes ~0.5 s a step here; three steps time it
        doc["check"]["k_max"] = 3
    else:
        raise KeyError(name)
    doc["sweep"] = _own_cells_sweep(doc, runs=1)
    return doc


def output_files(doc: dict) -> list[str]:
    """Files `radmm run` writes, named as cli.py names them."""
    prefix = doc["output"]["prefix"]
    ps = doc["loss"]["p"]
    if isinstance(ps, list) and len(ps) > 1:
        return [f"{prefix}_trace_p{float(p)!r}.csv" for p in ps]
    return [f"{prefix}_trace.csv"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def check_outputs(w: Workload, doc: dict, out: Path, checks: Checks) -> float:
    """Check one command's outputs; return the work it did in `w.rate` units."""
    files = [out / f for f in output_files(doc)]
    if not checks.add(f"{w.name}: outputs exist", all(f.is_file() for f in files)):
        return 0.0
    if w.name == "mc_fig1":
        tol, runs = doc["run"]["tol"], doc["run"]["runs"]
        for f in files:
            rows = _rows(f)
            vals = [(float(r["min"]), float(r["mean_rel_error"]), float(r["max"])) for r in rows]
            checks.add(f"{f.name}: finite", bool(vals) and all(map(math.isfinite, sum(vals, ()))))
            # the mean of R equal values can round an ulp or so away from them
            slack = lambda v: runs * math.ulp(v)
            ordered = all(lo - slack(lo) <= m <= hi + slack(hi) for lo, m, hi in vals)
            checks.add(f"{f.name}: min <= mean <= max", ordered)
            checks.add(f"{f.name}: final min below tol", bool(vals) and vals[-1][0] < tol)
        return float(runs * len(files))
    rows = _rows(files[0])
    checks.add("large_graph: no divergence", all(r["diverged"] == "0" for r in rows))
    checks.add(
        "large_graph: final rel_error below tol",
        bool(rows) and float(rows[-1]["rel_error"]) < doc["run"]["tol"],
    )
    return float(len(rows))
