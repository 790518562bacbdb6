#!/usr/bin/env python3
"""Measure radmm end to end and layer by layer, and write BENCH_<label>.json.

    python scripts/bench.py --label baseline               # a few minutes
    python scripts/bench.py --label smoke --quick --out /tmp

Every timing runs with one BLAS thread, and every cold timing in a fresh
interpreter that imports radmm from this checkout's `src`. The document
holds:

- machine: cores, Python, numpy and its BLAS, and whether Python writes
  bytecode (with PYTHONDONTWRITEBYTECODE set, every command compiles radmm);
- import_ms: radmm's own import self time per module, from `python -X
  importtime` importing every module (median over fresh interpreters);
- modules: the radmm modules each subcommand loads;
- run_stages: cold per-stage times of `radmm run`'s path on the
  large_graph benchmark instance (ms): load, solve, engine set-up, rounds;
- engine: per node count N, the graph, instance, solve and engine set-up
  times, the engine's µs per run-round for 1 and for 16 runs, and the
  peak memory numpy and Python allocate inside those runs (KiB, from
  `tracemalloc` in a separate untimed pass);
- presets_s: CLI wall time of each figure preset at full run counts;
- tier1_s: wall time of the Tier-1 suite;
- perfbench: the per-layer metrics of `perfbench/run.py --trace 1`.

--quick times once instead of taking medians, skips N = 1000, the presets,
Tier-1 and the large_graph traced run, and writes the same keys (null where
skipped).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "perfbench"))

from radmm.cli import BLAS_THREAD_VARS  # noqa: E402  (loads no numpy)
from workloads import config_doc  # noqa: E402  (perfbench's workload configs)

os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # children, and numpy here

SCHEMA = "radmm-bench/1"
MODULES = ("cli", "config", "core", "experiments", "graph", "lossy", "problem", "reference")
# (nodes, radius) of the engine points: fig1's graph, then the large_graph
# radius, then one that keeps N = 1000 at ~10 neighbors a node
ENGINE_POINTS = ((10, 0.35), (100, 0.2), (1000, 0.06))
ENGINE_ROUNDS = {10: 200, 100: 100, 1000: 20}
PRESETS = (("fig1", "run"), ("fig2", "sweep"), ("fig3", "run"), ("fig4", "run"))

# One cold pass over `radmm run`'s stages on one instance; prints their times.
STAGES = """
import json, sys, time
from pathlib import Path
from radmm.config import load_config
from radmm.core import _StackedEngine
from radmm.lossy import LossModel, LossSchedule
from radmm.problem import problem_from_json, solve_centralized

cfg = load_config(sys.argv[1])
text = Path(sys.argv[2]).read_text()
t = [time.perf_counter()]
p = problem_from_json(text)
t.append(time.perf_counter())
sol = solve_centralized(p)
t.append(time.perf_counter())
rho = cfg.params.rho[0]
engine = _StackedEngine(p, (rho,))
t.append(time.perf_counter())
loss_p = cfg.loss.p[0]
schedule = LossSchedule(model=LossModel.uniform(p.graph, loss_p), seed=cfg.loss.seed)
(trace,) = engine.run([(schedule, cfg.params.alpha[0], rho, cfg.run.resolved_tol(loss_p))],
                      cfg.run.k_max, sol)
t.append(time.perf_counter())
ms = [1e3 * (b - a) for a, b in zip(t, t[1:])]
print(json.dumps(dict(zip(["load_ms", "solve_ms", "engine_setup_ms", "rounds_ms"], ms),
                      rounds=trace.rounds_executed)))
"""

# The radmm modules one CLI command loads; prints its exit code and them.
LOADED = """
import json, sys
from radmm.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("radmm"))]))
"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def python(args: list[str], **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True, **kw)


def last_json(out: str):
    return json.loads(out.strip().splitlines()[-1])


def median_dict(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "writes_bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def import_ms(reps: int) -> dict:
    """Self time per radmm module, ms, and their total."""
    code = "import " + ", ".join(f"radmm.{m}" for m in MODULES)
    samples = []
    for _ in range(reps):
        selfs = {}
        lines = python(["-X", "importtime", "-c", code]).stderr.splitlines()
        for line in (line for line in lines if line.startswith("import time:")):
            _, self_us, _, name = (part.strip() for part in line.replace(":", "|", 1).split("|"))
            if name == "radmm" or name.startswith("radmm."):
                selfs[name] = int(self_us) / 1e3
        selfs["total"] = sum(selfs.values())
        samples.append(selfs)
    return median_dict(samples)


def modules(work: Path, cfg: Path, cfg_runs1: Path, inst: Path) -> dict:
    out = ["--out", str(work / "modules")]
    commands = {
        "generate": ["generate", "--config", str(cfg), *out],
        "run (runs = 1)": ["run", "--config", str(cfg_runs1), "--instance", str(inst), *out],
        "run (runs > 1)": ["run", "--config", str(cfg), "--instance", str(inst), *out],
        "sweep": ["sweep", "--config", str(cfg), "--instance", str(inst), *out],
        "check": ["check", "--config", str(cfg), "--instance", str(inst), *out],
    }
    loaded = {}
    for name, argv in commands.items():
        code, names = last_json(python(["-c", LOADED, *argv]).stdout)
        if code != 0:
            raise SystemExit(f"`radmm {' '.join(argv)}` exited {code}")
        loaded[name] = names
    return loaded


def run_stages(cfg: Path, inst: Path, reps: int) -> dict:
    return median_dict([last_json(python(["-c", STAGES, str(cfg), str(inst)]).stdout)
                        for _ in range(reps)])


def engine_point(nodes: int, radius: float, reps: int) -> dict:
    """ROADMAP's engine table row: set-up times in ms, µs per run-round and
    the peak KiB allocated inside a run."""
    from radmm.core import AlgorithmParams, _StackedEngine
    from radmm.graph import generate_connected_rgg
    from radmm.lossy import LossModel, LossSchedule
    from radmm.problem import generate_instance, solve_centralized

    def timed(f, *args):
        t0 = time.perf_counter()
        value = f(*args)
        return value, 1e3 * (time.perf_counter() - t0)

    g, graph_ms = timed(generate_connected_rgg, nodes, radius, 7)
    p, instance_ms = timed(generate_instance, g, 2, 3, 11)
    sol, solve_ms = timed(solve_centralized, p)
    params = AlgorithmParams(alpha=0.75, rho=3.0)
    engine, setup_ms = timed(_StackedEngine, p, (params.rho,))
    model, k = LossModel.uniform(g, 0.2), ENGINE_ROUNDS[nodes]
    point = {
        "nodes": nodes,
        "directed_edges": len(engine.edges),
        "graph_ms": graph_ms,
        "instance_ms": instance_ms,
        "solve_ms": solve_ms,
        "engine_setup_ms": setup_ms,
        "rounds": k,
    }
    for runs in (1, 16):
        rows = [(LossSchedule(model=model, seed=r), params.alpha, params.rho, None)
                for r in range(runs)]
        walls = []
        for _ in range(reps):
            traces, ms = timed(lambda: engine.run(rows, k, sol))
            if any(tr.rounds_executed != k for tr in traces):
                raise SystemExit(f"an engine run at N = {nodes} ended before round {k}")
            walls.append(ms)
        point[f"run_round_us_{runs}"] = 1e3 * statistics.median(walls) / (runs * k)
        tracemalloc.start()  # untimed: tracing slows every allocation
        try:
            engine.run(rows, k, sol)
            point[f"run_peak_kib_{runs}"] = tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()
    return point


def presets_s(work: Path, reps: int) -> dict:
    walls = {}
    for name, command in PRESETS:
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            python(["-m", "radmm.cli", command, "--preset", name, "--out", str(work / name)])
            samples.append(time.perf_counter() - t0)
        walls[name] = statistics.median(samples)
    return walls


def tier1_s() -> float:
    t0 = time.perf_counter()
    python(["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    return time.perf_counter() - t0


def perfbench(workload: str) -> dict:
    doc = last_json(python([str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                            "--trace", "1"]).stdout)
    return {"correct": doc["correct"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--out", default=str(ROOT),
                        help="directory to write to (default: the checkout)")
    parser.add_argument("--quick", action="store_true",
                        help="one repetition; skip N = 1000, presets, Tier-1, traced large_graph")
    args = parser.parse_args()
    reps = 1 if args.quick else 5
    out = Path(args.out)
    try:  # before measuring, which takes minutes
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out {out}: {exc.strerror}")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        docs = {name: config_doc(ROOT, name) for name in ("mc_fig1", "large_graph")}
        docs["mc_fig1_runs1"] = dict(docs["mc_fig1"], run=dict(docs["mc_fig1"]["run"], runs=1))
        cfgs = {name: work / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            cfgs[name].write_text(json.dumps(doc))
        inst = {}
        for name in ("mc_fig1", "large_graph"):
            python(["-m", "radmm.cli", "generate", "--config", str(cfgs[name]), "--out", str(work)])
            inst[name] = work / f"{name}_instance.json"  # the workload name is its prefix

        result = {
            "schema": SCHEMA,
            "label": args.label,
            "quick": args.quick,
            "machine": machine(),
            "import_ms": import_ms(reps),
            "modules": modules(work, cfgs["mc_fig1"], cfgs["mc_fig1_runs1"], inst["mc_fig1"]),
            "run_stages": run_stages(cfgs["large_graph"], inst["large_graph"], reps),
            "engine": [engine_point(n, r, reps) for n, r in ENGINE_POINTS
                       if not (args.quick and n > 100)],
            "presets_s": None if args.quick else presets_s(work, 3),
            "tier1_s": None if args.quick else tier1_s(),
            "perfbench": {w: perfbench(w) for w in ("mc_fig1", "large_graph")
                          if not (args.quick and w == "large_graph")},
        }
    path = out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
