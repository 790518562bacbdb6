#!/usr/bin/env python3
"""Measure radmm end to end and layer by layer, and write BENCH_<label>.json.

    python scripts/bench.py --label baseline               # a few minutes
    python scripts/bench.py --label smoke --quick --out /tmp
    python scripts/bench.py --label pr --against ../parent # adds paired numbers

Every timing runs with one BLAS thread, and every cold timing in a fresh
interpreter that imports radmm from this checkout's `src`. The document
holds:

- machine: cores, Python, numpy and its BLAS, the OpenBLAS kernel's core
  name (null if unknown), and whether Python writes bytecode (with
  PYTHONDONTWRITEBYTECODE set, every command compiles radmm);
- import_ms: radmm's own import self time per module, from `python -X
  importtime` importing every module (median over fresh interpreters);
- modules: the radmm modules each subcommand loads;
- run_stages: cold per-stage times of `radmm run`'s path on the
  large_graph benchmark instance (ms): load, engine set-up (which solves
  the problem), rounds;
  the instance file's size (bytes) and the peak memory Python and numpy
  allocate inside `problem_from_json` (KiB, `tracemalloc`, an untimed pass);
- peak_rss_mb and wall_ms: per benchmark workload, the peak RSS (MB) and
  wall time (ms) of its cold `radmm run`, and of the cold `radmm run
  --preset fig1` and `radmm sweep --preset fig2` (medians). Each command
  is launched from a Python process that has not imported numpy: a
  child's `ru_maxrss` is never below its launching process's own peak, so
  a launcher that holds numpy (as perfbench's runner does) reports its own
  heap instead of radmm's;
- engine: per node count N, the graph, instance and engine set-up (with
  the solve) times, the in-process times of decoding the instance's JSON
  text, of checking its costs into a `PartitionProblem` and of
  `local_blocks` (ms, medians of 20 calls per repetition), the engine's µs
  per run-round for 1 and for 16 runs, and the peak memory numpy and
  Python allocate inside those runs (KiB, from `tracemalloc` in a
  separate untimed pass);
- presets_s: CLI wall time of each figure preset at full run counts;
- tier1_s: wall time of the Tier-1 suite;
- perfbench: the per-layer metrics of `perfbench/run.py --trace 1`;
- against (null without --against DIR): `run_stages`, `import_ms` of the
  modules the large_graph `radmm run` loads, `peak_rss_mb` and `wall_ms`,
  of the checkout at DIR and of this one, measured in alternating pairs
  (DIR's first in each) on this checkout's instances. Per number it holds each
  tree's median and quartiles, `wins`, the pairs in which this tree's value
  is lower, and `ratio`, the median and quartiles of this tree's value over
  DIR's, pair by pair (over the pairs in which DIR's value is not zero;
  null if none);
  `import_ms` lists the modules both trees load, and its total is over
  each tree's own. Single cold runs on a shared host drift by tens of
  percent, so only paired numbers compare two trees.

--quick times once instead of taking medians (one pair with --against),
skips N = 1000, the presets, Tier-1 and the large_graph traced run, and
writes the same keys (null where skipped).
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
MODULES = ("cli", "config", "core", "engine", "experiments", "graph", "lossy", "problem",
           "reference")
PAIRS = 11  # alternating pairs of --against (one with --quick)
# (nodes, radius) of the engine points: fig1's graph, then the large_graph
# radius, then one that keeps N = 1000 at ~10 neighbors a node
ENGINE_POINTS = ((10, 0.35), (100, 0.2), (1000, 0.06))
ENGINE_ROUNDS = {10: 200, 100: 100, 1000: 20}
PRESETS = (("fig1", "run"), ("fig2", "sweep"), ("fig3", "run"), ("fig4", "run"))

# One cold pass over `radmm run`'s stages on one instance; prints their times.
STAGES = """
import json, sys, time, tracemalloc
from pathlib import Path
from radmm.config import load_config
from radmm.engine import _StackedEngine
from radmm.lossy import LossModel, LossSchedule
from radmm.problem import problem_from_json

cfg = load_config(sys.argv[1])
path = Path(sys.argv[2])
text = path.read_text()
t = [time.perf_counter()]
p = problem_from_json(text)
t.append(time.perf_counter())
rho = cfg.params.rho[0]
engine = _StackedEngine(p, (rho,))  # solves the problem too
t.append(time.perf_counter())
loss_p = cfg.loss.p[0]
schedule = LossSchedule(model=LossModel.uniform(p.graph, loss_p), seed=cfg.loss.seed)
(trace,) = engine.run([(schedule, cfg.params.alpha[0], rho, cfg.run.resolved_tol(loss_p))],
                      cfg.run.k_max)
t.append(time.perf_counter())
ms = [1e3 * (b - a) for a, b in zip(t, t[1:])]
tracemalloc.start()  # untimed: tracing slows every allocation
problem_from_json(text)
load_peak_kib = tracemalloc.get_traced_memory()[1] / 1024
tracemalloc.stop()
print(json.dumps(dict(zip(["load_ms", "engine_setup_ms", "rounds_ms"], ms),
                      rounds=trace.rounds_executed, load_peak_kib=load_peak_kib,
                      instance_bytes=path.stat().st_size)))
"""

# Runs `radmm argv` cold and prints its exit code, peak RSS (MB) and wall
# time (ms). It imports no numpy, so that its own peak, which the child's
# ru_maxrss cannot fall below, stays under radmm's.
COLD = """
import json, os, subprocess, sys, time
t0 = time.perf_counter()
proc = subprocess.Popen([sys.executable, "-m", "radmm.cli", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
wall_ms = 1e3 * (time.perf_counter() - t0)
if "numpy" in sys.modules:
    sys.exit("the launcher imported numpy")
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, wall_ms]))
"""

# The radmm modules one CLI command loads; prints its exit code and them.
LOADED = """
import json, sys
from radmm.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("radmm"))]))
"""


def python(args: list[str], src: Path = SRC, **kw) -> subprocess.CompletedProcess:
    """Run Python on args in a fresh interpreter that imports radmm from src."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(src)),
                          cwd=ROOT, check=True, capture_output=True, text=True, **kw)


def last_json(out: str):
    return json.loads(out.strip().splitlines()[-1])


def median_dict(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def blas_core() -> str | None:
    """The kernel family OpenBLAS picked for this CPU ("SkylakeX", say), which
    the figure bits depend on; None when numpy bundles no scipy-openblas."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": blas_core(),
        "blas_threads": 1,
        "writes_bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def import_sample(modules: list[str], src: Path = SRC) -> dict:
    """Self time of each radmm module that importing modules loads from
    the tree at src, ms, and their total, from one fresh interpreter."""
    code = "import " + ", ".join(modules)
    selfs = {}
    lines = python(["-X", "importtime", "-c", code], src).stderr.splitlines()
    for line in (line for line in lines if line.startswith("import time:")):
        _, self_us, _, name = (part.strip() for part in line.replace(":", "|", 1).split("|"))
        if name == "radmm" or name.startswith("radmm."):
            selfs[name] = int(self_us) / 1e3
    selfs["total"] = sum(selfs.values())
    return selfs


def import_ms(reps: int) -> dict:
    """Self time per radmm module, ms, and their total (medians)."""
    return median_dict([import_sample([f"radmm.{m}" for m in MODULES]) for _ in range(reps)])


def modules(work: Path, cfg: Path, cfg_runs1: Path, inst: Path) -> dict:
    out = ["--out", str(work / "modules")]
    commands = {
        "generate": ["generate", "--config", str(cfg), *out],
        "run (runs = 1)": ["run", "--config", str(cfg_runs1), "--instance", str(inst), *out],
        "run (runs > 1)": ["run", "--config", str(cfg), "--instance", str(inst), *out],
        "sweep": ["sweep", "--config", str(cfg), "--instance", str(inst), *out],
        "check": ["check", "--config", str(cfg), "--instance", str(inst), *out],
    }
    return {name: loaded(argv) for name, argv in commands.items()}


def loaded(argv: list[str], src: Path = SRC) -> list[str]:
    """The radmm modules `radmm argv` loads from the tree at src."""
    code, names = last_json(python(["-c", LOADED, *argv], src).stdout)
    if code != 0:
        raise SystemExit(f"`radmm {' '.join(argv)}` exited {code}")
    return names


def stages_sample(cfg: Path, inst: Path, src: Path = SRC) -> dict:
    return last_json(python(["-c", STAGES, str(cfg), str(inst)], src).stdout)


def run_stages(cfg: Path, inst: Path, reps: int) -> dict:
    return median_dict([stages_sample(cfg, inst) for _ in range(reps)])


def cold_sample(commands: dict[str, list[str]], src: Path = SRC) -> tuple[dict, dict]:
    """Peak RSS (MB) and wall time (ms) of each `radmm argv` of commands from
    the tree at src, each in a fresh interpreter launched by `COLD`."""
    peaks, walls = {}, {}
    for name, argv in commands.items():
        code, peaks[name], walls[name] = last_json(python(["-c", COLD, *argv], src).stdout)
        if code != 0:
            raise SystemExit(f"`radmm {' '.join(argv)}` exited {code}")
    return peaks, walls


def summary(values: list[float]) -> dict:
    """Median and quartiles; a single value is all three."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def ratio(values: list[float]) -> dict | None:
    """`summary` of per-pair ratios; null when no pair has one."""
    return summary(values) if values else None


def against(other: Path, cfg: Path, inst: Path, commands: dict[str, list[str]],
            pairs: int) -> dict:
    """The `against` section: `run_stages` samples on cfg and inst, the
    import times of the modules the large_graph `radmm run` loads and the
    `cold_sample` of commands, of the tree at other and of this one, in
    alternating pairs."""
    trees = {"against": other / "src", "this": SRC}
    run_path = {name: loaded(commands["large_graph"], src) for name, src in trees.items()}
    samples = {name: ([], [], [], []) for name in trees}
    for _ in range(pairs):
        for name, src in trees.items():
            stages, imports, peaks, walls = samples[name]
            stages.append(stages_sample(cfg, inst, src))
            imports.append(import_sample(run_path[name], src))
            peak, wall = cold_sample(commands, src)
            peaks.append(peak)
            walls.append(wall)
    out = {"pairs": pairs}
    for at, section in enumerate(("run_stages", "import_ms", "peak_rss_mb", "wall_ms")):
        theirs, ours = samples["against"][at], samples["this"][at]
        out[section] = {
            key: {
                "against": summary([s[key] for s in theirs]),
                "this": summary([s[key] for s in ours]),
                "wins": sum(b[key] < a[key] for a, b in zip(theirs, ours)),
                "ratio": ratio([b[key] / a[key] for a, b in zip(theirs, ours) if a[key]]),
            }
            for key in ours[0] if key in theirs[0]
        }
    return out


def engine_point(nodes: int, radius: float, reps: int) -> dict:
    """ROADMAP's engine table row: set-up times in ms, µs per run-round and
    the peak KiB allocated inside a run."""
    from radmm.engine import AlgorithmParams, _StackedEngine
    from radmm.graph import generate_connected_rgg
    from radmm.lossy import LossModel, LossSchedule
    from radmm.problem import (PartitionProblem, generate_instance, problem_from_json,
                               problem_to_json)

    def timed(f, *args):
        t0 = time.perf_counter()
        value = f(*args)
        return value, 1e3 * (time.perf_counter() - t0)

    g, graph_ms = timed(generate_connected_rgg, nodes, radius, 7)
    p, instance_ms = timed(generate_instance, g, 2, 3, 11)
    text = problem_to_json(p)
    loads = {key: statistics.median(timed(f, *args)[1] for _ in range(20 * reps))
             for key, f, args in (("decode_ms", problem_from_json, (text,)),
                                  ("problem_ms", PartitionProblem, (g, p.costs, p.dim)),
                                  ("local_blocks_ms", p.local_blocks, ()))}
    params = AlgorithmParams(alpha=0.75, rho=3.0)
    engine, setup_ms = timed(_StackedEngine, p, (params.rho,))
    model, k = LossModel.uniform(g, 0.2), ENGINE_ROUNDS[nodes]
    point = {
        "nodes": nodes,
        "directed_edges": len(engine.edges),
        "graph_ms": graph_ms,
        "instance_ms": instance_ms,
        **loads,
        "engine_setup_ms": setup_ms,
        "rounds": k,
    }
    for runs in (1, 16):
        rows = [(LossSchedule(model=model, seed=r), params.alpha, params.rho, None)
                for r in range(runs)]
        walls = []
        for _ in range(reps):
            traces, ms = timed(lambda: engine.run(rows, k))
            if any(tr.rounds_executed != k for tr in traces):
                raise SystemExit(f"an engine run at N = {nodes} ended before round {k}")
            walls.append(ms)
        point[f"run_round_us_{runs}"] = 1e3 * statistics.median(walls) / (runs * k)
        tracemalloc.start()  # untimed: tracing slows every allocation
        try:
            engine.run(rows, k)
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
    parser.add_argument("--against", metavar="DIR",
                        help="also measure run_stages, import_ms, peak_rss_mb and wall_ms of the "
                             "checkout at DIR and of this one in alternating pairs")
    args = parser.parse_args()
    other = None if args.against is None else Path(args.against).resolve()
    if other is not None and not (other / "src" / "radmm" / "__init__.py").is_file():
        parser.error(f"--against {args.against}: no radmm checkout (src/radmm) there")
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
        # each workload's `radmm run`, fig1's run (301 engine rows) and fig2's sweep
        commands = {name: ["run", "--config", str(cfgs[name]), "--instance", str(inst[name]),
                           "--out", str(work / "runs" / name)] for name in inst}
        commands["fig1_run"] = ["run", "--preset", "fig1", "--out", str(work / "runs" / "fig1")]
        commands["fig2_sweep"] = ["sweep", "--preset", "fig2", "--out", str(work / "runs" / "fig2")]
        peaks, walls = zip(*(cold_sample(commands) for _ in range(reps)))

        result = {
            "schema": SCHEMA,
            "label": args.label,
            "quick": args.quick,
            "machine": machine(),
            "import_ms": import_ms(reps),
            "modules": modules(work, cfgs["mc_fig1"], cfgs["mc_fig1_runs1"], inst["mc_fig1"]),
            "run_stages": run_stages(cfgs["large_graph"], inst["large_graph"], reps),
            "peak_rss_mb": median_dict(peaks),
            "wall_ms": median_dict(walls),
            "engine": [engine_point(n, r, reps) for n, r in ENGINE_POINTS
                       if not (args.quick and n > 100)],
            "presets_s": None if args.quick else presets_s(work, 3),
            "tier1_s": None if args.quick else tier1_s(),
            "perfbench": {w: perfbench(w) for w in ("mc_fig1", "large_graph")
                          if not (args.quick and w == "large_graph")},
            "against": None if other is None else against(
                other, cfgs["large_graph"], inst["large_graph"], commands,
                1 if args.quick else PAIRS),
        }
    path = out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
