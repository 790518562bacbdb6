"""Traced run: per-layer metrics from spans around radmm's public functions.

A span records a name, start, end and parent; spans stay in memory and are
written to spans.json in the work directory when the run ends. A span's self
time is its duration minus its children's. Nothing inside `src/radmm` is
edited: the core and reference layers get child spans by swapping a module
attribute for a wrapper while the traced call runs.

Every layer is timed on the workload's own instance and parameters:

- graph, problem: generation, centralized solve and JSON round trip;
- core, lossy: `core.run`'s round loop rebuilt from public calls (`drive`),
  whose error trace must equal `run`'s bitwise for the same schedule;
- reference: `check_equivalence` with its config's check section;
- experiments: `monte_carlo`, and `stability_sweep` at jobs=1 and jobs=2 on
  the config's sweep section, whose CSVs must be byte-equal;
- cli: the main command through the CLI, minus the same library calls.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import radmm.core as core
import radmm.reference as reference
from radmm.config import ExperimentConfig, override_seeds, parse_config
from radmm.core import (
    AlgorithmParams,
    initial_states,
    make_local_solver,
    relative_error,
    run,
    sync_round,
    trace_to_csv,
)
from radmm.experiments import monte_carlo, monte_carlo_to_csv, stability_sweep, sweep_to_csv
from radmm.graph import generate_connected_rgg
from radmm.lossy import DeliveryMask, LossModel, LossSchedule, sample_mask
from radmm.problem import (
    PartitionProblem,
    Solution,
    generate_instance,
    problem_from_json,
    problem_to_json,
    solve_centralized,
)
from radmm.reference import build_constraint_matrices, check_equivalence, reference_step

from harness import generate, main_args, run_cli
from workloads import Checks, Workload, check_outputs, output_files

OUTCOMES = ("converged", "diverged", "undecided")
REPS = 5  # repetitions of the set-up calls (graph, problem)
LOSSLESS_ROUNDS = 100  # rounds of the loss-free core probe
# ROADMAP baseline on the fig1 instance (2 cores, numpy 2.4.6 + OpenBLAS)
BASELINE_US = {
    "core.round_us_lossless": 574.0,
    "core.round_us": 662.0,
    "core.run_round_us": 662.0,
    "lossy.mask_us": 23.0,
}


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index], plus per-name counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """fn with a span around each call; count(result) adds to counts[name]."""
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, now(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
            if count is not None:
                self.counts[name] += count(result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def self_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def durations(self, name: str) -> list[int]:
        return [end - start for n, start, end, _ in self.spans if n == name]


@contextmanager
def patched(module, **attrs):
    saved = {k: getattr(module, k) for k in attrs}
    for k, v in attrs.items():
        setattr(module, k, v)
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(module, k, v)


def drive(t: Tracer, problem, solution, params, schedule, k_max: int, stop_tol):
    """`core.run`'s loop from public calls; returns the error trace and the
    packets delivered.

    Even rounds are a `round` span over sample_mask, sync_round (with
    local_x_update and compute_messages as children) and relative_error. Odd
    rounds are one `round.bare` span with nothing inside, so both kinds sample
    the same stretch of time and their difference is the tracing overhead.
    """
    states = t.call("initial_states", initial_states, problem)
    solvers = [t.call("make_local_solver", make_local_solver, c, params) for c in problem.costs]
    complete = DeliveryMask.complete(problem.graph)
    plain = (sample_mask, sync_round, relative_error, core.local_x_update, core.compute_messages)
    spanned = (
        t.wrap("sample_mask", sample_mask),
        t.wrap("sync_round", sync_round),
        t.wrap("relative_error", relative_error),
        t.wrap("local_x_update", core.local_x_update),
        t.wrap("compute_messages", core.compute_messages, count=len),
    )

    def one_round(states, k, fns):
        mask_of, step, error_of, core.local_x_update, core.compute_messages = fns
        mask = complete if schedule is None else mask_of(schedule, k)
        states = step(states, problem, params, mask, solvers)
        return states, error_of(states, solution), mask

    rounds = (t.wrap("round", one_round), t.wrap("round.bare", one_round))
    errors, delivered = [], 0
    try:
        for k in range(k_max):
            states, err, mask = rounds[k % 2](states, k, (spanned, plain)[k % 2])
            delivered += sum(mask.delivered.values())
            errors.append(err)
            if not err < np.inf or (stop_tol is not None and err < stop_tol):
                break
    finally:
        core.local_x_update, core.compute_messages = plain[3:]
    return np.array(errors), delivered


def _per_round(t: Tracer) -> dict[str, list[int]]:
    """Per-round totals (ns) of each span name below a `round` span, and sync_round self time."""
    owner = []  # index of the enclosing round span, or -1
    totals: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    self_ns = t.self_ns()
    for i, (name, start, end, parent) in enumerate(t.spans):
        r = i if name == "round" else (owner[parent] if parent >= 0 else -1)
        owner.append(r)
        if r >= 0:
            totals[name][r] += end - start
            if name == "sync_round":
                totals["sync_round.self"][r] += self_ns[i]
    rounds = sorted(totals["round"])
    return {name: [per[r] for r in rounds] for name, per in totals.items()}


def _median_us(values: list[int]) -> float:
    return statistics.median(values) / 1e3


def _bitwise(a, b) -> bool:
    return a is not None and b is not None and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class Probe:
    """What the layer probes share: the config, the instance and their output."""

    cfg: ExperimentConfig
    checks: Checks
    problem: PartitionProblem = None
    sol: Solution = None
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    spans: dict = field(default_factory=dict)  # probe name -> Tracer

    def tracer(self, name: str) -> Tracer:
        self.spans[name] = Tracer()
        return self.spans[name]

    @property
    def params(self) -> AlgorithmParams:
        return AlgorithmParams(alpha=self.cfg.params.alpha[0], rho=self.cfg.params.rho[0])

    @property
    def p(self) -> float:
        """The first loss probability above 0: the core and lossy probes run at it."""
        return next(x for x in self.cfg.loss.p if x > 0)


def setup_probe(pr: Probe, cfg0: ExperimentConfig, inst_text: str) -> None:
    """graph and problem layers, on the preset seeds like `radmm generate`."""
    t, m = pr.tracer("setup"), pr.metrics
    gs, ins = cfg0.graph, cfg0.instance
    for _ in range(REPS):
        g = t.call("generate_connected_rgg", generate_connected_rgg,
                   gs.nodes, gs.effective_radius, gs.seed, gs.max_resamples)
        pr.problem = t.call("generate_instance", generate_instance, g, n=ins.dim,
                            r_rows=ins.rows, seed=ins.seed, conditioning=ins.conditioning)
        pr.sol = t.call("solve_centralized", solve_centralized, pr.problem)
        text = t.call("problem_to_json", problem_to_json, pr.problem)
        t.call("problem_from_json", problem_from_json, text)
    pr.checks.add("library instance equals radmm generate output", text == inst_text)
    med_ms = lambda name: statistics.median(t.durations(name)) / 1e6
    m["graph.generate_ms"] = (med_ms("generate_connected_rgg"), "ms")
    m["problem.generate_ms"] = (med_ms("generate_instance"), "ms")
    m["problem.solve_ms"] = (med_ms("solve_centralized"), "ms")
    m["problem.json_ms"] = (med_ms("problem_to_json") + med_ms("problem_from_json"), "ms")
    m["problem.json_bytes"] = (float(len(text.encode())), "B")


def core_probe(pr: Probe) -> None:
    """core and lossy layers: `run` untraced, then the driver on the same
    schedule; then both again for 100 loss-free rounds."""
    cfg, m, checks, problem, sol, params, p = pr.cfg, pr.metrics, pr.checks, pr.problem, pr.sol, pr.params, pr.p
    tol = cfg.run.resolved_tol(p)
    schedule = LossSchedule(model=LossModel.uniform(problem.graph, p), seed=cfg.loss.seed)
    t0 = time.perf_counter()
    ref = run(problem, params, schedule, cfg.run.k_max, solution=sol, stop_tol=tol)
    run_s = time.perf_counter() - t0
    t = pr.tracer("core_lossy")
    errors, delivered = drive(t, problem, sol, params, schedule, cfg.run.k_max, tol)
    checks.add("driver trace equals run() bitwise", _bitwise(errors, ref.errors))
    t_free = pr.tracer("core_lossless")
    ref0 = run(problem, params, None, LOSSLESS_ROUNDS, solution=sol)
    errors0, _ = drive(t_free, problem, sol, params, None, LOSSLESS_ROUNDS, None)
    checks.add("loss-free driver trace equals run() bitwise", _bitwise(errors0, ref0.errors))

    per = _per_round(t)
    messages = t.counts["compute_messages"] / len(per["round"])
    sent = len(errors) * len(problem.graph.directed_edges())
    lost = sent - delivered
    m["core.solver_setup_ms"] = (sum(t.durations("make_local_solver")) / 1e6, "ms")
    m["core.round_us"] = (_median_us(per["round"]), "us")
    m["core.round_us_lossless"] = (_median_us(t_free.durations("round")), "us")
    m["core.x_update_us"] = (_median_us(per["local_x_update"]), "us")
    m["core.messages_us"] = (_median_us(per["compute_messages"]), "us")
    m["core.z_update_us"] = (_median_us(per["sync_round.self"]), "us")
    m["core.metrics_us"] = (_median_us(per["relative_error"]), "us")
    m["core.run_round_us"] = (run_s / ref.rounds_executed * 1e6, "us")
    m["core.rounds_to_tol"] = (float(ref.rounds_executed), "count")
    m["core.messages_per_round"] = (messages, "count")
    # computed, not measured: 2 vectors of n float64 per directed-edge message
    m["core.bytes_per_round"] = (messages * 2 * problem.dim * 8, "B")
    m["lossy.mask_us"] = (_median_us(per["sample_mask"]), "us")
    m["lossy.delivered"] = (float(delivered), "count")
    m["lossy.lost"] = (float(lost), "count")
    m["lossy.observed_loss"] = (lost / sent, "ratio")
    print(f"lossy.observed_loss {lost / sent:.6f} against configured p {p}")
    checks.add("observed loss within 5 sigma of p", abs(lost / sent - p) <= 5 * (p * (1 - p) / sent) ** 0.5)
    bare_us = _median_us(t.durations("round.bare"))
    m["trace.overhead_us"] = (m["core.round_us"][0] - bare_us, "us")
    m["trace.overhead_pct"] = ((m["core.round_us"][0] - bare_us) / bare_us * 100, "%")


def reference_probe(pr: Probe) -> None:
    """reference layer: `check_equivalence` with a span per stacked step."""
    cfg, t = pr.cfg, pr.tracer("reference")
    built = []

    def build(*args):
        built.append(build_constraint_matrices(*args))
        return built[-1]

    with patched(
        reference,
        build_constraint_matrices=t.wrap("build_constraint_matrices", build),
        reference_step=t.wrap("reference_step", reference_step),
        sync_round=t.wrap("sync_round", sync_round),
    ):
        devs = [
            t.call("check_equivalence", check_equivalence, pr.problem,
                   AlgorithmParams(alpha=a, rho=r), cfg.check.k_max, cfg.check.seed)
            for a in cfg.params.alpha for r in cfg.params.rho
        ]
    cm = built[-1]
    built.clear()
    m = pr.metrics
    m["reference.build_ms"] = (statistics.median(t.durations("build_constraint_matrices")) / 1e6, "ms")
    m["reference.step_ms"] = (statistics.median(t.durations("reference_step")) / 1e6, "ms")
    m["reference.dense_bytes"] = (float(cm.a.nbytes + cm.p.nbytes), "B")
    m["reference.max_dev"] = (max(devs), "1")
    pr.checks.add("reference max deviation below check tol", max(devs) < cfg.check.tol)


def experiments_probe(pr: Probe) -> None:
    """experiments layer: Monte Carlo, then the config's sweep at jobs=1 and
    jobs=2, whose outcomes are checked."""
    cfg, m, t = pr.cfg, pr.metrics, pr.tracer("experiments")
    runs = cfg.run.runs
    t.call("monte_carlo", monte_carlo, pr.problem, pr.params, pr.p, runs, cfg.run.k_max,
           cfg.loss.seed, solution=pr.sol, stop_tol=cfg.run.resolved_tol(pr.p))
    s = cfg.sweep
    sweeps = {
        jobs: t.call(f"stability_sweep.jobs{jobs}", stability_sweep, pr.problem, s.rho, s.alpha,
                     s.p, s.runs, s.k_max, cfg.loss.seed, tol=s.tol, jobs=jobs)
        for jobs in (1, 2)
    }
    serial_csv = sweep_to_csv(sweeps[1])
    pr.checks.add("sweep CSV jobs=1 equals jobs=2", serial_csv == sweep_to_csv(sweeps[2]))
    serial_s = t.durations("stability_sweep.jobs1")[0] / 1e9
    pool_s = t.durations("stability_sweep.jobs2")[0] / 1e9
    outcomes = list(sweeps[1].outcomes.values())
    pr.checks.add("sweep outcome labels valid", all(o in OUTCOMES for o in outcomes))
    pr.checks.add("sweep: 0 < alpha < 1 converged", all(
        o == "converged" for (_, alpha, _), o in sweeps[1].outcomes.items() if 0.0 < alpha < 1.0))
    m["experiments.mc_run_ms"] = (t.durations("monte_carlo")[0] / 1e6 / runs, "ms")
    m["experiments.sweep_serial_s"] = (serial_s, "s")
    m["experiments.sweep_jobs2_s"] = (pool_s, "s")
    m["experiments.pool_speedup"] = (serial_s / pool_s, "ratio")
    for label in OUTCOMES:
        m[f"experiments.cells.{label}"] = (float(outcomes.count(label)), "count")


def cli_probe(pr: Probe, files: list[Path], cli_wall_s: float, inst_text: str) -> None:
    """cli layer: the command's wall time minus the library calls it wraps,
    and its outputs against the library's."""
    cfg, m, t = pr.cfg, pr.metrics, pr.tracer("replica")
    t.call("problem_from_json", problem_from_json, inst_text)
    expected = {}
    t.call("solve_centralized", solve_centralized, pr.problem)
    for f, p in zip(files, cfg.loss.p):
        model = LossModel.uniform(pr.problem.graph, p)
        tol = cfg.run.resolved_tol(p)
        if cfg.run.runs == 1:
            tr = t.call("run", run, pr.problem, pr.params, LossSchedule(model=model, seed=cfg.loss.seed),
                        cfg.run.k_max, solution=pr.sol, stop_tol=tol)
            expected[f] = trace_to_csv(tr)
        else:
            mc = t.call("monte_carlo", monte_carlo, pr.problem, pr.params, model, cfg.run.runs,
                        cfg.run.k_max, cfg.loss.seed, solution=pr.sol, stop_tol=tol)
            expected[f] = monte_carlo_to_csv(mc)
    library_s = sum(end - start for _, start, end, parent in t.spans if parent < 0) / 1e9
    for f, text in expected.items():
        pr.checks.add(f"{f.name} equals library output", f.is_file() and f.read_text() == text)
    m["cli.overhead_ms"] = ((cli_wall_s - library_s) * 1e3, "ms")
    m["cli.csv_bytes"] = (float(sum(f.stat().st_size for f in files if f.is_file())), "B")


def traced(w: Workload, doc: dict, cfg_path: Path, work: Path, seed: int | None,
           checks: Checks, env: dict) -> dict:
    """Run every layer probe and the main command once; return the per-layer metrics."""
    cfg0 = parse_config(doc)
    pr = Probe(cfg=cfg0 if seed is None else override_seeds(cfg0, seed), checks=checks)
    inst, _ = generate(cfg_path, work, env, checks, reps=1)
    inst_text = inst.read_text()
    setup_probe(pr, cfg0, inst_text)
    core_probe(pr)
    reference_probe(pr)
    experiments_probe(pr)
    out = work / "out"
    r = run_cli(main_args(w, cfg_path, inst, out, seed), env, work / "main.log")
    checks.add(f"{w.command} exit code {r.rc}", r.rc == 0)
    check_outputs(w, doc, out, checks)
    files = [out / f for f in output_files(doc)]
    cli_probe(pr, files, r.wall_s, inst_text)
    _report(w, pr, work)
    return pr.metrics


def _report(w: Workload, pr: Probe, work: Path) -> None:
    """Print span self times (and the baseline gap on the fig1 instance); save spans."""
    m, spans = pr.metrics, pr.spans
    print(f"{'probe':<12} {'span':<28} {'count':>7} {'total_ms':>11} {'self_ms':>11}")
    for probe, t in spans.items():
        agg: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        for (name, start, end, _), self_ns in zip(t.spans, t.self_ns()):
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += self_ns
        for name, (n, total, self_ns) in agg.items():
            print(f"{probe:<12} {name:<28} {n:>7} {total / 1e6:>11.3f} {self_ns / 1e6:>11.3f}")
    if w.fig1_instance:
        for name, base in BASELINE_US.items():
            got = m[name][0]
            print(f"baseline {name}: {got:.1f} us measured vs {base:.0f} us in ROADMAP "
                  f"({(got - base) / base * 100:+.1f}%)")
    print(f"pool: serial {m['experiments.sweep_serial_s'][0]:.3f} s / jobs=2 "
          f"{m['experiments.sweep_jobs2_s'][0]:.3f} s = {m['experiments.pool_speedup'][0]:.3f}x")
    doc = {probe: t.spans for probe, t in spans.items()}
    (work / "spans.json").write_text(json.dumps(doc))
