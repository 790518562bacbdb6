"""Command-line entry point: generate instances, run, check, and sweep.

Exit codes: 0 success, 2 invalid input (a malformed config, an invalid
value in the config or instance, or an unreadable config or instance file),
3 numerical divergence, 4 equivalence check failure.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import ExperimentConfig
    from .lossy import LossModel
    from .problem import PartitionProblem

# Each command imports the modules it uses when it runs: `generate` loads no
# solver, a single `run` neither the Monte Carlo harness nor the oracle.

# main() sets these to one BLAS thread when numpy is not loaded yet. The
# blocked LU of `solve_centralized` sums in an order that depends on the
# thread count, and x* reaches every error trace, so outputs would otherwise
# depend on the machine's core count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_EQUIVALENCE = 4


def _load_preset(name: str) -> ExperimentConfig:
    import json
    from importlib import resources

    from .config import ConfigError, parse_config

    ref = resources.files("radmm").joinpath("presets", f"{name}.json")
    try:
        text = ref.read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"unknown preset {name!r}") from exc
    return parse_config(json.loads(text))


def _resolve_config(args) -> ExperimentConfig:
    from .config import ConfigError, load_config, override_seeds

    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    cfg = load_config(args.config) if args.config else _load_preset(args.preset)
    if args.seed_override is not None:
        cfg = override_seeds(cfg, args.seed_override)
    return cfg


def _resolve_instance(cfg: ExperimentConfig, instance_path: str | None) -> PartitionProblem:
    from .config import ConfigError, build_graph, build_problem
    from .problem import problem_from_json

    if instance_path is not None:
        try:
            text = Path(instance_path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read instance {instance_path}: {exc}") from exc
        return problem_from_json(text)
    return build_problem(cfg, build_graph(cfg.graph))


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def cmd_generate(cfg: ExperimentConfig, out_dir: Path) -> int:
    from .config import build_graph, build_problem
    from .problem import problem_to_json

    problem = build_problem(cfg, build_graph(cfg.graph))
    path = _write(out_dir, f"{cfg.output_prefix}_instance.json", problem_to_json(problem))
    print(f"wrote {path}")
    return EXIT_OK


def _combo_suffix(cfg: ExperimentConfig, alpha: float, rho: float, loss_p: float | None) -> str:
    parts = []
    if len(cfg.params.alpha) > 1:
        parts.append(f"_a{alpha!r}")
    if len(cfg.params.rho) > 1:
        parts.append(f"_r{rho!r}")
    if cfg.loss.p is not None and len(cfg.loss.p) > 1 and loss_p is not None:
        parts.append(f"_p{loss_p!r}")
    return "".join(parts)


def _loss_models(cfg: ExperimentConfig, problem: PartitionProblem) -> list[tuple[float | None, LossModel]]:
    """(p, model) per loss value of the config: a uniform model per `loss.p`
    value, or the one `loss.table` model with p None."""
    from .lossy import LossModel

    if cfg.loss.p is None:
        return [(None, LossModel.from_table(problem.graph, cfg.loss.table))]
    return [(loss_p, LossModel.uniform(problem.graph, loss_p)) for loss_p in cfg.loss.p]


def cmd_run(cfg: ExperimentConfig, instance_path: str | None, out_dir: Path) -> int:
    from .engine import AlgorithmParams, _StackedEngine, trace_to_csv
    from .lossy import LossSchedule

    problem = _resolve_instance(cfg, instance_path)
    losses = _loss_models(cfg, problem)
    # a table runs at the tolerance of its worst link; an empty table loses nothing
    settings = [
        (model, cfg.run.resolved_tol(
            max(cfg.loss.table.values(), default=0.0) if loss_p is None else loss_p
        ))
        for loss_p, model in losses
    ]
    # every (alpha, rho) is checked before the engine is built
    grid = [AlgorithmParams(alpha=a, rho=r) for a in cfg.params.alpha for r in cfg.params.rho]
    # one engine for the command; the loss values (times the runs) of each
    # (alpha, rho) advance as one batch, each run bitwise its own `engine.run`
    if cfg.run.runs == 1:
        engine, results = _StackedEngine(problem, cfg.params.rho), []
        for params in grid:
            results += engine.run([
                (LossSchedule(model=model, seed=cfg.loss.seed), params.alpha, params.rho, tol)
                for model, tol in settings
            ], cfg.run.k_max)
        texts = [trace_to_csv(tr) for tr in results]
    else:
        from .experiments import monte_carlo_settings, monte_carlo_to_csv

        cells = [(params, model, tol) for params in grid for model, tol in settings]
        results = monte_carlo_settings(problem, cells, cfg.run.runs, cfg.run.k_max, cfg.loss.seed)
        texts = [monte_carlo_to_csv(mc) for mc in results]
    names = [(params, loss_p) for params in grid for loss_p, _ in losses]
    for (params, loss_p), text in zip(names, texts):
        suffix = _combo_suffix(cfg, params.alpha, params.rho, loss_p)
        path = _write(out_dir, f"{cfg.output_prefix}_trace{suffix}.csv", text)
        print(f"wrote {path}")
    return EXIT_DIVERGED if any(res.diverged for res in results) else EXIT_OK


def cmd_check(cfg: ExperimentConfig, instance_path: str | None, out_dir: Path) -> int:
    from .config import ConfigError
    from .engine import AlgorithmParams
    from .reference import check_equivalence

    if cfg.check is None:
        raise ConfigError("config has no 'check' section")
    problem = _resolve_instance(cfg, instance_path)
    losses = _loss_models(cfg, problem)
    lines = []
    worst = 0.0
    for alpha in cfg.params.alpha:
        for rho in cfg.params.rho:
            params = AlgorithmParams(alpha=alpha, rho=rho)
            for loss_p, model in losses:
                dev = check_equivalence(problem, params, cfg.check.k_max, cfg.check.seed, loss=model)
                worst = max(worst, dev)
                p_text = "table" if loss_p is None else repr(loss_p)
                lines.append(
                    f"alpha={alpha!r} rho={rho!r} p={p_text} k_max={cfg.check.k_max} max_deviation={dev!r}"
                )
    verdict = "PASS" if worst < cfg.check.tol else "FAIL"
    lines.append(f"worst={worst!r} tol={cfg.check.tol!r} {verdict}")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    _write(out_dir, f"{cfg.output_prefix}_check.txt", report)
    return EXIT_OK if verdict == "PASS" else EXIT_EQUIVALENCE


def cmd_sweep(cfg: ExperimentConfig, instance_path: str | None, out_dir: Path) -> int:
    from .config import ConfigError
    from .experiments import stability_sweep, sweep_to_csv

    if cfg.sweep is None:
        raise ConfigError("config has no 'sweep' section")
    problem = _resolve_instance(cfg, instance_path)
    result = stability_sweep(
        problem,
        rho_grid=cfg.sweep.rho,
        alpha_grid=cfg.sweep.alpha,
        loss_grid=cfg.sweep.p,
        runs=cfg.sweep.runs,
        k_max=cfg.sweep.k_max,
        seed=cfg.loss.seed,
        tol=cfg.sweep.tol,
    )
    path = _write(out_dir, f"{cfg.output_prefix}_sweep.csv", sweep_to_csv(result))
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radmm",
        description="Partition-based relaxed ADMM simulator over lossy networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("generate", "generate a graph + problem instance file"),
        ("run", "run the solver and write error-trace CSVs"),
        ("check", "compare node-local rounds against the stacked reference"),
        ("sweep", "classify a (rho, alpha, p) grid and write a sweep CSV"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="path to a config JSON")
        sp.add_argument("--preset", help="name of a bundled preset (fig1..fig4)")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--seed-override", type=int, default=None, help="replace every config seed (testing only)")
        if name == "generate":
            continue
        sp.add_argument("--instance", help="path to an instance JSON (default: generate from config)")
        if name == "run":
            # perfbench/harness.py passes --jobs 1 to every command it times;
            # the next change to the benchmark deletes the flag
            sp.add_argument("--jobs", type=int, default=1, help="ignored: a run uses one process")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "numpy" not in sys.modules:
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    out_dir = Path(args.out)
    try:
        cfg = _resolve_config(args)
        if args.command == "generate":
            return cmd_generate(cfg, out_dir)
        if args.command == "run":
            return cmd_run(cfg, args.instance, out_dir)
        if args.command == "check":
            return cmd_check(cfg, args.instance, out_dir)
        return cmd_sweep(cfg, args.instance, out_dir)
    except ValueError as exc:  # ConfigError, or an invalid config or instance value
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    """The `radmm` command and `python -m radmm.cli`: main(), then exit with
    its code. main() called in-process leaves the collector alone."""
    code = main()
    # Every output file is written and closed by now. At shutdown CPython
    # runs full cyclic collections over every object alive, most of them
    # built by numpy's and radmm's imports, and all they free is cycles from
    # those imports: 16 to 20 ms of a 0.17 to 0.3 s benchmark command.
    # Frozen objects are skipped by that walk but still freed by reference
    # counting, and atexit handlers and the stdio flush still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
