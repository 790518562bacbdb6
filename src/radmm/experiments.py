"""Experiment harness: Monte Carlo error traces and stability sweeps.

Aggregation happens in the linear error domain; taking logs is left to
whoever renders the data, so traces from different settings stay comparable.
Every run's loss schedule is seeded from the experiment seed and the run's
grid coordinates, which makes results a pure function of the configuration,
whatever else shares its batch.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product

import numpy as np

from ._record import Record
from .config import DEFAULT_TOL_LOSSY
from .engine import AlgorithmParams, RunTrace, _StackedEngine
from .lossy import LossModel, LossSchedule, splitmix64
from .problem import PartitionProblem, Solution, solve_centralized

__all__ = [
    "RunTrace",
    "MonteCarloTrace",
    "SweepResult",
    "monte_carlo",
    "monte_carlo_settings",
    "detect_convergence",
    "stability_sweep",
    "monte_carlo_to_csv",
    "sweep_to_csv",
]


def _sub_seed(*key: int) -> int:
    """A loss seed from ints in [0, 2**64): h <- splitmix64(h + v) over them, from h = 0."""
    h = 0
    for v in key:
        if not 0 <= v < 1 << 64:
            raise ValueError(f"seed keys must be in [0, 2**64), got {v}")
        h = splitmix64(h + v)
    return h


class MonteCarloTrace(Record):
    """Round-wise mean and min/max envelope of the relative error over runs."""

    def __init__(
        self, mean: np.ndarray, low: np.ndarray, high: np.ndarray, diverged: bool, runs: int
    ):
        self.mean = mean
        self.low = low
        self.high = high
        self.diverged = diverged
        self.runs = runs


def monte_carlo(
    p: PartitionProblem,
    params: AlgorithmParams,
    loss_p: float | LossModel,
    runs: int,
    k_max: int,
    seed: int,
    solution: Solution | None = None,
    stop_tol: float | None = None,
) -> MonteCarloTrace:
    """Average the relative-error trace over independently seeded loss schedules.

    loss_p is a uniform loss probability, or a full LossModel for per-edge
    tables. Run r draws its schedule from (seed, r). Aggregates cover the
    rounds all runs executed (they differ only when stop_tol or divergence
    ends a run early); any diverged run marks the whole aggregate diverged.
    """
    (trace,) = monte_carlo_settings(
        p, params, [(loss_p, stop_tol)], runs, k_max, seed, solution=solution
    )
    return trace


def monte_carlo_settings(
    p: PartitionProblem,
    params: AlgorithmParams,
    settings: Sequence[tuple[float | LossModel, float | None]],
    runs: int,
    k_max: int,
    seed: int,
    solution: Solution | None = None,
) -> list[MonteCarloTrace]:
    """`monte_carlo` for each (loss, stop_tol) setting, all runs in one batch.

    Every run of every setting advances in one stacked-engine loop; the
    result for each setting equals its own `monte_carlo` call bitwise.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if solution is None:
        solution = solve_centralized(p)
    rows = []
    for loss, tol in settings:
        model = loss if isinstance(loss, LossModel) else LossModel.uniform(p.graph, loss)
        rows += [
            (LossSchedule(model=model, seed=_sub_seed(seed, r)), params.alpha, params.rho, tol)
            for r in range(runs)
        ]
    traces = _StackedEngine(p, (params.rho,)).run(rows, k_max, solution)
    out = []
    for at in range(0, len(traces), runs):
        group = traces[at : at + runs]
        rounds = min(len(tr.errors) for tr in group)
        stacked = np.stack([tr.errors[:rounds] for tr in group])
        out.append(
            MonteCarloTrace(
                mean=stacked.mean(axis=0),
                low=stacked.min(axis=0),
                high=stacked.max(axis=0),
                diverged=any(tr.diverged for tr in group),
                runs=runs,
            )
        )
    return out


def detect_convergence(trace: RunTrace, tol: float) -> int | None:
    """First round index whose error is below tol.

    Returns None for diverged traces, and None when the trace ends without
    such a crossing (the undecided case).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if trace.diverged:
        return None
    for t, below in enumerate((trace.errors < tol).tolist()):
        if below:
            return t
    return None


class SweepResult(Record):
    """Outcome of a (rho, alpha, loss probability) grid sweep.

    outcomes maps each cell to 'converged' (every run reached tol),
    'diverged' (some run blew up) or 'undecided' (ran out of rounds).
    boundary[(rho, p)] is the last alpha of the convergent prefix of the
    alpha grid, None when even the first alpha failed. converged_at holds
    the median convergence round of converged cells.
    """

    def __init__(
        self,
        grid: list[tuple[float, float, float]],
        outcomes: dict[tuple[float, float, float], str],
        boundary: dict[tuple[float, float], float | None],
        converged_at: dict[tuple[float, float, float], float | None],
    ):
        self.grid = grid
        self.outcomes = outcomes
        self.boundary = boundary
        self.converged_at = converged_at


def stability_sweep(
    p: PartitionProblem,
    rho_grid: list[float],
    alpha_grid: list[float],
    loss_grid: list[float],
    runs: int,
    k_max: int,
    seed: int,
    tol: float = DEFAULT_TOL_LOSSY,
    jobs: int = 1,
) -> SweepResult:
    """Classify every (rho, alpha, p) cell by running `runs` seeded schedules.

    Each grid lists distinct values, since the result keys cells by value.
    Cell (i_rho, i_alpha, i_p) derives its run seeds from the experiment seed
    and its grid indices, so the result does not depend on evaluation order.
    Every run of the grid advances in one batch on one engine. A cell's
    outcome is that of its first run, in run order, that did not converge;
    'converged' if none. jobs is accepted for callers that still pass it
    and must be >= 1; it changes nothing, and the next change to the
    benchmark deletes it (ROADMAP item 4).
    """
    if not (rho_grid and alpha_grid and loss_grid):
        raise ValueError("all sweep grids must be nonempty")
    for axis, values in (("rho", rho_grid), ("alpha", alpha_grid), ("p", loss_grid)):
        if len(set(values)) != len(values):
            raise ValueError(f"{axis} grid repeats a value: {list(values)}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for rho in rho_grid:
        if rho <= 0:
            raise ValueError(f"rho grid must be positive, got {rho}")
    models = [LossModel.uniform(p.graph, loss_p) for loss_p in loss_grid]
    rows = [
        (LossSchedule(model=model, seed=_sub_seed(seed, ir, ia, ip, r)), alpha, rho, tol)
        for ir, rho in enumerate(rho_grid)
        for ia, alpha in enumerate(alpha_grid)
        for ip, model in enumerate(models)
        for r in range(runs)
    ]
    solution = solve_centralized(p)  # first: the engine drops the problem's local_blocks
    traces = _StackedEngine(p, rho_grid).run(rows, k_max, solution)
    grid = list(product(rho_grid, alpha_grid, loss_grid))
    outcomes, converged_at = {}, {}
    for c, cell in enumerate(grid):
        group = traces[c * runs : (c + 1) * runs]
        rounds = [detect_convergence(tr, tol) for tr in group]
        if None in rounds:
            outcomes[cell] = "diverged" if group[rounds.index(None)].diverged else "undecided"
            converged_at[cell] = None
        else:
            outcomes[cell], converged_at[cell] = "converged", float(np.median(rounds))
    boundary: dict[tuple[float, float], float | None] = {}
    for rho, loss_p in product(rho_grid, loss_grid):
        best = None
        for alpha in alpha_grid:
            if outcomes[(rho, alpha, loss_p)] != "converged":
                break
            best = alpha
        boundary[(rho, loss_p)] = best
    return SweepResult(
        grid=grid, outcomes=outcomes, boundary=boundary, converged_at=converged_at
    )


def monte_carlo_to_csv(trace: MonteCarloTrace) -> str:
    lines = ["k,mean_rel_error,min,max"]
    for k in range(len(trace.mean)):
        lines.append(
            f"{k},{float(trace.mean[k])!r},{float(trace.low[k])!r},{float(trace.high[k])!r}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_csv(result: SweepResult) -> str:
    lines = ["rho,alpha,p,outcome,converged_at_median"]
    for cell in result.grid:
        rho, alpha, loss_p = cell
        at = result.converged_at[cell]
        at_txt = "" if at is None else repr(float(at))
        lines.append(f"{rho!r},{alpha!r},{loss_p!r},{result.outcomes[cell]},{at_txt}")
    return "\n".join(lines) + "\n"
