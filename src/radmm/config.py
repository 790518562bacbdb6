"""Experiment configuration documents (versioned JSON).

Seeds are always explicit: a config without a seed for any randomized stage
is rejected rather than silently randomized, so every command is a pure
function of its input files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .graph import Graph, generate_connected_rgg, generate_rgg
from .problem import PartitionProblem, generate_instance

SCHEMA_CONFIG = "radmm-config/1"
# Default stop tolerances of a run, loss-free and lossy; `experiments` reads them.
DEFAULT_TOL_LOSSLESS = 1e-6
DEFAULT_TOL_LOSSY = 1e-4


class ConfigError(ValueError):
    """Malformed or incomplete configuration."""


@dataclass
class GraphSpec:
    nodes: int
    radius: float
    seed: int
    require_connected: bool = True
    max_resamples: int = 10000
    radius_override: float | None = None

    @property
    def effective_radius(self) -> float:
        return self.radius if self.radius_override is None else self.radius_override


@dataclass
class InstanceSpec:
    dim: int
    rows: int
    seed: int
    conditioning: float = 10.0


@dataclass
class ParamsSpec:
    """alpha and rho, each a list so presets can sweep one axis."""

    alpha: list[float]
    rho: list[float]


@dataclass
class LossSpec:
    seed: int
    p: list[float] | None = None
    table: dict[tuple[int, int], float] | None = None


@dataclass
class RunSpec:
    k_max: int = 5000
    runs: int = 1
    tol: float | None = None

    def resolved_tol(self, loss_p: float) -> float:
        if self.tol is not None:
            return self.tol
        return DEFAULT_TOL_LOSSLESS if loss_p == 0.0 else DEFAULT_TOL_LOSSY


@dataclass
class SweepSpec:
    rho: list[float]
    alpha: list[float]
    p: list[float]
    runs: int = 3
    k_max: int = 2000
    tol: float = DEFAULT_TOL_LOSSY


@dataclass
class CheckSpec:
    seed: int
    k_max: int = 50
    tol: float = 1e-9


@dataclass
class ExperimentConfig:
    graph: GraphSpec
    instance: InstanceSpec
    params: ParamsSpec
    loss: LossSpec
    run: RunSpec
    output_prefix: str
    sweep: SweepSpec | None = None
    check: CheckSpec | None = None


def _integer(v, key: str) -> int:
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ConfigError(f"'{key}' must be an integer, got {v!r}")


def _number(v, key: str) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise ConfigError(f"'{key}' must be a number, got {v!r}")


def _boolean(v, key: str) -> bool:
    if isinstance(v, bool):
        return v
    raise ConfigError(f"'{key}' must be true or false, got {v!r}")


def _string(v, key: str) -> str:
    if isinstance(v, str):
        return v
    raise ConfigError(f"'{key}' must be a string, got {v!r}")


def _numbers(v, key: str) -> list[float]:
    """A number or a nonempty list of numbers, as a list of floats."""
    items = v if isinstance(v, list) else [v]
    if not items:
        raise ConfigError(f"'{key}' must be a number or a nonempty list of numbers")
    return [_number(x, key) for x in items]


def _table(v, key: str) -> dict[tuple[int, int], float]:
    if not isinstance(v, dict):
        raise ConfigError(f"'{key}' must be an object mapping 'i->j' to numbers")
    return {_parse_edge_key(k): _number(p, f"{key}.{k}") for k, p in v.items()}


def _parse_edge_key(key: str) -> tuple[int, int]:
    try:
        a, b = key.split("->")
        return int(a), int(b)
    except ValueError as exc:
        raise ConfigError(f"loss table key {key!r} must look like 'i->j'") from exc


# Each section's required and optional keys, with the check of each value.
_SECTIONS = {
    "graph": (
        {"nodes": _integer, "radius": _number, "seed": _integer},
        {"require_connected": _boolean, "max_resamples": _integer, "radius_override": _number},
    ),
    "instance": ({"dim": _integer, "rows": _integer, "seed": _integer}, {"conditioning": _number}),
    "params": ({"alpha": _numbers, "rho": _numbers}, {}),
    "loss": ({"seed": _integer}, {"p": _numbers, "table": _table}),
    "run": ({}, {"k_max": _integer, "runs": _integer, "tol": _number}),
    "sweep": (
        {"rho": _numbers, "alpha": _numbers, "p": _numbers},
        {"runs": _integer, "k_max": _integer, "tol": _number},
    ),
    "check": ({"seed": _integer}, {"k_max": _integer, "tol": _number}),
    "output": ({}, {"prefix": _string}),
}


def _section(doc: dict, name: str) -> dict:
    """The section's checked values: every required key, and the optional
    keys that are set (not null); the dataclasses hold the other defaults."""
    section, (required, optional) = doc[name], _SECTIONS[name]
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be an object")
    unknown = sorted(set(section) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)} in section '{name}'")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing required key '{key}' in section '{name}'")
    checks = {**required, **optional}
    return {
        k: checks[k](v, f"{name}.{k}") for k, v in section.items() if v is not None or k in required
    }


def parse_config(doc: dict) -> ExperimentConfig:
    if doc.get("schema") != SCHEMA_CONFIG:
        raise ConfigError(
            f"unsupported config schema {doc.get('schema')!r}; expected {SCHEMA_CONFIG!r}"
        )
    unknown = sorted(set(doc) - {"schema", *_SECTIONS})
    if unknown:
        raise ConfigError(f"unknown section(s) {', '.join(unknown)}")
    for section in ("graph", "instance", "params", "loss", "run"):
        if doc.get(section) is None:
            raise ConfigError(f"missing section '{section}'")
    # a null optional section is absent, like a null optional key
    values = {name: _section(doc, name) for name in _SECTIONS if doc.get(name) is not None}
    loss = LossSpec(**values["loss"])
    if loss.table is None and loss.p is None:
        raise ConfigError("loss section needs 'p' or 'table'")
    if loss.table is not None and loss.p is not None:
        raise ConfigError("loss section takes 'p' or 'table', not both")
    return ExperimentConfig(
        graph=GraphSpec(**values["graph"]),
        instance=InstanceSpec(**values["instance"]),
        params=ParamsSpec(**values["params"]),
        loss=loss,
        run=RunSpec(**values["run"]),
        output_prefix=values.get("output", {}).get("prefix", "experiment"),
        sweep=SweepSpec(**values["sweep"]) if "sweep" in values else None,
        check=CheckSpec(**values["check"]) if "check" in values else None,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return parse_config(doc)


def override_seeds(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Replace every seed in the config (testing convenience)."""
    from dataclasses import replace

    return replace(
        cfg,
        graph=replace(cfg.graph, seed=seed),
        instance=replace(cfg.instance, seed=seed),
        loss=replace(cfg.loss, seed=seed),
        check=None if cfg.check is None else replace(cfg.check, seed=seed),
    )


def build_graph(spec: GraphSpec) -> Graph:
    if spec.require_connected:
        return generate_connected_rgg(
            spec.nodes, spec.effective_radius, spec.seed, spec.max_resamples
        )
    return generate_rgg(spec.nodes, spec.effective_radius, spec.seed)


def build_problem(cfg: ExperimentConfig, g: Graph) -> PartitionProblem:
    return generate_instance(
        g,
        n=cfg.instance.dim,
        r_rows=cfg.instance.rows,
        seed=cfg.instance.seed,
        conditioning=cfg.instance.conditioning,
    )
