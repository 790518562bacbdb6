"""Experiment configuration documents (versioned JSON).

Seeds are always explicit: a config without a seed for any randomized stage
is rejected rather than silently randomized, so every command is a pure
function of its input files.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .graph import Graph, generate_connected_rgg, generate_rgg
from .problem import PartitionProblem, generate_instance

SCHEMA_CONFIG = "radmm-config/1"
# Default stop tolerances of a run, loss-free and lossy; `experiments` reads them.
DEFAULT_TOL_LOSSLESS = 1e-6
DEFAULT_TOL_LOSSY = 1e-4


class ConfigError(ValueError):
    """Malformed or incomplete configuration."""


def _integer(v, key: str) -> int:
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ConfigError(f"'{key}' must be an integer, got {v!r}")


def _number(v, key: str) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise ConfigError(f"'{key}' must be a number, got {v!r}")


def _positive(check):
    """`check`, and the value must be above zero."""

    def positive(v, key: str):
        value = check(v, key)
        if value <= 0:
            raise ConfigError(f"'{key}' must be positive, got {v!r}")
        return value

    return positive


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


def _key(check, default=MISSING):
    """A config key, checked by `check`; required unless it has a default."""
    return field(default=default, metadata={"check": check})


@dataclass
class GraphSpec:
    nodes: int = _key(_integer)
    radius: float = _key(_number)
    seed: int = _key(_integer)
    require_connected: bool = _key(_boolean, True)
    max_resamples: int = _key(_positive(_integer), 10000)
    radius_override: float | None = _key(_number, None)

    @property
    def effective_radius(self) -> float:
        return self.radius if self.radius_override is None else self.radius_override


@dataclass
class InstanceSpec:
    dim: int = _key(_integer)
    rows: int = _key(_integer)
    seed: int = _key(_integer)
    conditioning: float = _key(_number, 10.0)


@dataclass
class ParamsSpec:
    """alpha and rho, each a list so presets can sweep one axis."""

    alpha: list[float] = _key(_numbers)
    rho: list[float] = _key(_numbers)


@dataclass
class LossSpec:
    seed: int = _key(_integer)
    p: list[float] | None = _key(_numbers, None)
    table: dict[tuple[int, int], float] | None = _key(_table, None)


@dataclass
class RunSpec:
    k_max: int = _key(_integer, 5000)
    runs: int = _key(_integer, 1)
    tol: float | None = _key(_positive(_number), None)

    def resolved_tol(self, loss_p: float) -> float:
        if self.tol is not None:
            return self.tol
        return DEFAULT_TOL_LOSSLESS if loss_p == 0.0 else DEFAULT_TOL_LOSSY


@dataclass
class SweepSpec:
    rho: list[float] = _key(_numbers)
    alpha: list[float] = _key(_numbers)
    p: list[float] = _key(_numbers)
    runs: int = _key(_integer, 3)
    k_max: int = _key(_integer, 2000)
    tol: float = _key(_positive(_number), DEFAULT_TOL_LOSSY)


@dataclass
class CheckSpec:
    seed: int = _key(_integer)
    k_max: int = _key(_positive(_integer), 50)
    tol: float = _key(_positive(_number), 1e-9)


@dataclass
class _OutputSpec:
    prefix: str = _key(_string, "experiment")


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


# The spec class of each section; its fields declare the section's keys.
_SECTIONS = {
    "graph": GraphSpec,
    "instance": InstanceSpec,
    "params": ParamsSpec,
    "loss": LossSpec,
    "run": RunSpec,
    "sweep": SweepSpec,
    "check": CheckSpec,
    "output": _OutputSpec,
}


def _section(doc: dict, name: str):
    """The section as its spec: every required key, and the optional keys
    that are set (not null), checked; the spec holds the other defaults."""
    section, spec = doc[name], _SECTIONS[name]
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be an object")
    keys = {f.name: f for f in fields(spec)}
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)} in section '{name}'")
    required = [k for k, f in keys.items() if f.default is MISSING]
    for key in required:
        if key not in section:
            raise ConfigError(f"missing required key '{key}' in section '{name}'")
    return spec(**{
        k: keys[k].metadata["check"](v, f"{name}.{k}")
        for k, v in section.items()
        if v is not None or k in required
    })


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
    specs = {name: _section(doc, name) for name in _SECTIONS if doc.get(name) is not None}
    loss = specs["loss"]
    if loss.table is None and loss.p is None:
        raise ConfigError("loss section needs 'p' or 'table'")
    if loss.table is not None and loss.p is not None:
        raise ConfigError("loss section takes 'p' or 'table', not both")
    return ExperimentConfig(
        graph=specs["graph"],
        instance=specs["instance"],
        params=specs["params"],
        loss=loss,
        run=specs["run"],
        output_prefix=specs.get("output", _OutputSpec()).prefix,
        sweep=specs.get("sweep"),
        check=specs.get("check"),
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
