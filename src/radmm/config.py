"""Experiment configuration documents (versioned JSON).

Seeds are always explicit: a config without a seed for any randomized stage
is rejected rather than silently randomized, so every command is a pure
function of its input files.

Each section of a document is read into its spec class, and the class
declares the section's keys once: its `__init__` gives their names, order
and defaults (a key without a default is required), and its `checks` table
maps each key to the function that checks and converts a value. A null
optional key counts as absent. Specs are plain records, equal when their
fields are.
"""

from __future__ import annotations

import json
from pathlib import Path

from ._record import Record
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


class _Spec(Record):
    """A config record: equal to another of its class with equal fields."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)


class GraphSpec(_Spec):
    checks = {
        "nodes": _integer,
        "radius": _number,
        "seed": _integer,
        "require_connected": _boolean,
        "max_resamples": _positive(_integer),
        "radius_override": _number,
    }

    def __init__(
        self,
        nodes: int,
        radius: float,
        seed: int,
        require_connected: bool = True,
        max_resamples: int = 10000,
        radius_override: float | None = None,
    ):
        self.nodes = nodes
        self.radius = radius
        self.seed = seed
        self.require_connected = require_connected
        self.max_resamples = max_resamples
        self.radius_override = radius_override

    @property
    def effective_radius(self) -> float:
        return self.radius if self.radius_override is None else self.radius_override


class InstanceSpec(_Spec):
    checks = {"dim": _integer, "rows": _integer, "seed": _integer, "conditioning": _number}

    def __init__(self, dim: int, rows: int, seed: int, conditioning: float = 10.0):
        self.dim = dim
        self.rows = rows
        self.seed = seed
        self.conditioning = conditioning


class ParamsSpec(_Spec):
    """alpha and rho, each a list so presets can sweep one axis."""

    checks = {"alpha": _numbers, "rho": _numbers}

    def __init__(self, alpha: list[float], rho: list[float]):
        self.alpha = alpha
        self.rho = rho


class LossSpec(_Spec):
    checks = {"seed": _integer, "p": _numbers, "table": _table}

    def __init__(
        self,
        seed: int,
        p: list[float] | None = None,
        table: dict[tuple[int, int], float] | None = None,
    ):
        self.seed = seed
        self.p = p
        self.table = table


class RunSpec(_Spec):
    checks = {"k_max": _integer, "runs": _integer, "tol": _positive(_number)}

    def __init__(self, k_max: int = 5000, runs: int = 1, tol: float | None = None):
        self.k_max = k_max
        self.runs = runs
        self.tol = tol

    def resolved_tol(self, loss_p: float) -> float:
        if self.tol is not None:
            return self.tol
        return DEFAULT_TOL_LOSSLESS if loss_p == 0.0 else DEFAULT_TOL_LOSSY


class SweepSpec(_Spec):
    checks = {
        "rho": _numbers,
        "alpha": _numbers,
        "p": _numbers,
        "runs": _integer,
        "k_max": _integer,
        "tol": _positive(_number),
    }

    def __init__(
        self,
        rho: list[float],
        alpha: list[float],
        p: list[float],
        runs: int = 3,
        k_max: int = 2000,
        tol: float = DEFAULT_TOL_LOSSY,
    ):
        self.rho = rho
        self.alpha = alpha
        self.p = p
        self.runs = runs
        self.k_max = k_max
        self.tol = tol


class CheckSpec(_Spec):
    checks = {"seed": _integer, "k_max": _positive(_integer), "tol": _positive(_number)}

    def __init__(self, seed: int, k_max: int = 50, tol: float = 1e-9):
        self.seed = seed
        self.k_max = k_max
        self.tol = tol


class _OutputSpec(_Spec):
    checks = {"prefix": _string}

    def __init__(self, prefix: str = "experiment"):
        self.prefix = prefix


class ExperimentConfig(_Spec):
    def __init__(
        self,
        graph: GraphSpec,
        instance: InstanceSpec,
        params: ParamsSpec,
        loss: LossSpec,
        run: RunSpec,
        output_prefix: str,
        sweep: SweepSpec | None = None,
        check: CheckSpec | None = None,
    ):
        self.graph = graph
        self.instance = instance
        self.params = params
        self.loss = loss
        self.run = run
        self.output_prefix = output_prefix
        self.sweep = sweep
        self.check = check


# The spec class of each section.
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
    keys = list(spec.checks)
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)} in section '{name}'")
    # `checks` lists the keys in `__init__`'s order, so the keys without a
    # default lead it
    required = keys[: len(keys) - len(spec.__init__.__defaults__ or ())]
    for key in required:
        if key not in section:
            raise ConfigError(f"missing required key '{key}' in section '{name}'")
    return spec(**{
        k: spec.checks[k](v, f"{name}.{k}")
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
    """A copy of the config with every seed replaced (testing convenience)."""

    def reseed(spec):
        return type(spec)(**{**vars(spec), "seed": seed})

    return ExperimentConfig(**{
        **vars(cfg),
        "graph": reseed(cfg.graph),
        "instance": reseed(cfg.instance),
        "loss": reseed(cfg.loss),
        "check": None if cfg.check is None else reseed(cfg.check),
    })


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
