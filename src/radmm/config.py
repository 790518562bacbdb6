"""Experiment configuration documents (versioned JSON).

Seeds are always explicit: a config without a seed for any randomized stage
is rejected rather than silently randomized, so every command is a pure
function of its input files.

Each section of a document is read into its spec class, whose `keys` table
declares each key of the section once: its check, and its default, or
`REQUIRED`. A null optional key counts as absent.
"""

from __future__ import annotations

import json
import sys
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
    """A finite number: JSON as Python reads it also has NaN, Infinity and
    integers beyond a double's range."""
    if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
        return float(v)
    raise ConfigError(f"'{key}' must be a finite number, got {v!r}")


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


def _distinct(check):
    """`check`, and the list must not repeat a value: outputs are named by value."""

    def distinct(v, key: str):
        values = check(v, key)
        if len(set(values)) != len(values):
            raise ConfigError(f"'{key}' repeats a value: {values}")
        return values

    return distinct


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


# The default of a key that has none: the key is required.
REQUIRED = object()


class _Spec(Record):
    """A config record. Its class's `keys` table declares its fields, in
    order, as {name: (check, default)}: `check(value, "section.key")` checks
    and converts a document's value. Specs are built by keyword, and equal
    when their fields are."""

    def __init__(self, **values):
        name = type(self).__name__
        unknown = sorted(set(values) - set(self.keys))
        if unknown:
            raise TypeError(f"{name}() got unexpected keyword(s) {', '.join(unknown)}")
        for key, (_, default) in self.keys.items():
            value = values.get(key, default)
            if value is REQUIRED:
                raise TypeError(f"{name}() missing required keyword {key!r}")
            setattr(self, key, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)


class GraphSpec(_Spec):
    keys = {
        "nodes": (_positive(_integer), REQUIRED),
        "radius": (_number, REQUIRED),
        "seed": (_integer, REQUIRED),
        "require_connected": (_boolean, True),
        "max_resamples": (_positive(_integer), 10000),
        "radius_override": (_number, None),
    }

    @property
    def effective_radius(self) -> float:
        return self.radius if self.radius_override is None else self.radius_override


class InstanceSpec(_Spec):
    keys = {
        "dim": (_positive(_integer), REQUIRED),
        "rows": (_positive(_integer), REQUIRED),
        "seed": (_integer, REQUIRED),
        "conditioning": (_number, 10.0),
    }


class ParamsSpec(_Spec):
    """alpha and rho, each a list so presets can sweep one axis."""

    keys = {"alpha": (_distinct(_numbers), REQUIRED), "rho": (_distinct(_numbers), REQUIRED)}


class LossSpec(_Spec):
    keys = {"seed": (_integer, REQUIRED), "p": (_distinct(_numbers), None), "table": (_table, None)}


class RunSpec(_Spec):
    keys = {
        "k_max": (_positive(_integer), 5000),
        "runs": (_positive(_integer), 1),
        "tol": (_positive(_number), None),
    }

    def resolved_tol(self, loss_p: float) -> float:
        if self.tol is not None:
            return self.tol
        return DEFAULT_TOL_LOSSLESS if loss_p == 0.0 else DEFAULT_TOL_LOSSY


class SweepSpec(_Spec):
    keys = {
        "rho": (_numbers, REQUIRED),
        "alpha": (_numbers, REQUIRED),
        "p": (_numbers, REQUIRED),
        "runs": (_positive(_integer), 3),
        "k_max": (_positive(_integer), 2000),
        "tol": (_positive(_number), DEFAULT_TOL_LOSSY),
    }


class CheckSpec(_Spec):
    keys = {
        "seed": (_integer, REQUIRED),
        "k_max": (_positive(_integer), 50),
        "tol": (_positive(_number), 1e-9),
    }


class _OutputSpec(_Spec):
    keys = {"prefix": (_string, "experiment")}


class ExperimentConfig(_Spec):
    """A parsed document: each section's spec, None for an absent optional
    one, and the `output` prefix. `parse_config` checks every field."""

    keys = {
        "graph": (None, REQUIRED),
        "instance": (None, REQUIRED),
        "params": (None, REQUIRED),
        "loss": (None, REQUIRED),
        "run": (None, REQUIRED),
        "output_prefix": (None, REQUIRED),
        "sweep": (None, None),
        "check": (None, None),
    }


# The spec class of each section, and whether a document must have it.
_SECTIONS = {
    "graph": (GraphSpec, True),
    "instance": (InstanceSpec, True),
    "params": (ParamsSpec, True),
    "loss": (LossSpec, True),
    "run": (RunSpec, True),
    "sweep": (SweepSpec, False),
    "check": (CheckSpec, False),
    "output": (_OutputSpec, False),
}


def _section(doc: dict, name: str):
    """The section as its spec: every required key, and the optional keys
    that are set (not null), checked; the spec holds the other defaults."""
    section, (spec, _) = doc[name], _SECTIONS[name]
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be an object")
    unknown = sorted(set(section) - set(spec.keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)} in section '{name}'")
    for key, (_, default) in spec.keys.items():
        if default is REQUIRED and key not in section:
            raise ConfigError(f"missing required key '{key}' in section '{name}'")
    return spec(**{
        k: spec.keys[k][0](v, f"{name}.{k}")
        for k, v in section.items()
        if v is not None or spec.keys[k][1] is REQUIRED
    })


def parse_config(doc: dict) -> ExperimentConfig:
    if doc.get("schema") != SCHEMA_CONFIG:
        raise ConfigError(
            f"unsupported config schema {doc.get('schema')!r}; expected {SCHEMA_CONFIG!r}"
        )
    unknown = sorted(set(doc) - {"schema", *_SECTIONS})
    if unknown:
        raise ConfigError(f"unknown section(s) {', '.join(unknown)}")
    for name, (_, required) in _SECTIONS.items():
        if required and doc.get(name) is None:
            raise ConfigError(f"missing section '{name}'")
    # a null optional section is absent, like a null optional key
    specs = {name: _section(doc, name) for name in _SECTIONS if doc.get(name) is not None}
    loss = specs["loss"]
    if loss.table is None and loss.p is None:
        raise ConfigError("loss section needs 'p' or 'table'")
    if loss.table is not None and loss.p is not None:
        raise ConfigError("loss section takes 'p' or 'table', not both")
    output = specs.pop("output", _OutputSpec())
    return ExperimentConfig(**specs, output_prefix=output.prefix)


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

    def reseed(value):
        if isinstance(value, _Spec) and "seed" in value.keys:
            return type(value)(**{**vars(value), "seed": seed})
        return value

    return ExperimentConfig(**{name: reseed(value) for name, value in vars(cfg).items()})


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
