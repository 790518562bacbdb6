"""Experiment configuration documents (versioned JSON).

Seeds are always explicit: a config without a seed for any randomized stage
is rejected rather than silently randomized, so every command is a pure
function of its input files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .experiments import DEFAULT_TOL_LOSSLESS, DEFAULT_TOL_LOSSY
from .graph import Graph, generate_connected_rgg, generate_rgg
from .problem import PartitionProblem, generate_instance

SCHEMA_CONFIG = "radmm-config/1"


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


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in section '{where}'")
    return section[key]


def _present(section: dict, **casts) -> dict:
    """The optional keys of a section that are set (not absent, not null), cast;
    the dataclasses hold the defaults of the others."""
    return {k: cast(section[k]) for k, cast in casts.items() if section.get(k) is not None}


def _as_list(v) -> list[float]:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return [float(v)]
    if isinstance(v, list) and v and all(isinstance(x, (int, float)) for x in v):
        return [float(x) for x in v]
    raise ConfigError(f"expected a number or nonempty list of numbers, got {v!r}")


def _parse_edge_key(key: str) -> tuple[int, int]:
    try:
        a, b = key.split("->")
        return int(a), int(b)
    except ValueError as exc:
        raise ConfigError(f"loss table key {key!r} must look like 'i->j'") from exc


def parse_config(doc: dict) -> ExperimentConfig:
    if doc.get("schema") != SCHEMA_CONFIG:
        raise ConfigError(
            f"unsupported config schema {doc.get('schema')!r}; expected {SCHEMA_CONFIG!r}"
        )
    for section in ("graph", "instance", "params", "loss", "run"):
        if section not in doc:
            raise ConfigError(f"missing section '{section}'")

    gdoc = doc["graph"]
    graph = GraphSpec(
        nodes=int(_require(gdoc, "nodes", "graph")),
        radius=float(_require(gdoc, "radius", "graph")),
        seed=int(_require(gdoc, "seed", "graph")),
        **_present(gdoc, require_connected=bool, max_resamples=int, radius_override=float),
    )

    idoc = doc["instance"]
    instance = InstanceSpec(
        dim=int(_require(idoc, "dim", "instance")),
        rows=int(_require(idoc, "rows", "instance")),
        seed=int(_require(idoc, "seed", "instance")),
        **_present(idoc, conditioning=float),
    )

    pdoc = doc["params"]
    params = ParamsSpec(
        alpha=_as_list(_require(pdoc, "alpha", "params")),
        rho=_as_list(_require(pdoc, "rho", "params")),
    )

    ldoc = doc["loss"]
    table = None
    p_list = None
    if ldoc.get("table") is not None:
        table = {_parse_edge_key(k): float(v) for k, v in ldoc["table"].items()}
    if ldoc.get("p") is not None:
        p_list = _as_list(ldoc["p"])
    if table is None and p_list is None:
        raise ConfigError("loss section needs 'p' or 'table'")
    if table is not None and p_list is not None:
        raise ConfigError("loss section takes 'p' or 'table', not both")
    loss = LossSpec(seed=int(_require(ldoc, "seed", "loss")), p=p_list, table=table)

    run_spec = RunSpec(**_present(doc["run"], k_max=int, runs=int, tol=float))

    sweep = None
    if doc.get("sweep") is not None:
        sdoc = doc["sweep"]
        sweep = SweepSpec(
            rho=_as_list(_require(sdoc, "rho", "sweep")),
            alpha=_as_list(_require(sdoc, "alpha", "sweep")),
            p=_as_list(_require(sdoc, "p", "sweep")),
            **_present(sdoc, runs=int, k_max=int, tol=float),
        )

    check = None
    if doc.get("check") is not None:
        cdoc = doc["check"]
        check = CheckSpec(
            seed=int(_require(cdoc, "seed", "check")),
            **_present(cdoc, k_max=int, tol=float),
        )

    prefix = (doc.get("output") or {}).get("prefix")
    return ExperimentConfig(
        graph=graph,
        instance=instance,
        params=params,
        loss=loss,
        run=run_spec,
        output_prefix="experiment" if prefix is None else str(prefix),
        sweep=sweep,
        check=check,
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
