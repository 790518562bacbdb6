"""Bernoulli packet loss over directed edges, pre-drawable per round.

Masks are a pure function of (seed, round, edge) through a counter-based
Philox generator: round k owns the counter block k << 128, and within a round
one uniform is drawn per directed edge in the canonical sorted order. Any
round can therefore be re-queried in any order and always yields the same
mask, which is what makes full runs bitwise reproducible regardless of how
the simulation loop is executed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class LossModel:
    """Per-directed-edge loss probabilities."""

    probs: dict[tuple[int, int], float]

    def __post_init__(self):
        for e, p in self.probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"loss probability for edge {e} must be in [0, 1], got {p}")

    @classmethod
    def uniform(cls, g: Graph, p: float) -> "LossModel":
        return cls(probs={e: p for e in g.directed_edges()})

    @classmethod
    def from_table(cls, g: Graph, table: dict[tuple[int, int], float]) -> "LossModel":
        directed = set(g.directed_edges())
        if set(table) != directed:
            missing = directed - set(table)
            extra = set(table) - directed
            raise ValueError(
                f"loss table must cover the directed edges exactly; "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        return cls(probs=dict(table))


@dataclass(frozen=True)
class DeliveryMask:
    """One round's delivery outcome per directed edge (True = delivered)."""

    delivered: dict[tuple[int, int], bool]

    @classmethod
    def complete(cls, g: Graph) -> "DeliveryMask":
        return cls(delivered={e: True for e in g.directed_edges()})


@dataclass(frozen=True)
class LossSchedule:
    """Deterministic per-round mask source for one loss model."""

    model: LossModel
    seed: int

    def __post_init__(self):
        # fixed edge ordering so draw -> edge assignment never varies
        object.__setattr__(self, "_edges", tuple(sorted(self.model.probs)))
        object.__setattr__(
            self, "_probs", np.array([self.model.probs[e] for e in sorted(self.model.probs)])
        )
        # one bit generator per schedule, rewound to each round's counter
        # block; built on the first draw so a bad seed fails there, as before
        object.__setattr__(self, "_philox", None)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The directed edges in draw order: sorted, as `Graph.directed_edges`."""
        return self._edges

    @property
    def loss_free(self) -> bool:
        """True when every loss probability is 0, so every mask is all-delivered."""
        return not self._probs.any()


def delivery_array(schedule: LossSchedule, k: int) -> np.ndarray:
    """Round k's delivery outcomes as a bool array in `schedule.edges` order.

    A packet on edge e is lost when its uniform draw falls below the edge's
    loss probability, so p = 0 delivers everything and p = 1 nothing. The
    draws are those of a fresh Philox(key=seed, counter=k << 128); the
    schedule's one generator is set to that state instead of building it,
    so threads must not draw from one schedule concurrently.
    """
    if k < 0:
        raise ValueError(f"round index must be >= 0, got {k}")
    if k >> 128:
        raise ValueError(f"round index must be < 2**128, got {k}")
    edges = schedule._edges
    if not edges:
        return np.ones(0, dtype=bool)
    if schedule._philox is None:
        bits = np.random.Philox(key=schedule.seed, counter=0)
        state = bits.state
        gen = np.random.Generator(bits)
        object.__setattr__(schedule, "_philox", (bits, gen, state, state["state"]["counter"]))
    bits, gen, state, counter = schedule._philox
    counter[2:] = (k & 0xFFFFFFFFFFFFFFFF, k >> 64)
    bits.state = state
    return gen.random(len(edges)) >= schedule._probs


def sample_mask(schedule: LossSchedule, k: int) -> DeliveryMask:
    """The delivery mask of round k (see `delivery_array`); identical on every re-query."""
    ok = delivery_array(schedule, k)
    return DeliveryMask(delivered=dict(zip(schedule._edges, ok.tolist())))
