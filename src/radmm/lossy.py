"""Bernoulli packet loss over directed edges, pre-drawable per round.

Mask contract 2 (`MASK_CONTRACT`): masks are a pure function of (seed,
round, edge) through a SplitMix64 counter hash (Steele, Lea & Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014). With the E
directed edges in the canonical sorted order, the draw of round k on edge
e (0-based) is the top 53 bits of the (k E + e + 1)-th output of a
SplitMix64 generator started at seed:

    u(k, e) = mix(seed + (k E + e + 1) G) >> 11        (arithmetic mod 2**64)

where G = 0x9E3779B97F4A7C15 and mix is SplitMix64's output function
(`splitmix64(s)` is mix(s + G), on Python ints). u / 2**53 is a uniform on
[0, 1) in steps of 2**-53. The packet is lost when u < ceil(p 2**53), that
is when u / 2**53 < p, so p = 0 delivers everything and p = 1 nothing.
Seeds lie in [0, 2**64), and round k is valid while (k + 1) E <= 2**64,
which keeps the counter of every (round, edge) pair distinct; anything else
is a ValueError. Any round can be re-queried in any order, alone or inside a
block of rounds, and always yields the same mask, which is what makes full
runs bitwise reproducible regardless of how the simulation loop is executed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._record import Frozen
from .graph import Graph

MASK_CONTRACT = 2  # bump on any change to the (seed, round, edge) -> draw mapping

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def splitmix64(state: int) -> int:
    """The first output of a SplitMix64 generator started at state (taken mod 2**64):
    mix(state + G), on Python ints."""
    z = (state + _GAMMA) & _M64
    z = ((z ^ (z >> 30)) * _MUL1) & _M64
    z = ((z ^ (z >> 27)) * _MUL2) & _M64
    return z ^ (z >> 31)


# the same constants as 0-d uint64 arrays, on which numpy's operators
# dispatch fastest
_U30, _U27, _U31, _U11, _UGAMMA, _UMUL1, _UMUL2 = (
    np.array(v, dtype=np.uint64) for v in (30, 27, 31, 11, _GAMMA, _MUL1, _MUL2)
)


def _delivered(base: np.ndarray, offset, thresholds: np.ndarray) -> np.ndarray:
    """u >= threshold for the counter hashes base + offset (broadcast). uint64
    array arithmetic wraps mod 2**64 without a warning, as the contract needs."""
    z = base + offset
    z ^= z >> _U30
    z *= _UMUL1
    z ^= z >> _U27
    z *= _UMUL2
    z ^= z >> _U31
    z >>= _U11
    return z >= thresholds


def _check_rounds(k0: int, rounds: int, e_count: int) -> None:
    if k0 < 0:
        raise ValueError(f"round index must be >= 0, got {k0}")
    if (k0 + rounds) * e_count > 1 << 64:
        raise ValueError(
            f"round {k0 + rounds - 1} is past the last valid round "
            f"{(1 << 64) // e_count - 1} for {e_count} edges"
        )


class LossModel(Frozen):
    """Per-directed-edge loss probabilities."""

    def __init__(self, probs: dict[tuple[int, int], float]):
        for e, p in probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"loss probability for edge {e} must be in [0, 1], got {p}")
        self.__dict__.update(probs=probs)

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


class DeliveryMask(Frozen):
    """One round's delivery outcome per directed edge (True = delivered)."""

    def __init__(self, delivered: dict[tuple[int, int], bool]):
        self.__dict__.update(delivered=delivered)

    @classmethod
    def complete(cls, g: Graph) -> "DeliveryMask":
        return cls(delivered={e: True for e in g.directed_edges()})


class LossSchedule(Frozen):
    """Deterministic per-round mask source for one loss model; seed in [0, 2**64)."""

    def __init__(self, model: LossModel, seed: int):
        if not 0 <= seed <= _M64:
            raise ValueError(f"loss seed must be in [0, 2**64), got {seed}")
        # fixed edge ordering so draw -> edge assignment never varies
        edges = tuple(sorted(model.probs))
        probs = np.array([model.probs[e] for e in edges], dtype=float)
        # round 0's hash inputs, seed + (e + 1) G; round k adds k E G
        base = np.arange(1, len(edges) + 1, dtype=np.uint64) * _UGAMMA
        self.__dict__.update(
            model=model,
            seed=seed,
            _edges=edges,
            _base=base + np.uint64(seed),
            # p * 2**53 is exact, so u < threshold exactly when u / 2**53 < p
            _thresholds=np.ceil(probs * 2.0**53).astype(np.uint64),
        )

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The directed edges in draw order: sorted, as `Graph.directed_edges`."""
        return self._edges

    @property
    def loss_free(self) -> bool:
        """True when every loss probability is 0, so every mask is all-delivered."""
        return not self._thresholds.any()


def stack_schedules(schedules: Sequence[LossSchedule | None]) -> tuple[np.ndarray, np.ndarray]:
    """The counter-hash bases and loss thresholds of schedules, as two uint64
    (schedules, E) arrays for `draw_block`; all schedules must have the same
    number E of edges. None, a schedule that loses nothing, gives zero rows:
    a zero threshold delivers every packet."""
    e_counts = {len(s.edges) for s in schedules if s is not None}
    if len(e_counts) > 1:
        raise ValueError("the schedules of one block must have the same number of edges")
    zero = np.zeros(max(e_counts, default=0), dtype=np.uint64)
    pairs = [(zero, zero) if s is None else (s._base, s._thresholds) for s in schedules]
    stacks = np.array(pairs, dtype=np.uint64).reshape(len(pairs), 2, len(zero))
    return stacks[:, 0], stacks[:, 1]


def draw_block(bases: np.ndarray, thresholds: np.ndarray, k0: int, rounds: int) -> np.ndarray:
    """Rounds k0 .. k0 + rounds - 1 of the schedules stacked by
    `stack_schedules` (or rows of such stacks), as bool (schedules, rounds, E)."""
    e_count = bases.shape[-1]
    _check_rounds(k0, rounds, e_count)
    step = e_count * _GAMMA  # what one round adds to every counter hash input
    offsets = np.arange(rounds, dtype=np.uint64)
    offsets *= np.uint64(step & _M64)
    offsets += np.uint64(k0 * step & _M64)
    return _delivered(bases[:, None], offsets[:, None], thresholds[:, None])


def delivery_array(schedule: LossSchedule, k: int) -> np.ndarray:
    """Round k's delivery outcomes as a bool array in `schedule.edges` order.

    A packet on edge e is lost when its 53-bit draw u(k, e) falls below
    ceil(p 2**53) for the edge's loss probability p (see the module docstring).
    """
    e_count = len(schedule.edges)
    _check_rounds(k, 1, e_count)
    return _delivered(schedule._base, np.uint64(k * e_count * _GAMMA & _M64), schedule._thresholds)


def sample_mask(schedule: LossSchedule, k: int) -> DeliveryMask:
    """The delivery mask of round k (see `delivery_array`); identical on every re-query."""
    ok = delivery_array(schedule, k)
    return DeliveryMask(delivered=dict(zip(schedule._edges, ok.tolist())))
