"""Synthetic low-entropy distributions and an i.i.d. bit-flip noise channel.

Randomness comes from numpy's seedable default generator (PCG64), which is
deterministic across platforms; every function here accepts either an
integer seed or an existing ``numpy.random.Generator`` so callers can
thread one stream through a whole experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._packed import PackedDistribution, tally_rows
from .distributions import OutcomeDistribution

__all__ = [
    "SyntheticSpec",
    "NoiseSpec",
    "generate_ideal",
    "sample_shots",
    "apply_bitflip",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a random ideal distribution: ``num_dominant`` distinct
    bit-strings over ``width`` qubits."""

    width: int
    num_dominant: int
    seed: object = None

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        if not 1 <= self.num_dominant <= (1 << self.width):
            raise ValueError(
                f"num_dominant must lie in [1, 2^{self.width}], got {self.num_dominant}"
            )


@dataclass(frozen=True)
class NoiseSpec:
    """Symmetric i.i.d. bit-flip channel: every bit inverts with
    probability ``flip_rate``."""

    flip_rate: float
    seed: object = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_rate <= 0.5:
            raise ValueError(f"flip_rate must lie in [0, 0.5], got {self.flip_rate}")


def _distinct_rows(rng: np.random.Generator, width: int, count: int) -> np.ndarray:
    """``count`` distinct uniform random width-bit rows in ascending value
    order, as a (count, width) uint8 matrix.

    Draws the missing number of strings until ``count`` are distinct: one
    integer draw per string while 2^width fits an int64, one draw per bit
    above that.
    """
    if width <= 62:
        # a set, not np.union1d: top-ups re-union the whole array, 5x slower
        # for a 2049-string tail of a 12-bit space
        values: set[int] = set()
        while len(values) < count:
            values.update(rng.integers(0, 1 << width, size=count - len(values)).tolist())
        shifts = np.arange(width - 1, -1, -1)
        return ((np.array(sorted(values))[:, None] >> shifts) & 1).astype(np.uint8)
    rows = np.empty((0, width), dtype=np.uint8)
    while len(rows) < count:
        draw = rng.integers(0, 2, size=(count - len(rows), width), dtype=np.uint8)
        rows = tally_rows(np.concatenate([rows, draw]))[0]
    return rows


def generate_ideal(spec: SyntheticSpec) -> OutcomeDistribution:
    """Random ideal distribution over ``num_dominant`` distinct strings.

    Dominant strings are drawn uniformly without replacement and their
    probabilities are i.i.d. uniform draws normalized to sum 1, in
    ascending value order. Deterministic given the seed.
    """
    rng = np.random.default_rng(spec.seed)
    rows = _distinct_rows(rng, spec.width, spec.num_dominant)
    probs = rng.uniform(size=spec.num_dominant)
    return OutcomeDistribution._from_rows(rows, probs / probs.sum())


def sample_shots(dist: OutcomeDistribution, shots: int, seed=None) -> OutcomeDistribution:
    """Multinomial finite-shot sample of the probability view.

    Returns integer counts summing exactly to ``shots``. Bit-strings are
    visited in ascending value order so results are reproducible
    independent of the input's construction order.
    """
    if shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots}")
    packed = PackedDistribution(dist)
    counts = np.random.default_rng(seed).multinomial(shots, packed.weights / packed.total)
    seen = counts > 0
    return OutcomeDistribution._from_rows(packed.bits[seen], counts[seen].astype(np.float64))


def apply_bitflip(shots_dist: OutcomeDistribution, noise: NoiseSpec) -> OutcomeDistribution:
    """Push every recorded shot through the bit-flip channel.

    Each shot has each of its bits flipped independently with probability
    ``noise.flip_rate``; the output is again an integer-count distribution
    with the same total, in ascending value order. Deterministic given the
    seed.
    """
    if not shots_dist.is_integral():
        raise ValueError("apply_bitflip expects an integer-count distribution")
    packed = PackedDistribution(shots_dist)
    rng = np.random.default_rng(noise.seed)
    source = np.repeat(packed.bits, np.rint(packed.weights).astype(np.int64), axis=0)
    if noise.flip_rate > 0:
        flips = rng.random(source.shape) < noise.flip_rate
        source = source ^ flips.astype(np.uint8)
    rows, tally = tally_rows(source)
    return OutcomeDistribution._from_rows(rows, tally.astype(np.float64))
