"""Synthetic low-entropy distributions and an i.i.d. bit-flip noise channel.

Randomness comes from numpy's seedable default generator (PCG64), which is
deterministic across platforms; every function here accepts either an
integer seed or an existing ``numpy.random.Generator`` so callers can
thread one stream through a whole experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._packed import PackedDistribution, rows_to_strings, tally_rows
from .distributions import BitString, OutcomeDistribution

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


def generate_ideal(spec: SyntheticSpec) -> OutcomeDistribution:
    """Random ideal distribution over ``num_dominant`` distinct strings.

    Dominant strings are drawn uniformly without replacement and their
    probabilities are i.i.d. uniform draws normalized to sum 1.
    Deterministic given the seed.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.width, spec.num_dominant
    values: set[int] = set()
    while len(values) < d:
        # one integer draw per string while 2^n fits an int64, one draw
        # per bit above that
        if n <= 62:
            draw = rng.integers(0, 1 << n, size=d - len(values))
            values.update(int(v) for v in draw)
        else:
            rows = rng.integers(0, 2, size=(d - len(values), n), dtype=np.uint8)
            values.update(b.value for b in rows_to_strings(rows))
    ordered = sorted(values)
    probs = rng.uniform(size=d)
    probs = probs / probs.sum()
    return OutcomeDistribution(n, {BitString(v, n): p for v, p in zip(ordered, probs)})


def sample_shots(dist: OutcomeDistribution, shots: int, seed=None) -> OutcomeDistribution:
    """Multinomial finite-shot sample of the probability view.

    Returns integer counts summing exactly to ``shots``. Bit-strings are
    visited in ascending value order so results are reproducible
    independent of the input's construction order.
    """
    if shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots}")
    if dist.total <= 0:
        raise ValueError("distribution has zero total weight")
    rng = np.random.default_rng(seed)
    strings = sorted(dist, key=lambda b: b.value)
    p = np.array([dist.get(b) for b in strings], dtype=np.float64)
    p = p / p.sum()
    counts = rng.multinomial(shots, p)
    return OutcomeDistribution(
        dist.width, {b: int(c) for b, c in zip(strings, counts) if c > 0}
    )


def apply_bitflip(shots_dist: OutcomeDistribution, noise: NoiseSpec) -> OutcomeDistribution:
    """Push every recorded shot through the bit-flip channel.

    Each shot has each of its bits flipped independently with probability
    ``noise.flip_rate``; the output is again an integer-count distribution
    with the same total. Deterministic given the seed.
    """
    if not shots_dist.is_integral():
        raise ValueError("apply_bitflip expects an integer-count distribution")
    if shots_dist.total <= 0:
        raise ValueError("distribution has zero total weight")
    rng = np.random.default_rng(noise.seed)
    packed = PackedDistribution(shots_dist)
    counts = np.rint(packed.weights).astype(np.int64)
    source = np.repeat(packed.bits, counts, axis=0)
    if noise.flip_rate > 0:
        flips = rng.random(source.shape) < noise.flip_rate
        source = source ^ flips.astype(np.uint8)
    strings, tally = tally_rows(source)
    return OutcomeDistribution(shots_dist.width, dict(zip(strings, tally.tolist())))

