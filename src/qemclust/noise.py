"""Synthetic low-entropy distributions and an i.i.d. bit-flip noise channel.

Randomness comes from numpy's seedable default generator (PCG64), which is
deterministic across platforms; every function here accepts either an
integer seed or an existing ``numpy.random.Generator`` so callers can
thread one stream through a whole experiment.

The bit-flip channel draws one ``Generator.random()`` float per simulated
bit, in row-major order over the shots listed in value order, and flips
the bit where its float is below the rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._packed import _pack_buffer, _pack_words, _tally, _words_of, view_total
from .distributions import OutcomeDistribution

__all__ = [
    "RATE_MIN",
    "RATE_MAX",
    "is_rate",
    "check_rate",
    "SyntheticSpec",
    "NoiseSpec",
    "generate_ideal",
    "sample_shots",
    "apply_bitflip",
]


# Symmetric bit-flip rates above 0.5 are unidentifiable: p and 1 - p are one
# channel up to relabelling the bits. Rates are taken and predicted in this range.
RATE_MIN, RATE_MAX = 0.0, 0.5
RATE_RANGE = f"[{RATE_MIN:g}, {RATE_MAX:g}]"


def is_rate(value: float) -> bool:
    """Whether ``value`` lies in [RATE_MIN, RATE_MAX]; NaN does not."""
    return RATE_MIN <= value <= RATE_MAX


def check_rate(value: float) -> None:
    """Raise ValueError, with the package's one rate message, unless ``is_rate(value)``."""
    if not is_rate(value):
        raise ValueError(f"flip_rate must lie in {RATE_RANGE}, got {value}")


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
        check_rate(self.flip_rate)


def _distinct_rows(rng: np.random.Generator, width: int, count: int) -> np.ndarray:
    """The ``_pack_words`` of ``count`` distinct uniform random width-bit
    rows in ascending value order.

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
        return np.array(sorted(values), dtype=np.uint64).reshape(-1, 1)
    words = np.empty((0, -(-width // 64)), dtype=np.uint64)
    while len(words) < count:
        draw = rng.integers(0, 2, size=(count - len(words), width), dtype=np.uint8)
        words, _counts = _tally(np.concatenate([words, _pack_words(draw)]), width)
    return words


def generate_ideal(spec: SyntheticSpec) -> OutcomeDistribution:
    """Random ideal distribution over ``num_dominant`` distinct strings.

    Dominant strings are drawn uniformly without replacement and their
    probabilities are i.i.d. uniform draws normalized to sum 1, in
    ascending value order. Deterministic given the seed.
    """
    rng = np.random.default_rng(spec.seed)
    words = _distinct_rows(rng, spec.width, spec.num_dominant)
    probs = rng.uniform(size=spec.num_dominant)
    return OutcomeDistribution._from_words(spec.width, words, probs / probs.sum())


def sample_shots(dist: OutcomeDistribution, shots: int, seed=None) -> OutcomeDistribution:
    """Multinomial finite-shot sample of the probability view.

    Returns integer counts summing exactly to ``shots``. Bit-strings are
    visited in ascending value order so results are reproducible
    independent of the input's construction order.
    """
    if shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots}")
    view = dist._sorted()
    counts = np.random.default_rng(seed).multinomial(shots, view.weights / view_total(view.total))
    seen = counts > 0
    return OutcomeDistribution._from_words(dist.width, view.words[seen], counts[seen].astype(np.float64))


# Draws per block of the bit-flip channel (2 MiB of doubles), measured on
# the ``wide`` benchmark workload (100-qubit trials of 8,192 shots: 819,200
# draws, 4 blocks) on a 2-vCPU Xeon. One full-size draw gained less than
# the run-to-run spread there. 64K-draw blocks were slower: glibc's malloc,
# whose mmap and trim thresholds grow with the largest block freed, then
# gave each trial's larger arrays back to the system, and the next trial
# faulted them in again (670-870 minor faults a trial, against 12-20).
_BLOCK_DRAWS = 1 << 18


def _flip_words(rng: np.random.Generator, n: int, width: int, p: float) -> np.ndarray:
    """``_pack_words`` of the (n, width) flip flags of ``apply_bitflip``'s
    rule, for 0 < p <= 0.5.

    The flags are compared straight into the packing buffer, whole rows
    per block of at most ``_BLOCK_DRAWS`` draws; the blocks take the
    stream in row-major order, so they draw what one (n, width) draw would.
    """
    padded, flips = _pack_buffer(n, width)
    flips = flips.view(np.bool_)
    step = max(1, _BLOCK_DRAWS // width)
    for start in range(0, n, step):
        block = flips[start : start + step]
        np.less(rng.random(block.shape), p, out=block)
    return _words_of(padded)


def apply_bitflip(shots_dist: OutcomeDistribution, noise: NoiseSpec) -> OutcomeDistribution:
    """Push every recorded shot through the bit-flip channel.

    Each shot has each of its bits flipped independently with probability
    ``noise.flip_rate``; the output is again an integer-count distribution
    with the same total, in ascending value order. Deterministic given the
    seed.

    The shots are listed in ascending value order, one row each, and every
    bit takes one ``rng.random()`` draw in row-major order and flips where
    it is below ``p``; at ``p = 0`` nothing is drawn. The draws come in
    blocks of whole rows (``_flip_words``), which consume the stream in the
    order one ``rng.random((shots, width))`` call would, so the flips and
    the generator's next draw are those of that one call, on any bit
    generator.
    """
    if not shots_dist.is_integral():
        raise ValueError("apply_bitflip expects an integer-count distribution")
    view = shots_dist._sorted()
    view_total(view.total)
    rng = np.random.default_rng(noise.seed)
    words = np.repeat(view.words, np.rint(view.weights).astype(np.int64), axis=0)
    if noise.flip_rate > 0:  # flipped in place: the repeat is a fresh array
        words ^= _flip_words(rng, len(words), shots_dist.width, noise.flip_rate)
    words, tally = _tally(words, shots_dist.width)
    return OutcomeDistribution._from_words(shots_dist.width, words, tally.astype(np.float64))
