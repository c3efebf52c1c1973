"""Bit-string outcome distributions and the metrics defined over them.

Measurement results are sparse maps from fixed-width bit-strings to
nonnegative weights. Weights are shot counts on ingestion and real-valued
probabilities after mitigation; both live in the same container and the
probability view is obtained by dividing by the total weight.

Bit-order convention: character position ``i`` (counted from the left) of
the textual form denotes qubit ``i``. The mitigation algorithms are
order-invariant, so this only matters for file round-trips.

A distribution keeps its strings as packed words only (see ``_packed``);
``BitString``s are made from words (``words_to_strings``) when a caller
iterates, and bit rows are unpacked only where single bits are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from ._packed import SortedView, _pack_words, match_rows, sorted_view, view_total

__all__ = [
    "BitString",
    "OutcomeDistribution",
    "normalized_entropy",
    "hellinger_fidelity",
    "improvement_ratio",
]


@dataclass(frozen=True, order=True, slots=True)
class BitString:
    """One measured outcome: ``width`` bits packed into an integer.

    Instances are immutable, hashable and totally ordered (numerically by
    ``value``, which for equal widths coincides with lexicographic order of
    the textual form).
    """

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be a positive integer, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        """Parse a textual bit-string such as ``"111000"``."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a bit-string: {text!r}")
        return cls(int(text, 2), len(text))

    @property
    def text(self) -> str:
        return format(self.value, f"0{self.width}b")

    def __str__(self) -> str:
        return self.text


def strings_to_rows(strings: Iterable[BitString], width: int) -> np.ndarray:
    """(n, width) uint8 bit matrix, one row per bit-string."""
    blob = "".join(b.text for b in strings).encode()
    return (np.frombuffer(blob, dtype=np.uint8) - ord("0")).reshape(-1, width)


def rows_to_texts(bits: np.ndarray) -> list[str]:
    """The text of each row of a (n, width) 0/1 matrix, from one ASCII decode."""
    width = bits.shape[1]
    blob = (bits + ord("0")).tobytes().decode("ascii")
    return [blob[i : i + width] for i in range(0, len(blob), width)]


def words_to_strings(words: np.ndarray, width: int) -> list[BitString]:
    """One width-bit BitString per row of ``_pack_words`` output."""
    values = words[:, 0].tolist()
    for column in words[:, 1:].T:
        values = [(v << 64) | w for v, w in zip(values, column.tolist())]
    return [BitString(v, width) for v in values]


def rows_to_strings(bits: np.ndarray) -> list[BitString]:
    """One BitString per row of a (n, width) 0/1 matrix."""
    return words_to_strings(_pack_words(bits), bits.shape[1])


class OutcomeDistribution:
    """Sparse distribution over bit-strings of one common width.

    Immutable value object: all mutating access goes through constructors.
    Weights must be finite and nonnegative; ``total`` is their sum, added
    left to right in iteration order, and may overflow to inf. Operations
    that need a probability view require a positive and finite total,
    checked by ``_mass``.

    Stored as its strings' packed words (``_pack_words`` rows) and a
    float64 weight vector, both in iteration order, and no bit matrix.
    The value-sorted view is made by ``_sorted`` alone, on first use. No
    ``{BitString: weight}`` dict is kept: ``get``, ``in`` and
    ``probability`` pack the key into a words row and find it among the
    words, ``==`` compares the two sorted views' words and weights,
    iteration makes the strings from the words, and ``items()`` builds a
    dict for each call.
    """

    __slots__ = ("_width", "_words", "_weights", "_total", "_view")

    def __init__(self, width: int, entries: Mapping[BitString, float]):
        if width < 1:
            raise ValueError(f"width must be a positive integer, got {width}")
        for b in entries:
            if not isinstance(b, BitString):
                raise TypeError(f"key {b!r} is not a BitString; text keys go through from_counts")
            if b.width != width:
                raise ValueError(f"bit-string {b.text!r} has width {b.width}, expected {width}")
        weights = np.fromiter((float(w) for _, w in entries.items()), dtype=np.float64, count=len(entries))
        self._set(width, _pack_words(strings_to_rows(entries, width)), weights)

    @classmethod
    def _from_words(cls, width: int, words: np.ndarray, weights: np.ndarray) -> "OutcomeDistribution":
        """Distribution over the distinct width-bit rows whose ``_pack_words``
        are ``words``, iterated in row order, with float64 ``weights``. The
        sorted view is made by ``_sorted`` on first use; words in value
        order are their own view."""
        out = cls.__new__(cls)
        out._set(width, words, weights)
        return out

    def _set(self, width: int, words: np.ndarray, weights: np.ndarray) -> None:
        """Check the weights, then keep the arrays."""
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0)))
        if len(bad):
            i = bad[0]
            text = words_to_strings(words[i : i + 1], width)[0].text
            raise ValueError(f"weight for {text!r} must be finite and >= 0, got {float(weights[i])}")
        self._width, self._words, self._weights = width, words, weights
        self._total = _left_to_right_sum(weights)
        self._view = None

    def _row_of(self, b: object) -> int:
        """Index of the row equal to ``b``, or -1: also for a key that is
        not a BitString of this width."""
        if not isinstance(b, BitString) or b.width != self._width:
            return -1
        return int(match_rows(self._words, _pack_words(strings_to_rows([b], self._width)))[0])

    def _mass(self) -> float:
        """``total``, for a probability view: raises unless 0 < total < inf."""
        return view_total(self._total)

    def _sorted(self) -> SortedView:
        """The words and weights in value order."""
        if self._view is None:
            self._view = sorted_view(self._words, self._weights)
        return self._view

    @classmethod
    def from_counts(cls, counts: Mapping[str, float]) -> "OutcomeDistribution":
        """Build from textual keys; the first key's length is the width."""
        if not counts:
            raise ValueError("cannot infer width from an empty mapping")
        return cls(len(next(iter(counts))), {BitString.from_text(k): v for k, v in counts.items()})

    @property
    def width(self) -> int:
        return self._width

    @property
    def total(self) -> float:
        return self._total

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[BitString]:
        return iter(words_to_strings(self._words, self._width))

    def __contains__(self, b: object) -> bool:
        return self._row_of(b) >= 0

    def __eq__(self, other: object) -> bool:
        """Same width and the same weight for each string, in any row order."""
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        if self._width != other._width or len(self) != len(other):
            return False
        mine, theirs = self._sorted(), other._sorted()
        return np.array_equal(mine.words, theirs.words) and np.array_equal(mine.weights, theirs.weights)

    def __repr__(self) -> str:
        return f"OutcomeDistribution(width={self._width}, n={len(self)}, total={self._total:g})"

    def items(self):
        """``(BitString, weight)`` pairs in row order, from a dict built for this call."""
        return dict(zip(self, self._weights.tolist())).items()

    def get(self, b: object, default: float = 0.0) -> float:
        i = self._row_of(b)
        return default if i < 0 else float(self._weights[i])

    def probability(self, b: BitString) -> float:
        return self.get(b) / self._mass()

    def normalized(self) -> "OutcomeDistribution":
        """Probability view: every weight divided by the total."""
        out = OutcomeDistribution._from_words(self._width, self._words, self._weights / self._mass())
        out._total = 1.0
        return out

    def is_integral(self) -> bool:
        """True when every weight is within 1e-9 of a nonnegative integer."""
        return bool(np.all(np.abs(self._weights - np.rint(self._weights)) <= 1e-9))


def _left_to_right_sum(values) -> float:
    """``0.0 + v[0] + v[1] + ...`` in order: the bits ``sum()`` gives up to
    Python 3.11 (3.12 switched to compensated summation)."""
    with np.errstate(over="ignore"):  # a float sum overflows to inf silently
        acc = np.cumsum(np.asarray(values, dtype=np.float64))
    return 0.0 + float(acc[-1]) if len(acc) else 0.0


def normalized_entropy(dist: OutcomeDistribution) -> float:
    """Shannon entropy of the probability view divided by the qubit count.

    Lies in [0, 1]; zero-probability entries contribute nothing. The
    maximum 1.0 is reached by the uniform distribution over all 2^width
    bit-strings; rounding can push a near-uniform sum past it, so the
    result is clamped to 1.0.
    """
    h, total = 0.0, dist._mass()
    for w in dist._weights.tolist():
        p = w / total
        if p > 0:  # a positive weight's probability can underflow to 0
            h -= p * math.log2(p)
    return min(h / dist.width, 1.0)


def hellinger_fidelity(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Squared Bhattacharyya coefficient (sum over sqrt(p_i * q_i))^2.

    Computed over the union of supports of the probability views, so
    distributions with different supports compare naturally; absent
    bit-strings contribute zero. In [0, 1], 1 exactly when the views
    coincide, and symmetric to the bit: terms add in the smaller side's value order.
    """
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} != {q.width}")
    small, big = (p, q) if len(p) <= len(q) else (q, p)
    small_total, big_total = small._mass(), big._mass()
    view = small._sorted()
    found = match_rows(big._words, view.words)
    v = np.append(big._weights, 0.0)[found]  # -1 picks the 0.0
    # absent strings and zero weights add sqrt(0) = 0.0, which leaves the sum's bits alone
    acc = _left_to_right_sum(np.sqrt((view.weights / small_total) * (v / big_total)))
    return min(acc * acc, 1.0)


def improvement_ratio(hf_mitigated: float, hf_noisy: float) -> float:
    """Regularized fidelity ratio (hf_mitigated + 0.01) / (hf_noisy + 0.01).

    Values above 1 mean mitigation helped. The regularization constant
    keeps ratios finite when fidelities approach zero and makes geometric
    averaging across benchmarks well behaved.
    """
    if not 0.0 <= hf_mitigated <= 1.0 or not 0.0 <= hf_noisy <= 1.0:
        raise ValueError("fidelities must lie in [0, 1]")
    return (hf_mitigated + 0.01) / (hf_noisy + 0.01)
