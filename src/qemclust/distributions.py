"""Bit-string outcome distributions and the metrics defined over them.

Measurement results are sparse maps from fixed-width bit-strings to
nonnegative weights. Weights are shot counts on ingestion and real-valued
probabilities after mitigation; both live in the same container and the
probability view is obtained by dividing by the total weight.

Bit-order convention: character position ``i`` (counted from the left) of
the textual form denotes qubit ``i``. The mitigation algorithms are
order-invariant, so this only matters for file round-trips.
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
    "hamming_distance",
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

    def bit(self, i: int) -> int:
        """Value of qubit ``i`` (position ``i`` from the left of ``text``)."""
        if not 0 <= i < self.width:
            raise IndexError(f"qubit index {i} out of range for width {self.width}")
        return (self.value >> (self.width - 1 - i)) & 1

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


def rows_to_strings(bits: np.ndarray) -> list[BitString]:
    """One BitString per row of a (n, width) 0/1 matrix."""
    words = _pack_words(bits)
    values = words[:, 0].tolist()
    for column in words[:, 1:].T:
        values = [(v << 64) | w for v, w in zip(values, column.tolist())]
    return [BitString(v, bits.shape[1]) for v in values]


class OutcomeDistribution:
    """Sparse distribution over bit-strings of one common width.

    Immutable value object: all mutating access goes through constructors.
    Weights must be finite and nonnegative; ``total`` is their sum, added
    left to right in iteration order, and may overflow to inf. Operations
    that need a probability view require a positive and finite total,
    checked by ``_mass``.

    Stored as a (n, width) 0/1 uint8 bit matrix, its rows' packed words
    and a float64 weight vector, all in iteration order. The words are
    handed over by the code that built the distribution or packed by
    ``_set``. The ``{BitString: weight}`` dict is a cache made from the
    arrays on first dict-style access; so is the value-sorted view, made
    by ``_sorted`` alone, on first use.
    """

    __slots__ = ("_width", "_store", "_rows", "_weights", "_total", "_words", "_view")

    def __init__(self, width: int, entries: Mapping[BitString, float]):
        if width < 1:
            raise ValueError(f"width must be a positive integer, got {width}")
        for b in entries:
            if b.width != width:
                raise ValueError(f"bit-string {b.text!r} has width {b.width}, expected {width}")
        weights = np.fromiter((float(w) for _, w in entries.items()), dtype=np.float64, count=len(entries))
        self._set(strings_to_rows(entries, width), weights)

    @classmethod
    def _from_rows(cls, rows: np.ndarray, weights: np.ndarray, words=None) -> "OutcomeDistribution":
        """Distribution over the distinct rows of a (n, width) 0/1 uint8
        matrix, iterated in row order, with float64 ``weights`` and the
        rows' packed ``words`` in row order, packed here when not given.
        The sorted view is made by ``_sorted`` on first use; rows whose
        words are in value order are their own view."""
        out = cls.__new__(cls)
        out._set(rows, weights, words)
        return out

    def _set(self, rows: np.ndarray, weights: np.ndarray, words: np.ndarray | None = None) -> None:
        """Check the weights, then keep the arrays and the rows' words,
        packing them when none are given."""
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0)))
        if len(bad):
            i = bad[0]
            text = rows_to_texts(rows[i : i + 1])[0]
            raise ValueError(f"weight for {text!r} must be finite and >= 0, got {float(weights[i])}")
        self._width = rows.shape[1]
        self._rows, self._weights = rows, weights
        self._words = _pack_words(rows) if words is None else words
        self._total = _left_to_right_sum(weights)
        self._store = self._view = None

    @property
    def _entries(self) -> dict[BitString, float]:
        if self._store is None:
            self._store = dict(zip(rows_to_strings(self._rows), self._weights.tolist()))
        return self._store

    def _mass(self) -> float:
        """``total``, for a probability view: raises unless 0 < total < inf."""
        return view_total(self._total)

    def _sorted(self) -> SortedView:
        """The rows and weights in value order, with the rows' words."""
        if self._view is None:
            self._view = sorted_view(self._rows, self._weights, self._words)
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
        return iter(self._entries)

    def __contains__(self, b: BitString) -> bool:
        return b in self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        return self._width == other._width and self._entries == other._entries

    def __repr__(self) -> str:
        return f"OutcomeDistribution(width={self._width}, n={len(self)}, total={self._total:g})"

    def items(self):
        return self._entries.items()

    def get(self, b: BitString, default: float = 0.0) -> float:
        return self._entries.get(b, default)

    def probability(self, b: BitString) -> float:
        return self._entries.get(b, 0.0) / self._mass()

    def normalized(self) -> "OutcomeDistribution":
        """Probability view: every weight divided by the total."""
        out = OutcomeDistribution._from_rows(self._rows, self._weights / self._mass(), self._words)
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


def hamming_distance(a: BitString, b: BitString) -> int:
    """Number of positions at which two equal-width bit-strings differ."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")
    return (a.value ^ b.value).bit_count()


def normalized_entropy(dist: OutcomeDistribution) -> float:
    """Shannon entropy of the probability view divided by the qubit count.

    Lies in [0, 1]; zero-probability entries contribute nothing. The
    maximum 1.0 is reached by the uniform distribution over all 2^width
    bit-strings.
    """
    h, total = 0.0, dist._mass()
    for w in dist._weights.tolist():
        p = w / total
        if p > 0:  # a positive weight's probability can underflow to 0
            h -= p * math.log2(p)
    return h / dist.width


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
