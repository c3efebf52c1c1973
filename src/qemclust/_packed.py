"""Internal dense views of sparse distributions for the clustering kernels.

A packed distribution holds a (n_strings, width) uint8 bit matrix, the
same rows packed into big-endian uint64 words, and a float weight
vector. Majority votes read the bit matrix; Hamming distances are XOR
plus popcount over the words. Packing happens once per mitigation run
and the arrays are shared across all cluster counts.

A packed distribution lives for one mitigation run, and it caches the
distance column of every centroid row it has been asked about, keyed by
the row's bytes: each distinct centroid costs one Hamming pass per run,
across vote rounds, cluster counts and the redistribution step. Columns
are stored in the smallest unsigned dtype that holds the width, about n
bytes per centroid up to width 255. ``distances`` hands them out as a
C-ordered (n, k) matrix; that layout is part of the output bits, because
the redistribution step's row sums and its matrix-vector product add in
an order that depends on it.

The conversions between ``BitString`` objects and bit rows, and the shot
tally, work at any width: word tuples compare like values.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .distributions import BitString, OutcomeDistribution

__all__ = [
    "PackedDistribution",
    "match_rows",
    "row_keys",
    "rows_to_strings",
    "strings_to_rows",
    "tally_rows",
    "value_order",
]


def strings_to_rows(strings: Iterable[BitString], width: int) -> np.ndarray:
    """(n, width) uint8 bit matrix, one row per bit-string."""
    blob = "".join(b.text for b in strings).encode()
    return (np.frombuffer(blob, dtype=np.uint8) - ord("0")).reshape(-1, width)


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """(n, ceil(width/64)) uint64 words of each row, most significant first."""
    n, width = bits.shape
    n_bytes, n_words = -(-width // 8), -(-width // 64)
    padded = np.zeros((n, 8 * n_bytes), dtype=np.uint8)
    padded[:, 8 * n_bytes - width :] = bits
    raw = np.zeros((n, 8 * n_words), dtype=np.uint8)
    raw[:, 8 * n_words - n_bytes :] = np.packbits(padded.ravel()).reshape(n, n_bytes)
    return raw.view(">u8").astype(np.uint64)


def value_order(bits: np.ndarray) -> np.ndarray:
    """Row indices that sort a (n, width) 0/1 matrix by value."""
    return np.lexsort(_pack_words(bits).T[::-1])


def match_rows(bits: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the row of ``bits`` equal to each query row, or -1."""
    words = _pack_words(np.concatenate([bits, queries]))
    _, first, inverse = np.unique(words, axis=0, return_index=True, return_inverse=True)
    found = first[inverse.ravel()[len(bits) :]]
    return np.where(found < len(bits), found, -1)


def row_keys(bits: np.ndarray) -> list[bytes]:
    """The bytes of each row: equal rows, and only they, share a key."""
    return [row.tobytes() for row in bits]


def rows_to_strings(bits: np.ndarray) -> list[BitString]:
    """One BitString per row of a (n, width) 0/1 matrix."""
    words = _pack_words(bits)
    values = words[:, 0].tolist()
    for column in words[:, 1:].T:
        values = [(v << 64) | w for v, w in zip(values, column.tolist())]
    return [BitString(v, bits.shape[1]) for v in values]


def _unpack_words(words: np.ndarray, width: int) -> np.ndarray:
    """(n, width) 0/1 uint8 rows of ``_pack_words`` output, copied out of
    the 64-bit-wide unpack buffer."""
    raw = np.unpackbits(words.astype(">u8").view(np.uint8), axis=1)
    return np.ascontiguousarray(raw[:, raw.shape[1] - width :])


def tally_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 0/1 matrix in ascending value order, with counts.

    Each further word folds into a 1-D key as (rank of the key so far) *
    n + (rank of the word); ranks are below n, so keys order like word
    tuples. The rank tables turn the final keys back into words.
    """
    words = _pack_words(bits)
    n = len(words)
    key = words[:, 0]
    tables = []
    for j in range(1, words.shape[1]):
        prefix, rank = np.unique(key, return_inverse=True)
        column, sub = np.unique(words[:, j], return_inverse=True)
        tables.append((prefix, column))
        key = rank * n + sub
    key, counts = np.unique(key, return_counts=True)
    columns = []
    for prefix, column in reversed(tables):
        columns.insert(0, column[key % n])
        key = prefix[key // n]
    return _unpack_words(np.column_stack([key, *columns]), bits.shape[1]), counts


class PackedDistribution:
    """Array view of an OutcomeDistribution, sorted by bit-string value."""

    __slots__ = (
        "width", "weights", "bits", "words", "total", "_top_order",
        "_slot", "_columns", "_zero_row",
    )

    def __init__(self, dist: OutcomeDistribution):
        if dist.total <= 0:
            raise ValueError("distribution has zero total weight")
        rows, weights = dist._arrays()
        order = value_order(rows)
        self.width = dist.width
        self.weights = weights[order]
        self.bits = rows[order]
        self.words = _pack_words(self.bits)
        self.total = float(self.weights.sum())
        self._top_order: np.ndarray | None = None
        # distance cache: row bytes -> slot; row ``slot`` of ``_columns``
        # (grown by doubling) is that centroid's distance column, and
        # ``_zero_row[slot]`` the input row equal to it, or -1
        self._slot: dict[bytes, int] = {}
        self._columns = np.empty((0, len(self.weights)), dtype=np.min_scalar_type(self.width))
        self._zero_row = np.empty(0, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.weights)

    def top_order(self) -> np.ndarray:
        """Row indices sorted by descending weight, ties by ascending value."""
        if self._top_order is None:
            # rows are already value-sorted, so a stable sort on -weight
            # leaves ties in ascending value order
            self._top_order = np.argsort(-self.weights, kind="stable")
        return self._top_order

    def hamming_to(self, centroid_bits: np.ndarray) -> np.ndarray:
        """(n, k) Hamming distances between every row and every centroid row."""
        diff = self.words[:, None, :] ^ _pack_words(centroid_bits)[None, :, :]
        return np.bitwise_count(diff).sum(axis=2, dtype=np.int64)

    def _slots(self, centroid_bits: np.ndarray) -> np.ndarray:
        """Cache slot of each centroid row; the columns of rows not seen
        before in this run are computed in one ``hamming_to`` call."""
        keys = row_keys(centroid_bits)
        fresh: dict[bytes, int] = {}  # unseen key -> its first row
        for i, key in enumerate(keys):
            if key not in self._slot:
                fresh.setdefault(key, i)
        if fresh:
            hd = self.hamming_to(centroid_bits[list(fresh.values())])
            used = len(self._slot)
            if used + len(fresh) > len(self._columns):
                capacity = max(2 * len(self._columns), used + len(fresh))
                grown = np.empty((capacity, len(self)), dtype=self._columns.dtype)
                grown[:used] = self._columns[:used]
                self._columns = grown
                self._zero_row = np.resize(self._zero_row, capacity)
            self._columns[used : used + len(fresh)] = hd.T
            zero = hd == 0
            self._zero_row[used : used + len(fresh)] = np.where(zero.any(axis=0), zero.argmax(axis=0), -1)
            for j, key in enumerate(fresh):
                self._slot[key] = used + j
        return np.array([self._slot[key] for key in keys], dtype=np.intp)

    def columns(self, centroid_bits: np.ndarray) -> np.ndarray:
        """(k, n) Hamming distances, one row per centroid, from the run's cache."""
        slots = self._slots(centroid_bits)
        return self._columns[slots]

    def distances(self, centroid_bits: np.ndarray) -> np.ndarray:
        """C-ordered (n, k) Hamming distances between every row and every
        centroid row, from the run's cache."""
        return np.ascontiguousarray(self.columns(centroid_bits).T)

    def centroid_rows(self, centroid_bits: np.ndarray) -> np.ndarray:
        """The input row equal to each centroid row, or -1."""
        slots = self._slots(centroid_bits)
        return self._zero_row[slots]
