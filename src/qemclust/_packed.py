"""Row keys, and per-run dense views of bit rows for the clustering kernels.

Bit rows are (n, width) 0/1 uint8 matrices. This module alone decides
how they are ordered and matched, at any width, and it knows nothing of
``BitString`` (the conversions live in ``distributions``). It owns two
mechanisms: one 1-D row key (``_row_keys``) that orders like the rows'
values, for sorting, dedupe and lookup; and one cache slot per distinct
centroid row per run (``PackedDistribution.slots``, the only code that
keys rows by their bytes).

A packed distribution holds the bit matrix, the same rows packed into
big-endian uint64 words, and a float weight vector, built once per
mitigation run. Majority votes read the bit matrix; Hamming distances
are XOR plus popcount over the words. A slot holds its centroid's
distance column, computed in one Hamming pass per run in the smallest
unsigned dtype that holds the width, and the input row equal to it.
``distances`` hands the columns out as a C-ordered (n, k) matrix; that
layout is part of the output bits, because the redistribution step's row
sums and its matrix-vector product add in an order that depends on it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PackedDistribution", "match_rows", "tally_rows", "value_order", "view_total"]


def view_total(total: float) -> float:
    """``total``, if it can divide weights into probabilities: raises
    ValueError unless 0 < total < inf. Each such divisor is checked as it
    adds, since near the float limit one order can overflow and another not."""
    if not 0 < total < np.inf:
        raise ValueError(f"distribution needs a positive finite total weight, got {total}")
    return total


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """(n, ceil(width/64)) uint64 words of each row, most significant first."""
    n, width = bits.shape
    n_bytes, n_words = -(-width // 8), -(-width // 64)
    padded = np.zeros((n, 8 * n_bytes), dtype=np.uint8)
    padded[:, 8 * n_bytes - width :] = bits
    raw = np.zeros((n, 8 * n_words), dtype=np.uint8)
    raw[:, 8 * n_words - n_bytes :] = np.packbits(padded.ravel()).reshape(n, n_bytes)
    return raw.view(">u8").astype(np.uint64)


def _row_keys(words: np.ndarray) -> tuple[np.ndarray, list]:
    """1-D keys of ``_pack_words`` rows that order like the rows' values,
    plus the rank tables that turn keys back into words. One word is its
    own key; each further word folds in as (rank of the key so far) * n +
    (rank of the word). Ranks are below n, so keys order like word tuples.
    """
    n = len(words)
    key = words[:, 0]
    tables = []
    for j in range(1, words.shape[1]):
        prefix, rank = np.unique(key, return_inverse=True)
        column, sub = np.unique(words[:, j], return_inverse=True)
        tables.append((prefix, column))
        key = rank * n + sub
    return key, tables


def value_order(bits: np.ndarray) -> np.ndarray:
    """Row indices that sort a (n, width) 0/1 matrix by value, stably."""
    return np.argsort(_row_keys(_pack_words(bits))[0], kind="stable")


def match_rows(bits: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the first row of ``bits`` equal to each query row, or -1."""
    keys = _row_keys(_pack_words(np.concatenate([bits, queries])))[0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    found = first[inverse[len(bits) :]]
    return np.where(found < len(bits), found, -1)


def _unpack_words(words: np.ndarray, width: int) -> np.ndarray:
    """(n, width) 0/1 uint8 rows of ``_pack_words`` output, copied out of
    the 64-bit-wide unpack buffer."""
    raw = np.unpackbits(words.astype(">u8").view(np.uint8), axis=1)
    return np.ascontiguousarray(raw[:, raw.shape[1] - width :])


def tally_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 0/1 matrix in ascending value order, with counts."""
    n = len(bits)
    key, tables = _row_keys(_pack_words(bits))
    key, counts = np.unique(key, return_counts=True)
    columns = []
    for prefix, column in reversed(tables):
        columns.insert(0, column[key % n])
        key = prefix[key // n]
    return _unpack_words(np.column_stack([key, *columns]), bits.shape[1]), counts


class PackedDistribution:
    """Array view of a distribution's (bit rows, weights), sorted by value."""

    __slots__ = (
        "width", "weights", "bits", "words", "total", "_top_order",
        "_slot", "_columns", "_zero_row",
    )

    def __init__(self, dist):
        rows, weights = dist._arrays()
        order = value_order(rows)
        self.width = dist.width
        self.weights = weights[order]
        self.bits = rows[order]
        self.words = _pack_words(self.bits)
        with np.errstate(over="ignore"):  # an overflowing sum is rejected below
            self.total = view_total(float(self.weights.sum()))
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

    def slots(self, centroid_bits: np.ndarray) -> np.ndarray:
        """Cache slot of each centroid row: equal rows, and only they, get
        equal slots for the whole run. The columns of rows not seen before
        in this run are computed in one ``hamming_to`` call."""
        keys = [row.tobytes() for row in centroid_bits]
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

    def columns(self, slots: np.ndarray) -> np.ndarray:
        """(k, n) Hamming distances, one row per slot."""
        return self._columns[slots]

    def distances(self, slots: np.ndarray) -> np.ndarray:
        """C-ordered (n, k) Hamming distances between every row and the
        centroid row of every slot."""
        return np.ascontiguousarray(self._columns[slots].T)

    def centroid_rows(self, slots: np.ndarray) -> np.ndarray:
        """The input row equal to each slot's centroid row, or -1."""
        return self._zero_row[slots]
