"""Row keys, value-sorted views of distributions, and one cache per
mitigation run of the bit rows' distances and likelihoods.

A row set is kept once, as big-endian uint64 words (``_pack_words``).
Bit rows, (n, width) 0/1 uint8 matrices, are unpacked from words
(``_unpack_words``) only where single bits are read: once per mitigation
run, for its votes and seeds, by a standalone majority vote, and by the
distribution writer. This module alone decides how rows are ordered and
matched, at any width, and it knows nothing of ``BitString`` (the
conversions live in ``distributions``). It owns three mechanisms: one
1-D row key (``_row_keys``) that orders like the rows' values, for
sorting, dedupe and lookup (``match_rows`` sorts only its queries); one
value-sorted view per distribution (``SortedView``, built only by
``sorted_view``, at most once); and one cache slot per distinct centroid
row per run (``PackedDistribution.slots``, the only code that keys rows
by their bytes).

A sorted view holds a distribution's words and weights in value order.
Each view is made on first use: words in value order already are neither
sorted nor copied, and every other distribution sorts once. Code that
only reads a distribution reads its view. Packing copies each row once,
padded on the left to a whole big-endian word dtype (``_row_bytes``),
and reads the packed bytes in that dtype (``_pack_buffer`` is that
padded matrix with the view its rows' bits are written through,
``_words_of`` reads it; the bit-flip channel writes its flip flags
straight into one). The simulator's tally (``_tally``) counts rows of at
most 62 bits with ``bincount`` when there are at least a quarter as many
rows as possible values (2**width <= 4n); wider or sparser rows are
sorted by their keys. Both give the same words and counts in value order.

A packed distribution is one mitigation run at one bit-flip rate: it
wraps the view, unpacks its bit rows, holds the rate's likelihood table
``(1-p)^(width-d) * p^d``, built by each run, and adds the run's cache
and its ``top_order`` of the weights.
Majority votes read the uint8 bit matrix; Hamming distances are
XOR plus popcount over the words. A slot holds its centroid's distances
to every row, in the smallest unsigned dtype that holds the width, their
float64 likelihood row ``table[distance]``, and the input row equal to
the centroid; all three are made with the slot, in one Hamming pass and
one table lookup per distinct centroid per run. ``columns`` stacks the
distances of k slots into a (k, n) matrix and ``likelihoods`` their float
rows, the layout both clustering and redistribution work in.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["PackedDistribution", "SortedView", "match_rows", "sorted_view", "top_order", "view_total"]


def view_total(total: float) -> float:
    """``total``, if it can divide weights into probabilities: raises
    ValueError unless 0 < total < inf. Each such divisor is checked as it
    adds, since near the float limit one order can overflow and another not."""
    if not 0 < total < np.inf:
        raise ValueError(f"distribution needs a positive finite total weight, got {total}")
    return total


def top_order(weights: np.ndarray) -> np.ndarray:
    """Row indices by descending weight, ties by ascending value, of the
    ``weights`` of rows in value order: a stable sort on -weight keeps ties
    in that order."""
    return np.argsort(-weights, kind="stable")


def _likelihood_table(width: int, flip_rate: float) -> np.ndarray:
    """``(1-p)^(width-d) * p^d`` for d = 0..width, built by each run;
    running products, since numpy's vector power rounds differently per
    CPU."""
    powers = np.full((2, width + 1), [[1.0 - flip_rate], [flip_rate]])
    powers[:, 0] = 1.0
    np.cumprod(powers, axis=1, out=powers)
    return powers[0, ::-1] * powers[1]


def _row_bytes(width: int) -> int:
    """Bytes of a width-bit row padded on the left to a whole big-endian
    word dtype: 1, 2 or 4 up to 32 bits, ``8 * n_words`` above."""
    return 1 if width <= 8 else 2 if width <= 16 else 4 if width <= 32 else 8 * -(-width // 64)


def _pack_buffer(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The zeroed (n, 8 * ``_row_bytes``) uint8 matrix that ``_words_of``
    packs, and the (n, width) view of it that a row's bits are written
    through: its last ``width`` columns."""
    n_bytes = _row_bytes(width)
    padded = np.zeros((n, 8 * n_bytes), dtype=np.uint8)
    return padded, padded[:, 8 * n_bytes - width :]


def _words_of(padded: np.ndarray) -> np.ndarray:
    """(n, ceil(width/64)) uint64 words of the rows of a filled
    ``_pack_buffer``, most significant first: packed, and read back in
    the buffer's word dtype."""
    n, n_bits = padded.shape
    packed = np.packbits(padded.ravel()).view(f">u{min(n_bits // 8, 8)}")
    return packed.astype(np.uint64).reshape(n, -(-n_bits // 64))


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """(n, ceil(width/64)) uint64 words of each row, most significant
    first, copied into a ``_pack_buffer`` in one strided copy."""
    padded, rows = _pack_buffer(*bits.shape)
    rows[...] = bits
    return _words_of(padded)


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


def _ascending(words: np.ndarray) -> bool:
    """Whether the ``_pack_words`` rows are in strictly ascending value
    order: compared word by word from the last, in O(n) per word."""
    later, earlier = words[1:], words[:-1]
    up = later[:, -1] > earlier[:, -1]
    for j in range(words.shape[1] - 2, -1, -1):
        up = (later[:, j] > earlier[:, j]) | ((later[:, j] == earlier[:, j]) & up)
    return bool(up.all())


class SortedView(NamedTuple):
    """A distribution's rows in value order: their ``_pack_words``, the
    weights in that order, and ``total``, the weights' sum in that order
    (inf when it overflows)."""

    words: np.ndarray
    weights: np.ndarray
    total: float


def sorted_view(words: np.ndarray, weights: np.ndarray) -> SortedView:
    """The value-sorted view of the ``_pack_words`` of distinct rows and
    their weights; words already in value order are neither sorted nor
    copied, other words are sorted once."""
    if not _ascending(words):
        order = np.argsort(_row_keys(words)[0])  # distinct rows have distinct keys
        words, weights = np.take(words, order, axis=0), weights[order]
    with np.errstate(over="ignore"):  # an overflowing total is legal until something divides by it
        return SortedView(words, weights, float(weights.sum()))


def _find(table: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each value in the sorted ``table`` (clipped into range)
    and whether it is there."""
    pos = np.searchsorted(table, values)
    np.minimum(pos, len(table) - 1, out=pos)
    return pos, table[pos] == values


def match_rows(words: np.ndarray, query_words: np.ndarray) -> np.ndarray:
    """Index of the row of ``words`` equal to each row of ``query_words``,
    or -1. The rows of ``words`` must be distinct.

    Only the m queries are sorted: they get ``_row_keys``, whose ranks stay
    below m at every fold, and the n rows of ``words`` are looked up in the
    same fold tables by ``searchsorted``, in O(n + m log m + n log m). A
    row drops out at its first word that no query has.
    """
    if not len(words) or not len(query_words):
        return np.full(len(query_words), -1, dtype=np.intp)
    m = len(query_words)
    key, tables = _row_keys(query_words)
    distinct, inverse = np.unique(key, return_inverse=True)
    live = np.arange(len(words))
    key = words[:, 0]
    for j, (prefix, column) in enumerate(tables, start=1):
        rank, hit = _find(prefix, key)
        live, rank = live[hit], rank[hit]
        sub, hit = _find(column, words[live, j])
        live, key = live[hit], rank[hit] * m + sub[hit]
    pos, hit = _find(distinct, key)
    row = np.full(len(distinct), -1, dtype=np.intp)
    row[pos[hit]] = live[hit]
    return row[inverse]


def _unpack_words(words: np.ndarray, width: int) -> np.ndarray:
    """(n, width) 0/1 uint8 rows of ``_pack_words`` output: the words
    read back in their ``_row_bytes`` dtype, unpacked as one flat run,
    and the padding columns dropped."""
    n_bytes = _row_bytes(width)
    raw = np.unpackbits(words.astype(f">u{min(n_bytes, 8)}").view(np.uint8).ravel())
    return np.ascontiguousarray(raw.reshape(len(words), 8 * n_bytes)[:, 8 * n_bytes - width :])


def _tally(words: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of width-bit ``_pack_words`` rows in ascending
    value order, as words, and their counts.

    Rows of at most 62 bits, when there are at least a quarter as many
    rows as possible values (2**width <= 4n), are counted by value with
    ``bincount``, whose nonzero indices are the rows' words in value
    order; other rows are sorted by their keys."""
    n = len(words)
    if width <= 62 and 1 << width <= 4 * n:
        counts = np.bincount(words[:, 0].view(np.int64), minlength=1 << width)
        present = np.flatnonzero(counts)
        words, counts = present.astype(np.uint64).reshape(-1, 1), counts[present]
    else:
        key, tables = _row_keys(words)
        key, counts = np.unique(key, return_counts=True)
        columns = []
        for prefix, column in reversed(tables):
            columns.insert(0, column[key % n])
            key = prefix[key // n]
        words = np.column_stack([key, *columns])
    return words, counts


class PackedDistribution:
    """One mitigation run at one bit-flip rate: the words and weights of a
    distribution's sorted view, the bit rows unpacked from those words,
    the checked total, the run's likelihood table, distance cache and
    weight order."""

    __slots__ = (
        "width", "weights", "bits", "words", "total", "_top_order",
        "_slot", "_columns", "_zero_row", "_table", "_likelihood",
    )

    def __init__(self, dist, flip_rate: float):
        view = dist._sorted()
        self.width = dist.width
        self.words, self.weights = view.words, view.weights
        self.bits = _unpack_words(view.words, self.width)  # the votes' and seeds' rows
        self.total = view_total(view.total)
        self._top_order: np.ndarray | None = None
        # distance cache: row bytes -> slot; row ``slot`` of ``_columns``
        # (grown by doubling) is that centroid's distance column,
        # ``_zero_row[slot]`` the input row equal to it, or -1, and
        # ``_likelihood[slot]`` its row of the rate's ``_table``
        self._slot: dict[bytes, int] = {}
        self._columns = np.empty((0, len(self.weights)), dtype=np.min_scalar_type(self.width))
        self._zero_row = np.empty(0, dtype=np.intp)
        self._table = _likelihood_table(self.width, flip_rate)
        self._likelihood = np.empty((0, len(self.weights)))

    def __len__(self) -> int:
        return len(self.weights)

    def top_order(self) -> np.ndarray:
        """``top_order`` of the run's weights, computed once."""
        if self._top_order is None:
            self._top_order = top_order(self.weights)
        return self._top_order

    def hamming_to(self, centroid_bits: np.ndarray) -> np.ndarray:
        """(k, n) Hamming distances between every centroid row and every row,
        in the cache's dtype, summed word by word."""
        cw = _pack_words(centroid_bits)
        hd = np.zeros((len(cw), len(self)), dtype=self._columns.dtype)
        for j in range(cw.shape[1]):
            hd += np.bitwise_count(cw[:, j : j + 1] ^ self.words[:, j])
        return hd

    def slots(self, centroid_bits: np.ndarray) -> np.ndarray:
        """Cache slot of each centroid row: equal rows, and only they, get
        equal slots for the whole run. The columns of rows not seen before
        in this run are computed in one ``hamming_to`` call, and their
        likelihood rows in one table lookup."""
        keys = [row.tobytes() for row in centroid_bits]
        fresh: dict[bytes, int] = {}  # unseen key -> its first row
        for i, key in enumerate(keys):
            if key not in self._slot:
                fresh.setdefault(key, i)
        if fresh:
            rows = self.hamming_to(centroid_bits[list(fresh.values())])
            used, end = len(self._slot), len(self._slot) + len(fresh)
            if end > len(self._columns):
                self._grow(max(2 * len(self._columns), end), used)
            self._columns[used:end] = rows
            np.take(self._table, rows, out=self._likelihood[used:end])
            zero = rows == 0
            self._zero_row[used:end] = np.where(zero.any(axis=1), zero.argmax(axis=1), -1)
            for j, key in enumerate(fresh):
                self._slot[key] = used + j
        return np.array([self._slot[key] for key in keys], dtype=np.intp)

    def _grow(self, capacity: int, used: int) -> None:
        """Room for ``capacity`` slots, keeping the ``used`` ones."""
        columns = np.empty((capacity, len(self)), dtype=self._columns.dtype)
        likelihood = np.empty((capacity, len(self)))
        columns[:used], likelihood[:used] = self._columns[:used], self._likelihood[:used]
        self._columns, self._likelihood = columns, likelihood
        self._zero_row = np.resize(self._zero_row, capacity)

    def columns(self, slots: np.ndarray) -> np.ndarray:
        """(k, n) Hamming distances, one row per slot."""
        return self._columns[slots]

    def likelihoods(self, slots: np.ndarray) -> np.ndarray:
        """(k, n) float64 likelihood rows ``table[distance]``, a copy of
        each slot's row."""
        return self._likelihood[slots]

    def centroid_rows(self, slots: np.ndarray) -> np.ndarray:
        """The input row equal to each slot's centroid row, or -1."""
        return self._zero_row[slots]
