"""Hamming-distance k-means over shot data with qubit-wise majority votes.

Clusters are seeded from the highest-weight bit-strings, shots are
assigned to the nearest centroid in Hamming distance, strings farther
than the noise-derived outlier threshold stay unassigned, and centroids
are updated by a shot-weighted per-qubit majority vote until they stop
moving: a round reads the run's (k, n) distance cache and votes every
cluster by adding its uint8 member rows left to right in row order,
cast to float64 inside einsum's loop, with no float copy of the rows and
no BLAS kernel. Every tie-break is a total order and every sum has one
order, so the result is deterministic and does not depend on the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._packed import PackedDistribution, SortedView, top_order, view_total
from .distributions import BitString, OutcomeDistribution, rows_to_strings, strings_to_rows
from .noise import check_rate

__all__ = [
    "ClusterConfig",
    "ClusterModel",
    "EmptyClusterError",
    "outlier_threshold",
    "select_initial_centroids",
    "qubitwise_majority_vote",
    "cluster",
]


class EmptyClusterError(ValueError):
    """Raised when a majority vote is requested over an empty member set."""


def outlier_threshold(width: int, flip_rate: float) -> int:
    """Maximum Hamming distance at which a shot still joins a cluster.

    ceil of twice the bit-flip variance ``width * flip_rate * (1 - flip_rate)``;
    zero exactly when ``flip_rate`` is zero. The product is rounded to 12
    decimals first so values that are integers up to float error do not
    get bumped a whole step by ``ceil``.
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    check_rate(flip_rate)
    return math.ceil(round(2.0 * width * flip_rate * (1.0 - flip_rate), 12))


@dataclass(frozen=True)
class ClusterConfig:
    k: int
    flip_rate: float
    max_rounds: int = 100

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        check_rate(self.flip_rate)
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds}")


@dataclass(frozen=True)
class ClusterModel:
    """Result of one clustering run.

    ``weights[i]`` is the fraction of the total shot weight assigned to
    cluster ``i`` (outlier weight is excluded, so the weights sum to at
    most 1). ``assignments`` maps every non-outlier bit-string to its
    cluster index. Clusters that lost all members were dropped, so
    ``k`` may be smaller than ``requested_k``.
    """

    width: int
    centroids: tuple[BitString, ...]
    weights: tuple[float, ...]
    assignments: Mapping[BitString, int]
    outliers: frozenset[BitString]
    threshold: int
    requested_k: int
    converged: bool
    rounds: int

    @property
    def k(self) -> int:
        return len(self.centroids)


def select_initial_centroids(dist: OutcomeDistribution, k: int) -> list[BitString]:
    """The ``k`` highest-weight bit-strings, ties broken by ascending value."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if k > len(dist):
        raise ValueError(f"k={k} exceeds the {len(dist)} unique bit-strings present")
    view = dist._sorted()
    view_total(view.total)
    return rows_to_strings(view.bits[top_order(view.weights)[:k]])


def qubitwise_majority_vote(
    members: OutcomeDistribution | Mapping[BitString, float],
    incumbent: BitString | None = None,
) -> BitString:
    """Shot-weighted per-qubit majority over a cluster's members.

    Bit ``i`` of the result is 1 when the member weight carrying 1 at
    position ``i`` strictly exceeds half the cluster weight. Exact ties
    keep the incumbent centroid's bit when one is given, and fall back to
    0 otherwise.
    """
    if not members:
        raise EmptyClusterError("majority vote over an empty cluster")
    width = next(iter(members)).width
    dist = OutcomeDistribution(width, members)  # members must share one width
    if dist.total <= 0:
        raise EmptyClusterError("majority vote over zero total weight")
    if incumbent is not None and incumbent.width != width:
        raise ValueError("incumbent width does not match members")
    view = dist._sorted()
    total = view_total(view.total)
    tie_row = strings_to_rows([BitString(0, width) if incumbent is None else incumbent], width)
    n = len(view.weights)
    return rows_to_strings(_vote(view, np.arange(n), np.array([0, n]), np.array([total]), tie_row))[0]


def _vote(
    rows: PackedDistribution | SortedView,
    members: np.ndarray,
    bounds: np.ndarray,
    totals: np.ndarray,
    incumbents: np.ndarray,
) -> np.ndarray:
    """Per-qubit majority row of every cluster ``members[bounds[i]:bounds[i + 1]]``
    of the ``rows``' bits and weights, of weight ``totals[i]``, exact ties
    broken by ``incumbents[i]``."""
    w, bits = rows.weights[members], np.take(rows.bits, members, axis=0)
    with np.errstate(over="ignore"):  # twice a sum past half the float range is inf, which still compares right
        # einsum without optimize calls no BLAS kernel: it casts the uint8 rows
        # to float64 in its buffered loop, and each qubit's sum adds the member
        # rows left to right in row order on every CPU (width 1 takes its
        # pairwise loop, but a width-1 cluster has at most two rows)
        ones = [np.einsum("i,ij->j", w[a:b], bits[a:b]) for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
        twice, total = 2 * np.array(ones), totals[:, None]
        return np.where(twice > total, 1, np.where(twice < total, 0, incumbents)).astype(np.uint8)


def _assign(
    packed: PackedDistribution, slots: np.ndarray, theta: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest centroid (``slots[i]`` caches centroid ``i``) and outlier flag
    of every row, the members of each cluster: the non-outlier rows, stably
    sorted by cluster, so cluster ``i`` is ``members[bounds[i]:bounds[i + 1]]``
    in row order, and each cluster's weight, its members' pairwise sum."""
    k = len(slots)
    # distance * k + centroid index: the smallest key per row is the
    # nearest centroid, ties resolved to the lowest index
    key = np.multiply(packed.columns(slots), k, dtype=np.min_scalar_type((packed.width + 1) * k))
    key += np.arange(k, dtype=key.dtype)[:, None]
    first = key.min(axis=0)
    nearest = first % k
    outlier = first >= (theta + 1) * k
    kept = np.flatnonzero(~outlier)
    # a small label dtype lets numpy take its radix sort
    labels = nearest[kept].astype(np.min_scalar_type(k))
    members = kept[np.argsort(labels, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=k))])
    w = packed.weights[members]
    totals = np.array([w[a:b].sum() for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())])
    return nearest, outlier, members, bounds, totals


def _cluster_packed(
    packed: PackedDistribution, k: int, theta: int, max_rounds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool, int, np.ndarray]:
    """Core loop over the packed arrays.

    Returns (centroid_bits, cluster_weights, nearest, outlier_mask,
    converged, rounds, slots); ``nearest`` holds the per-string cluster
    index, meaningful where ``outlier_mask`` is False. Each centroid list
    is assigned once, so the result is the returned centroids' assignment.
    A voted list keeps a member: a weighted majority row costs no more
    weighted Hamming distance than its incumbent, so one lies within ``theta``.
    """
    centroids = packed.bits[packed.top_order()[:k]]
    slots = packed.slots(centroids)
    nearest, outlier, members, bounds, totals = _assign(packed, slots, theta)
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        voted = _vote(packed, members, bounds, totals, centroids)[bounds[1:] > bounds[:-1]]  # empty clusters drop
        if voted.shape == centroids.shape and (voted == centroids).all():
            converged = True
            break
        centroids = voted
        slots = packed.slots(centroids)
        nearest, outlier, members, bounds, totals = _assign(packed, slots, theta)
    return centroids, totals / packed.total, nearest, outlier, converged, rounds, slots


def cluster(dist: OutcomeDistribution, cfg: ClusterConfig) -> ClusterModel:
    """Run assignment / outlier filtering / majority-vote rounds to a fixed point.

    Stops when the centroid list repeats exactly or after ``max_rounds``
    rounds (the model is then flagged unconverged). Clusters whose member
    set becomes empty are dropped.
    """
    if cfg.k > len(dist):
        raise ValueError(f"k={cfg.k} exceeds the {len(dist)} unique bit-strings present")
    packed = PackedDistribution(dist, cfg.flip_rate)
    theta = outlier_threshold(dist.width, cfg.flip_rate)
    bits, weights, nearest, outlier, converged, rounds, _ = _cluster_packed(packed, cfg.k, theta, cfg.max_rounds)
    strings = rows_to_strings(packed.bits)
    assignments = {strings[i]: int(nearest[i]) for i in range(len(packed)) if not outlier[i]}
    outliers = frozenset(strings[i] for i in range(len(packed)) if outlier[i])
    return ClusterModel(
        width=dist.width, centroids=tuple(rows_to_strings(bits)), weights=tuple(weights.tolist()),
        assignments=assignments, outliers=outliers, threshold=theta, requested_k=cfg.k,
        converged=converged, rounds=rounds,
    )
