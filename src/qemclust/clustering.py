"""Hamming-distance k-means over shot data with qubit-wise majority votes.

Clusters are seeded from the highest-weight bit-strings, shots are
assigned to the nearest centroid in Hamming distance, strings farther
than the noise-derived outlier threshold stay unassigned, and centroids
are updated by a shot-weighted per-qubit majority vote until they stop
moving. Every tie-break is a total order, so the result is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._packed import PackedDistribution
from .distributions import BitString, OutcomeDistribution, rows_to_strings, strings_to_rows

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
    if not 0.0 <= flip_rate <= 0.5:
        raise ValueError(f"flip_rate must lie in [0, 0.5], got {flip_rate}")
    return math.ceil(round(2.0 * width * flip_rate * (1.0 - flip_rate), 12))


@dataclass(frozen=True)
class ClusterConfig:
    k: int
    flip_rate: float
    max_rounds: int = 100

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if not 0.0 <= self.flip_rate <= 0.5:
            raise ValueError(f"flip_rate must lie in [0, 0.5], got {self.flip_rate}")
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
    packed = PackedDistribution(dist)
    return rows_to_strings(packed.bits[packed.top_order()[:k]])


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
    packed = PackedDistribution(dist)
    tie_row = strings_to_rows([BitString(0, width) if incumbent is None else incumbent], width)[0]
    return rows_to_strings(_vote_rows(packed, np.arange(len(packed)), tie_row)[None, :])[0]


def _vote_rows(packed: PackedDistribution, member_idx: np.ndarray, incumbent: np.ndarray) -> np.ndarray:
    w = packed.weights[member_idx]
    ones = w @ packed.bits[member_idx]
    total = w.sum()
    with np.errstate(over="ignore"):  # twice a sum past half the float range is inf, which still compares right
        return np.where(ones * 2 > total, 1, np.where(ones * 2 < total, 0, incumbent)).astype(np.uint8)


def _assign(
    packed: PackedDistribution, centroids: np.ndarray, theta: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest centroid and outlier flag of every row, plus the members of
    each cluster: the non-outlier rows, stably sorted by cluster, so
    cluster ``i`` is ``members[bounds[i]:bounds[i + 1]]`` in row order."""
    k = len(centroids)
    # distance * k + centroid index: the smallest key per row is the
    # nearest centroid, ties resolved to the lowest index
    key = packed.columns(packed.slots(centroids)).astype(np.min_scalar_type((packed.width + 1) * k))
    key *= k
    key += np.arange(k, dtype=key.dtype)[:, None]
    first = key.min(axis=0)
    nearest = first % k
    outlier = first >= (theta + 1) * k
    kept = np.flatnonzero(~outlier)
    # a small label dtype lets numpy take its radix sort
    labels = nearest[kept].astype(np.min_scalar_type(k))
    members = kept[np.argsort(labels, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=k))])
    return nearest, outlier, members, bounds


def _cluster_packed(
    packed: PackedDistribution, k: int, theta: int, max_rounds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool, int]:
    """Core loop over the packed arrays.

    Returns (centroid_bits, cluster_weights, nearest, outlier_mask,
    converged, rounds); ``nearest`` holds the per-string cluster index,
    meaningful where ``outlier_mask`` is False.
    """
    centroids = packed.bits[packed.top_order()[:k]].copy()
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        nearest, outlier, members, bounds = _assign(packed, centroids, theta)
        new_rows = [
            _vote_rows(packed, members[bounds[i] : bounds[i + 1]], centroids[i])
            for i in range(len(centroids))
            if bounds[i + 1] > bounds[i]  # an empty cluster is dropped, k shrinks
        ]
        if not new_rows:
            break  # every cluster starved; keep the previous centroids
        new_centroids = np.array(new_rows, dtype=np.uint8)
        if new_centroids.shape == centroids.shape and (new_centroids == centroids).all():
            converged = True
            break
        centroids = new_centroids
    if not converged:
        # realign assignments with the final centroid list
        nearest, outlier, members, bounds = _assign(packed, centroids, theta)
    weights = np.array(
        [packed.weights[members[bounds[i] : bounds[i + 1]]].sum() for i in range(len(centroids))]
    ) / packed.total
    return centroids, weights, nearest, outlier, converged, rounds


def cluster(dist: OutcomeDistribution, cfg: ClusterConfig) -> ClusterModel:
    """Run assignment / outlier filtering / majority-vote rounds to a fixed point.

    Stops when the centroid list repeats exactly or after ``max_rounds``
    rounds (the model is then flagged unconverged). Clusters whose member
    set becomes empty are dropped.
    """
    if cfg.k > len(dist):
        raise ValueError(f"k={cfg.k} exceeds the {len(dist)} unique bit-strings present")
    packed = PackedDistribution(dist)
    theta = outlier_threshold(dist.width, cfg.flip_rate)
    centroid_bits, weights, nearest, outlier, converged, rounds = _cluster_packed(
        packed, cfg.k, theta, cfg.max_rounds
    )
    centroids = tuple(rows_to_strings(centroid_bits))
    strings = rows_to_strings(packed.bits)
    assignments = {strings[i]: int(nearest[i]) for i in range(len(packed)) if not outlier[i]}
    outliers = frozenset(strings[i] for i in range(len(packed)) if outlier[i])
    return ClusterModel(
        width=dist.width,
        centroids=centroids,
        weights=tuple(float(w) for w in weights),
        assignments=assignments,
        outliers=outliers,
        threshold=theta,
        requested_k=cfg.k,
        converged=converged,
        rounds=rounds,
    )
