"""Noise-aware reshaping of a noisy distribution around cluster centroids.

Every non-centroid bit-string owes each centroid the joint probability of
"the true outcome was that centroid and the channel flipped it here":
``(1-p)^(width-hd) * p^hd * cluster_weight``. The owed mass (capped at
what the string actually has) is moved onto the owning centroids, split
in proportion to the individual joint terms; strings whose entire mass is
explained away are removed. Because centroids collect the mass that the
noise smeared off them, a centroid never observed in the input can still
end up with positive probability, which is the point of voting centroids
instead of picking observed strings. One pass is ``_redistribute_packed``,
which alone merges equal centroids. A pass conserves the input's mass:
each claimed string's shares sum to 1 and a centroid string's own mass
moves to its centroid, so some mass always survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._packed import PackedDistribution
from .clustering import ClusterModel
from .distributions import BitString, OutcomeDistribution, _left_to_right_sum, hamming_distance
from .distributions import rows_to_strings, strings_to_rows

__all__ = [
    "RedistributionResult",
    "joint_probability",
    "redistribute",
]


@dataclass(frozen=True)
class RedistributionResult:
    """Mitigated probability view plus removal diagnostics.

    ``per_string_subtractions`` records, for every non-centroid string of
    the input support, the raw joint-mass sum claimed against it (before
    capping at the string's own probability).
    """

    mitigated: OutcomeDistribution
    removed: frozenset[BitString]
    per_string_subtractions: Mapping[BitString, float]


def joint_probability(b: BitString, centroid: BitString, cluster_weight: float, flip_rate: float) -> float:
    """Probability of observing ``b`` while the true outcome is ``centroid``.

    Bit-flip likelihood times the centroid's cluster weight. With
    ``flip_rate`` 0 this is ``cluster_weight`` when the strings coincide
    and 0 otherwise.
    """
    if b.width != centroid.width:
        raise ValueError(f"width mismatch: {b.width} != {centroid.width}")
    if not 0.0 <= flip_rate <= 0.5:
        raise ValueError(f"flip_rate must lie in [0, 0.5], got {flip_rate}")
    if not 0.0 <= cluster_weight <= 1.0:
        raise ValueError(f"cluster_weight must lie in [0, 1], got {cluster_weight}")
    table = _likelihood_table(b.width, flip_rate)
    return float(table[hamming_distance(b, centroid)] * cluster_weight)


def _likelihood_table(width: int, flip_rate: float) -> np.ndarray:
    if flip_rate == 0.0:
        table = np.zeros(width + 1)
        table[0] = 1.0
        return table
    h = np.arange(width + 1)
    return (1.0 - flip_rate) ** (width - h) * flip_rate**h


def redistribute(noisy: OutcomeDistribution, model: ClusterModel, flip_rate: float) -> RedistributionResult:
    """Reassign noise-explained mass from the support onto the centroids.

    Returns the renormalized probability view.
    """
    if noisy.width != model.width:
        raise ValueError(f"width mismatch: {noisy.width} != {model.width}")
    if not 0.0 <= flip_rate <= 0.5:
        raise ValueError(f"flip_rate must lie in [0, 0.5], got {flip_rate}")
    if not model.centroids:
        raise ValueError("cluster model has no centroids")

    weights = np.array(model.weights, dtype=float)
    if weights.shape != (model.k,) or not ((weights >= 0.0) & (weights <= 1.0)).all():
        raise ValueError(f"cluster weights must be one value in [0, 1] per centroid, got {model.weights}")

    packed = PackedDistribution(noisy)
    centroid_bits = strings_to_rows(model.centroids, packed.width)
    arrays = _redistribute_packed(packed, packed.slots(centroid_bits), weights, flip_rate)
    mitigated = _mitigated_distribution(packed, noisy, centroid_bits, arrays, flip_rate)
    # a zero-rate pass explains no flips: it removes nothing
    removed_idx = arrays[1] if flip_rate > 0 else ()
    centroid_set = set(model.centroids)
    strings = rows_to_strings(packed.bits)
    return RedistributionResult(
        mitigated,
        frozenset(strings[i] for i in removed_idx),
        {b: c for b, c in zip(strings, arrays[2].tolist()) if b not in centroid_set},
    )


def _mitigated_distribution(
    packed: PackedDistribution,
    noisy: OutcomeDistribution,
    centroid_bits: np.ndarray,
    arrays: tuple,
    flip_rate: float,
) -> OutcomeDistribution:
    """The mitigated distribution of a ``_redistribute_packed`` pass:
    surviving input rows in value order, then the merged centroids. A
    zero-rate channel explains no flips, so it returns the input's
    probability view bit-exactly.
    """
    if flip_rate == 0.0:
        return noisy.normalized()
    masses, _removed, _claim, gained = arrays
    survivors = np.flatnonzero(masses > 0)
    rows = np.concatenate([packed.bits[survivors], centroid_bits[[g[0] for g in gained]]])
    mass = np.concatenate([masses[survivors], [g[1] for g in gained]])
    return OutcomeDistribution._from_rows(rows, mass / _left_to_right_sum(mass))


def _redistribute_packed(
    packed: PackedDistribution,
    slots: np.ndarray,
    cluster_weights: np.ndarray,
    flip_rate: float,
):
    """One redistribution pass for the centroids of ``slots``.

    Returns (unnormalized per-row surviving masses, removed row indices,
    per-row raw claims, gained centroids). Rows equal to a centroid keep
    mass 0 and meaningless claims; their own mass goes to the first
    centroid equal to them. Each distinct centroid that gained mass is one
    (first centroid index, mass, slot, input row or -1) entry, in order of
    first appearance, whose equal centroids' masses add in centroid order.
    """
    pr = packed.weights / packed.total
    hd = packed.distances(slots)
    centroid_rows = packed.centroid_rows(slots)
    joint = np.take(_likelihood_table(packed.width, flip_rate), hd)
    joint *= cluster_weights
    seen = centroid_rows >= 0
    is_centroid = np.zeros(len(pr), dtype=bool)
    is_centroid[centroid_rows[seen]] = True

    claim = joint.sum(axis=1)
    give = np.minimum(claim, pr)
    give[is_centroid] = 0.0
    # split each string's surrendered mass across centroids in proportion
    # to their individual joint terms
    with np.errstate(invalid="ignore"):
        share = joint / claim[:, None]
    share[claim == 0] = 0.0  # 0/0: a row no centroid claims gives nothing
    centroid_masses = give @ share

    masses = pr - give
    masses[is_centroid] = 0.0
    removed_idx = np.flatnonzero(~is_centroid & (masses <= 0))
    gained: dict[int, list] = {}  # slot -> [first centroid index, mass, slot, row]
    for i, (m, slot, row) in enumerate(zip(centroid_masses.tolist(), slots.tolist(), centroid_rows.tolist())):
        if slot in gained:
            gained[slot][1] += m
            continue
        if row >= 0:
            m += float(pr[row])  # the row's own mass, to the first centroid equal to it
        if m > 0:
            gained[slot] = [i, m, slot, row]
    return masses, removed_idx, claim, list(gained.values())
