"""Noise-aware reshaping of a noisy distribution around cluster centroids.

Every non-centroid bit-string owes each centroid the joint probability of
"the true outcome was that centroid and the channel flipped it here":
``(1-p)^(width-hd) * p^hd * cluster_weight``. The owed mass (capped at
what the string actually has) is moved onto the owning centroids, split
in proportion to the individual joint terms; strings whose entire mass is
explained away are removed. Because centroids collect the mass that the
noise smeared off them, a centroid never observed in the input can still
end up with positive probability, which is the point of voting centroids
instead of picking observed strings.
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
    "DegenerateMitigationError",
    "RedistributionResult",
    "joint_probability",
    "redistribute",
]


class DegenerateMitigationError(ValueError):
    """Raised when redistribution leaves no bit-string with positive mass."""


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

    Returns the renormalized probability view. Raises
    DegenerateMitigationError when nothing survives (callers fall back to
    the unmitigated input).
    """
    if noisy.width != model.width:
        raise ValueError(f"width mismatch: {noisy.width} != {model.width}")
    if not 0.0 <= flip_rate <= 0.5:
        raise ValueError(f"flip_rate must lie in [0, 0.5], got {flip_rate}")
    if noisy.total <= 0:
        raise ValueError("distribution has zero total weight")
    if not model.centroids:
        raise ValueError("cluster model has no centroids")

    packed = PackedDistribution(noisy)
    centroid_bits = strings_to_rows(model.centroids, packed.width)
    slots = packed.slots(centroid_bits)
    arrays = _redistribute_packed(packed, slots, np.array(model.weights), flip_rate)
    mitigated = _mitigated_distribution(packed, noisy, centroid_bits, slots, arrays, flip_rate)
    # a zero-rate pass explains no flips: it removes nothing
    removed_idx = arrays[1] if flip_rate > 0 else ()
    centroid_set = set(model.centroids)
    strings = rows_to_strings(packed.bits)
    return RedistributionResult(
        mitigated,
        frozenset(strings[i] for i in removed_idx),
        {b: c for b, c in zip(strings, arrays[3].tolist()) if b not in centroid_set},
    )


def _mitigated_distribution(
    packed: PackedDistribution,
    noisy: OutcomeDistribution,
    centroid_bits: np.ndarray,
    slots: np.ndarray,
    arrays: tuple | None,
    flip_rate: float,
) -> OutcomeDistribution:
    """The mitigated distribution from ``_redistribute_packed``'s arrays.

    Surviving input rows come first in value order, then the centroids
    that gained mass, in order of first appearance; duplicate centroids
    (possible in unconverged models) accumulate. A zero-rate channel
    explains no flips, and ``arrays`` of None marks a degenerate pass:
    both return the input's probability view bit-exactly. Raises
    DegenerateMitigationError when no mass survives.
    """
    if arrays is None or flip_rate == 0.0:
        return noisy.normalized()
    masses, _removed, centroid_masses, _claim, _rows = arrays
    survivors = np.flatnonzero(masses > 0)
    gained = np.flatnonzero(centroid_masses > 0)
    _, first, which = np.unique(slots[gained], return_index=True, return_inverse=True)
    # bincount adds each bin's masses in centroid order
    gained_mass = np.bincount(which, centroid_masses[gained], len(first))
    order = np.argsort(first)
    rows = np.concatenate([packed.bits[survivors], centroid_bits[gained[first[order]]]])
    mass = np.concatenate([masses[survivors], gained_mass[order]])
    total = _left_to_right_sum(mass)
    if total <= 0:
        raise DegenerateMitigationError("redistribution removed every bit-string")
    return OutcomeDistribution._from_rows(rows, mass / total)


def _redistribute_packed(
    packed: PackedDistribution,
    slots: np.ndarray,
    cluster_weights: np.ndarray,
    flip_rate: float,
):
    """Array core of the redistribution step for the centroids of ``slots``.

    Returns (per-row surviving masses, removed row indices, per-centroid
    masses, per-row raw claims, the input row each centroid equals or -1).
    Rows equal to a centroid carry mass 0 here, their own mass goes to
    the centroid, and their claims are meaningless. Masses are
    unnormalized but sum to the input's probability total.
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
    # a centroid row's own mass goes to the first centroid equal to it
    rows, first = np.unique(centroid_rows[seen], return_index=True)
    centroid_masses[np.flatnonzero(seen)[first]] += pr[rows]
    return masses, removed_idx, centroid_masses, claim, centroid_rows
