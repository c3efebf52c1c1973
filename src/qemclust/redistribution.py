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
moves to its centroid, so some mass always survives. A pass calls no
BLAS kernel, so it adds in one order on every CPU: a string's claim adds
its joint terms in centroid order, and a centroid's gain is numpy's
pairwise sum of its scaled (k, n) cache row, over strings in value order.
The joint rows start as copies of the run's per-slot likelihood rows,
each looked up in the run's likelihood table when its slot was made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._packed import PackedDistribution
from .clustering import ClusterModel
from .distributions import BitString, OutcomeDistribution, _left_to_right_sum, strings_to_words, words_to_strings
from .noise import check_rate

__all__ = [
    "RedistributionResult",
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


def redistribute(noisy: OutcomeDistribution, model: ClusterModel, flip_rate: float) -> RedistributionResult:
    """Reassign noise-explained mass from the support onto the centroids.

    Returns the renormalized probability view.
    """
    if noisy.width != model.width:
        raise ValueError(f"width mismatch: {noisy.width} != {model.width}")
    check_rate(flip_rate)  # the model checks its centroids and weights
    packed = PackedDistribution(noisy, flip_rate)
    centroid_words = strings_to_words(model.centroids, packed.width)
    weights = np.array(model.weights, dtype=np.float64)
    masses, removed_idx, claim, gained = _redistribute_packed(packed, packed.slots(centroid_words), weights)
    mitigated = _mitigated_distribution(noisy, centroid_words, masses, gained, flip_rate)
    if flip_rate == 0:
        removed_idx = ()  # a zero-rate pass explains no flips: it removes nothing
    centroid_set = set(model.centroids)
    strings = words_to_strings(packed.words, packed.width)
    return RedistributionResult(
        mitigated,
        frozenset(strings[i] for i in removed_idx),
        {b: c for b, c in zip(strings, claim.tolist()) if b not in centroid_set},
    )


def _mitigated_distribution(
    noisy: OutcomeDistribution, centroid_words: np.ndarray, masses: np.ndarray, gained: list, flip_rate: float
) -> OutcomeDistribution:
    """The mitigated distribution of a ``_redistribute_packed`` pass over
    ``noisy`` at ``flip_rate``, from the pass's surviving ``masses`` and
    ``gained`` centroids: the words of the surviving input rows in value
    order, then the ``centroid_words`` rows of the merged centroids. It
    reads the input's sorted view, not the run, so a caller can keep it
    for later. A zero-rate channel explains no flips, so it returns the
    input's probability view bit-exactly.
    """
    if flip_rate == 0.0:
        return noisy.normalized()
    view = noisy._sorted()
    survivors = np.flatnonzero(masses > 0)
    words = np.concatenate([np.take(view.words, survivors, axis=0), centroid_words[[g[0] for g in gained]]])
    mass = np.concatenate([masses[survivors], [g[1] for g in gained]])
    return OutcomeDistribution._from_words(noisy.width, words, mass / _left_to_right_sum(mass))


def _redistribute_packed(packed: PackedDistribution, slots: np.ndarray, cluster_weights: np.ndarray):
    """One redistribution pass for the centroids of ``slots``, at the run's rate.

    Returns (unnormalized per-row surviving masses, removed row indices,
    per-row raw claims, gained centroids). Rows equal to a centroid keep
    mass 0 and meaningless claims; their own mass goes to the first
    centroid equal to them. Each distinct centroid that gained mass is one
    (first centroid index, mass, slot, input row or -1) entry, in order of
    first appearance, whose equal centroids' masses add in centroid order.
    """
    pr = packed.weights / packed.total
    centroid_rows = packed.centroid_rows(slots)
    joint = packed.likelihoods(slots)
    joint *= cluster_weights[:, None]
    is_centroid = np.zeros(len(pr), dtype=bool)
    is_centroid[centroid_rows[centroid_rows >= 0]] = True

    claim = joint.sum(axis=0)
    give = np.minimum(claim, pr)
    give[is_centroid] = 0.0
    # split each string's surrendered mass across centroids in proportion
    # to their individual joint terms; a row no centroid claims gives nothing
    joint *= np.divide(give, claim, out=np.zeros_like(give), where=claim > 0)
    centroid_masses = joint.sum(axis=1)

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
