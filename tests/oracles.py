"""Independent brute-force references used by several test modules.

These deliberately avoid the package's vectorized kernels: everything is
scalar dict arithmetic driven by the published formulas, so agreement is
evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np

from qemclust import BitString, ClusterModel, OutcomeDistribution, hamming_distance


def brute_force_joint(b: BitString, c: BitString, weight: float, p: float) -> float:
    hd = hamming_distance(b, c)
    n = b.width
    acc = weight
    for _ in range(hd):
        acc *= p
    for _ in range(n - hd):
        acc *= 1.0 - p
    return acc


def brute_force_redistribute(noisy: OutcomeDistribution, model: ClusterModel, p: float):
    """Scalar re-implementation of the redistribution step.

    Returns (pre_normalization_masses, removed_set, claims) where
    ``pre_normalization_masses`` maps every output bit-string to its mass
    before the final renormalization and ``claims`` maps each non-centroid
    input string to its raw joint-mass sum.
    """
    total = sum(w for _, w in noisy.items())
    probs = {b: w / total for b, w in noisy.items()}
    centroids = list(model.centroids)
    centroid_set = set(centroids)

    claims: dict[BitString, float] = {}
    masses: dict[BitString, float] = {}
    gains = [0.0] * len(centroids)
    removed = set()
    for b, pr in probs.items():
        if b in centroid_set:
            continue
        joints = [
            brute_force_joint(b, c, model.weights[i], p) for i, c in enumerate(centroids)
        ]
        claim = sum(joints)
        claims[b] = claim
        give = min(claim, pr)
        if claim > 0:
            for i, j in enumerate(joints):
                gains[i] += give * (j / claim)
        out = pr - give
        if out > 0:
            masses[b] = out
        else:
            removed.add(b)
    seen = set()
    for i, c in enumerate(centroids):
        mass = gains[i]
        if c in probs and c not in seen:
            mass += probs[c]
        seen.add(c)
        if mass > 0:
            masses[c] = masses.get(c, 0.0) + mass
    return masses, removed, claims


def scalar_majority_vote(members, incumbent: BitString | None = None) -> BitString:
    """Per-qubit weighted majority with incumbent (else 0) tie-breaks."""
    items = list(members.items())
    width = items[0][0].width
    total = 0.0
    ones = [0.0] * width
    for b, w in items:
        total += w
        for i in range(width):
            if b.bit(i):
                ones[i] += w
    value = 0
    for i in range(width):
        if ones[i] * 2 > total:
            bit = 1
        elif ones[i] * 2 < total:
            bit = 0
        else:
            bit = incumbent.bit(i) if incumbent is not None else 0
        value = (value << 1) | bit
    return BitString(value, width)


def scalar_bitflip(shots_dist: OutcomeDistribution, flip_rate: float, seed) -> OutcomeDistribution:
    """Bit-flip channel tallied shot by shot with Python ints.

    Lists the shots in ascending value order and makes the package's one
    ``rng.random((shots, width))`` draw; bit ``i`` of a shot flips where
    column ``i`` of its draw row is below the rate.
    """
    width = shots_dist.width
    shots = [b.value for b in sorted(shots_dist) for _ in range(round(shots_dist.get(b)))]
    rng = np.random.default_rng(seed)
    draws = rng.random((len(shots), width)).tolist() if flip_rate > 0 else [[1.0] * width] * len(shots)
    tally: dict[int, int] = {}
    for value, row in zip(shots, draws):
        for i, u in enumerate(row):
            if u < flip_rate:
                value ^= 1 << (width - 1 - i)
        tally[value] = tally.get(value, 0) + 1
    return OutcomeDistribution(width, {BitString(v, width): c for v, c in tally.items()})


def shannon_entropy_bits(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0)
