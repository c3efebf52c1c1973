"""Independent brute-force references used by several test modules.

These deliberately avoid the package's vectorized kernels: everything is
scalar dict arithmetic driven by the published formulas, so agreement is
evidence rather than tautology.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from qemclust import BitString, ClusterModel, OutcomeDistribution
from qemclust._packed import _likelihood_table, _pack_words
from qemclust.estimator import _Tree
from qemclust.noise import check_rate


def bit(b: BitString, i: int) -> int:
    """Value of qubit ``i`` of ``b`` (position ``i`` from the left of its text)."""
    if not 0 <= i < b.width:
        raise IndexError(f"qubit index {i} out of range for width {b.width}")
    return (b.value >> (b.width - 1 - i)) & 1


def hamming_distance(a: BitString, b: BitString) -> int:
    """Number of positions at which two equal-width bit-strings differ."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")
    return (a.value ^ b.value).bit_count()


def joint_probability(b: BitString, centroid: BitString, cluster_weight: float, flip_rate: float) -> float:
    """Probability of observing ``b`` while the true outcome is ``centroid``:
    the package's likelihood table at their Hamming distance times the
    centroid's cluster weight. With ``flip_rate`` 0 this is
    ``cluster_weight`` when the strings coincide and 0 otherwise."""
    if b.width != centroid.width:
        raise ValueError(f"width mismatch: {b.width} != {centroid.width}")
    check_rate(flip_rate)
    if not 0.0 <= cluster_weight <= 1.0:
        raise ValueError(f"cluster_weight must lie in [0, 1], got {cluster_weight}")
    table = _likelihood_table(b.width, flip_rate)
    return float(table[hamming_distance(b, centroid)] * cluster_weight)


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
            if bit(b, i):
                ones[i] += w
    value = 0
    for i in range(width):
        if ones[i] * 2 > total:
            one = 1
        elif ones[i] * 2 < total:
            one = 0
        else:
            one = bit(incumbent, i) if incumbent is not None else 0
        value = (value << 1) | one
    return BitString(value, width)


def scalar_cluster(noisy: OutcomeDistribution, k: int, flip_rate: float, max_rounds: int = 100) -> ClusterModel:
    """Hamming k-means with majority votes, one string and one centroid at a time.

    Seeds are the k heaviest strings (ties by ascending value); a string
    joins its nearest centroid (lowest index on ties) unless it lies
    farther than ceil(2 n p (1 - p)); empty clusters are dropped; rounds
    stop when the centroid list repeats, when every cluster starves, or
    at ``max_rounds``.
    """
    n = noisy.width
    theta = math.ceil(round(2.0 * n * flip_rate * (1.0 - flip_rate), 12))
    weight = dict(noisy.items())
    strings = sorted(weight, key=lambda b: b.value)
    centroids = sorted(strings, key=lambda b: (-weight[b], b.value))[:k]

    def assign(cents):
        members: list[dict[BitString, float]] = [{} for _ in cents]
        for b in strings:
            dists = [hamming_distance(b, c) for c in cents]
            i = dists.index(min(dists))
            if dists[i] <= theta:
                members[i][b] = weight[b]
        return members

    converged, rounds = False, 0
    for rounds in range(1, max_rounds + 1):
        members = assign(centroids)
        voted = [scalar_majority_vote(m, c) for m, c in zip(members, centroids) if m]
        if not voted:
            break
        if voted == centroids:
            converged = True
            break
        centroids = voted
    members = assign(centroids)
    weights = tuple(sum(m.values()) / noisy.total for m in members)
    assignments = {b: i for i, m in enumerate(members) for b in m}
    outliers = frozenset(b for b in strings if b not in assignments)
    return ClusterModel(n, tuple(centroids), weights, assignments, outliers, theta, k, converged, rounds)


def reference_votes(packed, masks: list[np.ndarray], incumbents: np.ndarray) -> np.ndarray:
    """Weighted per-qubit majority of each boolean member mask: each
    qubit's ones add the mask's rows left to right in row order."""
    bits, weights = packed.bits.tolist(), packed.weights.tolist()
    ones = np.zeros((len(masks), packed.width))
    for i, mask in enumerate(masks):
        acc = [0.0] * packed.width
        for r in np.flatnonzero(mask).tolist():
            acc = [a + weights[r] if bit else a for a, bit in zip(acc, bits[r])]
        ones[i] = acc
    total = np.array([packed.weights[mask].sum() for mask in masks])[:, None]
    return np.where(ones * 2 > total, 1, np.where(ones * 2 < total, 0, incumbents)).astype(np.uint8)


def reference_value_order(values: list[int]) -> list[int]:
    """Indices that sort Python-int row values, equal values in index order."""
    return sorted(range(len(values)), key=values.__getitem__)


def reference_match_rows(values: list[int], queries: list[int]) -> list[int]:
    """Index of the first value equal to each query, or -1, by dict lookup."""
    first: dict[int, int] = {}
    for i, v in enumerate(values):
        first.setdefault(v, i)
    return [first.get(q, -1) for q in queries]


def reference_tally_rows(values: list[int]) -> tuple[list[int], list[int]]:
    """Distinct values in ascending order and how often each occurs."""
    tally = sorted(Counter(values).items())
    return [v for v, _ in tally], [c for _, c in tally]


def reference_cluster_packed(packed, k: int, theta: int, max_rounds: int):
    """The array clustering loop with a fresh distance matrix per round and
    one boolean member mask per cluster; the return tuple of
    ``clustering._cluster_packed`` without its cache slots."""
    centroids = packed.bits[packed.top_order()[:k]].copy()
    converged = False
    rounds = 0
    nearest = np.zeros(len(packed), dtype=np.int64)
    outlier = np.zeros(len(packed), dtype=bool)
    for rounds in range(1, max_rounds + 1):
        hd = packed.hamming_to(_pack_words(centroids))
        nearest = np.argmin(hd, axis=0)
        outlier = hd[nearest, np.arange(len(packed))] > theta
        masks = [(nearest == i) & ~outlier for i in range(len(centroids))]
        votes = reference_votes(packed, masks, centroids)
        new_centroids = votes[[mask.any() for mask in masks]]
        if not len(new_centroids):
            break
        if new_centroids.shape == centroids.shape and (new_centroids == centroids).all():
            converged = True
            break
        centroids = new_centroids
    if not converged:
        hd = packed.hamming_to(_pack_words(centroids))
        nearest = np.argmin(hd, axis=0)
        outlier = hd[nearest, np.arange(len(packed))] > theta
    weights = np.array(
        [packed.weights[(nearest == i) & ~outlier].sum() for i in range(len(centroids))]
    ) / packed.total
    return centroids, weights, nearest, outlier, converged, rounds


def scalar_hellinger(p: dict, q: dict) -> float:
    """(sum over sqrt(p_i q_i))^2 of two probability maps."""
    acc = sum(math.sqrt(w * q[b]) for b, w in p.items() if b in q)
    return min(acc * acc, 1.0)


def brute_force_mitigate(
    noisy: OutcomeDistribution,
    flip_rate: float,
    stop_threshold: float = 0.95,
    fixed_k: int | None = None,
    max_rounds: int = 100,
) -> dict:
    """The whole mitigation from the scalar oracles.

    Runs k = 1, 2, ... up to the number of distinct strings (or the one
    capped fixed k) and stops at the first k >= 2 whose output has Hellinger
    fidelity above ``stop_threshold`` to the previous output, returning the
    previous one. A pass conserves mass, so some always survives. Returns
    ``k_used``, ``terminated_by``, ``centroids`` and ``final`` (a
    probability map) of the returned pass, and every pass's ``hfs``.
    """
    view = {b: w / noisy.total for b, w in noisy.items()}
    ks = [min(fixed_k, len(noisy))] if fixed_k is not None else range(1, len(noisy) + 1)
    passes = []
    previous = view
    for k in ks:
        model = scalar_cluster(noisy, k, flip_rate, max_rounds)
        masses, _removed, _claims = brute_force_redistribute(noisy, model, flip_rate)
        total = sum(masses.values())
        assert total > 0
        out, centroids = {b: m / total for b, m in masses.items()}, model.centroids
        hf = scalar_hellinger(out, previous)
        passes.append((k, centroids, out, hf))
        if fixed_k is None and k >= 2 and hf > stop_threshold:
            k_used, centroids, out, _ = passes[-2]
            return dict(k_used=k_used, terminated_by="convergence", centroids=centroids, final=out,
                        hfs=[p[3] for p in passes])
        previous = out
    k_used, centroids, out, _ = passes[-1]
    return dict(k_used=k_used, terminated_by="fixed" if fixed_k is not None else "k_max",
                centroids=centroids, final=out, hfs=[p[3] for p in passes])


def reference_distinct_values(rng: np.random.Generator, width: int, count: int) -> list[int]:
    """``count`` distinct values in ascending order, drawn into a set that
    is topped up with the missing number of strings: one integer draw per
    string while 2^width fits an int64, one draw per bit above that."""
    values: set[int] = set()
    while len(values) < count:
        if width <= 62:
            draw = rng.integers(0, 1 << width, size=count - len(values))
            values.update(int(v) for v in draw)
        else:
            rows = rng.integers(0, 2, size=(count - len(values), width), dtype=np.uint8)
            values.update(int("".join(map(str, row)), 2) for row in rows.tolist())
    return sorted(values)


def reference_generate_ideal(spec) -> OutcomeDistribution:
    """``generate_ideal`` as a dict: the set draw of the dominant strings,
    then uniform probabilities normalized to sum 1, in value order."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.width, spec.num_dominant
    ordered = reference_distinct_values(rng, n, d)
    probs = rng.uniform(size=d)
    probs = probs / probs.sum()
    return OutcomeDistribution(n, {BitString(v, n): p for v, p in zip(ordered, probs)})


def reference_spiked_ideal(width: int, rng: np.random.Generator) -> OutcomeDistribution:
    """The estimator corpus's spiked ideal as a dict: a set-drawn tail of a
    quarter to half of the space, one of its strings (drawn by index in
    value order) carrying the spike."""
    spike = float(rng.uniform(0.3, 0.6))
    d_tail = int(rng.integers(1 << max(width - 2, 1), (1 << max(width - 1, 1)) + 1))
    values: set[int] = set()
    while len(values) < d_tail + 1:
        draw = rng.integers(0, 1 << width, size=d_tail + 1 - len(values))
        values.update(int(v) for v in draw)
    ordered = sorted(values)
    mode = ordered[int(rng.integers(0, len(ordered)))]
    tail_w = (1.0 - spike) / (len(ordered) - 1)
    return OutcomeDistribution(
        width, {BitString(v, width): (spike if v == mode else tail_w) for v in ordered}
    )


def reference_sample_shots(dist: OutcomeDistribution, shots: int, seed=None) -> OutcomeDistribution:
    """One multinomial draw over the strings sorted by value, kept as a
    dict of the nonzero counts."""
    rng = np.random.default_rng(seed)
    weight = dict(dist.items())
    strings = sorted(weight, key=lambda b: b.value)
    p = np.array([weight[b] for b in strings], dtype=np.float64)
    p = p / p.sum()
    counts = rng.multinomial(shots, p)
    return OutcomeDistribution(dist.width, {b: int(c) for b, c in zip(strings, counts) if c > 0})


def reference_error_rate(ideal: OutcomeDistribution, noisy: OutcomeDistribution) -> float:
    """``effective_error_rate`` with the mode as the dict minimum of
    (-weight, value) and both probabilities looked up by key."""
    weight = dict(ideal.items())
    mode = min(weight, key=lambda b: (-weight[b], b.value))
    p_ideal = ideal.probability(mode)
    p_noisy = noisy.probability(mode)
    if p_noisy <= 0.0:
        return 0.5
    ratio = p_noisy / p_ideal
    if ratio >= 1.0:
        return 0.0
    return min(max(1.0 - ratio ** (1.0 / ideal.width), 0.0), 0.5)


def reference_hellinger(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """``hellinger_fidelity`` as a dict loop over the smaller side, adding
    left to right in its value order."""
    small, big = (p, q) if len(p) <= len(q) else (q, p)
    big_weight = dict(big.items())
    acc = 0.0
    for b, w in sorted(small.items(), key=lambda item: item[0].value):
        v = big_weight.get(b, 0.0)
        if w > 0 and v > 0:
            acc += math.sqrt((w / small.total) * (v / big.total))
    return min(acc * acc, 1.0)


def reference_entropy(dist: OutcomeDistribution) -> float:
    """``normalized_entropy`` as a loop that reads the total for every
    weight, adding left to right in row order, clamped to its documented
    range [0, 1]."""
    h = 0.0
    for w in dist._weights.tolist():
        p = w / dist.total
        if p > 0:
            h -= p * math.log2(p)
    return min(h / dist.width, 1.0)


def scalar_bitflip(shots_dist: OutcomeDistribution, flip_rate: float, seed) -> OutcomeDistribution:
    """Bit-flip channel tallied shot by shot with Python ints.

    The float-rule reference: lists the shots in ascending value order and
    draws ``rng.random((shots, width))``, one float per bit, whatever the
    bit generator; bit ``i`` of a shot flips where column ``i`` of its draw
    row is below the rate. Nothing is drawn at rate 0.
    """
    width = shots_dist.width
    weight = dict(shots_dist.items())
    shots = [b.value for b in sorted(weight) for _ in range(round(weight[b]))]
    rng = np.random.default_rng(seed)
    draws = rng.random((len(shots), width)).tolist() if flip_rate > 0 else [[1.0] * width] * len(shots)
    tally: dict[int, int] = {}
    for value, row in zip(shots, draws):
        for i, u in enumerate(row):
            if u < flip_rate:
                value ^= 1 << (width - 1 - i)
        tally[value] = tally.get(value, 0) + 1
    return OutcomeDistribution(width, {BitString(v, width): c for v, c in tally.items()})


def convolve_bitflip(dist: OutcomeDistribution, flip_rate: float) -> OutcomeDistribution:
    """Exact (infinite-shot) bit-flip channel output.

    Enumerates all 2^width target strings for every input string, so
    widths above 16 are rejected.
    """
    if not 0.0 <= flip_rate <= 0.5:
        raise ValueError(f"flip_rate must lie in [0, 0.5], got {flip_rate}")
    if dist.width > 16:
        raise ValueError("analytic convolution is limited to width <= 16")
    if dist.total <= 0:
        raise ValueError("distribution has zero total weight")
    n = dist.width
    table = [(1.0 - flip_rate) ** (n - h) * flip_rate**h for h in range(n + 1)]
    out = [0.0] * (1 << n)
    for b, w in dist.items():
        p = w / dist.total
        for target in range(1 << n):
            out[target] += p * table[(b.value ^ target).bit_count()]
    return OutcomeDistribution(n, {BitString(v, n): out[v] for v in range(1 << n) if out[v] > 0})


def shannon_entropy_bits(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0)


def reference_grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    min_samples_leaf: int,
    max_features: int,
    importance_acc: np.ndarray,
) -> _Tree:
    """Extra-trees growth on numpy arrays, one numpy call per statistic:
    depth first, left before right, ``rng.choice`` over the non-constant
    features when there are more than ``max_features``, one
    ``rng.uniform`` threshold per candidate, the lowest weighted child
    variance wins (first on ties), nodes grow until pure."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack: list[tuple[int, np.ndarray]] = [(root, np.arange(len(y)))]
    while stack:
        node, idx = stack.pop()
        y_node = y[idx]
        value[node] = float(y_node.mean())
        if len(idx) < 2 * min_samples_leaf or np.all(y_node == y_node[0]):
            continue
        X_node = X[idx]
        lo = X_node.min(axis=0)
        hi = X_node.max(axis=0)
        candidates = np.flatnonzero(hi > lo)
        if len(candidates) == 0:
            continue
        if len(candidates) > max_features:
            candidates = rng.choice(candidates, size=max_features, replace=False)
        best = None
        parent_score = float(np.var(y_node)) * len(idx)
        for f in candidates:
            t = rng.uniform(lo[f], hi[f])
            mask = X_node[:, f] < t
            n_left = int(mask.sum())
            if n_left < min_samples_leaf or len(idx) - n_left < min_samples_leaf:
                continue
            score = float(np.var(y_node[mask])) * n_left + float(
                np.var(y_node[~mask])
            ) * (len(idx) - n_left)
            if best is None or score < best[0]:
                best = (score, int(f), float(t), mask)
        if best is None:
            continue
        score, f, t, mask = best
        importance_acc[f] += parent_score - score
        feature[node] = f
        threshold[node] = t
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], idx[~mask]))
        stack.append((left[node], idx[mask]))
    return _Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )


def reference_fit(X: np.ndarray, y: np.ndarray, n_trees: int, min_samples_leaf: int, max_features: int, seed: int):
    """(trees, importances) of ``fit_tree_ensemble`` grown by
    ``reference_grow_tree``: one spawned seed stream per tree, one shared
    importance accumulator, normalized by its total when positive."""
    acc = np.zeros(X.shape[1], dtype=np.float64)
    trees = [
        reference_grow_tree(X, y, np.random.default_rng(s), min_samples_leaf, max_features, acc)
        for s in np.random.SeedSequence(seed).spawn(n_trees)
    ]
    total = acc.sum()
    return trees, tuple(float(v) for v in (acc / total if total > 0 else acc))
