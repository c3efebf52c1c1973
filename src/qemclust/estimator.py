"""Effective bit-flip error-rate estimation from circuit features.

A device run is summarized by eight features (circuit gate counts, the
entropy of its noisy output and the calibration-derived estimated success
probability); labels come from comparing the noisy and ideal output of a
reference string under the bit-flip model. An extremely-randomized-trees
regressor maps features to the rate. The trees are grown here rather
than borrowed so models serialize to a self-contained, versioned text
format with bit-exact round-trips and fixed hyperparameter semantics:
at each node a random subset of max(1, n_features // 3) non-constant
features is considered, one uniform-random threshold is drawn per
candidate inside the node's value range, and the split minimizing the
weighted child variance wins; nodes grow until pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, compress
from operator import add, itemgetter, mul, not_
from typing import Mapping, Sequence

import numpy as np

from ._packed import match_rows
from .distributions import OutcomeDistribution, normalized_entropy
from .noise import RATE_MAX, RATE_MIN  # re-exported: labels and predictions lie in this range
from .noise import RATE_RANGE, NoiseSpec, SyntheticSpec, _distinct_rows, apply_bitflip, generate_ideal, sample_shots

__all__ = [
    "FEATURE_NAMES",
    "RATE_MIN",
    "RATE_MAX",
    "CircuitFeatures",
    "CalibrationSnapshot",
    "compute_esp",
    "effective_error_rate",
    "TreeEnsemble",
    "fit_tree_ensemble",
    "CrossValidationResult",
    "cross_validate",
    "make_synthetic_corpus",
]

# Order is part of the model-file contract; never reorder, only append.
FEATURE_NAMES = (
    "num_qubits",
    "num_measurements",
    "num_2q_gates",
    "num_sx_gates",
    "num_x_gates",
    "num_rz_gates",
    "entropy",
    "esp",
)
COUNT_FEATURES = FEATURE_NAMES[:6]  # the integer circuit counts
# gate kind -> its count feature; compute_esp multiplies in this order
GATE_FEATURES = {"2q": "num_2q_gates", "sx": "num_sx_gates", "x": "num_x_gates", "rz": "num_rz_gates"}


@dataclass(frozen=True)
class CircuitFeatures:
    """The feature vector for one circuit execution."""

    num_qubits: int
    num_measurements: int
    num_2q_gates: int
    num_sx_gates: int
    num_x_gates: int
    num_rz_gates: int
    entropy: float
    esp: float

    def __post_init__(self) -> None:
        for name in COUNT_FEATURES:
            v = getattr(self, name)
            if not 0 <= v <= sys.float_info.max:  # the feature vector is float64
                raise ValueError(f"{name} must be >= 0 and fit a float, got {v}")
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        if self.num_measurements > self.num_qubits:
            raise ValueError(
                f"num_measurements ({self.num_measurements}) exceeds "
                f"num_qubits ({self.num_qubits})"
            )
        if not 0.0 <= self.entropy <= 1.0:
            raise ValueError(f"entropy must lie in [0, 1], got {self.entropy}")
        if not 0.0 <= self.esp <= 1.0:
            raise ValueError(f"esp must lie in [0, 1], got {self.esp}")

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64)


@dataclass(frozen=True)
class CalibrationSnapshot:
    """Per-gate-kind error rates and per-qubit readout error rates."""

    gate_errors: Mapping[str, float]
    readout_errors: tuple[float, ...]

    def __post_init__(self) -> None:
        for kind, rate in self.gate_errors.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"gate error for {kind!r} must lie in [0, 1], got {rate}")
        for q, rate in enumerate(self.readout_errors):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"readout error for qubit {q} must lie in [0, 1], got {rate}")


def compute_esp(
    gate_counts: Mapping[str, int],
    measured_qubits: Sequence[int],
    calibration: CalibrationSnapshot,
) -> float:
    """Estimated success probability from calibration data.

    Product over every gate instance of (1 - gate error rate) times the
    product over measured qubits of (1 - readout error rate).
    """
    esp = 1.0
    for kind, count in gate_counts.items():
        if count < 0:
            raise ValueError(f"gate count for {kind!r} must be >= 0, got {count}")
        if count == 0:
            continue
        if kind not in calibration.gate_errors:
            raise ValueError(f"calibration has no error rate for gate kind {kind!r}")
        esp *= (1.0 - calibration.gate_errors[kind]) ** count
    for q in measured_qubits:
        if not 0 <= q < len(calibration.readout_errors):
            raise ValueError(f"calibration has no readout error rate for qubit {q}")
        esp *= 1.0 - calibration.readout_errors[q]
    return esp


def effective_error_rate(ideal: OutcomeDistribution, noisy: OutcomeDistribution) -> float:
    """Single bit-flip rate explaining the damping of the ideal mode.

    Uses the highest-probability string b of the ideal distribution
    (ties broken toward the smallest value): under the bit-flip model its
    probability decays by (1 - p)^width, so
    p = 1 - (Pr_noisy(b) / Pr_ideal(b))^(1 / width). The result is clamped
    to [0, 0.5]; a mode that was never observed in the noisy data clamps
    to the maximum, a ratio above 1 (sampling fluctuation) to 0.
    """
    if ideal.width != noisy.width:
        raise ValueError(f"width mismatch: {ideal.width} != {noisy.width}")
    ideal_total, noisy_total = ideal._mass(), noisy._mass()
    view, noisy_view = ideal._sorted(), noisy._sorted()
    mode = np.argmax(view.weights)  # the first maximum in value order
    row = match_rows(noisy_view.words, view.words[mode : mode + 1])[0]
    p_ideal = float(view.weights[mode]) / ideal_total
    p_noisy = float(noisy_view.weights[row]) / noisy_total if row >= 0 else 0.0
    return min(max(1.0 - (p_noisy / p_ideal) ** (1.0 / ideal.width), RATE_MIN), RATE_MAX)


@dataclass(frozen=True)
class _Tree:
    """Flat array form of one regression tree.

    ``feature[i] < 0`` marks a leaf whose prediction is ``value[i]``;
    internal nodes route samples with x[feature] < threshold to ``left``
    and the rest to ``right``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X), dtype=np.float64)
        for i, x in enumerate(X):
            node = 0
            while self.feature[node] >= 0:
                if x[self.feature[node]] < self.threshold[node]:
                    node = self.left[node]
                else:
                    node = self.right[node]
            out[i] = self.value[node]
        return out


@dataclass(frozen=True)
class TreeEnsemble:
    """Extremely-randomized-trees regressor for the effective error rate."""

    trees: tuple[_Tree, ...]
    feature_names: tuple[str, ...]
    n_trees: int
    min_samples_leaf: int
    max_features: int
    seed: int
    importances: tuple[float, ...]

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected feature matrix with {len(self.feature_names)} columns, "
                f"got shape {X.shape}"
            )
        acc = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees:
            acc += tree.predict(X)
        return np.clip(acc / len(self.trees), RATE_MIN, RATE_MAX)

    def predict(self, features: CircuitFeatures) -> float:
        """The rate for one circuit; the model's columns must be ``FEATURE_NAMES``."""
        if self.feature_names != FEATURE_NAMES:
            raise ValueError(f"model features {list(self.feature_names)} are not {list(FEATURE_NAMES)}")
        return float(self.predict_matrix(features.to_vector()[None, :])[0])

    def feature_importance(self) -> dict[str, float]:
        """Normalized mean decrease in weighted variance per split feature."""
        return dict(zip(self.feature_names, self.importances))


def _pairwise_sum(values: list[float]) -> float:
    """Sum of ``values`` in the order numpy's float64 ``add.reduce`` adds
    them, so the bits match ``np.sum``, ``ndarray.mean`` and ``np.var``:
    0.0 plus the values left to right below 8 of them; up to 128, eight
    strided accumulators (accumulator ``j`` adds values ``j``, ``j + 8``,
    ... left to right) combined pairwise and then the tail left to right;
    above that, the two halves (split at a multiple of 8) summed apart."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        m = n - n % 8
        r = values[:8]
        for off in range(8, m, 8):
            r = list(map(add, r, values[off : off + 8]))
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[m:]:
            res += v
        return res + 0.0  # numpy starts from 0.0, so never -0.0
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _mean_var(values: list[float]) -> tuple[float, float]:
    """``(np.mean(v), np.var(v))`` bit for bit, in Python floats."""
    n = len(values)
    if n < 8:  # _pairwise_sum's plain loop, without the calls and lists
        total = 0.0
        for v in values:
            total += v
        mean = total / n
        total = 0.0
        for v in values:
            v -= mean
            total += v * v
        return mean, total / n
    mean = _pairwise_sum(values) / n
    dev = [v - mean for v in values]
    return mean, _pairwise_sum(list(map(mul, dev, dev))) / n


# raw PCG64 words per refill of a draws object's block
_BLOCK = 64


class _PCG64Draws:
    """``rng.choice(n, size, replace=False)`` and ``rng.uniform(lo, hi)``
    of ``rng = np.random.default_rng(seed)``, computed from the same raw
    PCG64 stream without numpy's per-call wrappers, which cost more than
    the draws at the tree's sizes.

    The values are numpy 2.x's own: ``choice`` is Floyd's algorithm and
    then a shuffle of the picks, or a tail shuffle of the whole
    population above 10,000 when ``size > n // 50``; every bounded draw
    is Lemire's method over ``next_uint32``, which returns the low half
    of a 64-bit output and keeps the high half for the next call.
    ``uniform`` is numpy's ``random_uniform`` over ``next_double``,
    ``(word >> 11) * 2**-53``. Populations are at most 2**32.

    Words are taken ``_BLOCK`` at a time from ``random_raw`` into a list
    that both draws read in stream order, and each ``(n, size)``'s bounds
    and Lemire thresholds are worked out once per object. The object owns
    its generator, so the draws depend on the seed alone.
    """

    def __init__(self, seed: int | np.random.SeedSequence):
        self._bitgen = np.random.PCG64(seed)
        self._words: list[int] = []  # the block's unused words, the next one last
        self._bounds: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self._has_half, self._half = False, 0

    def _fill(self) -> None:
        self._words.extend(reversed(self._bitgen.random_raw(_BLOCK).tolist()))

    def _draw_bounds(self, n: int, size: int) -> list[tuple[int, int, int]]:
        """``(top, top + 1, Lemire threshold)`` of each bounded draw of
        ``choice(n, size)``, in draw order: [0, j] for each Floyd pick
        j = n - size .. n - 1, then [0, i] for each swap i = size - 1 .. 1;
        in the tail shuffle, [0, i] for i = n - 1 .. max(n - size, 1). The
        threshold is below top + 1, so numpy's early exit agrees."""
        bounds = self._bounds.get((n, size))
        if bounds is None:
            if n > 10000 and size > n // 50:
                tops = range(n - 1, max(n - size, 1) - 1, -1)
            else:
                tops = chain(range(n - size, n), range(size - 1, 0, -1))
            bounds = [(top, top + 1, (0xFFFFFFFF - top) % (top + 1)) for top in tops]
            self._bounds[n, size] = bounds
        return bounds

    def choice(self, n: int, size: int) -> list[int]:
        # One loop makes every draw, the kept half held in locals.
        if n > 10000 and size > n // 50:
            picks, floyd = list(range(n)), 0
        else:
            picks, floyd = [], size
        seen = set()
        words, has_half, half = self._words, self._has_half, self._half
        for top, excl, threshold in self._draw_bounds(n, size):
            v = 0  # numpy draws nothing for [0, 0]
            if top:  # numpy's buffered_bounded_lemire_uint32 over next_uint32
                while True:
                    if has_half:
                        has_half = False
                        m = half * excl
                    else:
                        if not words:
                            self._fill()
                        word = words.pop()
                        has_half, half = True, word >> 32
                        m = (word & 0xFFFFFFFF) * excl
                    if m & 0xFFFFFFFF >= threshold:
                        break
                v = m >> 32
            if floyd:
                floyd -= 1
                if v in seen:
                    v = top
                seen.add(v)
                picks.append(v)
            else:
                picks[top], picks[v] = picks[v], picks[top]
        self._has_half, self._half = has_half, half
        return picks[len(picks) - size :]

    def uniform(self, lo: float, hi: float) -> float:
        span = hi - lo
        if not -math.inf < span < math.inf:
            raise OverflowError("high - low range exceeds valid bounds")
        if not self._words:
            self._fill()
        return lo + span * ((self._words.pop() >> 11) * 2**-53)


def _equal_value_masks(cols: list[list[float]]) -> list[tuple[int, ...]]:
    """``masks[i][f]``: the bitmask of the rows whose value of feature
    ``f`` is ``==`` to row ``i``'s (so -0.0 and 0.0 are equal, as they are
    to ``min``/``max``)."""
    per_feature = []
    for col in cols:
        groups: dict[float, int] = {}
        for row, v in enumerate(col):
            groups[v] = groups.get(v, 0) | 1 << row
        per_feature.append(map(groups.__getitem__, col))
    return list(zip(*per_feature))


def _grow_tree(
    cols: list[list[float]],
    labels: list[float],
    equal: list[tuple[int, ...]],
    seed: np.random.SeedSequence,
    min_samples_leaf: int,
    max_features: int,
    importances: list[float],
) -> _Tree:
    """Grow one tree on the feature columns ``cols`` depth first, left
    child before right, adding each split's variance decrease to
    ``importances``.

    Nodes hold a few to a few hundred rows, too few for numpy calls to pay
    for their dispatch, so the node statistics are Python float
    arithmetic with numpy's summation order, and the random draws are
    ``_PCG64Draws(seed)``: the values ``np.random.default_rng(seed)``'s
    ``choice`` and ``uniform`` give, in the same order. Each node carries
    the bitmask of its rows, so a feature is constant in it exactly when
    the mask is inside the node's first row's ``equal`` mask (one AND per
    feature, no gather); values are gathered, and their bounds taken, only
    for the features drawn.
    """
    draws = _PCG64Draws(seed)
    choice, uniform = draws.choice, draws.uniform
    n_rows = len(labels)
    bit = [1 << i for i in range(n_rows)]
    features = range(len(cols))
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    value = [0.0]
    stack = [(0, list(range(n_rows)), (1 << n_rows) - 1, labels, *_mean_var(labels))]
    while stack:
        node, idx, rows, ys, mean, var = stack.pop()
        value[node] = mean
        n = len(idx)
        if n < 2 * min_samples_leaf or min(ys) == max(ys):
            continue
        candidates = list(compress(features, map(rows.__ne__, map(rows.__and__, equal[idx[0]]))))
        if not candidates:
            continue
        if len(candidates) > max_features:
            candidates = [candidates[i] for i in choice(len(candidates), max_features)]
        get = itemgetter(*idx)  # n >= 2, so it returns a tuple
        best = None
        for f in candidates:
            xs = get(cols[f])
            t = uniform(min(xs), max(xs))
            mask = list(map(t.__gt__, xs))  # x < t
            n_left = mask.count(True)
            n_right = n - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            left_y, right_y = list(compress(ys, mask)), list(compress(ys, map(not_, mask)))
            # one value's mean and variance, as _mean_var gives them
            left_stats = _mean_var(left_y) if n_left > 1 else (left_y[0] + 0.0, 0.0)
            right_stats = _mean_var(right_y) if n_right > 1 else (right_y[0] + 0.0, 0.0)
            score = left_stats[1] * n_left + right_stats[1] * n_right
            if best is None or score < best[0]:
                best = (score, f, t, mask, left_y, left_stats, right_y, right_stats)
        if best is None:
            continue
        score, f, t, mask, left_y, left_stats, right_y, right_stats = best
        importances[f] += var * n - score
        feature[node], threshold[node] = f, t
        left[node], right[node] = len(feature), len(feature) + 1
        feature += [-1, -1]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        right += [-1, -1]
        value += [0.0, 0.0]
        left_idx, right_idx = list(compress(idx, mask)), list(compress(idx, map(not_, mask)))
        left_rows = sum(map(bit.__getitem__, left_idx))
        stack.append((right[node], right_idx, rows ^ left_rows, right_y, *right_stats))
        stack.append((left[node], left_idx, left_rows, left_y, *left_stats))
    return _Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )


def _as_matrix(features) -> np.ndarray:
    if isinstance(features, np.ndarray):
        return np.asarray(features, dtype=np.float64)
    return np.array([f.to_vector() for f in features], dtype=np.float64)


def fit_tree_ensemble(
    features: "Sequence[CircuitFeatures] | np.ndarray",
    labels: Sequence[float],
    n_trees: int = 100,
    min_samples_leaf: int = 1,
    max_features: int | None = None,
    seed: int = 0,
) -> TreeEnsemble:
    """Grow the ensemble; deterministic for a fixed seed.

    ``max_features`` defaults to max(1, n_features // 3). Features and
    labels must be finite, labels in the identifiable rate range [0, 0.5].
    """
    X = _as_matrix(features)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("training set must be a nonempty feature matrix")
    if len(X) != len(y):
        raise ValueError(f"{len(X)} feature rows but {len(y)} labels")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("features and labels must be finite (no NaN or infinity)")
    if np.any((y < RATE_MIN) | (y > RATE_MAX)):
        raise ValueError(f"labels must lie in {RATE_RANGE}")
    if n_trees < 1:
        raise ValueError(f"n_trees must be positive, got {n_trees}")
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be positive, got {min_samples_leaf}")
    n_features = X.shape[1]
    if max_features is None:
        max_features = max(1, n_features // 3)
    if not 1 <= max_features <= n_features:
        raise ValueError(f"max_features must lie in [1, {n_features}], got {max_features}")

    streams = np.random.SeedSequence(seed).spawn(n_trees)
    cols, ys = X.T.tolist(), y.tolist()
    equal = _equal_value_masks(cols)  # this fit's rows only; dropped with the fit
    importance_acc = [0.0] * n_features
    trees = tuple(_grow_tree(cols, ys, equal, s, min_samples_leaf, max_features, importance_acc) for s in streams)
    acc = np.array(importance_acc)
    total = acc.sum()
    importances = acc / total if total > 0 else acc
    return TreeEnsemble(
        trees=trees,
        feature_names=FEATURE_NAMES if n_features == len(FEATURE_NAMES) else tuple(
            f"f{i}" for i in range(n_features)
        ),
        n_trees=n_trees,
        min_samples_leaf=min_samples_leaf,
        max_features=max_features,
        seed=seed,
        importances=tuple(float(v) for v in importances),
    )


@dataclass(frozen=True)
class CrossValidationResult:
    mse: float
    r2: float
    fold_mse: tuple[float, ...]
    fold_r2: tuple[float, ...]


def cross_validate(
    features,
    labels: Sequence[float],
    folds: int = 5,
    seed: int = 0,
    n_trees: int = 100,
    min_samples_leaf: int = 1,
    max_features: int | None = None,
) -> CrossValidationResult:
    """K-fold cross-validation with held-out scoring.

    Fold membership is a seeded permutation, so results repeat exactly;
    every sample is scored by a model that never saw it.
    """
    X = _as_matrix(features)
    y = np.asarray(labels, dtype=np.float64)
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if folds > len(X):
        raise ValueError(f"cannot split {len(X)} samples into {folds} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(X))
    parts = np.array_split(order, folds)
    fold_mse: list[float] = []
    fold_r2: list[float] = []
    for i, test_idx in enumerate(parts):
        train_idx = np.concatenate([parts[j] for j in range(folds) if j != i])
        model = fit_tree_ensemble(
            X[train_idx],
            y[train_idx],
            n_trees=n_trees,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            seed=seed + i,
        )
        pred = model.predict_matrix(X[test_idx])
        resid = y[test_idx] - pred
        mse = float(np.mean(resid**2))
        denom = float(np.mean((y[test_idx] - y[test_idx].mean()) ** 2))
        fold_mse.append(mse)
        fold_r2.append(1.0 - mse / denom if denom > 0 else 0.0)
    return CrossValidationResult(
        mse=float(np.mean(fold_mse)),
        r2=float(np.mean(fold_r2)),
        fold_mse=tuple(fold_mse),
        fold_r2=tuple(fold_r2),
    )


def _spiked_ideal(width: int, rng: np.random.Generator) -> OutcomeDistribution:
    """High-entropy ideal with one dominant mode over a wide uniform tail.

    The tail spreads over a quarter to half of the space, so output
    entropy is high while the mode's damping (hence the rate label) stays
    identifiable: tail inflow into any single string is O(2^-width).
    """
    spike = float(rng.uniform(0.3, 0.6))
    d_tail = int(rng.integers(1 << max(width - 2, 1), (1 << max(width - 1, 1)) + 1))
    rows, words = _distinct_rows(rng, width, d_tail + 1)
    weights = np.full(d_tail + 1, (1.0 - spike) / d_tail)
    weights[int(rng.integers(0, d_tail + 1))] = spike
    return OutcomeDistribution._from_rows(rows, weights, words)


def make_synthetic_corpus(n_samples: int, seed: int = 0) -> tuple[list[CircuitFeatures], np.ndarray]:
    """Desk-scale training corpus from the bit-flip simulator.

    Each sample draws a circuit profile (qubit count, measured subset,
    gate counts) and a calibration snapshot from documented ranges, sets
    the true flip rate from the per-measured-qubit success budget implied
    by the ESP, then labels the sample by running the simulator on 16,384
    shots and inverting the mode damping. Gate-count ranges: 2q 5-150,
    sx 10-300, x 0-40, rz 20-400; error ranges: 2q 0.002-0.02, sx/x
    1e-4-1e-3, rz 0 (virtual), readout 0.005-0.05.

    Three quarters of the ideals are low-entropy (1-4 dominant strings);
    the rest are spiked high-entropy outputs, which keeps the entropy
    feature ambiguous about the noise level the way mixed benchmark
    suites are.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    rng = np.random.default_rng(seed)
    features: list[CircuitFeatures] = []
    labels = np.empty(n_samples, dtype=np.float64)
    for i in range(n_samples):
        num_qubits = int(rng.integers(4, 17))
        num_meas = int(rng.integers(3, min(num_qubits, 12) + 1))
        gate_counts = {
            "2q": int(rng.integers(5, 151)),
            "sx": int(rng.integers(10, 301)),
            "x": int(rng.integers(0, 41)),
            "rz": int(rng.integers(20, 401)),
        }
        calibration = CalibrationSnapshot(
            gate_errors={
                "2q": float(rng.uniform(0.002, 0.02)),
                "sx": float(rng.uniform(1e-4, 1e-3)),
                "x": float(rng.uniform(1e-4, 1e-3)),
                "rz": 0.0,
            },
            readout_errors=tuple(float(r) for r in rng.uniform(0.005, 0.05, size=num_qubits)),
        )
        esp = compute_esp(gate_counts, range(num_meas), calibration)
        true_rate = min(max(1.0 - esp ** (1.0 / num_meas), 0.005), 0.4)
        if rng.uniform() < 0.25:
            ideal = _spiked_ideal(num_meas, rng)
        else:
            ideal = generate_ideal(SyntheticSpec(num_meas, int(rng.integers(1, 5)), rng))
        noisy = apply_bitflip(sample_shots(ideal, 16384, rng), NoiseSpec(true_rate, rng))
        features.append(
            CircuitFeatures(
                num_qubits=num_qubits,
                num_measurements=num_meas,
                **{GATE_FEATURES[kind]: count for kind, count in gate_counts.items()},
                entropy=normalized_entropy(noisy),
                esp=esp,
            )
        )
        labels[i] = effective_error_rate(ideal, noisy)
    return features, labels
