import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import convolve_bitflip, reference_error_rate, reference_fit
from qemclust import (
    FEATURE_NAMES,
    BitString,
    CalibrationSnapshot,
    CircuitFeatures,
    OutcomeDistribution,
    compute_esp,
    cross_validate,
    effective_error_rate,
    fit_tree_ensemble,
    generate_ideal,
    make_synthetic_corpus,
    SyntheticSpec,
)
from qemclust.estimator import _PCG64Draws, _pairwise_sum

B = BitString.from_text

CALIB = CalibrationSnapshot(
    gate_errors={"2q": 0.01, "sx": 1e-4, "x": 1e-4, "rz": 0.0},
    readout_errors=(0.02, 0.03, 0.01),
)


def features_row(esp=0.9, entropy=0.2, **overrides):
    base = dict(
        num_qubits=5,
        num_measurements=3,
        num_2q_gates=10,
        num_sx_gates=20,
        num_x_gates=2,
        num_rz_gates=30,
        entropy=entropy,
        esp=esp,
    )
    base.update(overrides)
    return CircuitFeatures(**base)


class TestComputeEsp:
    def test_empty_product(self):
        assert compute_esp({}, [], CALIB) == 1.0

    def test_hand_arithmetic(self):
        got = compute_esp({"2q": 2}, [0], CALIB)
        assert got == pytest.approx(0.99**2 * 0.98)

    def test_any_error_pulls_below_one(self):
        assert compute_esp({"2q": 1}, [0, 1, 2], CALIB) < 1.0

    def test_missing_gate_kind_named(self):
        with pytest.raises(ValueError, match="ecr"):
            compute_esp({"ecr": 3}, [], CALIB)

    def test_missing_readout_qubit_named(self):
        with pytest.raises(ValueError, match="qubit 7"):
            compute_esp({}, [7], CALIB)

    def test_monotone_in_error_rates(self):
        base = compute_esp({"2q": 5}, [0, 1], CALIB)
        worse_gate = CalibrationSnapshot(
            gate_errors={"2q": 0.02}, readout_errors=CALIB.readout_errors
        )
        worse_readout = CalibrationSnapshot(
            gate_errors=CALIB.gate_errors, readout_errors=(0.05, 0.06, 0.01)
        )
        assert compute_esp({"2q": 5}, [0, 1], worse_gate) < base
        assert compute_esp({"2q": 5}, [0, 1], worse_readout) < base


class TestEffectiveErrorRate:
    def test_identical_distributions_have_zero_rate(self):
        d = OutcomeDistribution.from_counts({"010": 3, "111": 1})
        assert effective_error_rate(d, d) == 0.0

    @given(
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.01, max_value=0.45),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_through_analytic_channel(self, width, rate):
        # a single dominant string pushed through the exact channel damps
        # by (1-p)^width, so the inversion recovers p to float precision
        ideal = generate_ideal(SyntheticSpec(width, 1, seed=width))
        noisy = convolve_bitflip(ideal, rate) if width <= 16 else None
        assert effective_error_rate(ideal, noisy) == pytest.approx(rate, abs=1e-9)

    def test_sampling_fluctuation_clamps_to_zero(self):
        ideal = OutcomeDistribution.from_counts({"00": 0.5, "11": 0.5})
        noisy = OutcomeDistribution.from_counts({"00": 0.7, "11": 0.3})
        assert effective_error_rate(ideal, noisy) == 0.0

    def test_missing_mode_clamps_to_max(self):
        ideal = OutcomeDistribution.from_counts({"00": 1.0})
        noisy = OutcomeDistribution.from_counts({"01": 1.0})
        assert effective_error_rate(ideal, noisy) == 0.5

    @given(st.data(), st.sampled_from([1, 2, 62, 63, 64]) | st.integers(1, 70), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_mode_lookup(self, data, width, array_built):
        # few distinct weights, so ideal modes tie often; the noisy side
        # holds some of the ideal strings, maybe not the mode
        values = st.integers(0, (1 << width) - 1)
        ideal_values = data.draw(st.lists(values, min_size=1, max_size=10, unique=True))
        ideal_weights = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=len(ideal_values),
                                           max_size=len(ideal_values)).filter(any))
        noisy_values = data.draw(st.lists(st.sampled_from(ideal_values) | values, min_size=1,
                                          max_size=12, unique=True))
        noisy_weights = data.draw(st.lists(st.integers(1, 50), min_size=len(noisy_values),
                                           max_size=len(noisy_values)))
        ideal, noisy = (
            OutcomeDistribution(width, {BitString(v, width): w for v, w in zip(vs, ws)})
            for vs, ws in ((ideal_values, ideal_weights), (noisy_values, noisy_weights))
        )
        want = reference_error_rate(ideal, noisy)
        if array_built:
            ideal, noisy = (OutcomeDistribution._from_words(d.width, d._words, d._weights) for d in (ideal, noisy))
        assert effective_error_rate(ideal, noisy).hex() == want.hex()

    def test_noisy_input_out_of_value_order_is_not_sorted(self):
        ideal = OutcomeDistribution.from_counts({"110": 0.2, "011": 0.5, "000": 0.3})
        noisy = OutcomeDistribution.from_counts({"111": 9, "011": 40, "010": 6, "000": 25})
        want = reference_error_rate(ideal, noisy)
        assert effective_error_rate(ideal, noisy).hex() == want.hex()
        assert noisy._view is None  # the noisy words are scanned as they are

    def test_mode_tie_breaks_to_smallest_value(self):
        ideal = OutcomeDistribution.from_counts({"01": 0.5, "10": 0.5})
        noisy = OutcomeDistribution.from_counts({"01": 0.3, "10": 0.6, "11": 0.1})
        # mode is 01; its damping sets the rate
        expected = 1.0 - (0.3 / 0.5) ** 0.5
        assert effective_error_rate(ideal, noisy) == pytest.approx(expected)


class TestTreeEnsemble:
    def test_single_sample_is_memorized(self):
        model = fit_tree_ensemble([features_row()], [0.17], n_trees=5, seed=1)
        assert model.predict(features_row()) == pytest.approx(0.17)

    def test_constant_labels_predict_the_constant(self):
        rows = [features_row(esp=0.5 + 0.01 * i) for i in range(20)]
        model = fit_tree_ensemble(rows, [0.2] * 20, n_trees=10, seed=2)
        assert model.predict(features_row(esp=0.47)) == pytest.approx(0.2)

    def test_deterministic_given_seed(self):
        feats, labels = make_synthetic_corpus(60, seed=5)
        a = fit_tree_ensemble(feats, labels, n_trees=20, seed=9)
        b = fit_tree_ensemble(feats, labels, n_trees=20, seed=9)
        X = np.array([f.to_vector() for f in feats])
        assert np.array_equal(a.predict_matrix(X), b.predict_matrix(X))
        assert a.importances == b.importances

    def test_prediction_invariant_under_tree_order(self):
        feats, labels = make_synthetic_corpus(40, seed=6)
        model = fit_tree_ensemble(feats, labels, n_trees=12, seed=3)
        from dataclasses import replace

        reordered = replace(model, trees=tuple(reversed(model.trees)))
        X = np.array([f.to_vector() for f in feats])
        assert np.allclose(model.predict_matrix(X), reordered.predict_matrix(X))

    def test_prediction_stays_in_label_hull(self):
        feats, labels = make_synthetic_corpus(80, seed=8)
        model = fit_tree_ensemble(feats, labels, n_trees=20, seed=8)
        preds = model.predict_matrix(np.array([f.to_vector() for f in feats]))
        assert preds.min() >= labels.min() - 1e-12
        assert preds.max() <= labels.max() + 1e-12

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            fit_tree_ensemble([features_row()], [0.7])

    @pytest.mark.parametrize("shape", [(0, 8), (3, 0)])
    def test_empty_feature_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="training set must be a nonempty feature matrix"):
            fit_tree_ensemble(np.zeros(shape), [0.1, 0.2, 0.3][: shape[0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_data_rejected(self, bad):
        X = np.array([features_row(esp=0.5 + 0.1 * i).to_vector() for i in range(4)])
        y = np.array([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError, match="finite"):
            fit_tree_ensemble(X, np.where(np.arange(4) == 2, bad, y), n_trees=2)
        X[1, FEATURE_NAMES.index("entropy")] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_tree_ensemble(X, y, n_trees=2)

    def test_dimension_mismatch_rejected(self):
        model = fit_tree_ensemble([features_row(), features_row(esp=0.5)], [0.1, 0.2], n_trees=3)
        with pytest.raises(ValueError):
            model.predict_matrix(np.zeros((2, 5)))

    def test_linear_esp_target_is_learnable(self):
        rng = np.random.default_rng(0)
        X = np.tile(features_row().to_vector(), (500, 1))
        X[:, FEATURE_NAMES.index("esp")] = rng.uniform(0.2, 1.0, size=500)
        y = 0.5 * (1.0 - X[:, FEATURE_NAMES.index("esp")])
        cv = cross_validate(X, y, folds=5, seed=0, n_trees=60)
        assert cv.r2 > 0.95

    def test_importance_concentrates_on_the_only_split_feature(self):
        rng = np.random.default_rng(1)
        X = np.tile(features_row().to_vector(), (200, 1))
        X[:, FEATURE_NAMES.index("esp")] = rng.uniform(0.2, 1.0, size=200)
        y = 0.4 * (1.0 - X[:, FEATURE_NAMES.index("esp")])
        model = fit_tree_ensemble(X, y, n_trees=20, seed=4)
        importances = model.feature_importance()
        assert importances["esp"] == pytest.approx(1.0)
        assert sum(importances.values()) == pytest.approx(1.0, abs=1e-9)

    def test_importances_sum_to_one(self):
        feats, labels = make_synthetic_corpus(60, seed=11)
        model = fit_tree_ensemble(feats, labels, n_trees=15, seed=11)
        assert sum(model.feature_importance().values()) == pytest.approx(1.0, abs=1e-9)


class TestCrossValidate:
    def test_deterministic(self):
        feats, labels = make_synthetic_corpus(60, seed=13)
        a = cross_validate(feats, labels, folds=4, seed=2, n_trees=10)
        b = cross_validate(feats, labels, folds=4, seed=2, n_trees=10)
        assert a == b

    def test_unlearnable_labels_score_no_signal(self):
        rng = np.random.default_rng(3)
        feats, _ = make_synthetic_corpus(80, seed=3)
        noise = rng.uniform(0.0, 0.5, size=80)
        cv = cross_validate(feats, noise, folds=5, seed=3, n_trees=20)
        assert cv.r2 < 0.2

    def test_more_folds_than_samples_rejected(self):
        feats, labels = make_synthetic_corpus(4, seed=1)
        with pytest.raises(ValueError):
            cross_validate(feats, labels, folds=10)


class TestSyntheticCorpus:
    def test_deterministic_and_in_range(self):
        f1, l1 = make_synthetic_corpus(30, seed=21)
        f2, l2 = make_synthetic_corpus(30, seed=21)
        assert f1 == f2
        assert np.array_equal(l1, l2)
        assert ((l1 >= 0.0) & (l1 <= 0.5)).all()

    def test_features_validate(self):
        feats, _ = make_synthetic_corpus(30, seed=22)
        for f in feats:
            assert 0.0 <= f.esp <= 1.0
            assert 0.0 <= f.entropy <= 1.0
            assert f.num_measurements <= f.num_qubits


class TestValidation:
    def test_feature_bounds(self):
        with pytest.raises(ValueError):
            features_row(esp=1.2)
        with pytest.raises(ValueError):
            features_row(num_measurements=9)  # exceeds num_qubits=5
        with pytest.raises(ValueError):
            features_row(num_2q_gates=-1)

    def test_calibration_bounds(self):
        with pytest.raises(ValueError):
            CalibrationSnapshot(gate_errors={"2q": 1.5}, readout_errors=())
        with pytest.raises(ValueError):
            CalibrationSnapshot(gate_errors={}, readout_errors=(-0.1,))


def assert_equals_reference(model, X, y):
    trees, importances = reference_fit(
        X, y, model.n_trees, model.min_samples_leaf, model.max_features, model.seed
    )
    for got, want in zip(model.trees, trees, strict=True):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert model.importances == importances


class TestTreeKernel:
    """The scalar node kernel grows the trees the numpy reference grows,
    bit for bit, so model files do not change."""

    @pytest.mark.parametrize("kind", ["uniform", "mixed"])
    def test_pairwise_sum_matches_numpy_bits(self, kind):
        # the kernel's means and variances rely on numpy's summation order;
        # a numpy that changes it must fail here, not move model bytes
        rng = np.random.default_rng(0 if kind == "uniform" else 1)
        for n in range(1, 1101):
            if kind == "uniform":
                a = rng.random(n)
            else:
                a = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
                a[rng.random(n) < 0.1] = 1e16
            assert _pairwise_sum(a.tolist()).hex() == float(np.add.reduce(a)).hex(), n

    def test_pairwise_sum_of_negative_zeros(self):
        for n in (1, 7, 8, 129, 300):
            assert _pairwise_sum([-0.0] * n).hex() == float(np.add.reduce(np.full(n, -0.0))).hex()

    @given(
        rows=st.integers(2, 700),
        n_features=st.integers(1, 27),
        levels=st.lists(st.sampled_from([1, 2, 3, 7, 0]), min_size=27, max_size=27),
        label_levels=st.sampled_from([1, 2, 5, 0]),
        duplicate=st.booleans(),
        min_samples_leaf=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_trees_equal_the_numpy_reference(
        self, rows, n_features, levels, label_levels, duplicate, min_samples_leaf, seed
    ):
        # levels: distinct values per column (1 is constant, 0 continuous
        # over mixed magnitudes); the same for the labels; a split draws
        # from n_features // 3 columns, 1 to 9
        rng = np.random.default_rng(seed)
        X = np.empty((rows, n_features))
        for f in range(n_features):
            if levels[f]:
                X[:, f] = rng.integers(0, levels[f], rows) * rng.uniform(0.1, 100.0)
            else:
                X[:, f] = rng.random(rows) * 10.0 ** rng.integers(-6, 6)
        if label_levels:
            y = rng.choice(rng.uniform(0.0, 0.5, label_levels), rows)
        else:
            y = rng.uniform(0.0, 0.5, rows)
        if duplicate:
            src = rng.integers(0, rows, rows // 2)
            X[: rows // 2], y[: rows // 2] = X[src], y[src]
        model = fit_tree_ensemble(X, y, n_trees=2, min_samples_leaf=min_samples_leaf, seed=seed)
        assert model.max_features == max(1, n_features // 3)
        assert_equals_reference(model, X, y)

    @pytest.mark.parametrize("min_samples_leaf", [1, 2, 5])
    def test_synthetic_corpus_trees_equal_the_numpy_reference(self, min_samples_leaf):
        feats, labels = make_synthetic_corpus(120, seed=min_samples_leaf)
        X = np.array([f.to_vector() for f in feats])
        model = fit_tree_ensemble(X, labels, n_trees=4, min_samples_leaf=min_samples_leaf, seed=7)
        assert_equals_reference(model, X, labels)

    @pytest.mark.parametrize("max_features", [1, 10, 29])
    def test_thirty_feature_trees_equal_the_numpy_reference(self, max_features):
        # wide candidate draws: Floyd collisions and multi-step shuffles,
        # from 3 * max_features columns; every third column and the labels
        # take a few tied values, so nodes lose columns to constancy and
        # the population shrinks
        rng = np.random.default_rng(max_features)
        rows, columns = 150, 3 * max_features
        X = rng.random((rows, columns)) * 10.0 ** rng.integers(-4, 4, columns)
        X[:, ::3] = rng.integers(0, 3, (rows, max_features))
        y = rng.choice(rng.uniform(0.0, 0.5, 6), rows)
        model = fit_tree_ensemble(X, y, n_trees=3, seed=max_features)
        assert model.max_features == max_features
        assert_equals_reference(model, X, y)

    @pytest.mark.parametrize("seed", range(6))
    def test_signed_zeros_and_a_lone_value_equal_the_numpy_reference(self, seed):
        # column 0 mixes -0.0 and 0.0: constant under == and under hi > lo,
        # so it is never a candidate; column 1 is constant but for one row,
        # so it is a candidate only in the nodes that hold that row; column
        # 2 mixes both zeros with 1.0; the labels mix both zeros too, and
        # a one-row child's mean is 0.0 for either; the columns tiled to 6
        # and 12 make splits draw from 2 and 4 of them
        rng = np.random.default_rng(seed)
        rows = 40
        X = rng.random((rows, 4))
        X[:, 0] = rng.choice([-0.0, 0.0], rows)
        X[:, 1] = 3.0
        X[rng.integers(rows), 1] = 5.0
        X[:, 2] = rng.choice([-0.0, 0.0, 1.0], rows)
        y = rng.choice([-0.0, 0.0, 0.125, 0.25], rows)
        for max_features, columns in ((1, 4), (2, 6), (4, 12)):
            tiled = np.tile(X, 3)[:, :columns]
            model = fit_tree_ensemble(tiled, y, n_trees=4, seed=seed)
            assert model.max_features == max_features
            assert_equals_reference(model, tiled, y)

    def test_a_refit_after_the_rows_change_equals_the_reference(self):
        # the equal-value masks belong to one fit: the same array, changed
        # in place between two fits, must not reach the second through them
        rng = np.random.default_rng(3)
        X = rng.integers(0, 3, (50, 4)).astype(np.float64)
        y = rng.choice(rng.uniform(0.0, 0.5, 5), 50)
        first = fit_tree_ensemble(X, y, n_trees=3, seed=1)
        X[:, 0] = rng.random(50)  # tied column becomes continuous
        X[:, 1] = 1.0  # tied column becomes constant
        X[:25, 2] = X[25:, 2]
        second = fit_tree_ensemble(X, y, n_trees=3, seed=1)
        assert_equals_reference(second, X, y)
        assert first.importances != second.importances


DRAW_OPS = st.lists(
    st.one_of(
        st.one_of(st.integers(2, 8), st.integers(1, 64)).flatmap(
            lambda n: st.tuples(st.just("choice"), st.just(n), st.integers(0, n))
        ),
        # bounds near 2**32 make Lemire's rejection likely
        st.tuples(st.just("choice"), st.integers(2**31, 2**32), st.integers(0, 2)),
        st.tuples(st.just("uniform"), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(
            lambda op: ("uniform", min(op[1:]), max(op[1:]))
        ),
        st.tuples(st.just("uniform"), st.floats(-1.7e308, -1e308), st.floats(1e308, 1.7e308)),
    ),
    max_size=30,
)
# a uniform whose span overflows: numpy raises before it takes a word
OVERFLOW = ("uniform", -1.7e308, 1.7e308)
# above 10,000 numpy tail-shuffles the population when size > n // 50
TAIL_OP = st.integers(10_001, 12_000).flatmap(
    lambda n: st.tuples(st.just("choice"), st.just(n), st.integers(n // 50 - 5, n // 50 + 30))
)


class TestDraws:
    """The tree's draws from a seed are ``np.random.default_rng(seed)``'s
    ``choice(n, size, replace=False)`` and ``uniform(lo, hi)``, value for
    value. Every run ends with a uniform, so an overflowing uniform that
    took a word shows in the value of a later draw."""

    # words are taken 64 at a time: the first reads from at least three
    # blocks; the others put overflows between draws, and the last draws
    # with bounds near 2**32 on both sides of one
    @example(ops=[("choice", 64, 64)] * 3 + [("uniform", 0.0, 1.0)], tail=("choice", 10_001, 230), at=4, seed=1)
    @example(ops=[("uniform", 0.0, 1.0)] + [OVERFLOW] * 2, tail=("choice", 8, 2), at=3, seed=2)
    @example(ops=[("choice", 8, 2), OVERFLOW, ("choice", 8, 2), ("uniform", -1.0, 2.0)], tail=("choice", 10_001, 230), at=4, seed=3)
    @example(ops=[("choice", 2**32, 2), OVERFLOW, ("choice", 2**32 - 1, 1)], tail=("choice", 10_001, 230), at=0, seed=4)
    @given(ops=DRAW_OPS, tail=TAIL_OP, at=st.integers(0, 30), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_draws_equal_numpy(self, ops, tail, at, seed):
        ops = [*ops[:at], tail, *ops[at:], ("uniform", 0.0, 1.0)]
        want, draws = np.random.default_rng(seed), _PCG64Draws(seed)
        for kind, a, b in ops:
            if kind == "choice":
                assert draws.choice(a, b) == want.choice(a, size=b, replace=False).tolist()
            elif math.isfinite(b - a):
                assert draws.uniform(a, b).hex() == want.uniform(a, b).hex()
            else:
                with pytest.raises(OverflowError):
                    want.uniform(a, b)
                with pytest.raises(OverflowError):
                    draws.uniform(a, b)
