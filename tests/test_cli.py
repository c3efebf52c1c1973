import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qemclust
from qemclust import _packed, cli, clustering
from qemclust import io as qio
from qemclust import (
    FEATURE_NAMES,
    BitString,
    CalibrationSnapshot,
    ExperimentRecord,
    NoiseSpec,
    OutcomeDistribution,
    SweepCell,
    SyntheticSpec,
    TreeEnsemble,
    apply_bitflip,
    fit_tree_ensemble,
    generate_ideal,
    make_synthetic_corpus,
    normalized_entropy,
    sample_shots,
)
from qemclust.cli import main
from qemclust.estimator import _Tree

B = BitString.from_text


@pytest.fixture()
def worked_counts(tmp_path):
    ideal = OutcomeDistribution.from_counts(
        {"111000": 0.39, "011010": 0.32, "111010": 0.29}
    )
    rng = np.random.default_rng(101)
    noisy = apply_bitflip(sample_shots(ideal, 8192, rng), NoiseSpec(0.15, rng))
    path = tmp_path / "noisy.json"
    qio.write_counts(noisy, str(path))
    ideal_path = tmp_path / "ideal.json"
    qio.write_distribution(ideal, str(ideal_path))
    return path, ideal_path


class TestCountsFiles:
    def test_round_trip_identity(self, tmp_path):
        src = sample_shots(generate_ideal(SyntheticSpec(5, 4, seed=2)), 512, seed=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        qio.write_counts(src, str(p1), metadata={"backend": "sim"})
        loaded, meta = qio.read_counts(str(p1))
        assert loaded == src
        assert meta["backend"] == "sim"
        qio.write_counts(loaded, str(p2), metadata=meta)
        again, meta2 = qio.read_counts(str(p2))
        assert again == loaded and meta2 == meta

    def test_malformed_key_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "qemclust-counts", "version": 1, "width": 3,
            "counts": {"0a1": 4},
        }))
        with pytest.raises(qio.DataFormatError, match="0a1"):
            qio.read_counts(str(path))

    def test_fractional_count_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "qemclust-counts", "version": 1, "width": 2,
            "counts": {"01": 1.5},
        }))
        with pytest.raises(qio.DataFormatError, match="01"):
            qio.read_counts(str(path))

    def test_json_syntax_diagnostic_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "format": "qemclust-counts",\n broken\n}')
        with pytest.raises(qio.DataFormatError, match="line 3"):
            qio.read_counts(str(path))


    def test_boolean_count_rejected(self, tmp_path):
        # JSON true is not the count 1
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({
            "format": "qemclust-counts", "version": 1, "width": 3,
            "counts": {"101": True},
        }))
        with pytest.raises(qio.DataFormatError, match="101"):
            qio.read_counts(str(path))
        assert main(["mitigate", str(path), "--p", "0.1"]) == 2

    def test_boolean_width_rejected(self, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({
            "format": "qemclust-counts", "version": 1, "width": True,
            "counts": {"1": 4},
        }))
        with pytest.raises(qio.DataFormatError, match="width"):
            qio.read_counts(str(path))

    @pytest.mark.parametrize("width,counts,key", [
        (2, {"0": 3, "011": 4}, "0"),  # 1 + 3 characters: 2 keys of width 2
        (2, {"01": 3, "٠١": 4}, "٠١"),  # Arabic-Indic digits
        (1, {"1": 2, "０": 3}, "０"),  # full-width zero
        (1, {"1": 2, "": 3}, ""),
        (2, {"01": 3, "10": True}, "10"),
        (2, {"01": 3, "10": 2.0}, "10"),
        (2, {"01": 3, "10": -1}, "10"),
        (2, {"01": -1, "1x": 3}, "01"),  # the first bad entry is named
    ])
    def test_bad_entry_names_file_and_key(self, tmp_path, capsys, width, counts, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "qemclust-counts", "version": 1, "width": width, "counts": counts,
        }))
        assert main(["mitigate", str(path), "--p", "0.1"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"key {key!r} " in err

    def test_count_above_int64_is_accepted(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "format": "qemclust-counts", "version": 1, "width": 2,
            "counts": {"01": 3, "10": 2**64 + 1},
        }))
        dist, _ = qio.read_counts(str(path))
        assert dist.get(B("10")) == float(2**64 + 1) and dist.total == float(2**64) + 3.0
        assert main(["mitigate", str(path), "--p", "0.1"]) == 0

    @pytest.mark.parametrize("rate", ["0.15", "0"])
    def test_key_order_does_not_change_outputs(self, worked_counts, tmp_path, rate):
        noisy_path, _ = worked_counts
        doc = json.loads(noisy_path.read_text())
        items = list(doc["counts"].items())
        random.Random(3).shuffle(items)
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps({**doc, "counts": dict(items)}))
        outputs = []
        for i, path in enumerate([noisy_path, shuffled]):
            out, rep = tmp_path / f"out{i}.json", tmp_path / f"rep{i}.json"
            assert main(["mitigate", str(path), "--p", rate, "--out", str(out), "--report", str(rep)]) == 0
            outputs.append((out.read_bytes(), rep.read_bytes()))
        assert outputs[0] == outputs[1]


@st.composite
def weight_maps(draw):
    width = draw(st.one_of(st.sampled_from([1, 64, 65, 300]), st.integers(min_value=1, max_value=70)))
    values = draw(st.lists(st.integers(min_value=0, max_value=2**width - 1), unique=True, max_size=40))
    return width, draw(st.permutations(values))


METADATA = st.one_of(
    st.none(),
    st.just({"counts": {}, "note": '\n  "counts": {}'}),
    st.dictionaries(
        st.text(max_size=6),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=6)),
        max_size=3,
    ),
)


class TestWeightMapWriter:
    """``write_counts`` and ``write_distribution`` write what
    ``json.dump(doc, indent=2, sort_keys=True)`` writes for the document."""

    # few distinct values, so weights repeat; -0.0 is written as such
    PROBS = [0.0, -0.0, 5e-324, 1e-300, 1e-5, 0.1, 1.0, 1e16, 1e300]
    # float counts: signed zeros, near-integral values and integers >= 2**63
    COUNTS = [0.0, -0.0, 1.0, 2.9999999999, 3.0000000001, 2.0**53, 1e16, 1e20, 2.0**63, 2.0**64, 1e300]

    @staticmethod
    def _expected(fmt, field, width, weights, metadata=None):
        doc = {
            "format": fmt,
            "version": 1,
            "width": width,
            field: {format(v, f"0{width}b"): w for v, w in sorted(weights.items())},
        }
        if metadata:
            doc["metadata"] = metadata
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    @given(weight_maps(), st.data(), METADATA)
    @settings(max_examples=150, deadline=None)
    def test_counts_bytes(self, tmp_path_factory, keys, data, metadata):
        width, values = keys
        counts = data.draw(st.lists(
            st.one_of(st.integers(min_value=0, max_value=2**53), st.sampled_from(self.COUNTS)),
            min_size=len(values), max_size=len(values),
        ))
        weights = dict(zip(values, counts))
        path = tmp_path_factory.mktemp("counts") / "c.json"
        dist = OutcomeDistribution(width, {BitString(v, width): c for v, c in weights.items()})
        weights = {v: round(c) for v, c in weights.items()}
        if not sum(weights.values()):  # a file its reader refuses is not written
            with pytest.raises(ValueError, match="the count values must sum to a positive finite number"):
                qio.write_counts(dist, str(path), metadata)
            assert not path.exists()
            return
        qio.write_counts(dist, str(path), metadata)
        expected = self._expected("qemclust-counts", "counts", width, weights, metadata)
        assert path.read_bytes() == expected
        # the array-built distribution the reader returns
        qio.write_counts(qio.read_counts(str(path))[0], str(path), metadata)
        assert path.read_bytes() == expected

    @given(weight_maps(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_distribution_bytes(self, tmp_path_factory, keys, data):
        width, values = keys
        probs = data.draw(st.lists(
            st.one_of(st.sampled_from(self.PROBS), st.floats(min_value=0.0, max_value=1e308)),
            min_size=len(values), max_size=len(values),
        ))
        weights = dict(zip(values, probs))
        path = tmp_path_factory.mktemp("probs") / "p.json"
        dist = OutcomeDistribution(width, {BitString(v, width): p for v, p in weights.items()})
        if not 0 < dist.total < math.inf:  # no probability view: nothing is written
            with pytest.raises(ValueError, match="the probability values must sum to a positive finite number"):
                qio.write_distribution(dist, str(path))
            assert not path.exists()
            return
        qio.write_distribution(dist, str(path))
        expected = self._expected("qemclust-distribution", "probabilities", width, weights)
        assert path.read_bytes() == expected
        qio.write_distribution(qio.read_distribution(str(path)), str(path))
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("width", [1, 64, 65, 300])
    def test_signed_zeros_side_by_side(self, tmp_path, width):
        # the cycled weights give the first two keys 0.0 and -0.0, and repeat
        rng = random.Random(width)
        values = sorted({rng.getrandbits(width) for _ in range(60)} | {0, 1})
        path = tmp_path / "w.json"
        if width == 1:  # the two keys weigh 0.0 and -0.0: a file no reader takes is not written
            for write, weights in ((qio.write_counts, self.COUNTS), (qio.write_distribution, self.PROBS)):
                with pytest.raises(ValueError, match="values must sum to a positive finite number"):
                    write(OutcomeDistribution(1, {BitString(v, 1): w for v, w in zip(values, weights)}), str(path))
            assert not path.exists()
            return
        counts = dict(zip(values, itertools.cycle(self.COUNTS)))
        qio.write_counts(OutcomeDistribution(width, {BitString(v, width): c for v, c in counts.items()}), str(path))
        counts = {v: round(c) for v, c in counts.items()}
        assert path.read_bytes() == self._expected("qemclust-counts", "counts", width, counts)
        probs = dict(zip(values, itertools.cycle(self.PROBS)))
        qio.write_distribution(OutcomeDistribution(width, {BitString(v, width): p for v, p in probs.items()}), str(path))
        assert path.read_bytes() == self._expected("qemclust-distribution", "probabilities", width, probs)
        first, second = (format(v, f"0{width}b") for v in values[:2])
        assert f'"{first}": 0.0,\n    "{second}": -0.0' in path.read_text()


class TestWritersKeepTheirReadersRules:
    """A writer refuses, before it opens the file, what its reader would
    refuse to load."""

    @pytest.mark.parametrize("write, weights, name", [
        (qio.write_distribution, {}, "probability"),
        (qio.write_distribution, {"000": 0.0, "101": -0.0}, "probability"),
        (qio.write_distribution, {"000": 1e308, "101": 1e308}, "probability"),
        (qio.write_counts, {"000": 0, "101": 0}, "count"),
        (qio.write_counts, {"000": 1e-10}, "count"),  # integral within 1e-9, written as 0
        (qio.write_counts, {"000": 1e308, "101": 1e308}, "count"),
    ], ids=["empty", "zeros", "inf-total", "zero-counts", "rounds-to-zero", "inf-counts"])
    def test_weight_maps(self, tmp_path, write, weights, name):
        path = tmp_path / "w.json"
        dist = OutcomeDistribution(3, {BitString.from_text(k): w for k, w in weights.items()})
        with pytest.raises(ValueError) as err:
            write(dist, str(path))
        assert str(err.value) == f"the {name} values must sum to a positive finite number"
        assert not path.exists()

    @pytest.mark.parametrize("weights", [
        [2.0**970] * 7 + [sys.float_info.max - 6 * 2.0**970],  # overflows left to right only
        [sys.float_info.max] + [2.0**969] * 7,  # overflows in numpy's pairwise sum only
    ], ids=["left-to-right", "pairwise"])
    def test_either_sum_overflowing(self, tmp_path, weights):
        # the reader refuses a total that overflows in either of its two
        # sums, and the writer refuses the same weights
        probabilities = {f"{i:03b}": w for i, w in enumerate(weights)}
        path = tmp_path / "w.json"
        with pytest.raises(ValueError) as err:
            qio.write_distribution(OutcomeDistribution.from_counts(probabilities), str(path))
        assert str(err.value) == "the probability values must sum to a positive finite number"
        assert not path.exists()
        path.write_text(json.dumps({"format": "qemclust-distribution", "version": 1, "width": 3,
                                    "probabilities": probabilities}))
        with pytest.raises(qio.DataFormatError) as err:
            qio.read_distribution(str(path))
        assert str(err.value) == f"{path}: the probability values must sum to a positive finite number"

    @pytest.mark.parametrize("label", [0.7, -0.1, math.nan])
    def test_corpus_labels(self, tmp_path, label):
        path = tmp_path / "corpus.csv"
        feats, labels = make_synthetic_corpus(2, seed=3)
        with pytest.raises(ValueError) as err:
            qio.write_corpus(feats, [labels[0], label], str(path))
        assert str(err.value) == f"label 1: effective_error_rate must lie in [0, 0.5], got {label!r}"
        assert not path.exists()


class TestDistributionFiles:
    def _write(self, path, probabilities):
        path.write_text(json.dumps({
            "format": "qemclust-distribution", "version": 1, "width": 2,
            "probabilities": probabilities,
        }))

    def test_boolean_probability_rejected(self, tmp_path):
        path = tmp_path / "bool.json"
        self._write(path, {"01": True})
        with pytest.raises(qio.DataFormatError, match="01"):
            qio.read_distribution(str(path))

    def test_all_zero_probabilities_rejected(self, tmp_path):
        path = tmp_path / "zero.json"
        self._write(path, {"00": 0, "01": 0.0})
        with pytest.raises(qio.DataFormatError, match="zero.json"):
            qio.read_distribution(str(path))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_probability_names_file_and_key(self, tmp_path, value):
        path = tmp_path / "nonfinite.json"
        self._write(path, {"00": 0.5, "10": value})
        with pytest.raises(qio.DataFormatError) as info:
            qio.read_distribution(str(path))
        assert str(path) in str(info.value) and "'10'" in str(info.value)


class TestFeatureAndCalibrationFiles:
    FEATURES = {
        "format": "qemclust-features", "version": 1,
        "num_qubits": 4, "num_measurements": 2, "num_2q_gates": 3,
        "num_sx_gates": 5, "num_x_gates": 1, "num_rz_gates": 8,
        "entropy": 0.1, "esp": 0.9, "measured_qubits": [0, 1],
    }

    @pytest.mark.parametrize("field,value", [
        ("num_qubits", True),
        ("num_x_gates", False),
        ("entropy", True),
        ("esp", False),
        ("measured_qubits", [0, True]),
    ])
    def test_boolean_feature_rejected(self, tmp_path, field, value):
        path = tmp_path / "features.json"
        path.write_text(json.dumps({**self.FEATURES, field: value}))
        with pytest.raises(qio.DataFormatError, match=field):
            qio.read_features_file(str(path))

    def test_well_formed_features_accepted(self, tmp_path):
        path = tmp_path / "features.json"
        path.write_text(json.dumps(self.FEATURES))
        assert qio.read_features_file(str(path))["measured_qubits"] == [0, 1]

    def test_calibration_round_trip(self, tmp_path):
        calibration = CalibrationSnapshot(
            gate_errors={"2q": 0.013, "sx": 0.00021, "x": 1 / 3, "rz": 0.0},
            readout_errors=(0.01, 0.1 + 0.2, 0.0, 1.0),
        )
        first, second = tmp_path / "c1.json", tmp_path / "c2.json"
        qio.write_calibration(calibration, str(first))
        assert qio.read_calibration(str(first)) == calibration
        qio.write_calibration(qio.read_calibration(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_boolean_calibration_rate_rejected(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text(json.dumps({
            "format": "qemclust-calibration", "version": 1,
            "gate_errors": {"2q": 0.01}, "readout_errors": [0.01, False],
        }))
        with pytest.raises(qio.DataFormatError, match="calib.json"):
            qio.read_calibration(str(path))


class TestModelFiles:
    def test_bit_exact_round_trip(self, tmp_path):
        feats, labels = make_synthetic_corpus(50, seed=3)
        model = fit_tree_ensemble(feats, labels, n_trees=8, seed=3)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        qio.save_model(model, str(p1))
        loaded = qio.load_model(str(p1))
        X = np.array([f.to_vector() for f in feats])
        assert np.array_equal(model.predict_matrix(X), loaded.predict_matrix(X))
        assert loaded.importances == model.importances
        qio.save_model(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_model_cut_to_fewer_trees_round_trips(self, tmp_path, k):
        feats, labels = make_synthetic_corpus(20, seed=4)
        model = fit_tree_ensemble(feats, labels, n_trees=3, seed=4)
        cut = dataclasses.replace(model, trees=model.trees[:k])
        assert cut.n_trees == len(cut.trees) == k
        first, second = tmp_path / "m1.json", tmp_path / "m2.json"
        qio.save_model(cut, str(first))
        loaded = qio.load_model(str(first))
        assert loaded.n_trees == len(loaded.trees) == k
        qio.save_model(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("n_trees, n_features", [(0, 8), (1, 8), (3, 8), (3, 30)])
    def test_writer_bytes_equal_the_indented_encoder(self, tmp_path, n_trees, n_features):
        # thresholds of -0.0, the smallest subnormal and 1e22 (repr "1e+22"), and a one-node tree
        trees = [
            _Tree(feature=np.array([0, -1, n_features - 1, -1, -1]), threshold=np.array([-0.0, 0.0, 5e-324, 0.0, 0.0]),
                  left=np.array([1, -1, 3, -1, -1]), right=np.array([2, -1, 4, -1, -1]),
                  value=np.array([0.25, 0.1, 0.3, 0.2, 0.4])),
            _Tree(feature=np.array([1, -1, -1]), threshold=np.array([1e22, 0.0, 0.0]), left=np.array([1, -1, -1]),
                  right=np.array([2, -1, -1]), value=np.array([0.05, 0.0, 1 / 3])),
            _Tree(feature=np.array([-1]), threshold=np.array([0.0]), left=np.array([-1]), right=np.array([-1]),
                  value=np.array([0.5])),
        ][:n_trees]
        names = FEATURE_NAMES if n_features == len(FEATURE_NAMES) else tuple(f"f{i}" for i in range(n_features))
        importances = tuple(np.linspace(0.0, 2 / n_features, n_features).tolist())
        model = TreeEnsemble(trees=tuple(trees), feature_names=names, min_samples_leaf=1,
                             max_features=2, seed=5, importances=importances)
        doc = {
            "format": "qemclust-extratrees", "version": 1, "feature_names": list(names),
            "hyperparameters": {"n_trees": n_trees, "min_samples_leaf": 1, "max_features": 2, "seed": 5},
            "feature_importances": list(importances),
            "trees": [{name: getattr(t, name).tolist() for name in ("feature", "threshold", "left", "right", "value")}
                      for t in trees],
        }
        path = tmp_path / "model.json"
        qio.save_model(model, str(path))
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    # one split on entropy (feature 6) into two leaves, and a leaf-only tree
    TREES = [
        {"feature": [6, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1], "right": [2, -1, -1],
         "value": [0.02, 0.01, 0.03]},
        {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [0.05]},
    ]
    FEATURES = {
        "format": "qemclust-features", "version": 1, "num_qubits": 4, "num_measurements": 2,
        "num_2q_gates": 3, "num_sx_gates": 5, "num_x_gates": 1, "num_rz_gates": 8, "entropy": 0.7, "esp": 0.9,
    }

    def _estimate(self, tmp_path, capsys, trees, **fields):
        model, features = tmp_path / "model.json", tmp_path / "features.json"
        doc = {
            "format": "qemclust-extratrees", "version": 1, "feature_names": list(FEATURE_NAMES),
            "hyperparameters": {"n_trees": len(trees), "min_samples_leaf": 1, "max_features": 8, "seed": 0},
            "feature_importances": [0.0] * 6 + [1.0, 0.0], "trees": trees,
        }
        for key, value in fields.items():
            if key in doc["hyperparameters"]:
                doc["hyperparameters"][key] = value
            else:
                doc[key] = value
        model.write_text(json.dumps(doc))
        features.write_text(json.dumps(self.FEATURES))
        rc = main(["estimate", "--model", str(model), "--features", str(features)])
        out, err = capsys.readouterr()
        return rc, out, err, model

    def test_hand_built_model_predicts(self, tmp_path, capsys):
        rc, out, _, _ = self._estimate(tmp_path, capsys, self.TREES)
        assert rc == 0 and float(out) == pytest.approx((0.03 + 0.05) / 2)

    @pytest.mark.parametrize("tree, fields, message", [
        (0, {"value": [0.02, 0.01]}, "equal length"),
        (1, {"left": []}, "equal length"),
        (0, {"feature": [8, -1, -1]}, "feature must lie in"),
        (0, {"feature": [6, -2, -1]}, "feature must lie in"),
        (0, {"left": [0, -1, -1]}, "later nodes"),  # a split looping to itself
        (0, {"feature": [6, 6, -1], "left": [1, 2, -1], "right": [2, 0, -1]}, "later nodes"),
        (0, {"right": [3, -1, -1]}, "later nodes"),
        (0, {"left": [-1, -1, -1]}, "later nodes"),
        (0, {"threshold": [math.nan, 0.0, 0.0]}, "threshold must be finite"),
        (1, {"threshold": [math.inf]}, "threshold must be finite"),
        (0, {"value": [0.02, math.nan, 0.03]}, "value must lie in"),
        (0, {"value": [0.02, 0.01, 0.6]}, "value must lie in"),
        (1, {"value": [-0.01]}, "value must lie in"),
        # JSON integers only: an int64 cast would read these as 0, 1, 1, 3 and 1
        (0, {"feature": [0.5, -1, -1]}, "node 0: feature must be an integer"),
        (1, {"feature": [True]}, "node 0: feature must be an integer"),
        (0, {"left": ["1", -1, -1]}, "node 0: left must be an integer"),
        (0, {"left": [1, -1, -1], "right": [3.0, -1, -1]}, "node 0: right must be an integer"),
        (0, {"right": [2, -1, True]}, "node 2: right must be an integer"),
        # JSON numbers only: a float64 cast would read these as 12.09..., 0.01 and 0.0
        (0, {"threshold": ["12.096303854170237", 0.0, 0.0]}, "node 0: threshold must be a number"),
        (0, {"value": [0.02, "0.01", 0.03]}, "node 1: value must be a number"),
        (0, {"threshold": [False, 0.0, 0.0]}, "node 0: threshold must be a number"),
    ], ids=["unequal", "empty", "feature-high", "feature-low", "self-loop", "back-edge", "child-out-of-range",
            "split-without-child", "nan-threshold", "inf-threshold", "nan-value", "value-high", "value-low",
            "feature-float", "feature-bool", "left-string", "right-float", "right-bool", "threshold-string",
            "value-string", "threshold-bool"])
    def test_malformed_tree_is_a_data_error(self, tmp_path, capsys, tree, fields, message):
        trees = json.loads(json.dumps(self.TREES))
        trees[tree].update(fields)
        rc, out, err, model = self._estimate(tmp_path, capsys, trees)
        assert rc == 2 and out == ""
        assert f"{model}: malformed model file (tree {tree}" in err and message in err

    def test_integer_thresholds_and_values_are_numbers(self, tmp_path, capsys):
        trees = json.loads(json.dumps(self.TREES))
        trees[0].update(threshold=[1, 0, 0], value=[0, 0.01, 0])  # entropy 0.7 < 1: the left leaf
        rc, out, _, _ = self._estimate(tmp_path, capsys, trees)
        assert rc == 0 and float(out) == pytest.approx((0.01 + 0.05) / 2)

    def test_model_without_trees_is_a_data_error(self, tmp_path, capsys):
        rc, out, err, model = self._estimate(tmp_path, capsys, [])
        assert rc == 2 and out == "" and f"{model}: malformed model file (the model has no trees)" in err

    @pytest.mark.parametrize("fields, message", [
        ({"n_trees": 2.7}, "hyperparameter n_trees must be an integer"),
        ({"min_samples_leaf": True}, "hyperparameter min_samples_leaf must be an integer"),
        ({"max_features": "8"}, "hyperparameter max_features must be an integer"),
        ({"seed": 0.0}, "hyperparameter seed must be an integer"),
        ({"feature_names": "abcdefgh"}, "feature_names must be a list of strings"),
        ({"feature_names": [*FEATURE_NAMES[:7], 7]}, "feature_names must be a list of strings"),
        ({"feature_importances": ["0.5"] * 8}, "feature_importances must be a list of numbers"),
        ({"feature_importances": [0.5, True] * 4}, "feature_importances must be a list of numbers"),
        ({"feature_importances": [0.5] * 7}, "one per feature name"),
        ({"feature_importances": {"entropy": 1.0}}, "feature_importances must be a list of numbers"),
        # written back, these would be NaN and Infinity literals, which are not JSON
        ({"feature_importances": [0.5] * 7 + [math.nan]}, "feature_importances must be finite"),
        ({"feature_importances": [math.inf] + [0.5] * 7}, "feature_importances must be finite"),
        ({"n_trees": -7}, "hyperparameter n_trees must equal the number of trees, 2, got -7"),
        ({"n_trees": 3}, "hyperparameter n_trees must equal the number of trees, 2, got 3"),
        ({"min_samples_leaf": 0}, "hyperparameter min_samples_leaf must be >= 1, got 0"),
        ({"max_features": 99}, "hyperparameter max_features must lie in [1, 8], got 99"),
        ({"max_features": 0}, "hyperparameter max_features must lie in [1, 8], got 0"),
        ({"seed": -3}, "hyperparameter seed must be >= 0, got -3"),
    ], ids=["n_trees-float", "min_samples_leaf-bool", "max_features-string", "seed-float", "names-string",
            "names-number", "importances-strings", "importances-bool", "importances-short", "importances-object",
            "importances-nan", "importances-infinity",
            "n_trees-negative", "n_trees-miscounted", "min_samples_leaf-zero", "max_features-high",
            "max_features-zero", "seed-negative"])
    def test_malformed_model_fields_are_a_data_error(self, tmp_path, capsys, fields, message):
        rc, out, err, model = self._estimate(tmp_path, capsys, self.TREES, **fields)
        assert rc == 2 and out == ""
        assert f"{model}: malformed model file (" in err and message in err

    @pytest.mark.parametrize("names", [
        [*FEATURE_NAMES[:6], "esp", "entropy"],
        list(FEATURE_NAMES[:7]),
    ], ids=["entropy-esp-swapped", "seven-names"])
    def test_model_for_other_features_is_a_data_error(self, tmp_path, capsys, names):
        fields = {"feature_names": names, "feature_importances": [0.0] * len(names), "max_features": 2}
        rc, out, err, model = self._estimate(tmp_path, capsys, self.TREES, **fields)
        assert rc == 2 and out == ""
        assert f"{model}: model features {names} are not {list(FEATURE_NAMES)}" in err

    def test_mitigate_with_a_model_for_other_features_is_a_data_error(self, worked_counts, tmp_path, capsys):
        noisy_path, _ = worked_counts
        names = [*FEATURE_NAMES[:6], "esp", "entropy"]
        self._estimate(tmp_path, capsys, self.TREES, feature_names=names)
        model, features, out = tmp_path / "model.json", tmp_path / "features.json", tmp_path / "o.json"
        rc = main(["mitigate", str(noisy_path), "--model", str(model), "--features", str(features), "--out", str(out)])
        assert rc == 2 and f"{model}: model features" in capsys.readouterr().err
        assert not out.exists()

    def test_model_for_other_features_still_predicts_a_matrix(self, tmp_path):
        X = np.array([[0.0] * 6 + [0.7, 0.9], [0.0] * 6 + [0.3, 0.9]])
        model = fit_tree_ensemble(X[:, :7], [0.01, 0.03], n_trees=2, seed=0)
        path = tmp_path / "model.json"
        qio.save_model(model, str(path))
        loaded = qio.load_model(str(path))
        assert loaded.feature_names == tuple(f"f{i}" for i in range(7))
        assert np.array_equal(loaded.predict_matrix(X[:, :7]), model.predict_matrix(X[:, :7]))


class TestSimulateCommand:
    def test_deterministic_files(self, tmp_path):
        args = [
            "--seed", "9", "simulate", "--n", "6", "--d", "3", "--p", "0.15",
            "--shots", "2048", "--no-timestamp",
        ]
        out1 = [str(tmp_path / "i1.json"), str(tmp_path / "n1.json")]
        out2 = [str(tmp_path / "i2.json"), str(tmp_path / "n2.json")]
        assert main(args + ["--out-ideal", out1[0], "--out-noisy", out1[1]]) == 0
        assert main(args + ["--out-ideal", out2[0], "--out-noisy", out2[1]]) == 0
        assert open(out1[0], "rb").read() == open(out2[0], "rb").read()
        assert open(out1[1], "rb").read() == open(out2[1], "rb").read()

    def test_noiseless_pair_is_identical(self, tmp_path):
        ideal_p = str(tmp_path / "ideal.json")
        noisy_p = str(tmp_path / "noisy.json")
        rc = main([
            "--seed", "4", "simulate", "--n", "5", "--d", "2", "--p", "0",
            "--shots", "512", "--out-ideal", ideal_p, "--out-noisy", noisy_p,
            "--no-timestamp",
        ])
        assert rc == 0
        assert qio.read_counts(ideal_p)[0] == qio.read_counts(noisy_p)[0]

    def test_probability_sidecar(self, tmp_path):
        probs_p = str(tmp_path / "probs.json")
        main([
            "--seed", "4", "simulate", "--n", "5", "--d", "2", "--p", "0.1",
            "--shots", "512", "--out-ideal", str(tmp_path / "i.json"),
            "--out-noisy", str(tmp_path / "n.json"), "--out-probs", probs_p,
        ])
        dist = qio.read_distribution(probs_p)
        assert len(dist) == 2
        assert dist.total == pytest.approx(1.0)

    def test_both_files_carry_one_metadata(self, tmp_path):
        ideal, noisy = tmp_path / "i.json", tmp_path / "n.json"
        assert main([
            "--seed", "4", "simulate", "--n", "5", "--d", "2", "--p", "0.1", "--shots", "512",
            "--out-ideal", str(ideal), "--out-noisy", str(noisy),
        ]) == 0
        meta = [json.loads(p.read_text())["metadata"] for p in (ideal, noisy)]
        assert "timestamp" in meta[0] and meta[0] == meta[1]

    def test_oversized_support_is_usage_error(self, tmp_path, capsys):
        # a usage error naming both flags, raised before any file is written
        ideal, noisy = tmp_path / "i.json", tmp_path / "n.json"
        rc = main([
            "simulate", "--n", "3", "--d", "100", "--p", "0.1", "--out-ideal", str(ideal), "--out-noisy", str(noisy),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--d 100" in err and "--n 3" in err
        assert not ideal.exists() and not noisy.exists()


class TestPinnedFileBytes:
    """The sha256 of every file of one seeded instance at the headline size
    (14 qubits, d=16, p=0.15, 8192 shots): ``simulate --no-timestamp`` and
    then ``mitigate --out --report --hf-against``."""

    SHA256 = {
        "ideal": "19216a7b20fd45c345d80d080115bb168a7ed78f6612f97e5a7e1f4585840ae7",
        "noisy": "be3f7aa0baaf33656e1d76dbe26e8fb53a76331aa116ea1e74b52f69b93ab13d",
        "probs": "59a5bde6dbdf320ae27fcff028b95c4465161576e73bfa58a4fd3ac761680e75",
        "out": "f03e314846c27618313012ddc75bf7d9a892332fd101f79fe7a5864c690b0eff",
        "report": "4c0b3044141776e189bb8f6b4cc693ca6604bc4b31b23db29c6c110cee941d27",
    }

    def test_headline_instance(self, tmp_path):
        path = {name: str(tmp_path / f"{name}.json") for name in self.SHA256}
        assert main([
            "--seed", "7", "simulate", "--n", "14", "--d", "16", "--p", "0.15", "--shots", "8192",
            "--no-timestamp", "--out-ideal", path["ideal"], "--out-noisy", path["noisy"],
            "--out-probs", path["probs"],
        ]) == 0
        assert main([
            "mitigate", path["noisy"], "--p", "0.15", "--out", path["out"], "--report", path["report"],
            "--hf-against", path["probs"],
        ]) == 0
        digests = {name: hashlib.sha256(open(p, "rb").read()).hexdigest() for name, p in path.items()}
        assert digests == self.SHA256

    def test_train_files(self, tmp_path):
        path = {name: str(tmp_path / name) for name in ("model.json", "metrics.json", "corpus.csv")}
        assert main([
            "--seed", "42", "train", "--synthesize", "120", "--trees", "10", "--out", path["model.json"],
            "--metrics", path["metrics.json"], "--save-corpus", path["corpus.csv"],
        ]) == 0
        assert {name: hashlib.sha256(open(p, "rb").read()).hexdigest() for name, p in path.items()} == {
            "model.json": "a38b4ca900381fbf6066f47b2315bbeddee45c7ec7c47ae8b59c4f6e0e934588",
            "metrics.json": "9d7baefa49f1c9a26a6acb09065258821db3d96722d7a29fa5bcc76f0ce49406",
            "corpus.csv": "57856ca17096a18697059e41a7d0ca938211fcbc5104a0ebb4de45bc50e929c9",
        }

    def test_sweep_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "--seed", "7", "sweep", "--n", "6", "--d", "2", "--p", "0.1", "0.2", "--pe", "0.15", "0.25",
            "--fixed-k", "2", "3", "--delta", "0.9", "0.95", "--shots", "256", "--trials", "3", "--no-timing",
            "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6f93f7bc512ee48045acc631c4e438505cccf8671f65f9f7b930ad32f304d0d7"
        )


# a child that hangs fails its test instead of holding up the suite; each
# child here finishes in a few seconds
CHILD_TIMEOUT_S = 300


def _dynamic_openblas_simd() -> list[str] | None:
    """The SIMD extensions numpy dispatches to on this machine, if numpy
    links an OpenBLAS that picks its kernel at run time on x86_64; else None."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    if platform.machine() not in ("x86_64", "AMD64") or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return None
    return config["SIMD Extensions"].get("found", [])


class TestKernelIndependence:
    """The pinned headline instance's mitigated files come out byte-equal
    from a child on this CPU's own kernels and from a child that looks
    like a pre-AVX CPU: OpenBLAS forced to its Prescott kernels and numpy
    to its baseline SIMD. Only the children's environments change."""

    def test_headline_bytes_do_not_depend_on_the_cpu_kernels(self, tmp_path):
        simd = _dynamic_openblas_simd()
        if simd is None:
            pytest.skip("needs numpy with a DYNAMIC_ARCH OpenBLAS on x86_64")
        noisy = str(tmp_path / "noisy.json")
        assert main([
            "--seed", "7", "simulate", "--n", "14", "--d", "16", "--p", "0.15", "--shots", "8192",
            "--no-timestamp", "--out-ideal", str(tmp_path / "ideal.json"), "--out-noisy", noisy,
        ]) == 0
        src = str(Path(qemclust.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        old_cpu = {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": " ".join(simd)}
        files = []
        for name, extra in (("default", {}), ("prescott", old_cpu)):
            out, report = tmp_path / f"{name}.out.json", tmp_path / f"{name}.report.json"
            subprocess.run(
                [sys.executable, "-m", "qemclust.cli", "mitigate", noisy, "--p", "0.15",
                 "--out", str(out), "--report", str(report)],
                env={**env, **extra}, check=True, timeout=CHILD_TIMEOUT_S,
            )
            files.append((out.read_bytes(), report.read_bytes()))
        assert files[0] == files[1]


class TestProbabilityVoteKernelIndependence:
    """Forty seeded normalized 1,000-shot instances: non-dyadic probability
    weights, whose near-tie votes follow the summation order of their
    sums. A child on this CPU's own kernels, one on OpenBLAS's Prescott
    kernels with numpy at its baseline SIMD, and one on the Haswell
    kernels print the same results."""

    SCRIPT = """
from qemclust import MitigationConfig, NoiseSpec, SyntheticSpec, apply_bitflip, generate_ideal, mitigate, sample_shots
for seed in range(40):
    ideal = generate_ideal(SyntheticSpec(11, 16, seed))
    noisy = apply_bitflip(sample_shots(ideal, 1000, seed), NoiseSpec(0.2, seed)).normalized()
    report = mitigate(noisy, MitigationConfig(0.2, 0.99))
    print(report.k_used, sorted((b.value, w.hex()) for b, w in report.final.items()))
"""

    def test_mitigated_bits_do_not_depend_on_the_cpu_kernels(self):
        simd = _dynamic_openblas_simd()
        if simd is None:
            pytest.skip("needs numpy with a DYNAMIC_ARCH OpenBLAS on x86_64")
        src = str(Path(qemclust.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cpus = [
            {},
            {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": " ".join(simd)},
            {"OPENBLAS_CORETYPE": "Haswell"},
        ]
        outputs = [
            subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                env={**env, **extra}, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S,
            ).stdout
            for extra in cpus
        ]
        assert outputs[1:] == [outputs[0]] * 2


class TestMitigateCommand:
    def test_worked_example_terminates_at_three(self, worked_counts, tmp_path):
        noisy_path, ideal_path = worked_counts
        out = tmp_path / "mitigated.json"
        report = tmp_path / "report.json"
        rc = main([
            "mitigate", str(noisy_path), "--p", "0.15", "--delta", "0.9",
            "--out", str(out), "--report", str(report), "--hf-against", str(ideal_path),
        ])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["k_used"] == 3
        assert doc["terminated_by"] == "convergence"
        assert doc["improvement"] > 1.0
        for entry in doc["iterations"]:
            assert entry["converged"] is True
            assert isinstance(entry["rounds"], int) and entry["rounds"] >= 1
            assert entry["duplicates"] == 0
        mitigated = qio.read_distribution(str(out))
        assert sum(w for _, w in mitigated.items()) == pytest.approx(1.0)

    def test_unconverged_pass_is_reported(self, tmp_path, monkeypatch):
        # at p = 0.25 the k = 1 pass moves 0000 to 0001 in its first vote
        # and repeats it in its second; a cap of one round leaves it there
        counts, report = tmp_path / "counts.json", tmp_path / "report.json"
        qio.write_counts(OutcomeDistribution.from_counts({"0000": 5, "0011": 4, "0001": 4}), str(counts))
        firsts = []
        for cap in (clustering.MAX_ROUNDS, 1):
            monkeypatch.setattr(clustering, "MAX_ROUNDS", cap)
            assert main(["mitigate", str(counts), "--p", "0.25", "--report", str(report)]) == 0
            first = json.loads(report.read_text())["iterations"][0]
            firsts.append((first["k"], first["centroids"], first["converged"], first["rounds"]))
        assert firsts == [(1, ["0001"], True, 2), (1, ["0001"], False, 1)]

    def test_zero_rate_returns_input_probabilities(self, worked_counts, tmp_path):
        noisy_path, _ = worked_counts
        out = tmp_path / "m.json"
        rc = main(["mitigate", str(noisy_path), "--p", "0", "--out", str(out)])
        assert rc == 0
        noisy, _ = qio.read_counts(str(noisy_path))
        assert qio.read_distribution(str(out)) == noisy.normalized()

    def test_rate_scaling_flag(self, worked_counts, tmp_path):
        noisy_path, _ = worked_counts
        report = tmp_path / "r.json"
        rc = main([
            "mitigate", str(noisy_path), "--p", "0.1", "--p-scale", "1.5",
            "--report", str(report),
        ])
        assert rc == 0
        assert json.loads(report.read_text())["flip_rate"] == pytest.approx(0.15)

    def test_clamped_rate_is_reported(self, worked_counts, capsys):
        noisy_path, _ = worked_counts
        assert main(["mitigate", str(noisy_path), "--p", "0.5"]) == 0
        at_max = capsys.readouterr()
        assert main(["mitigate", str(noisy_path), "--p", "0.4", "--p-scale", "1.5"]) == 0
        clamped = capsys.readouterr()
        assert at_max.err == "" and clamped.out == at_max.out
        assert clamped.err == f"warning: requested rate {0.4 * 1.5!r} is clamped to 0.5\n"

    def test_unclamped_rate_is_not_reported(self, worked_counts, tmp_path, capsys):
        noisy_path, _ = worked_counts
        report = tmp_path / "r.json"
        assert main(["mitigate", str(noisy_path), "--p", "0.25", "--p-scale", "2", "--report", str(report)]) == 0
        assert capsys.readouterr() == ("", "")
        assert json.loads(report.read_text())["flip_rate"] == 0.5

    def test_hf_against_width_is_checked_before_any_work(self, worked_counts, tmp_path, capsys, monkeypatch):
        noisy_path, _ = worked_counts
        ideal = tmp_path / "ideal10.json"
        qio.write_distribution(OutcomeDistribution.from_counts({"0" * 10: 1.0}), str(ideal))
        monkeypatch.setattr(cli, "mitigate", lambda *args: pytest.fail("mitigated before the width check"))
        out, report = tmp_path / "o.json", tmp_path / "r.json"
        argv = ["mitigate", str(noisy_path), "--p", "0.15", "--hf-against", str(ideal),
                "--out", str(out), "--report", str(report)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {ideal}: width 10 does not match width 6 of {noisy_path}\n"
        assert not out.exists() and not report.exists()

    def test_requires_exactly_one_rate_source(self, worked_counts):
        noisy_path, _ = worked_counts
        assert main(["mitigate", str(noisy_path)]) == 1
        assert main(["mitigate", str(noisy_path), "--p", "0.1", "--model", "x.json"]) == 1
        # checked before the counts file is read
        assert main(["mitigate", "/nonexistent.json"]) == 1
        assert main(["mitigate", "/nonexistent.json", "--model", "x.json"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--features", "/nonexistent.json"],
        ["--calibration", "/nonexistent2.json"],
        ["--features", "/nonexistent.json", "--calibration", "/nonexistent2.json"],
    ])
    def test_features_and_calibration_require_model(self, capsys, flags):
        # a usage error naming the flag, raised before the counts file is read
        assert main(["mitigate", "/nonexistent.json", "--p", "0.1", *flags]) == 1
        assert f"{flags[0]} requires --model" in capsys.readouterr().err

    def test_missing_counts_file_is_data_error(self):
        assert main(["mitigate", "/nonexistent.json", "--p", "0.1"]) == 2

    def test_model_driven_rate(self, worked_counts, tmp_path):
        noisy_path, _ = worked_counts
        feats, labels = make_synthetic_corpus(60, seed=6)
        model = fit_tree_ensemble(feats, labels, n_trees=10, seed=6)
        model_path = tmp_path / "model.json"
        qio.save_model(model, str(model_path))
        features_path = tmp_path / "features.json"
        qio.write_features_file(feats[0], str(features_path))
        report = tmp_path / "rep.json"
        rc = main([
            "mitigate", str(noisy_path), "--model", str(model_path),
            "--features", str(features_path), "--report", str(report),
        ])
        assert rc == 0
        assert 0.0 <= json.loads(report.read_text())["flip_rate"] <= 0.5

    def test_model_rate_of_near_uniform_counts(self, tmp_path):
        # the entropy mitigate derives from these counts rounds past 1
        # unclamped, and the features check blamed the features file
        feats, labels = make_synthetic_corpus(20, seed=7)
        model_path, features_path = tmp_path / "model.json", tmp_path / "features.json"
        qio.save_model(fit_tree_ensemble(feats, labels, n_trees=3, seed=7), str(model_path))
        doc = {"format": "qemclust-features", "version": 1, "esp": 0.8}
        doc.update({name: getattr(feats[0], name) for name in FEATURE_NAMES[:6]})
        features_path.write_text(json.dumps(doc))
        counts = {format(v, "07b"): 1_000_000 + (v < 2) for v in range(128)}  # 128,000,002 shots
        counts_path, report = tmp_path / "counts.json", tmp_path / "report.json"
        counts_path.write_text(json.dumps({"format": "qemclust-counts", "version": 1, "width": 7, "counts": counts}))
        rc = main([
            "mitigate", str(counts_path), "--model", str(model_path), "--features", str(features_path),
            "--report", str(report),
        ])
        assert rc == 0
        assert 0.0 <= json.loads(report.read_text())["flip_rate"] <= 0.5

    @staticmethod
    def _mitigate_counting_bit_strings(tmp_path, monkeypatch, rate_args):
        """Mitigate a 14-qubit d=16 instance; returns the noisy counts, the
        number of ``BitString``s built and the report's centroid count."""
        rng = np.random.default_rng(7)
        ideal = generate_ideal(SyntheticSpec(14, 16, rng))
        noisy = apply_bitflip(sample_shots(ideal, 8192, rng), NoiseSpec(0.15, rng))
        counts, report = tmp_path / "counts.json", tmp_path / "report.json"
        qio.write_counts(noisy, str(counts))
        built = []
        post_init = BitString.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(BitString, "__post_init__", counting)
        rc = main([
            "mitigate", str(counts), *rate_args,
            "--out", str(tmp_path / "out.json"), "--report", str(report),
        ])
        monkeypatch.undo()
        assert rc == 0
        iterations = json.loads(report.read_text())["iterations"]
        return noisy, len(built), sum(len(it["centroids"]) for it in iterations)

    def test_builds_no_bit_strings_but_the_reported_centroids(self, tmp_path, monkeypatch):
        noisy, built, centroids = self._mitigate_counting_bit_strings(
            tmp_path, monkeypatch, ["--p", "0.15"]
        )
        assert built == 0 < centroids < len(noisy)

    def test_model_rate_builds_no_bit_strings_but_the_reported_centroids(self, tmp_path, monkeypatch):
        # the features file has no entropy, so mitigate computes it from the counts
        feats, labels = make_synthetic_corpus(20, seed=7)
        model_path, features_path = tmp_path / "model.json", tmp_path / "features.json"
        qio.save_model(fit_tree_ensemble(feats, labels, n_trees=3, seed=7), str(model_path))
        doc = {"format": "qemclust-features", "version": 1, "esp": 0.8}
        doc.update({name: getattr(feats[0], name) for name in FEATURE_NAMES[:6]})
        features_path.write_text(json.dumps(doc))
        noisy, built, centroids = self._mitigate_counting_bit_strings(
            tmp_path, monkeypatch, ["--model", str(model_path), "--features", str(features_path)]
        )
        assert built == 0 < centroids < len(noisy)
        # the array-read counts give the entropy the dict-built ones give
        read = qio.read_counts(str(tmp_path / "counts.json"))[0]
        assert 0.0 < normalized_entropy(read) == normalized_entropy(noisy)

    @pytest.mark.parametrize("ideal_format", ["distribution", "counts"])
    def test_hf_against_file_is_parsed_once(self, worked_counts, tmp_path, monkeypatch, ideal_format):
        noisy_path, ideal_path = worked_counts
        if ideal_format == "counts":
            ideal_path = tmp_path / "ideal_counts.json"
            ideal = OutcomeDistribution.from_counts({"111000": 39, "011010": 61})
            qio.write_counts(ideal, str(ideal_path))
        loaded = []
        load = json.load

        def counting(fh, *args, **kwargs):
            loaded.append(fh.name)
            return load(fh, *args, **kwargs)

        monkeypatch.setattr(json, "load", counting)
        report = tmp_path / "r.json"
        rc = main([
            "mitigate", str(noisy_path), "--p", "0.15", "--report", str(report),
            "--hf-against", str(ideal_path),
        ])
        assert rc == 0
        assert loaded.count(str(ideal_path)) == 1
        assert "hf_mitigated" in json.loads(report.read_text())

    @pytest.mark.parametrize("width", [14, 70])
    def test_input_rows_are_packed_and_sorted_once(self, tmp_path, monkeypatch, width):
        # the reader's total check builds the input's sorted view, and the
        # engine and the writer reuse it
        rng = np.random.default_rng(width)
        noisy = apply_bitflip(sample_shots(generate_ideal(SyntheticSpec(width, 3, rng)), 2000, rng), NoiseSpec(0.02, rng))
        counts = {b.text: round(w) for b, w in noisy.items()}
        keys = list(counts)
        random.Random(width).shuffle(keys)  # file order is not value order
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "format": "qemclust-counts", "version": 1, "width": width, "counts": {k: counts[k] for k in keys},
        }))
        input_rows = sorted(k.encode() for k in keys)
        pack, row_keys = _packed._pack_words, _packed._row_keys
        input_words = sorted(w.tobytes() for w in pack(np.array([[c == "1" for c in k] for k in keys], dtype=np.uint8)))
        packed, keyed = [], []

        def counting_pack(bits):
            packed.append(sorted((row + ord("0")).tobytes() for row in bits) == input_rows)
            return pack(bits)

        def counting_keys(words):
            keyed.append(sorted(w.tobytes() for w in words) == input_words)
            return row_keys(words)

        for module in list(sys.modules.values()):  # the packer and every module that imports it
            if module.__name__.startswith("qemclust") and getattr(module, "_pack_words", None) is pack:
                monkeypatch.setattr(module, "_pack_words", counting_pack)
        monkeypatch.setattr(_packed, "_row_keys", counting_keys)
        out, report = tmp_path / "out.json", tmp_path / "report.json"
        assert main(["mitigate", str(path), "--p", "0.02", "--out", str(out), "--report", str(report)]) == 0
        assert set(json.loads(out.read_text())["probabilities"]) != set(keys)  # the output's rows are not the input's
        assert packed.count(True) == 1 and keyed.count(True) == 1


class TestSweepCommand:
    def test_csv_schema_and_recomputation(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "--seed", "3", "sweep", "--n", "6", "--d", "2", "--p", "0.1", "0.2",
            "--shots", "256", "--trials", "2", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        trial_rows = [r for r in rows if r["row_type"] == "trial"]
        mean_rows = [r for r in rows if r["row_type"] == "cell_mean"]
        assert len(trial_rows) == 4
        assert len(mean_rows) == 2
        for row in trial_rows:
            hf_m, hf_n = float(row["hf_mitigated"]), float(row["hf_noisy"])
            assert float(row["improvement"]) == pytest.approx(
                (hf_m + 0.01) / (hf_n + 0.01), abs=1e-12
            )

    def test_byte_reproducible_without_timing(self, tmp_path):
        args = [
            "--seed", "5", "sweep", "--n", "5", "--d", "1", "--p", "0.15",
            "--shots", "128", "--trials", "2", "--no-timing",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("include_timing", [True, False])
    def test_hand_built_records_bytes(self, tmp_path, include_timing):
        # one cell whose trials all fail (no mean row) and one that fails in
        # part (its mean covers the two trials that succeeded), handed over
        # out of order: rows sort on the grid keys, then the trial index
        failed = SweepCell(5, 1, 0.2, supplied_rate=0.25, stop_threshold=0.9, shots=128, fixed_k=2)
        mixed = SweepCell(6, 2, 0.1)

        def failure(cell, trial, error):
            return ExperimentRecord(cell, trial, 7 - trial, math.nan, math.nan, math.nan, -1, "error", math.nan, error)

        records = [
            ExperimentRecord(mixed, 2, 5, 0.2, 0.5, 2.0, 3, "k_max", 0.5),
            failure(failed, 1, "RuntimeError: boom"),
            failure(mixed, 1, "ValueError: no"),
            ExperimentRecord(mixed, 0, 7, 0.1, 0.75, 1.5, 2, "convergence", 0.125),
            failure(failed, 0, "ValueError: bad, worse"),
        ]
        out = tmp_path / "sweep.csv"
        qio.write_sweep_csv(records, str(out), include_timing=include_timing)
        nan, eighth, half = ("nan", "0.125", "0.5") if include_timing else ("", "", "")
        assert out.read_bytes().decode("utf-8").split("\r\n") == [
            "row_type,width,num_dominant,flip_rate,supplied_rate,stop_threshold,shots,fixed_k,trial,seed,"
            "hf_noisy,hf_mitigated,improvement,k_used,terminated_by,wall_time_s,error",
            f'trial,5,1,0.2,0.25,0.9,128,2,0,7,nan,nan,nan,-1,error,{nan},"ValueError: bad, worse"',
            f"trial,5,1,0.2,0.25,0.9,128,2,1,6,nan,nan,nan,-1,error,{nan},RuntimeError: boom",
            f"trial,6,2,0.1,0.1,0.95,8192,,0,7,0.1,0.75,1.5,2,convergence,{eighth},",
            f"trial,6,2,0.1,0.1,0.95,8192,,1,6,nan,nan,nan,-1,error,{nan},ValueError: no",
            f"trial,6,2,0.1,0.1,0.95,8192,,2,5,0.2,0.5,2.0,3,k_max,{half},",
            "cell_mean,6,2,0.1,0.1,0.95,8192,,mean,,0.15000000000000002,0.625,1.75,2.5,,,",
            "",
        ]

    def test_supplied_rate_grid(self, tmp_path):
        out = tmp_path / "mis.csv"
        rc = main([
            "--seed", "7", "sweep", "--n", "6", "--d", "2", "--p", "0.2",
            "--pe", "0.1", "0.3", "--shots", "256", "--trials", "2",
            "--out", str(out), "--no-timing",
        ])
        assert rc == 0
        with open(out) as fh:
            rates = {row["supplied_rate"] for row in csv.DictReader(fh)}
        assert rates == {"0.1", "0.3"}


class TestTrainAndEstimate:
    def test_save_corpus_with_corpus_is_usage_error(self, tmp_path, capsys):
        corpus, saved, model = tmp_path / "corpus.csv", tmp_path / "saved.csv", tmp_path / "model.json"
        qio.write_corpus(*make_synthetic_corpus(10, seed=2), str(corpus))
        rc = main([
            "train", "--corpus", str(corpus), "--save-corpus", str(saved), "--trees", "2",
            "--out", str(model),
        ])
        assert rc == 1
        assert "--save-corpus" in capsys.readouterr().err
        assert not saved.exists() and not model.exists()

    def test_train_then_estimate(self, tmp_path):
        model_path = tmp_path / "model.json"
        metrics_path = tmp_path / "metrics.json"
        corpus_path = tmp_path / "corpus.csv"
        rc = main([
            "--seed", "11", "train", "--synthesize", "120", "--trees", "30",
            "--out", str(model_path), "--metrics", str(metrics_path),
            "--save-corpus", str(corpus_path),
        ])
        assert rc == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["samples"] == 120
        assert 0.0 < metrics["cv_r2"] <= 1.0

        # corpus file round-trips and retrains identically
        feats, labels = qio.read_corpus(str(corpus_path))
        assert len(feats) == 120
        model_path2 = tmp_path / "model2.json"
        rc = main([
            "--seed", "11", "train", "--corpus", str(corpus_path), "--trees", "30",
            "--out", str(model_path2),
        ])
        assert rc == 0
        assert model_path.read_bytes() == model_path2.read_bytes()

        # estimate on a quiet circuit: tiny error budget, zero entropy
        features_path = tmp_path / "features.json"
        features_path.write_text(json.dumps({
            "format": "qemclust-features", "version": 1,
            "num_qubits": 5, "num_measurements": 3, "num_2q_gates": 5,
            "num_sx_gates": 10, "num_x_gates": 0, "num_rz_gates": 20,
            "entropy": 0.0, "esp": 0.99,
        }))
        import io as stdio
        from contextlib import redirect_stdout

        buf = stdio.StringIO()
        with redirect_stdout(buf):
            rc = main(["estimate", "--model", str(model_path), "--features", str(features_path)])
        assert rc == 0
        value = float(buf.getvalue().strip())
        assert 0.0 <= value < 0.08

        buf2 = stdio.StringIO()
        with redirect_stdout(buf2):
            main(["estimate", "--model", str(model_path), "--features", str(features_path)])
        assert buf2.getvalue() == buf.getvalue()

    @pytest.mark.parametrize(
        "column, bad",
        [("effective_error_rate", "nan"), ("effective_error_rate", "inf"), ("entropy", "nan")],
    )
    def test_non_finite_corpus_is_data_error(self, tmp_path, capsys, column, bad):
        feats, labels = make_synthetic_corpus(12, seed=3)
        corpus_path = tmp_path / "corpus.csv"
        qio.write_corpus(feats, labels, str(corpus_path))
        lines = corpus_path.read_text().splitlines()
        header, row = lines[0].split(","), lines[5].split(",")
        row[header.index(column)] = bad
        lines[5] = ",".join(row)
        corpus_path.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "model.json"
        rc = main(["train", "--corpus", str(corpus_path), "--trees", "2", "--out", str(model_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "corpus.csv" in err and "line 6" in err
        assert not model_path.exists()

    def test_esp_derived_from_calibration(self, tmp_path):
        feats, labels = make_synthetic_corpus(50, seed=13)
        model = fit_tree_ensemble(feats, labels, n_trees=10, seed=13)
        model_path = tmp_path / "model.json"
        qio.save_model(model, str(model_path))
        features_path = tmp_path / "features.json"
        features_path.write_text(json.dumps({
            "format": "qemclust-features", "version": 1,
            "num_qubits": 4, "num_measurements": 2, "num_2q_gates": 3,
            "num_sx_gates": 5, "num_x_gates": 1, "num_rz_gates": 8,
            "entropy": 0.1,
        }))
        calib_path = tmp_path / "calib.json"
        calib_path.write_text(json.dumps({
            "format": "qemclust-calibration", "version": 1,
            "gate_errors": {"2q": 0.01, "sx": 0.0002, "x": 0.0002, "rz": 0.0},
            "readout_errors": [0.01, 0.02, 0.01, 0.03],
        }))
        import io as stdio
        from contextlib import redirect_stdout

        buf = stdio.StringIO()
        with redirect_stdout(buf):
            rc = main([
                "estimate", "--model", str(model_path),
                "--features", str(features_path), "--calibration", str(calib_path),
            ])
        assert rc == 0
        assert 0.0 <= float(buf.getvalue()) <= 0.5

    def test_estimate_without_esp_or_calibration_fails(self, tmp_path):
        feats, labels = make_synthetic_corpus(30, seed=14)
        model_path = tmp_path / "model.json"
        qio.save_model(fit_tree_ensemble(feats, labels, n_trees=5, seed=14), str(model_path))
        features_path = tmp_path / "f.json"
        features_path.write_text(json.dumps({
            "format": "qemclust-features", "version": 1,
            "num_qubits": 4, "num_measurements": 2, "num_2q_gates": 3,
            "num_sx_gates": 5, "num_x_gates": 1, "num_rz_gates": 8,
            "entropy": 0.1,
        }))
        assert main(["estimate", "--model", str(model_path), "--features", str(features_path)]) == 2


class TestIntegersBeyondFloat:
    """JSON and CSV integers too large for a float are data errors that
    name the file and the offender, and nothing is written."""

    FEATURES = {
        "format": "qemclust-features", "version": 1,
        "num_qubits": 4, "num_measurements": 2, "num_2q_gates": 3,
        "num_sx_gates": 5, "num_x_gates": 1, "num_rz_gates": 8,
        "entropy": 0.1,
    }
    CALIBRATION = {
        "format": "qemclust-calibration", "version": 1,
        "gate_errors": {"2q": 0.01, "sx": 0.0002, "x": 0.0002, "rz": 0.0},
        "readout_errors": [0.01, 0.02, 0.01, 0.03],
    }

    @pytest.fixture()
    def model_path(self, tmp_path):
        feats, labels = make_synthetic_corpus(30, seed=14)
        path = tmp_path / "model.json"
        qio.save_model(fit_tree_ensemble(feats, labels, n_trees=3, seed=14), str(path))
        return path

    def _estimate(self, capsys, model_path, features, calibration):
        paths = []
        for name, doc in (("features", features), ("calib", calibration)):
            paths.append(model_path.parent / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        rc = main(["estimate", "--model", str(model_path), "--features", str(paths[0]), "--calibration", str(paths[1])])
        out, err = capsys.readouterr()
        return rc, out, err

    def test_counts_file(self, tmp_path, capsys):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "format": "qemclust-counts", "version": 1, "width": 2, "counts": {"00": 3, "01": 10**400},
        }))
        out = tmp_path / "out.json"
        assert main(["mitigate", str(path), "--p", "0.1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "key '01' " in err
        assert not out.exists()

    def test_calibration_file(self, model_path, capsys):
        calibration = {**self.CALIBRATION, "gate_errors": {**self.CALIBRATION["gate_errors"], "sx": 10**400}}
        rc, out, err = self._estimate(capsys, model_path, self.FEATURES, calibration)
        assert rc == 2 and out == ""
        assert "calib.json" in err and "'sx'" in err

    def test_features_file(self, model_path, capsys):
        rc, out, err = self._estimate(capsys, model_path, {**self.FEATURES, "num_qubits": 10**400}, self.CALIBRATION)
        assert rc == 2 and out == ""
        assert "features.json" in err and "'num_qubits'" in err

    @pytest.mark.parametrize("field", ["feature", "threshold"])
    def test_model_file(self, model_path, capsys, field):
        doc = json.loads(model_path.read_text())
        doc["trees"][0][field][0] = 10**400
        model_path.write_text(json.dumps(doc))
        rc, out, err = self._estimate(capsys, model_path, self.FEATURES, self.CALIBRATION)
        assert rc == 2 and out == ""
        assert "model.json" in err

    def test_corpus_file(self, tmp_path, capsys):
        feats, labels = make_synthetic_corpus(12, seed=3)
        corpus_path = tmp_path / "corpus.csv"
        qio.write_corpus(feats, labels, str(corpus_path))
        lines = corpus_path.read_text().splitlines()
        row = lines[4].split(",")
        row[FEATURE_NAMES.index("num_2q_gates")] = "9" * 401
        lines[4] = ",".join(row)
        corpus_path.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "model.json"
        assert main(["train", "--corpus", str(corpus_path), "--trees", "2", "--out", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert "corpus.csv" in err and "line 5" in err
        assert not model_path.exists()


class TestTotalsBeyondFloat:
    """Counts and probabilities, each finite, whose sum overflows a float
    have no probability view: a data error naming the file, and nothing
    is written."""

    @pytest.mark.parametrize("counts", [
        {"00": 10**308, "01": 10**308, "11": 5},
        # the sum is the largest float in file order, but the mitigation
        # kernels add in value order, where it overflows
        {"11": int(sys.float_info.max), "00": 2**969, "01": 2**969},
    ], ids=["in_any_order", "in_value_order"])
    def test_counts_file(self, tmp_path, capsys, counts):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"format": "qemclust-counts", "version": 1, "width": 2, "counts": counts}))
        out, report = tmp_path / "o.json", tmp_path / "r.json"
        assert main(["mitigate", str(path), "--p", "0.1", "--out", str(out), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "positive finite" in err
        assert not out.exists() and not report.exists()

    def test_counts_near_the_limit_mitigate(self, tmp_path):
        # a finite total close to the largest float is valid input: it
        # mitigates without a numpy overflow warning (an error under pytest)
        path = tmp_path / "near.json"
        path.write_text(json.dumps({
            "format": "qemclust-counts", "version": 1, "width": 2,
            "counts": {"11": int(1.7e308), "00": 5, "01": 3},
        }))
        out = tmp_path / "o.json"
        assert main(["mitigate", str(path), "--p", "0.1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["probabilities"] == {"11": 1.0}

    def test_hf_against_distribution_file(self, worked_counts, tmp_path, capsys):
        noisy_path, _ = worked_counts
        ideal = tmp_path / "ideal.json"
        ideal.write_text(json.dumps({
            "format": "qemclust-distribution", "version": 1, "width": 6,
            "probabilities": {"111000": 1e308, "011010": 1e308},
        }))
        out, report = tmp_path / "o.json", tmp_path / "r.json"
        argv = ["mitigate", str(noisy_path), "--p", "0.15", "--hf-against", str(ideal),
                "--out", str(out), "--report", str(report)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(ideal) in err and "positive finite" in err
        assert not out.exists() and not report.exists()


class TestEnvelopes:
    """Every JSON reader checks the envelope before the content: a wrong
    ``format``, an unsupported ``version`` and a top-level array are data
    errors (exit 2) that name the file."""

    DOCS = {
        "counts": {"format": "qemclust-counts", "version": 1, "width": 6, "counts": {"111000": 3, "011010": 1}},
        "distribution": {
            "format": "qemclust-distribution", "version": 1, "width": 6, "probabilities": {"111000": 1.0},
        },
        "calibration": TestIntegersBeyondFloat.CALIBRATION,
        "features": TestModelFiles.FEATURES,
        "model": {
            "format": "qemclust-extratrees", "version": 1, "feature_names": list(FEATURE_NAMES),
            "hyperparameters": {"n_trees": 2, "min_samples_leaf": 1, "max_features": 8, "seed": 0},
            "feature_importances": [0.0] * 6 + [1.0, 0.0], "trees": TestModelFiles.TREES,
        },
    }
    # each reader's command line, {kind} being the path of that kind's file
    COMMANDS = {
        "counts": ("counts", ["mitigate", "{counts}", "--p", "0.1"]),
        "hf-against-counts": ("counts", ["mitigate", "{good_counts}", "--p", "0.1", "--hf-against", "{counts}"]),
        "hf-against-distribution": (
            "distribution", ["mitigate", "{good_counts}", "--p", "0.1", "--hf-against", "{distribution}"],
        ),
        "calibration": (
            "calibration", ["estimate", "--model", "{model}", "--features", "{features}", "--calibration", "{calibration}"],
        ),
        "features": ("features", ["estimate", "--model", "{model}", "--features", "{features}"]),
        "model": ("model", ["estimate", "--model", "{model}", "--features", "{features}"]),
    }
    READERS = {
        "counts": qio.read_counts,
        "distribution": qio.read_distribution,
        "calibration": qio.read_calibration,
        "features": qio.read_features_file,
        "model": qio.load_model,
    }
    FAULTS = {
        "format": (lambda doc: {**doc, "format": "qemclust-other"}, "'qemclust-other'"),
        "version": (lambda doc: {**doc, "version": 2}, "unsupported version 2"),
        "array": (lambda doc: [doc], "expected a JSON object"),
    }

    def _paths(self, tmp_path, kind, doc):
        """Well-formed files of every kind, the one of ``kind`` holding ``doc``."""
        paths = {}
        for name, good in {**self.DOCS, "good_counts": self.DOCS["counts"]}.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc if name == kind else good))
        return paths

    def test_well_formed_files_are_read(self, tmp_path, capsys):
        paths = self._paths(tmp_path, None, None)
        for _kind, argv in self.COMMANDS.values():
            assert main([a.format(**paths) for a in argv]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_exits_2_and_names_the_file(self, tmp_path, capsys, command, fault):
        kind, argv = self.COMMANDS[command]
        break_doc, message = self.FAULTS[fault]
        paths = self._paths(tmp_path, kind, break_doc(self.DOCS[kind]))
        assert main([a.format(**paths) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {paths[kind]}: ") and message in err

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("kind", READERS)
    def test_reader_raises_and_names_the_file(self, tmp_path, kind, fault):
        break_doc, message = self.FAULTS[fault]
        path = self._paths(tmp_path, kind, break_doc(self.DOCS[kind]))[kind]
        with pytest.raises(qio.DataFormatError) as info:
            self.READERS[kind](str(path))
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    @pytest.mark.parametrize("kind, other", [("counts", "distribution"), ("distribution", "counts")])
    def test_weight_map_readers_refuse_the_other_format(self, tmp_path, kind, other):
        path = self._paths(tmp_path, other, self.DOCS[other])[other]
        with pytest.raises(qio.DataFormatError) as info:
            self.READERS[kind](str(path))
        assert str(info.value) == f"{path}: expected format 'qemclust-{kind}', got 'qemclust-{other}'"

    @pytest.mark.parametrize("command", ["counts", "hf-against-counts"])
    @pytest.mark.parametrize("metadata", [[], "sim", 3])
    def test_counts_metadata_must_be_an_object(self, tmp_path, capsys, command, metadata):
        kind, argv = self.COMMANDS[command]
        paths = self._paths(tmp_path, kind, {**self.DOCS[kind], "metadata": metadata})
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {paths[kind]}: 'metadata' must be an object\n"


class TestFeaturesInconsistentWithCalibration:
    """An ESP the calibration cannot give is a data error naming both the
    features file and the calibration file, and nothing is written."""

    FEATURES = TestIntegersBeyondFloat.FEATURES
    CALIBRATION = TestIntegersBeyondFloat.CALIBRATION
    model_path = TestIntegersBeyondFloat.model_path

    @pytest.mark.parametrize("command", ["estimate", "mitigate"])
    @pytest.mark.parametrize("case", ["measured_qubits", "num_measurements", "gate_kind"])
    def test_names_both_files(self, tmp_path, capsys, worked_counts, model_path, command, case):
        features, calibration = dict(self.FEATURES), dict(self.CALIBRATION)
        if case == "measured_qubits":
            features["measured_qubits"] = [0, 4]
        elif case == "num_measurements":  # the default qubits 0..3 against 3 readout rates
            features["num_measurements"] = 4
            calibration["readout_errors"] = [0.01, 0.02, 0.01]
        else:
            calibration["gate_errors"] = {"2q": 0.01, "sx": 0.0002, "rz": 0.0}
        features_path, calib_path = tmp_path / "features.json", tmp_path / "calib.json"
        features_path.write_text(json.dumps(features))
        calib_path.write_text(json.dumps(calibration))
        out_path = tmp_path / "out.json"
        flags = ["--model", str(model_path), "--features", str(features_path), "--calibration", str(calib_path)]
        if command == "mitigate":
            argv = ["mitigate", str(worked_counts[0]), *flags, "--out", str(out_path)]
        else:
            argv = ["estimate", *flags]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and not out_path.exists()
        assert str(features_path) in err and str(calib_path) in err
        assert ("gate kind 'x'" if case == "gate_kind" else "qubit") in err


class TestMeasuredQubitsCheckedAgainstTheRecord:
    """``measured_qubits`` must list ``num_measurements`` distinct qubits
    below ``num_qubits``, whether or not the ESP comes from calibration."""

    FEATURES = TestIntegersBeyondFloat.FEATURES
    CALIBRATION = TestIntegersBeyondFloat.CALIBRATION
    model_path = TestIntegersBeyondFloat.model_path

    @pytest.mark.parametrize("with_calibration", [True, False])
    @pytest.mark.parametrize("qubits", [[0] * 8, [3], [1, 1], [0, 4]])
    def test_estimate_rejects(self, tmp_path, capsys, model_path, qubits, with_calibration):
        features = {**self.FEATURES, "measured_qubits": qubits}
        features_path, calib_path = tmp_path / "features.json", tmp_path / "calib.json"
        calib_path.write_text(json.dumps(self.CALIBRATION))
        flags = ["--calibration", str(calib_path)] if with_calibration else []
        if not with_calibration:
            features["esp"] = 0.9
        features_path.write_text(json.dumps(features))
        assert main(["estimate", "--model", str(model_path), "--features", str(features_path), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "qubit" in err and str(features_path) in err
        assert (str(calib_path) in err) == with_calibration

    def test_distinct_qubits_below_num_qubits_accepted(self, tmp_path, capsys, model_path):
        features_path, calib_path = tmp_path / "features.json", tmp_path / "calib.json"
        features_path.write_text(json.dumps({**self.FEATURES, "measured_qubits": [3, 1]}))
        calib_path.write_text(json.dumps(self.CALIBRATION))
        flags = ["--model", str(model_path), "--features", str(features_path), "--calibration", str(calib_path)]
        assert main(["estimate", *flags]) == 0
        assert float(capsys.readouterr().out) > 0


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, tmp_path):
        assert main(["simulate", "--n", "4"]) == 1

    @pytest.mark.parametrize("flags,flag", [
        (["--p", "0.1", "--delta", "1.0"], "--delta"),
        (["--p", "0.1", "--delta", "0"], "--delta"),
        (["--p", "0.1", "--fixed-k", "0"], "--fixed-k"),
        (["--p", "0.7"], "--p"),
        (["--p", "-0.1"], "--p"),
        (["--p", "nan"], "--p"),
        (["--p", "0.1", "--p-scale", "-1"], "--p-scale"),
    ])
    def test_mitigate_setting_out_of_range(self, flags, flag, capsys):
        # the counts file does not exist: a data error (2) would mean the
        # file was read before the settings were checked
        assert main(["mitigate", "/nonexistent.json", *flags]) == 1
        assert flag in capsys.readouterr().err

    def test_negative_seed(self, tmp_path, capsys):
        rc = main([
            "--seed", "-1", "simulate", "--n", "4", "--d", "2", "--p", "0.1",
            "--out-ideal", str(tmp_path / "i.json"), "--out-noisy", str(tmp_path / "n.json"),
        ])
        assert rc == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "i.json").exists()

    @pytest.mark.parametrize("flag,value", [("--p", "0.6"), ("--n", "0"), ("--d", "0"), ("--shots", "0")])
    def test_simulate_setting_out_of_range(self, tmp_path, flag, value, capsys):
        rc = main([
            "simulate", "--n", "4", "--d", "2", "--p", "0.1", flag, value,
            "--out-ideal", str(tmp_path / "i.json"), "--out-noisy", str(tmp_path / "n.json"),
        ])
        assert rc == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flags,flag", [
        (["--p", "0.1", "0.7"], "--p"),
        (["--pe", "0.7"], "--pe"),
        (["--delta", "0.95", "1.5"], "--delta"),
        (["--fixed-k", "2", "0"], "--fixed-k"),
        (["--n", "0"], "--n"),
        (["--d", "0"], "--d"),
        (["--shots", "0"], "--shots"),
        (["--trials", "0"], "--trials"),
        (["--workers", "0"], "--workers"),
        (["--workers", "-3"], "--workers"),
    ])
    def test_sweep_grid_out_of_range(self, tmp_path, flags, flag, capsys):
        # later flags override the valid defaults given first
        out = tmp_path / "sweep.csv"
        valid = ["--n", "4", "--d", "1", "--p", "0.1", "--shots", "64", "--trials", "1"]
        rc = main(["sweep", *valid, *flags, "--out", str(out)])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--synthesize", "0"), ("--trees", "0"), ("--folds", "1"), ("--min-samples-leaf", "0"),
    ])
    def test_train_setting_out_of_range(self, tmp_path, flag, value, capsys):
        model = tmp_path / "model.json"
        assert main(["train", "--synthesize", "20", flag, value, "--out", str(model)]) == 1
        assert flag in capsys.readouterr().err
        assert not model.exists()

    def test_sweep_grid_pair_with_more_dominant_strings_than_the_width_holds(self, tmp_path, capsys):
        # (6, 20) fits; (4, 20) does not
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--n", "6", "4", "--d", "2", "20", "--p", "0.1", "--shots", "64", "--trials", "1",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--d 20" in err and "--n 4" in err
        assert not out.exists()

    def test_more_folds_than_synthesized_samples(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["train", "--synthesize", "3", "--folds", "5", "--out", str(model)]) == 1
        err = capsys.readouterr().err
        assert "--folds" in err and "--synthesize" in err
        assert not model.exists()

    def test_more_folds_than_corpus_samples_names_the_corpus(self, tmp_path, capsys):
        corpus, model = tmp_path / "small.csv", tmp_path / "model.json"
        qio.write_corpus(*make_synthetic_corpus(3, seed=2), str(corpus))
        assert main(["train", "--corpus", str(corpus), "--folds", "5", "--out", str(model)]) == 2
        assert str(corpus) in capsys.readouterr().err
        assert not model.exists()


class TestMissingOutputDirectory:
    """An output path in a missing directory is a data error (2) naming the
    path, raised before any input is read, so nothing is written."""

    def test_simulate(self, tmp_path, capsys):
        ideal, noisy = tmp_path / "i.json", tmp_path / "missing" / "n.json"
        rc = main(["simulate", "--n", "4", "--d", "2", "--p", "0.1", "--out-ideal", str(ideal), "--out-noisy", str(noisy)])
        assert rc == 2
        assert str(noisy) in capsys.readouterr().err
        assert not ideal.exists()

    def test_mitigate(self, worked_counts, tmp_path, capsys, monkeypatch):
        noisy_path, _ = worked_counts
        monkeypatch.setattr(cli, "mitigate", lambda *args: pytest.fail("mitigated before the output check"))
        out, report = tmp_path / "o.json", tmp_path / "missing" / "r.json"
        assert main(["mitigate", str(noisy_path), "--p", "0.15", "--out", str(out), "--report", str(report)]) == 2
        assert str(report) in capsys.readouterr().err
        assert not out.exists()

    def test_sweep(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: pytest.fail("swept before the output check"))
        out = tmp_path / "missing" / "s.csv"
        rc = main(["sweep", "--n", "4", "--d", "2", "--p", "0.1", "--trials", "1", "--out", str(out)])
        assert rc == 2
        assert str(out) in capsys.readouterr().err

    def test_train(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cross_validate", lambda *args, **kwargs: pytest.fail("trained before the output check"))
        model, metrics = tmp_path / "m.json", tmp_path / "missing" / "metrics.json"
        rc = main(["train", "--synthesize", "20", "--trees", "2", "--out", str(model), "--metrics", str(metrics)])
        assert rc == 2
        assert str(metrics) in capsys.readouterr().err
        assert not model.exists()

    def test_usage_error_comes_first(self, tmp_path, capsys):
        out = tmp_path / "missing" / "o.json"
        assert main(["mitigate", str(tmp_path / "c.json"), "--p", "0.1", "--model", "m.json", "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err


class TestParser:
    def test_successive_calls_share_no_values(self, monkeypatch):
        seen = []
        for name in ("mitigate", "simulate"):
            monkeypatch.setitem(cli._COMMANDS, name, lambda args: seen.append(vars(args)) or 0)
        assert main([
            "--seed", "7", "mitigate", "a.json", "--p", "0.2", "--fixed-k", "3",
            "--delta", "0.9", "--out", "o.json",
        ]) == 0
        assert main(["simulate", "--n", "4", "--d", "2", "--p", "0.1", "--out-ideal", "i",
                     "--out-noisy", "n", "--no-timestamp"]) == 0
        assert main(["mitigate", "b.json", "--model", "m.json", "--features", "f.json"]) == 0
        assert seen[1]["seed"] == 0 and seen[1]["no_timestamp"] and "fixed_k" not in seen[1]
        assert seen[2] == {
            "seed": 0, "command": "mitigate", "counts": "b.json", "p": None,
            "model": "m.json", "features": "f.json", "calibration": None, "p_scale": 1.0,
            "delta": 0.95, "fixed_k": None, "out": None, "report": None, "hf_against": None,
        }
        assert cli._parser() is cli._parser()
