import csv
import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qemclust import cli
from qemclust import io as qio
from qemclust import (
    FEATURE_NAMES,
    BitString,
    NoiseSpec,
    OutcomeDistribution,
    SyntheticSpec,
    apply_bitflip,
    fit_tree_ensemble,
    generate_ideal,
    make_synthetic_corpus,
    normalized_entropy,
    sample_shots,
)
from qemclust.cli import main

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
    width = draw(st.integers(min_value=1, max_value=70))
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
            st.integers(min_value=0, max_value=2**53), min_size=len(values), max_size=len(values),
        ))
        weights = dict(zip(values, counts))
        path = tmp_path_factory.mktemp("counts") / "c.json"
        dist = OutcomeDistribution(width, {BitString(v, width): c for v, c in weights.items()})
        qio.write_counts(dist, str(path), metadata)
        expected = self._expected("qemclust-counts", "counts", width, weights, metadata)
        assert path.read_bytes() == expected
        if dist.total > 0:  # the array-built distribution the reader returns
            qio.write_counts(qio.read_counts(str(path))[0], str(path), metadata)
            assert path.read_bytes() == expected

    @given(weight_maps(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_distribution_bytes(self, tmp_path_factory, keys, data):
        width, values = keys
        probs = data.draw(st.lists(
            st.one_of(
                st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 1.0, 1e300]),
                st.floats(min_value=0.0, max_value=1e308),
            ),
            min_size=len(values), max_size=len(values),
        ))
        weights = dict(zip(values, probs))
        path = tmp_path_factory.mktemp("probs") / "p.json"
        dist = OutcomeDistribution(width, {BitString(v, width): p for v, p in weights.items()})
        qio.write_distribution(dist, str(path))
        expected = self._expected("qemclust-distribution", "probabilities", width, weights)
        assert path.read_bytes() == expected
        if 0 < dist.total < math.inf:
            qio.write_distribution(qio.read_distribution(str(path)), str(path))
            assert path.read_bytes() == expected
        else:  # no probability view: the reader names the file
            with pytest.raises(qio.DataFormatError, match=str(path)):
                qio.read_distribution(str(path))


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

    def test_oversized_support_is_data_error(self, tmp_path):
        rc = main([
            "simulate", "--n", "3", "--d", "100", "--p", "0.1",
            "--out-ideal", str(tmp_path / "i.json"), "--out-noisy", str(tmp_path / "n.json"),
        ])
        assert rc == 2


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
        assert 0 < built <= centroids < len(noisy)

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
        assert 0 < built <= centroids < len(noisy)
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
