import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bit,
    convolve_bitflip,
    hamming_distance,
    reference_distinct_values,
    reference_generate_ideal,
    reference_sample_shots,
    reference_spiked_ideal,
    scalar_bitflip,
)

from qemclust import (
    BitString,
    MitigationConfig,
    NoiseSpec,
    OutcomeDistribution,
    SweepCell,
    SyntheticSpec,
    apply_bitflip,
    cluster,
    fit_tree_ensemble,
    generate_ideal,
    hellinger_fidelity,
    make_synthetic_corpus,
    normalized_entropy,
    outlier_threshold,
    redistribute,
    run_trial,
    sample_shots,
)
from qemclust import io as qio
from qemclust import noise
from qemclust._packed import _pack_words, _tally
from qemclust.cli import main
from qemclust.estimator import _spiked_ideal
from qemclust.noise import _distinct_rows

B = BitString.from_text

# widths around the one-integer-per-string limit (2^62 fits an int64) and
# small ones, where d can come close to 2^width and top-up draws happen
WIDTHS = st.sampled_from([1, 2, 3, 4, 62, 63, 64]) | st.integers(min_value=1, max_value=70)


def assert_same_rows(got: OutcomeDistribution, want: OutcomeDistribution) -> None:
    """Rows (as words), weights and total equal bit for bit, in the same order."""
    words, weights, want_words, want_weights = got._words, got._weights, want._words, want._weights
    assert words.dtype == want_words.dtype == np.uint64
    assert words.shape == want_words.shape and words.tobytes() == want_words.tobytes()
    assert weights.dtype == np.float64 and weights.tobytes() == want_weights.tobytes()
    assert got.total.hex() == want.total.hex()


def rows_of(values: list[int], width: int) -> np.ndarray:
    return np.array([[int(c) for c in format(v, f"0{width}b")] for v in values], dtype=np.uint8)


class _FewFreeBits:
    """Generator stand-in whose draws leave only the last two bits of a row
    random, so draws above 62 bits repeat and need topping up."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def integers(self, low, high, size, dtype=np.int64):
        out = self.rng.integers(low, high, size=size, dtype=dtype)
        out[:, :-2] = 0
        return out


class TestArrayDrawsMatchSetDraws:
    """The array-native simulator against the set- and dict-based bodies
    it replaced: same rows, weights and generator state afterwards."""

    @given(st.data(), WIDTHS, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_generate_ideal(self, data, width, seed):
        d = data.draw(st.integers(min_value=1, max_value=min(1 << width, 40)))
        if width <= 8 and data.draw(st.booleans()):
            d = data.draw(st.integers(min_value=max(1, (1 << width) - 3), max_value=1 << width))
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generate_ideal(SyntheticSpec(width, d, rng))
        assert_same_rows(got, reference_generate_ideal(SyntheticSpec(width, d, want_rng)))
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @given(st.integers(min_value=63, max_value=70), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_distinct_rows_tops_up_above_62_bits(self, width, count, seed):
        rng, want_rng = _FewFreeBits(seed), _FewFreeBits(seed)
        words = _distinct_rows(rng, width, count)
        want = _pack_words(rows_of(reference_distinct_values(want_rng, width, count), width))
        assert words.dtype == np.uint64 and words.shape == want.shape and words.tobytes() == want.tobytes()
        assert rng.rng.bit_generator.state == want_rng.rng.bit_generator.state

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_spiked_ideal(self, width, seed):
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_rows(_spiked_ideal(width, rng), reference_spiked_ideal(width, want_rng))
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @given(st.data(), WIDTHS, st.integers(min_value=1, max_value=3000),
           st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sample_shots(self, data, width, shots, seed, array_built):
        values = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=12, unique=True))
        weights = data.draw(st.lists(st.integers(0, 5) | st.floats(0.0, 1.0), min_size=len(values),
                                     max_size=len(values)).filter(lambda w: sum(w) > 0))
        # insertion order is not value order
        dist = OutcomeDistribution(width, {BitString(v, width): w for v, w in zip(values, weights)})
        if array_built:
            dist = OutcomeDistribution._from_words(dist.width, dist._words, dist._weights)
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_rows(sample_shots(dist, shots, rng), reference_sample_shots(dist, shots, want_rng))
        assert rng.bit_generator.state == want_rng.bit_generator.state


class TestGenerateIdeal:
    def test_single_dominant_state(self):
        d = generate_ideal(SyntheticSpec(6, 1, seed=3))
        assert len(d) == 1
        assert d.total == pytest.approx(1.0)

    def test_three_distinct_strings_normalized(self):
        d = generate_ideal(SyntheticSpec(6, 3, seed=3))
        assert len(d) == 3
        assert d.total == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        a = generate_ideal(SyntheticSpec(10, 8, seed=42))
        b = generate_ideal(SyntheticSpec(10, 8, seed=42))
        assert a == b

    def test_rejects_oversized_support(self):
        with pytest.raises(ValueError):
            SyntheticSpec(3, 9)

    def test_low_entropy_regime(self):
        # 128 dominant states on 14 qubits stay below half of max entropy
        d = generate_ideal(SyntheticSpec(14, 128, seed=11))
        assert normalized_entropy(d) < 0.5


class TestSampleShots:
    def test_deterministic_distribution(self):
        d = OutcomeDistribution.from_counts({"0": 1.0})
        out = sample_shots(d, 100, seed=0)
        assert out.get(B("0")) == 100

    def test_binomial_concentration(self):
        d = OutcomeDistribution.from_counts({"0": 0.5, "1": 0.5})
        out = sample_shots(d, 10**6, seed=5)
        sigma = math.sqrt(10**6 * 0.25)
        assert abs(out.get(B("0")) - 5 * 10**5) < 3 * sigma

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=99))
    @settings(max_examples=25, deadline=None)
    def test_total_equals_shots(self, shots, seed):
        d = generate_ideal(SyntheticSpec(5, 4, seed=seed))
        out = sample_shots(d, shots, seed=seed)
        assert out.total == shots
        assert out.is_integral()

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_shots(OutcomeDistribution.from_counts({"0": 1.0}), 0)


class TestApplyBitflip:
    def test_noiseless_channel_is_identity(self):
        counts = OutcomeDistribution.from_counts({"0101": 40, "1110": 2})
        assert apply_bitflip(counts, NoiseSpec(0.0, seed=1)) == counts

    @pytest.mark.parametrize("width", [62, 63, 64, 65, 128])
    def test_matches_shot_by_shot_oracle(self, width):
        src = sample_shots(generate_ideal(SyntheticSpec(width, 3, seed=width)), 600, seed=1)
        out = apply_bitflip(src, NoiseSpec(0.05, seed=2))
        assert out == scalar_bitflip(src, 0.05, seed=2)
        assert [b.value for b in out] == sorted(b.value for b in out)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    @given(st.integers(min_value=1, max_value=130), st.integers(min_value=1, max_value=3000),
           st.sampled_from([0.0, 2**-53, 3 * 2**-53, 5e-324, 1 / 3, 0.15, 0.5]),
           st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 7, 130, 4096, noise._BLOCK_DRAWS]))
    @settings(max_examples=40, deadline=None)
    def test_pinned_to_the_float_rule(self, bit_generator, width, shots, rate, seed, block):
        # the same flips as ``rng.random() < p`` per bit, in value order, and
        # the generator left at the same stream position, whatever the blocks
        # (at rate 0 neither side draws)
        src = sample_shots(generate_ideal(SyntheticSpec(width, min(1 << width, 4), seed=seed)), shots, seed=seed)
        rng, want_rng = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        with mock.patch.object(noise, "_BLOCK_DRAWS", block):
            out = apply_bitflip(src, NoiseSpec(rate, seed=rng))
        want = scalar_bitflip(src, rate, seed=want_rng)._sorted()  # packed from its strings
        assert out._words.tobytes() == want.words.tobytes() and out._weights.tobytes() == want.weights.tobytes()
        assert rng.random() == want_rng.random()

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError):
            apply_bitflip(OutcomeDistribution.from_counts({"01": 0.5}), NoiseSpec(0.1, 0))

    def test_shot_total_preserved(self):
        src = sample_shots(generate_ideal(SyntheticSpec(8, 5, seed=2)), 4096, seed=2)
        out = apply_bitflip(src, NoiseSpec(0.3, seed=2))
        assert out.total == src.total

    def test_hamming_shell_frequencies_match_binomial(self):
        # all shots start at one string; the distance histogram follows
        # C(n,k) p^k (1-p)^(n-k)
        n, p, shots = 6, 0.15, 200_000
        src = OutcomeDistribution.from_counts({"000000": shots})
        out = apply_bitflip(src, NoiseSpec(p, seed=9))
        origin = B("000000")
        shell = [0.0] * (n + 1)
        for b, w in out.items():
            shell[hamming_distance(origin, b)] += w / shots
        for k in range(n + 1):
            expected = math.comb(n, k) * p**k * (1 - p) ** (n - k)
            sigma = math.sqrt(expected * (1 - expected) / shots)
            assert abs(shell[k] - expected) < 5 * sigma + 1e-9

    def test_maximal_noise_approaches_uniform(self):
        src = OutcomeDistribution.from_counts({"11111": 100_000})
        out = apply_bitflip(src, NoiseSpec(0.5, seed=13))
        assert normalized_entropy(out) > 0.99

    def test_per_qubit_flip_fraction(self):
        n, p, shots = 10, 0.2, 100_000
        src = OutcomeDistribution.from_counts({"0" * n: shots})
        out = apply_bitflip(src, NoiseSpec(p, seed=21))
        sigma = math.sqrt(p * (1 - p) / shots)
        for i in range(n):
            frac = sum(w for b, w in out.items() if bit(b, i)) / shots
            assert abs(frac - p) < 5 * sigma

    def test_channel_composition(self):
        # p1 then p2 is one application at p1(1-p2) + p2(1-p1)
        p1, p2 = 0.1, 0.2
        p_eff = p1 * (1 - p2) + p2 * (1 - p1)
        shots = 400_000
        src = OutcomeDistribution.from_counts({"00000000": shots})
        two_step = apply_bitflip(apply_bitflip(src, NoiseSpec(p1, seed=31)), NoiseSpec(p2, seed=32))
        one_step = apply_bitflip(src, NoiseSpec(p_eff, seed=33))
        assert hellinger_fidelity(two_step, one_step) > 0.999
        sigma = math.sqrt(p_eff * (1 - p_eff) / shots)
        for i in range(8):
            frac = sum(w for b, w in two_step.items() if bit(b, i)) / shots
            assert abs(frac - p_eff) < 5 * sigma

    def test_deterministic_given_seed(self):
        src = sample_shots(generate_ideal(SyntheticSpec(7, 3, seed=8)), 2048, seed=8)
        assert apply_bitflip(src, NoiseSpec(0.25, seed=8)) == apply_bitflip(
            src, NoiseSpec(0.25, seed=8)
        )


class TestNoBitStrings:
    """The simulator and the corpus stay on packed rows from the RNG draw
    to the output file, the mitigation or the label."""

    @staticmethod
    def _count_bit_strings(monkeypatch, run):
        """(number of ``BitString``s built during ``run()``, its result)"""
        built = []
        post_init = BitString.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(BitString, "__post_init__", counting)
        result = run()
        monkeypatch.undo()
        return len(built), result

    def test_simulate(self, tmp_path, monkeypatch):
        paths = {flag: str(tmp_path / f"{flag}.json") for flag in ("ideal", "noisy", "probs")}
        argv = ["simulate", "--n", "14", "--d", "16", "--p", "0.15", "--out-ideal", paths["ideal"],
                "--out-noisy", paths["noisy"], "--out-probs", paths["probs"]]
        assert self._count_bit_strings(monkeypatch, lambda: main(argv)) == (0, 0)

    def test_run_trial_on_a_wide_cell(self, monkeypatch):
        cell = SweepCell(width=100, num_dominant=2, flip_rate=0.05, fixed_k=2, shots=8192)
        built, record = self._count_bit_strings(monkeypatch, lambda: run_trial(cell, 0, 0))
        assert built == 0
        assert not record.error and 0.0 < record.hf_mitigated <= 1.0

    def test_synthetic_corpus(self, monkeypatch):
        built, (features, labels) = self._count_bit_strings(monkeypatch, lambda: make_synthetic_corpus(20))
        assert built == 0 and len(features) == len(labels) == 20

    @pytest.mark.parametrize("width", [1, 14, 64, 100])
    def test_tally_rows_are_compact_copies(self, width):
        bits = np.random.default_rng(width).integers(0, 2, size=(500, width), dtype=np.uint8)
        bits[::2] = bits[0]  # repeats
        words, counts = _tally(_pack_words(bits), width)
        assert words.dtype == np.uint64 and words.shape == (len(counts), -(-width // 64))
        assert words.flags.c_contiguous
        # not a view into a wider buffer that would stay alive with the words
        assert (words if words.base is None else words.base).nbytes == words.nbytes
        want_rows, want_counts = np.unique(bits, axis=0, return_counts=True)  # 0/1 rows sort like values
        assert words.tobytes() == _pack_words(want_rows).tobytes() and counts.tolist() == want_counts.tolist()


class TestConvolveBitflip:
    def test_matches_binomial_for_single_string(self):
        n, p = 5, 0.2
        out = convolve_bitflip(OutcomeDistribution.from_counts({"00000": 1}), p)
        origin = B("00000")
        for b, w in out.items():
            h = hamming_distance(origin, b)
            assert w == pytest.approx((1 - p) ** (n - h) * p**h)

    def test_total_is_one(self):
        d = generate_ideal(SyntheticSpec(6, 4, seed=17))
        out = convolve_bitflip(d, 0.3)
        assert out.total == pytest.approx(1.0)

    def test_width_guard(self):
        with pytest.raises(ValueError):
            convolve_bitflip(OutcomeDistribution.from_counts({"0" * 20: 1}), 0.1)


class TestNoiseSpecValidation:
    def test_flip_rate_bounds(self):
        with pytest.raises(ValueError):
            NoiseSpec(0.6)
        with pytest.raises(ValueError):
            NoiseSpec(-0.01)


class TestRateRule:
    """Every entry point that takes a bit-flip rate applies the one rule of
    ``noise``: [0, 0.5], NaN excluded, with one message."""

    COUNTS = OutcomeDistribution.from_counts({"0000": 50, "0001": 7, "0100": 5, "1111": 30, "1110": 8})
    MODEL = cluster(COUNTS, 2, 0.1)
    LIBRARY = {
        "NoiseSpec": lambda p: NoiseSpec(p),
        "cluster": lambda p: cluster(TestRateRule.COUNTS, 1, p),
        "MitigationConfig": lambda p: MitigationConfig(flip_rate=p),
        "outlier_threshold": lambda p: outlier_threshold(4, p),
        "redistribute": lambda p: redistribute(TestRateRule.COUNTS, TestRateRule.MODEL, p),
    }
    CLI = ["simulate --p", "mitigate --p", "sweep --p", "sweep --pe"]
    REJECTED = ["0.5000001", "-0.1", "nan"]
    ACCEPTED = ["0.0", "0.5"]

    @staticmethod
    def _argv(tmp_path, entry: str, text: str) -> list[str]:
        command, flag = entry.split()
        if command == "simulate":
            out = ["--out-ideal", str(tmp_path / "i.json"), "--out-noisy", str(tmp_path / "n.json")]
            return ["simulate", "--n", "4", "--d", "2", "--shots", "64", "--p", text, *out]
        if command == "mitigate":
            counts = tmp_path / "counts.json"
            qio.write_counts(TestRateRule.COUNTS, str(counts))
            return ["mitigate", str(counts), "--p", text]
        rates = ["--p", text] if flag == "--p" else ["--p", "0.1", "--pe", text]
        grid = ["--n", "4", "--d", "2", "--shots", "64", "--trials", "1"]
        return ["sweep", *grid, *rates, "--out", str(tmp_path / "sweep.csv")]

    @pytest.mark.parametrize("text", REJECTED)
    @pytest.mark.parametrize("entry", LIBRARY)
    def test_library_rejects(self, entry, text):
        with pytest.raises(ValueError) as err:
            self.LIBRARY[entry](float(text))
        assert str(err.value) == f"flip_rate must lie in [0, 0.5], got {float(text)}"

    @pytest.mark.parametrize("text", ACCEPTED)
    @pytest.mark.parametrize("entry", LIBRARY)
    def test_library_accepts(self, entry, text):
        self.LIBRARY[entry](float(text))

    @pytest.mark.parametrize("text", REJECTED)
    @pytest.mark.parametrize("entry", CLI)
    def test_cli_rejects(self, tmp_path, capsys, entry, text):
        assert main(self._argv(tmp_path, entry, text)) == 1
        assert f"argument {entry.split()[1]}: must lie in [0, 0.5], got {text}" in capsys.readouterr().err

    def test_training_labels_are_worded_by_the_rule(self):
        feats, labels = make_synthetic_corpus(4, seed=1)
        with pytest.raises(ValueError) as err:
            fit_tree_ensemble(feats, [*labels[:3], 0.6])
        assert str(err.value) == "labels must lie in [0, 0.5]"

    def test_corpus_labels_are_worded_by_the_rule(self, tmp_path):
        feats, labels = make_synthetic_corpus(4, seed=1)
        path = tmp_path / "corpus.csv"
        with pytest.raises(ValueError) as err:
            qio.write_corpus(feats, [*labels[:3], 0.6], str(path))
        assert str(err.value) == "label 3: effective_error_rate must lie in [0, 0.5], got 0.6"
        assert not path.exists()
        qio.write_corpus(feats, labels, str(path))
        head = path.read_text().rstrip("\r\n").rsplit(",", 1)[0]
        path.write_text(f"{head},0.6\r\n")
        with pytest.raises(qio.DataFormatError) as err:
            qio.read_corpus(str(path))
        assert str(err.value) == f"{path}: line 5: effective_error_rate must lie in [0, 0.5], got 0.6"

    def test_model_values_are_worded_by_the_rule(self, tmp_path):
        feats, labels = make_synthetic_corpus(8, seed=1)
        path = tmp_path / "model.json"
        qio.save_model(fit_tree_ensemble(feats, labels, n_trees=1, seed=0), str(path))
        doc = json.loads(path.read_text())
        doc["trees"][0]["value"][0] = 0.6
        path.write_text(json.dumps(doc))
        with pytest.raises(qio.DataFormatError) as err:
            qio.load_model(str(path))
        assert str(err.value) == f"{path}: malformed model file (tree 0 node 0: value must lie in [0, 0.5])"

    @pytest.mark.parametrize("text", ACCEPTED)
    @pytest.mark.parametrize("entry", CLI)
    def test_cli_accepts(self, tmp_path, capsys, entry, text):
        assert main(self._argv(tmp_path, entry, text)) == 0
        assert capsys.readouterr().err == ""
