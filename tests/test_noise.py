import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import convolve_bitflip, scalar_bitflip

from qemclust import (
    BitString,
    NoiseSpec,
    OutcomeDistribution,
    SyntheticSpec,
    apply_bitflip,
    generate_ideal,
    hamming_distance,
    hellinger_fidelity,
    normalized_entropy,
    sample_shots,
)

B = BitString.from_text


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
            frac = sum(w for b, w in out.items() if b.bit(i)) / shots
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
            frac = sum(w for b, w in two_step.items() if b.bit(i)) / shots
            assert abs(frac - p_eff) < 5 * sigma

    def test_deterministic_given_seed(self):
        src = sample_shots(generate_ideal(SyntheticSpec(7, 3, seed=8)), 2048, seed=8)
        assert apply_bitflip(src, NoiseSpec(0.25, seed=8)) == apply_bitflip(
            src, NoiseSpec(0.25, seed=8)
        )


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
