import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import reference_entropy, reference_hellinger

from qemclust import (
    BitString,
    ClusterConfig,
    MitigationConfig,
    NoiseSpec,
    OutcomeDistribution,
    apply_bitflip,
    cluster,
    effective_error_rate,
    hamming_distance,
    hellinger_fidelity,
    improvement_ratio,
    mitigate,
    normalized_entropy,
    qubitwise_majority_vote,
    sample_shots,
)

B = BitString.from_text


def bitstrings(width: int):
    return st.integers(min_value=0, max_value=(1 << width) - 1).map(
        lambda v: BitString(v, width)
    )


def distributions(width: int, max_support: int = 8):
    return st.dictionaries(
        bitstrings(width),
        st.floats(min_value=1e-6, max_value=1.0),
        min_size=1,
        max_size=max_support,
    ).map(lambda d: OutcomeDistribution(width, d))


class TestBitString:
    def test_text_round_trip(self):
        assert B("111000").text == "111000"
        assert B("0001").value == 1
        assert B("0001").width == 4

    def test_leftmost_character_is_qubit_zero(self):
        b = B("10")
        assert b.bit(0) == 1
        assert b.bit(1) == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            B("10a0")
        with pytest.raises(ValueError):
            B("")
        with pytest.raises(ValueError):
            BitString(4, 2)
        with pytest.raises(ValueError):
            BitString(0, 0)

    def test_ordering_matches_text_for_equal_width(self):
        assert B("0011") < B("0100")

    def test_slots_keep_value_semantics(self):
        b = BitString((1 << 70) + 5, 71)
        assert not hasattr(b, "__dict__")
        with pytest.raises(AttributeError):
            b.value = 1
        for twin in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b), copy.copy(b)):
            assert twin == b and type(twin) is BitString and twin.text == b.text
        assert hash(b) == hash(((1 << 70) + 5, 71))
        assert {b: 1}[BitString((1 << 70) + 5, 71)] == 1
        strings = [B("10"), B("01"), B("001"), B("11"), B("000")]
        assert sorted(strings) == sorted(strings, key=lambda s: (s.value, s.width))


class TestOutcomeDistribution:
    def test_total_and_probability_view(self):
        d = OutcomeDistribution.from_counts({"00": 3, "11": 1})
        assert d.total == 4
        assert d.probability(B("00")) == 0.75
        view = d.normalized()
        assert view.get(B("11")) == 0.25

    def test_rejects_mixed_widths(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(2, {B("00"): 1, B("000"): 1})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(2, {B("00"): -1.0})

    def test_zero_total_has_no_probability_view(self):
        d = OutcomeDistribution(2, {B("00"): 0.0})
        with pytest.raises(ValueError):
            d.normalized()

    @pytest.mark.parametrize("use", [
        lambda d: mitigate(d, MitigationConfig(0.1)),
        lambda d: d.normalized(),
        lambda d: d.probability(B("0")),
        lambda d: hellinger_fidelity(d, OutcomeDistribution(1, {B("0"): 1.0})),
        lambda d: hellinger_fidelity(OutcomeDistribution(1, {B("0"): 1.0}), d),
        normalized_entropy,
        lambda d: effective_error_rate(d, d),
        lambda d: sample_shots(d, 10, seed=0),
        lambda d: apply_bitflip(d, NoiseSpec(0.1, 0)),
    ], ids=["mitigate", "normalized", "probability", "hellinger", "hellinger_other_side",
            "normalized_entropy", "effective_error_rate", "sample_shots", "apply_bitflip"])
    def test_an_overflowing_total_has_no_probability_view(self, use):
        # building it is legal (writers need that); reading it as
        # probabilities is not
        dist = OutcomeDistribution(1, {B("0"): 1e308, B("1"): 1e308})
        assert dist.total == math.inf
        with pytest.raises(ValueError, match="positive finite"):
            use(dist)

    @pytest.mark.parametrize("use", [
        lambda d: mitigate(d, MitigationConfig(0.1)),
        lambda d: cluster(d, ClusterConfig(1, 0.1)),
        qubitwise_majority_vote,
        lambda d: sample_shots(d, 10, seed=0),
    ], ids=["mitigate", "cluster", "majority_vote", "sample_shots"])
    def test_a_total_that_overflows_in_value_order_has_no_probability_view(self, use):
        # added in iteration order the total is the largest float, but the
        # packed kernels and the sampler add in value order, where the two
        # small weights come first and push the sum past it
        big, small = float(np.finfo(np.float64).max), 2.0**969
        dist = OutcomeDistribution(2, {B("11"): big, B("00"): small, B("01"): small})
        assert dist.total == big
        with pytest.raises(ValueError, match="positive finite"):
            use(dist)

    @given(distributions(5))
    def test_probability_view_sums_to_one(self, dist):
        assert abs(sum(w for _, w in dist.normalized().items()) - 1.0) < 1e-9

    @given(distributions(5))
    def test_array_built_matches_dict_built(self, dist):
        rows, weights = dist._rows, dist._weights
        built = OutcomeDistribution._from_rows(rows, weights)
        assert list(built.items()) == list(dist.items())
        assert built == dist and len(built) == len(dist) and built.total == dist.total
        assert built.normalized() == dist.normalized() and built.normalized().total == 1.0

    @pytest.mark.parametrize("weights, integral", [
        ([3.0, 0.0], True),
        ([3 - 1e-12, 2 + 1e-12], True),
        ([1e300, 7.0], True),
        ([2.5, 1.0], False),
        ([1.0, 1e-6], False),
    ])
    def test_is_integral_within_tolerance(self, weights, integral):
        d = OutcomeDistribution(1, {B("0"): weights[0], B("1"): weights[1]})
        assert d.is_integral() is integral
        assert OutcomeDistribution._from_rows(d._rows, d._weights).is_integral() is integral

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_array_built_rejects_bad_weight(self, bad):
        rows = np.array([[0, 0], [0, 1]], dtype=np.uint8)
        with pytest.raises(ValueError, match="'01'"):
            OutcomeDistribution._from_rows(rows, np.array([1.0, bad]))


class TestHammingDistance:
    def test_identity_case(self):
        assert hamming_distance(B("111000"), B("111000")) == 0

    def test_worked_pair(self):
        assert hamming_distance(B("111000"), B("011010")) == 2

    def test_complement_case(self):
        assert hamming_distance(B("000000"), B("111111")) == 6

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_distance(B("00"), B("000"))

    @given(bitstrings(8), bitstrings(8), bitstrings(8))
    def test_is_a_metric(self, a, b, c):
        assert hamming_distance(a, a) == 0
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
        if a != b:
            assert hamming_distance(a, b) > 0


class TestNormalizedEntropy:
    def test_degenerate_distribution(self):
        assert normalized_entropy(OutcomeDistribution.from_counts({"0000": 7})) == 0.0

    def test_uniform_is_max_entropy(self):
        full = {format(v, "04b"): 1 for v in range(16)}
        assert normalized_entropy(OutcomeDistribution.from_counts(full)) == pytest.approx(1.0)

    def test_one_bit_over_two_qubits(self):
        d = OutcomeDistribution.from_counts({"00": 0.5, "11": 0.5})
        assert normalized_entropy(d) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalized_entropy(OutcomeDistribution(3, {}))

    @given(distributions(4, max_support=6), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, dist, rnd):
        weights = [w for _, w in dist.items()]
        values = rnd.sample(range(16), len(weights))
        relabeled = OutcomeDistribution(
            4, {BitString(v, 4): w for v, w in zip(values, weights)}
        )
        assert normalized_entropy(relabeled) == pytest.approx(normalized_entropy(dist))

    @given(
        st.integers(1, 70),
        st.lists(
            st.sampled_from([0.0, 1.0, 3.0, 5e-324]) | st.floats(1e-6, 1e3) | st.floats(0.0, 1e-300),
            min_size=1,
            max_size=40,
        ).filter(any),
        st.booleans(),
    )
    @example(1, [3.0, 5e-324], False)  # the second probability underflows to 0
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_weight_loop(self, width, weights, normalized):
        assume(len(weights) <= 1 << width)
        dist = OutcomeDistribution(width, {BitString(i, width): w for i, w in enumerate(weights)})
        if normalized:
            dist = dist.normalized()
        assert normalized_entropy(dist).hex() == reference_entropy(dist).hex()


class TestHellingerFidelity:
    def test_self_fidelity_examples(self):
        d = OutcomeDistribution.from_counts({"01": 2, "10": 5})
        assert hellinger_fidelity(d, d) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        a = OutcomeDistribution.from_counts({"00": 1})
        b = OutcomeDistribution.from_counts({"11": 1})
        assert hellinger_fidelity(a, b) == 0.0

    def test_hand_computed_overlap(self):
        a = OutcomeDistribution.from_counts({"0": 1.0})
        b = OutcomeDistribution.from_counts({"0": 0.5, "1": 0.5})
        assert hellinger_fidelity(a, b) == pytest.approx(0.5)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hellinger_fidelity(
                OutcomeDistribution.from_counts({"00": 1}),
                OutcomeDistribution.from_counts({"000": 1}),
            )

    @given(distributions(5), distributions(5))
    def test_array_built_side_gives_the_same_bits(self, a, b):
        def rebuilt(d):
            return OutcomeDistribution._from_rows(d._rows, d._weights)

        expected = hellinger_fidelity(a, b)
        assert hellinger_fidelity(rebuilt(a), b) == expected
        assert hellinger_fidelity(a, rebuilt(b)) == expected
        assert hellinger_fidelity(rebuilt(a), rebuilt(b)) == expected

    def test_array_built_side_builds_no_dict(self):
        rows = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8)
        big = OutcomeDistribution._from_rows(rows, np.array([0.2, 0.3, 0.5]))
        small = OutcomeDistribution.from_counts({"01": 1.0, "10": 1.0})
        assert hellinger_fidelity(small, big) == pytest.approx(0.5 * 0.3)
        assert big._store is None

    @given(st.data(), st.sampled_from([1, 62, 63, 64]) | st.integers(1, 70), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_loop(self, data, width, a_from_rows, b_from_rows):
        pool = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=12, unique=True))
        weight = st.sampled_from([0.0, 1.0, 3.0]) | st.floats(0.0, 1e3)

        def side(from_rows):
            keys = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
            weights = data.draw(st.lists(weight, min_size=len(keys), max_size=len(keys)).filter(any))
            d = OutcomeDistribution(width, {BitString(v, width): w for v, w in zip(keys, weights)})
            return OutcomeDistribution._from_rows(d._rows, d._weights) if from_rows else d

        a, b = side(a_from_rows), side(b_from_rows)
        assert hellinger_fidelity(a, b).hex() == reference_hellinger(a, b).hex()
        assert hellinger_fidelity(b, a).hex() == reference_hellinger(b, a).hex()

    @given(distributions(4), distributions(4))
    @example(  # equal sizes, shuffled key order: iteration order would add in a different order
        OutcomeDistribution.from_counts({"0111": 2.0, "1001": 3.0, "1000": 7.0}),
        OutcomeDistribution.from_counts({"1000": 7.0, "0111": 1.0, "1001": 5.0}),
    )
    def test_symmetric_and_bounded(self, a, b):
        f = hellinger_fidelity(a, b)
        assert 0.0 <= f <= 1.0
        assert f.hex() == hellinger_fidelity(b, a).hex()

    @given(distributions(4))
    def test_self_fidelity_is_one(self, d):
        assert hellinger_fidelity(d, d) == pytest.approx(1.0, abs=1e-12)


class TestImprovementRatio:
    def test_no_change(self):
        assert improvement_ratio(0.5, 0.5) == 1.0

    def test_full_recovery_from_nothing(self):
        assert improvement_ratio(1.0, 0.0) == pytest.approx(101.0)

    def test_geometric_mean_across_benchmarks(self):
        ratios = [improvement_ratio(m, n) for m, n in [(0.9, 0.5), (0.7, 0.7), (0.2, 0.4)]]
        gm = math.prod(ratios) ** (1 / len(ratios))
        assert gm == pytest.approx((ratios[0] * ratios[1] * ratios[2]) ** (1 / 3))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            improvement_ratio(1.2, 0.5)
