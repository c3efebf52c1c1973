import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_force_joint, brute_force_redistribute, joint_probability
from qemclust import (
    BitString,
    ClusterConfig,
    ClusterModel,
    MitigationConfig,
    NoiseSpec,
    OutcomeDistribution,
    SyntheticSpec,
    apply_bitflip,
    cluster,
    generate_ideal,
    hellinger_fidelity,
    mitigate,
    redistribute,
    sample_shots,
)
from qemclust._packed import PackedDistribution, _likelihood_table
from qemclust.distributions import strings_to_rows
from qemclust.redistribution import _redistribute_packed

B = BitString.from_text


def manual_model(width, centroids, weights):
    """ClusterModel stub for exercising redistribution in isolation."""
    return ClusterModel(
        width=width,
        centroids=tuple(centroids),
        weights=tuple(weights),
        assignments={},
        outliers=frozenset(),
        threshold=0,
        requested_k=len(centroids),
        converged=True,
        rounds=1,
    )


def _assert_zero_rate_table():
    """At rate 0 the general formula gives [1, 0, ..., 0] exactly, since
    0.0 ** 0 is 1.0, and raises no floating-point error."""
    for width in (1, 14, 64, 65, 300):
        want = np.zeros(width + 1)
        want[0] = 1.0
        with np.errstate(all="raise"):
            assert _likelihood_table(width, 0.0).tobytes() == want.tobytes()


class TestJointProbability:
    def test_zero_rate_identity(self):
        assert joint_probability(B("1010"), B("1010"), 0.7, 0.0) == 0.7
        _assert_zero_rate_table()

    def test_hand_arithmetic(self):
        got = joint_probability(B("111000"), B("011010"), 0.5, 0.15)
        assert got == pytest.approx(0.85**4 * 0.15**2 * 0.5)

    def test_zero_rate_kills_nonzero_distance(self):
        assert joint_probability(B("10"), B("11"), 0.9, 0.0) == 0.0
        _assert_zero_rate_table()

    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1), st.just(n))
        ),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_product(self, strings, weight, rate):
        b_value, c_value, width = strings
        b, c = BitString(b_value, width), BitString(c_value, width)
        got = joint_probability(b, c, weight, rate)
        assert got == pytest.approx(brute_force_joint(b, c, weight, rate), rel=1e-12, abs=1e-300)

    def test_validation(self):
        with pytest.raises(ValueError):
            joint_probability(B("10"), B("100"), 0.5, 0.1)
        with pytest.raises(ValueError):
            joint_probability(B("10"), B("11"), 1.5, 0.1)
        with pytest.raises(ValueError):
            joint_probability(B("10"), B("11"), 0.5, 0.9)


class TestRedistribute:
    def test_zero_rate_returns_input_view(self):
        noisy = OutcomeDistribution.from_counts({"0000": 6, "0001": 3, "1111": 1})
        model = cluster(noisy, ClusterConfig(k=2, flip_rate=0.0))
        result = redistribute(noisy, model, 0.0)
        assert result.mitigated == noisy.normalized()
        assert not result.removed
        _assert_zero_rate_table()

    def test_fully_explained_string_is_removed(self):
        # a string one flip from the only centroid whose probability is
        # below the joint mass claimed against it disappears
        noisy = OutcomeDistribution.from_counts({"00000": 5000, "00001": 1})
        model = cluster(noisy, ClusterConfig(k=1, flip_rate=0.1))
        w = model.weights[0]
        claimed = 0.9**4 * 0.1 * w
        assert noisy.probability(B("00001")) < claimed
        result = redistribute(noisy, model, 0.1)
        assert B("00001") in result.removed
        assert B("00001") not in result.mitigated
        assert result.per_string_subtractions[B("00001")] == pytest.approx(claimed)

    def test_mass_moves_to_the_owning_centroid(self):
        noisy = OutcomeDistribution.from_counts({"0000": 90, "0001": 10})
        model = manual_model(4, [B("0000")], [0.9])
        result = redistribute(noisy, model, 0.1)
        claimed = min(0.9**3 * 0.1 * 0.9, 0.1)
        assert result.mitigated.probability(B("0000")) == pytest.approx(0.9 + claimed)
        assert result.mitigated.probability(B("0001")) == pytest.approx(0.1 - claimed)

    def test_unobserved_centroid_gains_mass(self):
        # the voted centroid need not appear in the noisy support; it ends
        # the pass carrying the mass claimed from its neighborhood
        noisy = OutcomeDistribution.from_counts({"0001": 5, "0010": 5, "0100": 5, "1000": 5})
        model = manual_model(4, [B("0000")], [1.0])
        result = redistribute(noisy, model, 0.2)
        per_neighbor = 0.8**3 * 0.2
        assert result.mitigated.probability(B("0000")) == pytest.approx(4 * per_neighbor)
        assert result.mitigated.probability(B("0001")) == pytest.approx(0.25 - per_neighbor)
        mode = max(result.mitigated.items(), key=lambda kv: kv[1])[0]
        assert mode == B("0000")

    def test_probabilities_sum_to_one(self):
        _, noisy = _instance(6, 3, 0.2, 2048, seed=3)
        model = cluster(noisy, ClusterConfig(k=3, flip_rate=0.2))
        result = redistribute(noisy, model, 0.2)
        assert sum(w for _, w in result.mitigated.items()) == pytest.approx(1.0, abs=1e-9)
        assert not set(result.removed) & set(result.mitigated)

    def test_subtractions_monotone_in_cluster_weight(self):
        noisy = OutcomeDistribution.from_counts({"0000": 8, "0011": 4, "0111": 2})
        lo = redistribute(noisy, manual_model(4, [B("0000")], [0.3]), 0.2)
        hi = redistribute(noisy, manual_model(4, [B("0000")], [0.6]), 0.2)
        for b, low_claim in lo.per_string_subtractions.items():
            assert hi.per_string_subtractions[b] >= low_claim

    def test_width_mismatch_rejected(self):
        noisy = OutcomeDistribution.from_counts({"00": 1})
        with pytest.raises(ValueError):
            redistribute(noisy, manual_model(3, [B("000")], [1.0]), 0.1)

    @pytest.mark.parametrize("weights", [(math.inf, 0.1), (-0.5, 0.3), (math.nan, 0.3), (1.5, 0.1), (0.5,)])
    def test_cluster_weights_checked(self, weights):
        noisy = OutcomeDistribution.from_counts({"000": 50, "111": 40, "001": 10})
        with pytest.raises(ValueError, match="cluster weights"):
            redistribute(noisy, manual_model(3, [B("000"), B("111")], weights), 0.1)


class TestMassConservation:
    """A pass moves mass and never destroys it: the surviving row masses
    plus the gained centroid masses sum to 1, so every pass has an output."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_surviving_plus_gained_mass_is_one(self, data):
        width = data.draw(st.integers(min_value=1, max_value=6))
        value = st.integers(min_value=0, max_value=(1 << width) - 1)
        observed = data.draw(st.lists(value, min_size=1, max_size=12, unique=True))
        count = st.one_of(st.sampled_from([0.0, 1e-300, 1.0, 1e300]), st.integers(0, 1000).map(float))
        counts = data.draw(st.lists(count, min_size=len(observed), max_size=len(observed)))
        assume(any(c > 0 for c in counts))
        # observed and unobserved centroids, duplicates allowed
        centroids = data.draw(st.lists(st.one_of(st.sampled_from(observed), value), min_size=1, max_size=6))
        unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
        weights = data.draw(st.lists(unit, min_size=len(centroids), max_size=len(centroids)))
        rate = data.draw(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(min_value=0.0, max_value=0.5)))

        dist = OutcomeDistribution(width, {BitString(v, width): c for v, c in zip(observed, counts)})
        packed = PackedDistribution(dist, rate)
        slots = packed.slots(strings_to_rows([BitString(v, width) for v in centroids], width))
        masses, _removed, _claim, gained = _redistribute_packed(packed, slots, np.array(weights))
        assert math.fsum([*masses.tolist(), *(g[1] for g in gained)]) == pytest.approx(1.0, abs=1e-12)


class TestEqualCentroids:
    """Centroids with equal rows merge into one output entry at the first
    gaining centroid's place; iteration order and bits recorded from the
    per-centroid implementation that preceded the merged pass result, and
    the unobserved duplicate's merged 0000 re-recorded from the BLAS-free
    pass (2 ulps lower: it is now exactly twice 1111)."""

    CASES = {
        "observed_duplicate": (
            {"0000": 60, "0001": 25, "1000": 10, "1111": 5},
            ["0000", "1111", "0000"], [0.5, 0.2, 0.3], 0.1,
            [("0001", "0x1.883126e978d51p-3"), ("1000", "0x1.53f7ced916874p-5"),
             ("0000", "0x1.6eeb702602c91p-1"), ("1111", "0x1.9c8c9320d9947p-5")],
        ),
        "unobserved_duplicate": (
            {"0001": 40, "0010": 30, "1110": 20, "1101": 10},
            ["0000", "1111", "0000"], [0.4, 0.3, 0.2], 0.15,
            [("0001", "0x1.601ef73c0c1fdp-2"), ("0010", "0x1.f37121ab4b72cp-3"),
             ("1101", "0x1.215aaf78feef7p-4"), ("1110", "0x1.5d7a24894c448p-3"),
             ("0000", "0x1.d2e1ef73c0c1ep-4"), ("1111", "0x1.d2e1ef73c0c1ep-5")],
        ),
        # the zero-weight 0000 gains nothing, so 1111 is the first gaining
        # centroid and comes before the 0000 its weighted duplicate brings
        "zero_weight_first": (
            {"0001": 40, "0010": 30, "1111": 20, "1101": 10},
            ["0000", "1111", "0000"], [0.0, 0.4, 0.5], 0.15,
            [("0001", "0x1.694299d883ba4p-2"), ("0010", "0x1.02dc33721d53dp-2"),
             ("1101", "0x1.f9984a0e410b7p-5"), ("1111", "0x1.e9c38b04ab607p-3"),
             ("0000", "0x1.7f318fc504816p-4")],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pinned_order_and_bits(self, case):
        counts, centroids, weights, rate, expected = self.CASES[case]
        model = manual_model(4, [B(c) for c in centroids], weights)
        result = redistribute(OutcomeDistribution.from_counts(counts), model, rate)
        assert [(b.text, w.hex()) for b, w in result.mitigated.items()] == expected
        assert not result.removed


def _instance(width, dominant, rate, shots, seed):
    rng = np.random.default_rng(seed)
    ideal = generate_ideal(SyntheticSpec(width, dominant, rng))
    return ideal, apply_bitflip(sample_shots(ideal, shots, rng), NoiseSpec(rate, rng))


class TestWorkedExampleTrends:
    def test_second_centroid_amplifies_and_leftover_string_drops(self):
        ideal = OutcomeDistribution.from_counts(
            {"111000": 0.39, "011010": 0.32, "111010": 0.29}
        )
        dominants = {B("111000"), B("011010"), B("111010")}
        rng = np.random.default_rng(101)
        noisy = apply_bitflip(sample_shots(ideal, 8192, rng), NoiseSpec(0.15, rng))
        one = redistribute(noisy, cluster(noisy, ClusterConfig(k=1, flip_rate=0.15)), 0.15)
        model_two = cluster(noisy, ClusterConfig(k=2, flip_rate=0.15))
        two = redistribute(noisy, model_two, 0.15)
        assert model_two.centroids[0] == B("111000")
        promoted = model_two.centroids[1]
        assert promoted in dominants
        # promoting a dominant string to a centroid multiplies its
        # probability severalfold ...
        assert two.mitigated.probability(promoted) >= 2 * one.mitigated.probability(promoted)
        # ... while the dominant string still left out keeps losing mass
        (leftover,) = dominants - set(model_two.centroids)
        assert two.mitigated.probability(leftover) < one.mitigated.probability(leftover)


class TestOracleEquivalence:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 5))
        dominant = int(rng.integers(1, min(4, 1 << width) + 1))
        ideal = generate_ideal(SyntheticSpec(width, dominant, rng))
        noisy = apply_bitflip(sample_shots(ideal, 256, rng), NoiseSpec(0.2, rng))
        k = int(rng.integers(1, min(3, len(noisy)) + 1))
        rate = float(rng.uniform(0.01, 0.45))
        model = cluster(noisy, ClusterConfig(k=k, flip_rate=rate))
        result = redistribute(noisy, model, rate)

        masses, removed, claims = brute_force_redistribute(noisy, model, rate)
        assert removed == set(result.removed)
        assert set(claims) == set(result.per_string_subtractions)
        for b, claim in claims.items():
            assert result.per_string_subtractions[b] == pytest.approx(claim, abs=1e-12)
        total = sum(masses.values())
        assert set(masses) == {b for b, _ in result.mitigated.items()}
        for b, m in masses.items():
            assert result.mitigated.probability(b) == pytest.approx(m / total, abs=1e-12)


class TestLikelihoodRows:
    """Each cache slot holds one float row ``table[distance]`` of its run's
    rate, made with the slot and copied, k at a time, into every pass."""

    @staticmethod
    def _noisy(width, seed):
        rng = np.random.default_rng(seed)
        ideal = generate_ideal(SyntheticSpec(width, min(6, 2**width), rng))
        return apply_bitflip(sample_shots(ideal, 3000, rng), NoiseSpec(0.1, rng)), rng

    @pytest.mark.parametrize("width", [3, 9, 70])
    def test_rows_equal_the_table_lookup_across_doublings(self, width):
        noisy, rng = self._noisy(width, width)
        packed = PackedDistribution(noisy, 0.1)
        table = _likelihood_table(width, 0.1)
        capacities = []
        for _ in range(12):
            # a few fresh rows per call, some repeated, so the cache doubles
            centroids = rng.integers(0, 2, size=(int(rng.integers(1, 4)), width), dtype=np.uint8)
            slots = packed.slots(np.concatenate([centroids, packed.bits[:1]]))
            capacities.append(len(packed._columns))
            got = packed.likelihoods(slots)
            assert got.dtype == np.float64 and got.shape == (len(slots), len(packed))
            assert got.tobytes() == np.take(table, packed.columns(slots)).tobytes()
            got[:] = -1.0  # a pass scales its copy in place; the slots keep their rows
            # every slot made so far, in any order
            every = np.arange(len(packed._slot))[::-1]
            assert packed.likelihoods(every).tobytes() == np.take(table, packed.columns(every)).tobytes()
        assert len(set(capacities)) >= 3  # at least two doublings

    def test_two_runs_at_two_rates_hold_their_own_rows(self):
        noisy, rng = self._noisy(12, 3)
        runs = {rate: PackedDistribution(noisy, rate) for rate in (0.1, 0.27)}
        assert runs[0.1].words is runs[0.27].words  # one sorted view
        centroids = rng.integers(0, 2, size=(9, 12), dtype=np.uint8)
        for batch in (centroids[:4], runs[0.1].bits[:5], centroids[2:]):
            for packed in runs.values():  # the runs make their slots in turn
                packed.slots(batch)
        rows = {}
        for rate, packed in runs.items():
            every = np.arange(len(packed._slot))
            rows[rate] = packed.likelihoods(every)
            assert rows[rate].tobytes() == np.take(_likelihood_table(12, rate), packed.columns(every)).tobytes()
        assert rows[0.1].shape == rows[0.27].shape and (rows[0.1] != rows[0.27]).any()

    def test_a_pass_on_cached_rows_matches_a_fresh_run(self):
        noisy, _ = self._noisy(10, 5)
        packed = PackedDistribution(noisy, 0.1)
        centroids = packed.bits[packed.top_order()[:3]]
        weights = np.array([0.5, 0.3, 0.1])
        _redistribute_packed(packed, packed.slots(centroids), weights)  # scales its copies of the rows
        again = _redistribute_packed(packed, packed.slots(centroids[::-1]), weights[::-1])
        fresh = PackedDistribution(OutcomeDistribution._from_words(packed.width, packed.words, packed.weights), 0.1)
        rerun = _redistribute_packed(fresh, fresh.slots(centroids[::-1]), weights[::-1])
        for a, b in zip(again[:3], rerun[:3]):
            assert a.tobytes() == b.tobytes()
        # gained entries name their slot, which is per run
        assert [(g[0], g[1], g[3]) for g in again[3]] == [(g[0], g[1], g[3]) for g in rerun[3]]


class TestOutputWords:
    """A mitigated output's words are the packed words of its strings, in
    row order."""

    @pytest.mark.parametrize("width", [5, 64, 100])
    def test_fidelity_and_view_match_a_packed_copy(self, width):
        rng = np.random.default_rng(width)
        ideal = generate_ideal(SyntheticSpec(width, 3, rng))
        noisy = apply_bitflip(sample_shots(ideal, 2000, rng), NoiseSpec(0.08, rng))
        unordered = 0
        for k in (1, 2, 3):
            out = mitigate(noisy, MitigationConfig(flip_rate=0.08, fixed_k=k)).final
            unordered += out._view is None  # appended centroids: the view sorts on first use
            plain = OutcomeDistribution(width, dict(zip(out, out._weights.tolist())))  # packs its own words
            assert out._words.tobytes() == plain._words.tobytes()
            for other in (ideal, noisy):
                assert hellinger_fidelity(out, other).hex() == hellinger_fidelity(plain, other).hex()
                assert hellinger_fidelity(other, out).hex() == hellinger_fidelity(other, plain).hex()
            view, want = out._sorted(), plain._sorted()
            for a, b in zip(view[:2], want[:2]):
                assert a.tobytes() == b.tobytes()
            assert view.total.hex() == want.total.hex()
        assert unordered
