from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qemclust.clustering as clustering
from oracles import reference_cluster_packed, reference_votes, scalar_majority_vote
from qemclust import (
    BitString,
    ClusterConfig,
    EmptyClusterError,
    NoiseSpec,
    OutcomeDistribution,
    SyntheticSpec,
    apply_bitflip,
    cluster,
    generate_ideal,
    hamming_distance,
    outlier_threshold,
    qubitwise_majority_vote,
    sample_shots,
    select_initial_centroids,
)
from qemclust._packed import PackedDistribution, _pack_words, match_rows
from qemclust.distributions import rows_to_strings, strings_to_rows

B = BitString.from_text


class TestOutlierThreshold:
    def test_zero_at_zero_rate(self):
        assert outlier_threshold(14, 0.0) == 0

    def test_worked_example_value(self):
        # 6 qubits at 15% flip rate: 2 * 6 * 0.15 * 0.85 = 1.53 -> 2
        assert outlier_threshold(6, 0.15) == 2

    def test_integer_products_not_bumped(self):
        # 2 * 10 * 0.5 * 0.5 = 5.0 exactly
        assert outlier_threshold(10, 0.5) == 5

    def test_high_noise_value(self):
        assert outlier_threshold(14, 0.4) == 7


class TestSelectInitialCentroids:
    def test_unique_maximum(self):
        d = OutcomeDistribution.from_counts({"111000": 0.4, "011010": 0.3, "000001": 0.3})
        assert select_initial_centroids(d, 1) == [B("111000")]

    def test_tie_breaks_lexicographically(self):
        d = OutcomeDistribution.from_counts({"00": 0.5, "11": 0.5})
        assert select_initial_centroids(d, 1) == [B("00")]

    def test_top_k_ordering(self):
        d = OutcomeDistribution.from_counts({"10": 5, "01": 7, "11": 5, "00": 1})
        assert select_initial_centroids(d, 3) == [B("01"), B("10"), B("11")]

    def test_k_beyond_support_rejected(self):
        d = OutcomeDistribution.from_counts({"00": 1})
        with pytest.raises(ValueError):
            select_initial_centroids(d, 2)


class TestQubitwiseMajorityVote:
    def test_hand_counted_vote(self):
        members = OutcomeDistribution.from_counts({"110": 3, "100": 1})
        assert qubitwise_majority_vote(members) == B("110")

    def test_single_member_is_unanimous(self):
        members = OutcomeDistribution.from_counts({"0101": 17})
        assert qubitwise_majority_vote(members) == B("0101")

    def test_tie_keeps_incumbent(self):
        members = OutcomeDistribution.from_counts({"10": 2, "01": 2})
        assert qubitwise_majority_vote(members, incumbent=B("10")) == B("10")
        assert qubitwise_majority_vote(members, incumbent=B("01")) == B("01")

    def test_tie_without_incumbent_falls_to_zero(self):
        members = OutcomeDistribution.from_counts({"10": 2, "01": 2})
        assert qubitwise_majority_vote(members) == B("00")

    def test_empty_cluster_signaled(self):
        with pytest.raises(EmptyClusterError):
            qubitwise_majority_vote(OutcomeDistribution(3, {}))

    def test_shot_weighting(self):
        # one string observed 50 times outvotes three distinct singletons
        members = OutcomeDistribution.from_counts({"1111": 50, "0000": 1, "0001": 1, "0010": 1})
        assert qubitwise_majority_vote(members) == B("1111")

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_oracle(self, data):
        # small integer weights make exact per-qubit ties common
        width = data.draw(st.integers(min_value=1, max_value=8))
        values = st.integers(min_value=0, max_value=(1 << width) - 1)
        weights = data.draw(st.dictionaries(values, st.integers(0, 3), min_size=1, max_size=8))
        assume(sum(weights.values()) > 0)
        members = {BitString(v, width): w for v, w in weights.items()}
        incumbent = data.draw(st.none() | values.map(lambda v: BitString(v, width)))
        assert qubitwise_majority_vote(members, incumbent) == scalar_majority_vote(members, incumbent)


def _noisy_instance(width, dominant, rate, shots, seed):
    rng = np.random.default_rng(seed)
    ideal = generate_ideal(SyntheticSpec(width, dominant, rng))
    return ideal, apply_bitflip(sample_shots(ideal, shots, rng), NoiseSpec(rate, rng))


class TestCluster:
    def test_zero_rate_makes_singletons(self):
        d = OutcomeDistribution.from_counts({"000": 5, "011": 3, "110": 2})
        model = cluster(d, ClusterConfig(k=3, flip_rate=0.0))
        assert model.threshold == 0
        assert set(model.centroids) == {B("000"), B("011"), B("110")}
        assert all(model.assignments[c] == i for i, c in enumerate(model.centroids))
        assert not model.outliers

    def test_threshold_filters_distant_strings(self):
        # single centroid at 111000; strings beyond distance 2 stay outliers
        d = OutcomeDistribution.from_counts(
            {"111000": 50, "111010": 5, "011010": 4, "000111": 3}
        )
        model = cluster(d, ClusterConfig(k=1, flip_rate=0.15))
        assert model.threshold == 2
        assert model.centroids == (B("111000"),)
        assert B("111010") in model.assignments
        assert B("011010") in model.assignments  # distance exactly 2
        assert B("000111") in model.outliers
        assert model.weights[0] == pytest.approx(59 / 62)

    def test_single_cluster_recovers_dominant_string(self):
        ideal, noisy = _noisy_instance(10, 1, 0.1, 4096, seed=14)
        truth = next(iter(ideal))
        model = cluster(noisy, ClusterConfig(k=1, flip_rate=0.1))
        assert model.centroids == (truth,)

    def test_vote_recovery_rate_under_noise(self):
        # maximum-likelihood behavior: the voted centroid finds the planted
        # string in almost every seeded replay
        hits = 0
        for seed in range(20):
            ideal, noisy = _noisy_instance(8, 1, 0.2, 4096, seed=seed)
            model = cluster(noisy, ClusterConfig(k=1, flip_rate=0.2))
            hits += model.centroids == (next(iter(ideal)),)
        assert hits >= 19

    def test_assigned_members_respect_threshold(self):
        _, noisy = _noisy_instance(8, 3, 0.2, 2048, seed=5)
        model = cluster(noisy, ClusterConfig(k=3, flip_rate=0.2))
        for b, idx in model.assignments.items():
            assert hamming_distance(b, model.centroids[idx]) <= model.threshold

    def test_centroids_are_a_vote_fixed_point(self):
        _, noisy = _noisy_instance(8, 2, 0.15, 2048, seed=6)
        model = cluster(noisy, ClusterConfig(k=2, flip_rate=0.15))
        assert model.converged
        for i, c in enumerate(model.centroids):
            members = OutcomeDistribution(
                noisy.width,
                {b: noisy.get(b) for b, idx in model.assignments.items() if idx == i},
            )
            assert qubitwise_majority_vote(members, incumbent=c) == c

    def test_deterministic(self):
        _, noisy = _noisy_instance(9, 4, 0.25, 2048, seed=7)
        a = cluster(noisy, ClusterConfig(k=4, flip_rate=0.25))
        b = cluster(noisy, ClusterConfig(k=4, flip_rate=0.25))
        assert a == b

    def test_weights_exclude_outlier_mass(self):
        _, noisy = _noisy_instance(8, 2, 0.3, 2048, seed=8)
        model = cluster(noisy, ClusterConfig(k=2, flip_rate=0.3))
        assigned = sum(noisy.get(b) for b in model.assignments)
        assert sum(model.weights) == pytest.approx(assigned / noisy.total)
        assert sum(model.weights) <= 1.0 + 1e-12

    def test_k_beyond_support_rejected(self):
        d = OutcomeDistribution.from_counts({"00": 1, "01": 1})
        with pytest.raises(ValueError):
            cluster(d, ClusterConfig(k=3, flip_rate=0.1))

    def test_starved_clusters_are_dropped(self, monkeypatch):
        # collapse every vote onto one row to force duplicate centroids;
        # the duplicate loses all members on reassignment and is dropped
        vote = clustering._vote

        def collapse(packed, members, bounds, totals, incumbents):
            votes = vote(packed, members, bounds, totals, incumbents)
            votes[:] = packed.bits[packed.top_order()[0]]
            return votes

        monkeypatch.setattr(clustering, "_vote", collapse)
        d = OutcomeDistribution.from_counts({"0000": 10, "1111": 8, "0011": 5})
        model = cluster(d, ClusterConfig(k=3, flip_rate=0.25))
        assert model.requested_k == 3
        assert model.k < 3
        assert model.centroids == (B("0000"),)

    @pytest.mark.parametrize("case", ["converged", "capped"])
    def test_each_centroid_list_is_assigned_once(self, monkeypatch, case):
        # a pass assigns its seed centroids and then each moved list once,
        # so its result is the assignment of the centroids it returns
        assign, calls = clustering._assign, []

        def counted(*args):
            calls.append(args)
            return assign(*args)

        monkeypatch.setattr(clustering, "_assign", counted)
        # the first vote moves 0000 to 0001, the second keeps it
        counts, rate, max_rounds = {
            "converged": ({"0000": 5, "0011": 4, "0001": 4}, 0.25, 100),
            "capped": ({"0000": 5, "0011": 4, "0001": 4}, 0.25, 1),
        }[case]
        packed = PackedDistribution(OutcomeDistribution.from_counts(counts), rate)
        theta = outlier_threshold(4, rate)
        bits, weights, nearest, outlier, converged, rounds, slots = clustering._cluster_packed(
            packed, 1, theta, max_rounds
        )
        assert converged == (case == "converged")
        assert rounds == {"converged": 2, "capped": 1}[case]
        assert len(calls) == (max_rounds + 1 if case == "capped" else rounds)
        assert packed.slots(bits).tolist() == slots.tolist()
        if not converged:
            fresh_nearest, fresh_outlier, _, _, totals = assign(packed, slots, theta)
            assert nearest.tolist() == fresh_nearest.tolist()
            assert outlier.tolist() == fresh_outlier.tolist()
            assert weights.tobytes() == (totals / packed.total).tobytes()

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_model_invariants_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        ideal = generate_ideal(SyntheticSpec(6, int(rng.integers(1, 5)), rng))
        noisy = apply_bitflip(sample_shots(ideal, 512, rng), NoiseSpec(0.2, rng))
        k = int(rng.integers(1, min(4, len(noisy)) + 1))
        model = cluster(noisy, ClusterConfig(k=k, flip_rate=0.2))
        assert 1 <= model.k <= k
        assert len(model.weights) == model.k
        for b, idx in model.assignments.items():
            assert hamming_distance(b, model.centroids[idx]) <= model.threshold
        assert set(model.assignments) | set(model.outliers) == set(noisy)
        assert not set(model.assignments) & set(model.outliers)


def _bit_rows(values, width):
    return strings_to_rows([BitString(v, width) for v in values], width)


class TestDistanceCache:
    @given(st.data(), st.sampled_from([1, 63, 64, 65, 255, 256, 300]) | st.integers(1, 300))
    @settings(max_examples=120, deadline=None)
    def test_cached_columns_equal_the_kernel(self, data, width):
        values = st.integers(0, (1 << width) - 1)
        observed = data.draw(st.lists(values, min_size=1, max_size=12, unique=True))
        dist = OutcomeDistribution(width, {BitString(v, width): 1.0 + i for i, v in enumerate(observed)})
        packed = PackedDistribution(dist, 0.1)
        # centroids from the observed rows and from rows never observed,
        # with repeats, asked for in batches in any order
        pool = observed + data.draw(st.lists(values, min_size=1, max_size=4))
        calls = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=8), min_size=1, max_size=5))
        slot_of: dict[int, int] = {}  # row value -> its slot in the first call that asked
        for call in calls:
            centroid_bits = _bit_rows(call, width)
            slots = packed.slots(centroid_bits)
            # equal rows get equal slots, within and across calls, observed
            # or not; distinct rows get distinct slots
            for value, slot in zip(call, slots.tolist()):
                assert slot_of.setdefault(value, slot) == slot
            assert len(set(slot_of.values())) == len(slot_of)
            # the cached rows against fresh work
            cols = packed.columns(slots)
            assert cols.dtype == np.min_scalar_type(width)
            assert cols.shape == (len(call), len(packed))
            np.testing.assert_array_equal(cols, packed.hamming_to(centroid_bits).T)
            want = match_rows(packed.words, _pack_words(centroid_bits))
            np.testing.assert_array_equal(packed.centroid_rows(slots), want)

    def test_each_distinct_centroid_is_computed_once(self, monkeypatch):
        packed = PackedDistribution(OutcomeDistribution.from_counts({"0000": 5, "0110": 3, "1111": 1}), 0.1)
        asked = []
        hamming_to = PackedDistribution.hamming_to

        def counting(self, centroid_bits):
            asked.append(len(centroid_bits))
            return hamming_to(self, centroid_bits)

        monkeypatch.setattr(PackedDistribution, "hamming_to", counting)
        first = _bit_rows([0b0000, 0b1010, 0b0000], 4)
        packed.slots(first)
        packed.slots(first[::-1])
        packed.slots(_bit_rows([0b1010, 0b1111], 4))
        assert asked == [2, 1]


class TestRoundVote:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scalar_vote_per_cluster(self, data):
        # small integer weights make exact per-qubit ties common; rows
        # labelled -1 are outliers, and clusters may be empty
        width = data.draw(st.integers(1, 8))
        values = st.integers(0, (1 << width) - 1)
        weights = data.draw(st.dictionaries(values, st.integers(1, 3), min_size=1, max_size=16))
        dist = OutcomeDistribution(width, {BitString(v, width): w for v, w in weights.items()})
        packed = PackedDistribution(dist, 0.1)
        k = data.draw(st.integers(1, 5))
        labels = np.array(data.draw(st.lists(st.integers(-1, k - 1), min_size=len(packed), max_size=len(packed))))
        kept = np.flatnonzero(labels >= 0)
        members = kept[np.argsort(labels[kept], kind="stable")]
        bounds = np.concatenate([[0], np.cumsum(np.bincount(labels[kept], minlength=k))])
        incumbents = _bit_rows(data.draw(st.lists(values, min_size=k, max_size=k)), width)
        strings = rows_to_strings(packed.bits)
        clusters = [{strings[r]: float(packed.weights[r]) for r in members[a:b]} for a, b in zip(bounds, bounds[1:])]
        totals = np.array([sum(c.values()) for c in clusters], dtype=np.float64)
        votes = clustering._vote(packed, members, bounds, totals, incumbents)
        for vote, incumbent, cluster_members in zip(rows_to_strings(votes), rows_to_strings(incumbents), clusters):
            want = scalar_majority_vote(cluster_members, incumbent) if cluster_members else incumbent
            assert vote == want

    @given(st.integers(1, 130), st.integers(1, 20), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_adds_each_cluster_in_row_order(self, width, pairs, k, seed):
        # each row comes with its complement at equal probability weight in
        # the same cluster, so every qubit's ones are half the cluster total
        # in exact arithmetic and the vote follows the summation's rounding
        rng = np.random.default_rng(seed)
        full = (1 << width) - 1
        draws = rng.integers(0, 2, size=(pairs, width)) @ (1 << np.arange(width, dtype=object))
        cluster_of = {min(v, v ^ full): int(rng.integers(-1, k)) for v in draws.tolist()}
        weights = rng.random(len(cluster_of))
        strings = {}
        for v, w in zip(cluster_of, (weights / weights.sum()).tolist()):
            strings[BitString(v, width)] = strings[BitString(v ^ full, width)] = w
        packed = PackedDistribution(OutcomeDistribution(width, strings), 0.1)
        labels = np.array([cluster_of[min(b.value, b.value ^ full)] for b in rows_to_strings(packed.bits)])
        kept = np.flatnonzero(labels >= 0)
        members = kept[np.argsort(labels[kept], kind="stable")]
        bounds = np.concatenate([[0], np.cumsum(np.bincount(labels[kept], minlength=k))])
        totals = np.array([packed.weights[members[a:b]].sum() for a, b in zip(bounds[:-1], bounds[1:])])
        incumbents = rng.integers(0, 2, size=(k, width), dtype=np.uint8)
        want = reference_votes(packed, [labels == i for i in range(k)], incumbents)
        np.testing.assert_array_equal(clustering._vote(packed, members, bounds, totals, incumbents), want)

    def test_one_vote_per_round(self, monkeypatch):
        calls = []
        vote = clustering._vote

        def counting(packed, members, bounds, totals, incumbents):
            calls.append(len(incumbents))
            return vote(packed, members, bounds, totals, incumbents)

        monkeypatch.setattr(clustering, "_vote", counting)
        # seeded at the heaviest strings, most passes converge in one round;
        # this one takes four
        _, noisy = _noisy_instance(8, 3, 0.4, 2048, seed=52)
        result = clustering._cluster_packed(PackedDistribution(noisy, 0.4), 4, outlier_threshold(8, 0.4), 100)
        assert result[5] == 4
        assert calls == [4] * 4


class TestClusterKernelMatchesMaskedVotes:
    """The kernel reads cached distances and sorted member slices; the
    reference recomputes distances and builds its members from masks.
    Both add each cluster's rows left to right in row order, so that
    probability weights add in one order."""

    @staticmethod
    def _check(dist, k, flip_rate, max_rounds):
        packed = PackedDistribution(dist, flip_rate)
        theta = outlier_threshold(dist.width, flip_rate)
        got = clustering._cluster_packed(packed, k, theta, max_rounds)
        want = reference_cluster_packed(PackedDistribution(dist, flip_rate), k, theta, max_rounds)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        np.testing.assert_array_equal(got[2], want[2])
        np.testing.assert_array_equal(got[3], want[3])
        assert got[4:6] == want[4:]
        np.testing.assert_array_equal(got[6], packed.slots(got[0]))

    @given(st.integers(0, 10_000), st.integers(2, 12), st.sampled_from([0.05, 0.15, 0.3, 0.45]), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_probability_weights(self, seed, width, flip_rate, max_rounds):
        rng = np.random.default_rng(seed)
        ideal = generate_ideal(SyntheticSpec(width, int(rng.integers(1, min(8, 1 << width) + 1)), rng))
        noisy = apply_bitflip(sample_shots(ideal, 600, rng), NoiseSpec(flip_rate, rng)).normalized()
        k = int(rng.integers(1, min(40, len(noisy)) + 1))
        self._check(noisy, k, flip_rate, max_rounds)

    @given(st.data(), st.integers(1, 6), st.sampled_from([0.1, 0.25, 0.5]), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_integer_weights_with_vote_ties(self, data, width, flip_rate, max_rounds):
        # few equal small counts: many votes split exactly in half
        values = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=16, unique=True))
        counts = data.draw(st.lists(st.sampled_from([1, 2]), min_size=len(values), max_size=len(values)))
        dist = OutcomeDistribution(width, {BitString(v, width): float(c) for v, c in zip(values, counts)})
        k = data.draw(st.integers(1, len(values)))
        self._check(dist, k, flip_rate, max_rounds)


class TestVotesNeverStarve:
    """A per-qubit weighted majority costs no more weighted Hamming
    distance than its incumbent, whose members all lie within the
    threshold, so some member lies within the threshold of the voted row:
    no assignment of a voted centroid list marks every row an outlier."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from([1, 2, 3, 5, 9, 14, 63, 64, 65, 100, 130]),
        st.sampled_from([0.0, 0.01, 0.05, 0.15, 0.3, 0.45, 0.5]),
        st.sampled_from([0.0, 0.01, 0.05, 0.15, 0.3, 0.45, 0.5]),
        st.booleans(),
        st.integers(1, 8),
        st.sampled_from([1, 2, 100]),
    )
    @settings(max_examples=300, deadline=None)
    def test_some_row_is_kept(self, seed, width, noise_rate, flip_rate, normalized, k, max_rounds):
        rng = np.random.default_rng(seed)
        ideal = generate_ideal(SyntheticSpec(width, int(rng.integers(1, min(8, 1 << width) + 1)), rng))
        noisy = apply_bitflip(sample_shots(ideal, int(rng.integers(1, 300)), rng), NoiseSpec(noise_rate, rng))
        if normalized:
            noisy = noisy.normalized()
        assign, masks = clustering._assign, []

        def recorded(*args):
            result = assign(*args)
            masks.append(result[1])
            return result

        with patch.object(clustering, "_assign", recorded):
            cluster(noisy, ClusterConfig(k=min(k, len(noisy)), flip_rate=flip_rate, max_rounds=max_rounds))
        assert masks and all(not outlier.all() for outlier in masks)


class TestClusterConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ClusterConfig(k=0, flip_rate=0.1)
        with pytest.raises(ValueError):
            ClusterConfig(k=1, flip_rate=0.7)
        with pytest.raises(ValueError):
            ClusterConfig(k=1, flip_rate=0.1, max_rounds=0)


class TestLargeClusterVote:
    def test_one_cluster_past_the_einsum_buffer(self):
        # 10,000+ rows of 100 qubits in one cluster, a million cast elements,
        # many times einsum's 8,192-element buffer: each row comes with its
        # complement at equal probability weight, so every qubit ties in
        # exact arithmetic and the vote follows the summation's rounding
        rng = np.random.default_rng(2024)
        half = rng.integers(0, 2, size=(5100, 100), dtype=np.uint8)
        half[:, 0] = 0  # no row is another's complement
        half = np.unique(half, axis=0)
        w = rng.random(len(half))
        weights = np.concatenate([w, w]) / (2 * w.sum())
        packed = PackedDistribution(OutcomeDistribution._from_rows(np.concatenate([half, 1 - half]), weights), 0.1)
        n = len(packed)
        assert n >= 10_000 and packed.width == 100
        incumbents = rng.integers(0, 2, size=(1, 100), dtype=np.uint8)
        want = reference_votes(packed, [np.ones(n, dtype=bool)], incumbents)
        got = clustering._vote(packed, np.arange(n), np.array([0, n]), np.array([packed.weights.sum()]), incumbents)
        np.testing.assert_array_equal(got, want)
        assert 0 < want.sum() < 100  # the ties fall both ways
