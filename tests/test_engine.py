import gc
import hashlib
import types
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qemclust.clustering as clustering
import qemclust.engine as engine
from oracles import brute_force_mitigate
from qemclust._packed import PackedDistribution
from qemclust import (
    BitString,
    ExperimentRecord,
    MitigationConfig,
    NoiseSpec,
    OutcomeDistribution,
    SweepCell,
    SyntheticSpec,
    apply_bitflip,
    cell_means,
    cluster,
    generate_ideal,
    hellinger_fidelity,
    mitigate,
    run_trial,
    sample_shots,
    sweep,
)

B = BitString.from_text

WORKED_IDEAL = OutcomeDistribution.from_counts(
    {"111000": 0.39, "011010": 0.32, "111010": 0.29}
)
WORKED_TARGETS = frozenset({B("111000"), B("011010"), B("111010")})


def worked_noisy(seed):
    rng = np.random.default_rng(seed)
    return apply_bitflip(sample_shots(WORKED_IDEAL, 8192, rng), NoiseSpec(0.15, rng))


class TestMitigateIterative:
    def test_noiseless_fixed_point_is_exact(self):
        for seed in (0, 1, 2):
            ideal = generate_ideal(SyntheticSpec(8, 5, seed=seed))
            counts = sample_shots(ideal, 1024, seed=seed)
            report = mitigate(counts, MitigationConfig(flip_rate=0.0))
            assert report.final == counts.normalized()
            assert report.terminated_by == "convergence"

    def test_worked_example_terminates_at_three_clusters(self):
        report = mitigate(worked_noisy(101), MitigationConfig(0.15, stop_threshold=0.9))
        assert report.k_used == 3
        assert report.terminated_by == "convergence"
        assert set(report.final_record.centroids) == WORKED_TARGETS
        # the loop stops because the k=4 output matched the k=3 output
        assert report.iterations[-1].k == 4
        assert report.iterations[-1].hf_to_previous > 0.9

    def test_returns_predecessor_of_converged_iteration(self):
        report = mitigate(worked_noisy(101), MitigationConfig(0.15, stop_threshold=0.9))
        by_k = {rec.k: rec for rec in report.iterations}
        assert report.final == by_k[report.k_used].distribution
        assert by_k[report.k_used + 1].hf_to_previous > 0.9
        for k in range(2, report.k_used + 1):
            assert by_k[k].hf_to_previous <= 0.9

    def test_first_iteration_never_terminates(self):
        # a one-cluster pass that barely changes the input still advances
        # to k=2 so the convergence check always compares two real outputs
        ideal = generate_ideal(SyntheticSpec(10, 64, seed=9))
        rng = np.random.default_rng(9)
        noisy = apply_bitflip(sample_shots(ideal, 4096, rng), NoiseSpec(0.05, rng))
        report = mitigate(noisy, MitigationConfig(0.05, stop_threshold=0.95))
        assert len(report.iterations) >= 2
        assert report.k_used >= 1

    @pytest.mark.parametrize(
        "counts, cfg, terminated_by",
        [
            ({"0011": 5, "0111": 4, "1100": 3}, MitigationConfig(0.2, stop_threshold=0.999), "convergence"),
            ({"0011": 5, "0111": 4, "1100": 3, "1111": 2}, MitigationConfig(0.2, stop_threshold=0.9999), "k_max"),
            ({"0011": 5, "0111": 4, "1100": 3}, MitigationConfig(0.2, fixed_k=2), "fixed"),
        ],
    )
    def test_report_reads_its_choice_from_the_record(self, counts, cfg, terminated_by):
        report = mitigate(OutcomeDistribution.from_counts(counts), cfg)
        assert report.terminated_by == terminated_by
        assert report.final_record in report.iterations
        assert report.final is report.final_record.distribution
        assert report.k_used == report.final_record.k

    def test_k_capped_by_unique_strings(self):
        noisy = OutcomeDistribution.from_counts({"0011": 5, "0111": 4, "1100": 3})
        report = mitigate(noisy, MitigationConfig(0.2, stop_threshold=0.999))
        assert report.terminated_by in ("k_max", "convergence")
        assert report.k_used <= 3
        assert all(rec.k <= 3 for rec in report.iterations)

    def test_deterministic(self):
        noisy = worked_noisy(7)
        a = mitigate(noisy, MitigationConfig(0.15, 0.9))
        b = mitigate(noisy, MitigationConfig(0.15, 0.9))
        assert a.k_used == b.k_used
        assert a.final == b.final
        assert [r.hf_to_previous for r in a.iterations] == [
            r.hf_to_previous for r in b.iterations
        ]

    def test_raising_threshold_never_runs_fewer_iterations(self):
        noisy = worked_noisy(11)
        counts = [
            len(mitigate(noisy, MitigationConfig(0.15, stop_threshold=delta)).iterations)
            for delta in (0.5, 0.8, 0.9, 0.97)
        ]
        assert counts == sorted(counts)

    def test_hf_values_recorded_in_unit_interval(self):
        report = mitigate(worked_noisy(3), MitigationConfig(0.15, 0.9))
        assert all(0.0 <= rec.hf_to_previous <= 1.0 for rec in report.iterations)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            mitigate(OutcomeDistribution(2, {B("00"): 0.0}), MitigationConfig(0.1))

    def test_records_carry_clustering_convergence(self, monkeypatch):
        noisy = worked_noisy(5)
        seen = set()
        for max_rounds in (1, 100):
            monkeypatch.setattr(clustering, "MAX_ROUNDS", max_rounds)
            report = mitigate(noisy, MitigationConfig(0.15, stop_threshold=0.99))
            for rec in report.iterations:
                model = cluster(noisy, rec.k, 0.15)
                assert (rec.converged, rec.rounds) == (model.converged, model.rounds)
                seen.add(rec.converged)
        assert seen == {True, False}

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_hf_matches_the_built_distributions(self, monkeypatch, duplicates):
        noisy = OutcomeDistribution.from_counts(
            {"00000": 40, "00001": 9, "00010": 8, "11100": 30, "11110": 5, "01100": 4}
        )
        if duplicates:
            # repeat the first centroid and add an unobserved one twice, as
            # an unconverged vote could
            cluster_packed = engine._cluster_packed
            unseen = np.array([[0b10101]], dtype=np.uint64)

            def doubled(packed, k, theta):
                words, weights, *rest, _slots = cluster_packed(packed, k, theta)
                words = np.vstack([words, words[:1], unseen, unseen])
                return (words, np.concatenate([weights, weights[:1], [0.3, 0.2]]), *rest, packed.slots(words))

            monkeypatch.setattr(engine, "_cluster_packed", doubled)
        report = mitigate(noisy, MitigationConfig(0.1, stop_threshold=0.999))
        previous = noisy
        for rec in report.iterations:
            assert rec.hf_to_previous == pytest.approx(
                hellinger_fidelity(rec.distribution, previous), abs=1e-12
            )
            previous = rec.distribution
        assert [rec.duplicates for rec in report.iterations] == [2 if duplicates else 0] * len(report.iterations)
        if duplicates:
            assert B("10101") in report.iterations[0].distribution

    # sha256 of the "<bits> <float.hex>" lines of the final output in value
    # order, and float.hex of every hf_to_previous, of a run whose passes
    # reach k = 12. They pin the pass's summation order, which no BLAS
    # kernel chooses, so they hold on every CPU.
    PINNED_FINAL = "fe59f4ef9f586d9fc30e0b8869fd356ff75425b89bc78e17c6f6c723725d9515"
    PINNED_HF = [
        "0x1.ce8c3caf76a3ap-1", "0x1.dbbf2fe0b7cc5p-1", "0x1.e6f567f897c2ap-1", "0x1.db5f79421b422p-1",
        "0x1.e3b9df4cb7cd1p-1", "0x1.f2e5e5ddcf132p-1", "0x1.f37eff1885796p-1", "0x1.fa2d774def4aep-1",
        "0x1.f76d767886303p-1", "0x1.f8e9fb6572fe5p-1", "0x1.faaabbca44f82p-1", "0x1.fba21b49ed3e5p-1",
    ]

    @pytest.mark.parametrize("normalized", [False, True])
    def test_exact_bits_of_a_high_k_run(self, normalized):
        rng = np.random.default_rng(3)
        ideal = generate_ideal(SyntheticSpec(10, 12, rng))
        noisy = apply_bitflip(sample_shots(ideal, 2048, rng), NoiseSpec(0.1, rng))
        report = mitigate(noisy.normalized() if normalized else noisy, MitigationConfig(0.1, stop_threshold=0.99))
        assert report.k_used == 11
        lines = "\n".join(f"{b.text} {w.hex()}" for b, w in sorted(report.final.items()))
        assert hashlib.sha256(lines.encode()).hexdigest() == self.PINNED_FINAL
        assert [rec.hf_to_previous.hex() for rec in report.iterations] == self.PINNED_HF

    # float.hex of (hf_noisy, hf_mitigated) of the 100-qubit fixed-k sweep
    # cell at base seeds 0, 1 and 2: the simulator's tallies hand their
    # sorted views to the engine and to both fidelities
    PINNED_WIDE = [
        ("0x1.6fafd770d7304p-8", "0x1.01902da416861p-5"),
        ("0x1.73e4e55d133e4p-8", "0x1.f9806d37435cep-6"),
        ("0x1.7fb9c23b204eep-8", "0x1.0866958c10d68p-5"),
    ]

    def test_exact_bits_of_a_wide_trial(self):
        cell = SweepCell(100, 2, 0.05, fixed_k=2, shots=8192)
        records = [run_trial(cell, 0, seed) for seed in range(3)]
        assert all(rec.k_used == 2 and not rec.error for rec in records)
        assert [(rec.hf_noisy.hex(), rec.hf_mitigated.hex()) for rec in records] == self.PINNED_WIDE

    @pytest.mark.parametrize("rate", [0.0, 0.15])
    @pytest.mark.parametrize("fixed_k", [None, 3])
    def test_a_report_keeps_no_run_cache(self, fixed_k, rate):
        # the lazy outputs hold the input, the pass's masses and gains and
        # the centroid rows; functions, classes and modules are not walked
        report = mitigate(worked_noisy(101), MitigationConfig(rate, stop_threshold=0.9, fixed_k=fixed_k))
        seen, todo, arrays = set(), [report], 0
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, PackedDistribution)
            arrays += isinstance(obj, np.ndarray)
            todo.extend(gc.get_referents(obj))
        assert arrays >= 2 * len(report.iterations)  # each record's centroid rows and masses were walked

    @pytest.mark.parametrize("fixed_k", [None, 3])
    def test_outputs_are_built_only_when_read(self, monkeypatch, fixed_k):
        built = []
        build = engine._mitigated_distribution

        def counting(*args):
            built.append(args)
            return build(*args)

        def forbidden(*args):
            raise AssertionError("the k loop compares iterates without distributions")

        monkeypatch.setattr(engine, "_mitigated_distribution", counting)
        monkeypatch.setattr(engine, "hellinger_fidelity", forbidden)
        noisy = worked_noisy(101)
        report = mitigate(noisy, MitigationConfig(0.15, stop_threshold=0.9, fixed_k=fixed_k))
        assert built == []  # mitigate builds no output, not even the final one
        final = report.final
        assert len(built) == 1
        assert report.final is final
        monkeypatch.undo()
        for rec in report.iterations:
            alone = mitigate(noisy, MitigationConfig(0.15, fixed_k=rec.k))
            assert rec.distribution == alone.final
        # the returned record's output is report.final, so it is not built twice
        assert len(built) == len(report.iterations)


class TestMitigateFixedK:
    def test_single_pass(self):
        report = mitigate(worked_noisy(101), MitigationConfig(0.15, fixed_k=3))
        assert report.terminated_by == "fixed"
        assert report.k_used == 3
        assert len(report.iterations) == 1
        assert set(report.final_record.centroids) == WORKED_TARGETS

    def test_fixed_k_matches_the_iterative_pass_at_same_k(self):
        noisy = worked_noisy(101)
        iterative = mitigate(noisy, MitigationConfig(0.15, stop_threshold=0.9))
        fixed = mitigate(noisy, MitigationConfig(0.15, fixed_k=iterative.k_used))
        assert fixed.final == iterative.final

    def test_oversized_fixed_k_is_capped(self):
        noisy = OutcomeDistribution.from_counts({"01": 5, "10": 3})
        report = mitigate(noisy, MitigationConfig(0.2, fixed_k=10))
        assert report.k_used == 2


@st.composite
def small_counts(draw):
    width = draw(st.integers(min_value=2, max_value=8))
    counts = draw(st.dictionaries(
        st.integers(min_value=0, max_value=(1 << width) - 1),
        st.integers(min_value=1, max_value=40),
        min_size=1,
        max_size=min(20, 1 << width),
    ))
    return OutcomeDistribution(width, {BitString(v, width): c for v, c in counts.items()})


class TestWholePipelineOracle:
    @given(
        small_counts(),
        st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=0.45)),
        st.floats(min_value=0.5, max_value=0.995),
        st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        st.sampled_from([1, 2, 100]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_mitigation(self, noisy, rate, delta, fixed_k, max_rounds):
        # one or two vote rounds leave some clustering passes unconverged
        want = brute_force_mitigate(noisy, rate, delta, fixed_k, max_rounds)
        assume(all(abs(hf - delta) > 1e-9 for hf in want["hfs"]))
        with patch.object(clustering, "MAX_ROUNDS", max_rounds):
            got = mitigate(noisy, MitigationConfig(rate, stop_threshold=delta, fixed_k=fixed_k))
        assert got.k_used == want["k_used"]
        assert got.terminated_by == want["terminated_by"]
        assert got.final_record.centroids == want["centroids"]
        assert set(got.final) == set(want["final"])
        for b, p in want["final"].items():
            assert got.final.get(b) == pytest.approx(p, abs=1e-12)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            MitigationConfig(flip_rate=0.6)
        with pytest.raises(ValueError):
            MitigationConfig(flip_rate=0.1, stop_threshold=1.0)
        with pytest.raises(ValueError):
            MitigationConfig(flip_rate=0.1, fixed_k=0)

    # 2.5 failed later inside mitigate, and True ran with a report k_used of True
    @pytest.mark.parametrize("fixed_k", [2.5, 2.0, True, "2"])
    def test_fixed_k_is_an_integer(self, fixed_k):
        with pytest.raises(ValueError) as err:
            MitigationConfig(flip_rate=0.1, fixed_k=fixed_k)
        assert str(err.value) == f"fixed_k must be a positive integer, got {fixed_k}"

    def test_numpy_fixed_k_is_stored_as_an_int(self):
        cfg = MitigationConfig(flip_rate=0.1, fixed_k=np.int64(2))
        assert type(cfg.fixed_k) is int
        assert type(mitigate(WORKED_IDEAL, cfg).k_used) is int


def _untimed(records):
    return [replace(rec, wall_time_s=0.0) for rec in records]


class TestSweep:
    def test_records_are_deterministic_and_scored(self):
        cell = SweepCell(width=8, num_dominant=2, flip_rate=0.15, shots=1024)
        a = sweep([cell], trials=3, base_seed=5)
        b = sweep([cell], trials=3, base_seed=5)
        assert _untimed(a) == _untimed(b)
        for rec in a:
            assert rec.error == "" or rec.error is None
            expected = (rec.hf_mitigated + 0.01) / (rec.hf_noisy + 0.01)
            assert rec.improvement == pytest.approx(expected, abs=1e-12)

    def test_paired_cells_share_noisy_data(self):
        # same generation parameters, different supplied rate: the noisy
        # fidelity column must match trial by trial
        true_cell = SweepCell(width=8, num_dominant=2, flip_rate=0.2, supplied_rate=0.2, shots=1024)
        over_cell = SweepCell(width=8, num_dominant=2, flip_rate=0.2, supplied_rate=0.3, shots=1024)
        recs = sweep([true_cell, over_cell], trials=3, base_seed=9)
        by_cell = {}
        for rec in recs:
            by_cell.setdefault(rec.cell, []).append(rec)
        for a, b in zip(by_cell[true_cell], by_cell[over_cell]):
            assert a.seed == b.seed
            assert a.hf_noisy == b.hf_noisy

    def test_worker_pool_matches_sequential(self):
        cells = [SweepCell(width=6, num_dominant=2, flip_rate=0.1, shots=512)]
        seq = sweep(cells, trials=4, base_seed=3, workers=1)
        par = sweep(cells, trials=4, base_seed=3, workers=2)
        assert _untimed(seq) == _untimed(par)

    def test_the_pool_starts_at_most_one_process_per_trial(self, monkeypatch):
        # a stand-in pool records its size and runs each job inline, so no
        # process starts however many workers are asked for
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cells = [SweepCell(width=6, num_dominant=2, flip_rate=0.1, shots=512)]
        seq = sweep(cells, trials=3, base_seed=3, workers=1)
        assert _untimed(sweep(cells, trials=1, base_seed=3, workers=500)) == _untimed(seq[:1])
        assert sizes == []  # one trial runs in-process
        assert _untimed(sweep(cells, trials=3, base_seed=3, workers=500)) == _untimed(seq)
        assert sizes == [3]
        assert _untimed(sweep(cells * 2, trials=3, base_seed=3, workers=4)) == _untimed(seq * 2)
        assert sizes == [3, 4]

    def test_failures_recorded_per_row(self, monkeypatch):
        def explode(noisy, cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr(engine, "mitigate", explode)
        recs = sweep([SweepCell(width=4, num_dominant=1, flip_rate=0.1, shots=64)], trials=2)
        assert all("boom" in rec.error for rec in recs)
        assert all(rec.terminated_by == "error" for rec in recs)

    def test_cell_means(self):
        cell = SweepCell(width=6, num_dominant=2, flip_rate=0.1, shots=512)
        recs = sweep([cell], trials=4, base_seed=2)
        stats = cell_means(recs)[cell]
        assert stats["trials"] == 4
        assert stats["improvement"] == pytest.approx(
            sum(r.improvement for r in recs) / 4
        )

    def test_cell_means_add_left_to_right(self):
        # compensated summation (sum() from Python 3.12 on) gives 1.0 / 10
        cell = SweepCell(width=4, num_dominant=1, flip_rate=0.1)
        recs = [ExperimentRecord(cell, t, t, 0.1, 0.1, 1.0, 1, "convergence", 0.0) for t in range(10)]
        acc = 0.0
        for _ in recs:
            acc += 0.1
        assert cell_means(recs)[cell]["hf_noisy"] == acc / 10 == 0.09999999999999999

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            sweep([SweepCell(width=4, num_dominant=1, flip_rate=0.1)], trials=0)


class TestMitigationQuality:
    def test_mitigation_improves_fidelity_on_low_entropy_input(self):
        rec = run_trial(SweepCell(width=10, num_dominant=2, flip_rate=0.15, shots=4096), 0, 17)
        assert rec.hf_mitigated > rec.hf_noisy

    def test_overestimating_the_rate_beats_underestimating(self):
        cells = [
            SweepCell(width=10, num_dominant=4, flip_rate=0.2, supplied_rate=pe, shots=2048)
            for pe in (0.12, 0.28)
        ]
        recs = sweep(cells, trials=6, base_seed=23)
        means = cell_means(recs)
        assert means[cells[1]]["improvement"] >= means[cells[0]]["improvement"]
