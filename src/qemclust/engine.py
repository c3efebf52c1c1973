"""Top-level mitigation: iterative cluster-count discovery plus sweeps.

The iterative mode reruns clustering and redistribution with k = 1, 2, ...
and stops once the Hellinger fidelity between two successive outputs
exceeds the stop threshold, returning the earlier of the pair (the last
cluster added did not change anything, so it was not needed). k is capped
by the number of unique bit-strings observed. A fixed-k mode, for callers
that know the number of dominant outcomes, is the same loop over one k
with no stop test. Each pass's output stays a probability vector over the
packed input rows plus a map for voted centroids never observed, read
from the redistribution kernel's merged result; the stop rule compares
these, and distributions are built only when read. A pass conserves mass,
so every pass has an output and none falls back to the input.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from ._packed import PackedDistribution
from .clustering import _cluster_packed, outlier_threshold
from .distributions import (
    BitString,
    OutcomeDistribution,
    _left_to_right_sum,
    hellinger_fidelity,
    improvement_ratio,
    rows_to_strings,
)
from .noise import NoiseSpec, SyntheticSpec, apply_bitflip, check_rate, generate_ideal, sample_shots
from .redistribution import _mitigated_distribution, _redistribute_packed

__all__ = [
    "MitigationConfig",
    "IterationRecord",
    "MitigationReport",
    "mitigate",
    "SweepCell",
    "ExperimentRecord",
    "run_trial",
    "sweep",
    "cell_means",
]


@dataclass(frozen=True)
class MitigationConfig:
    """Error rate, stopping threshold and mode for one mitigation run.

    ``fixed_k`` of None selects the iterative mode. Each clustering pass
    votes at most ``clustering.MAX_ROUNDS`` rounds.
    """

    flip_rate: float
    stop_threshold: float = 0.95
    fixed_k: int | None = None

    def __post_init__(self) -> None:
        check_rate(self.flip_rate)
        if not 0.0 < self.stop_threshold < 1.0:
            raise ValueError(
                f"stop_threshold must lie in (0, 1), got {self.stop_threshold}"
            )
        if self.fixed_k is not None and self.fixed_k < 1:
            raise ValueError(f"fixed_k must be >= 1, got {self.fixed_k}")


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One k-iteration: its output and the fidelity to the previous output.

    For k = 1 the fidelity is measured against the noisy input view; it is
    recorded for diagnostics but never triggers termination. ``converged``
    and ``rounds`` come from the clustering pass, and so does
    ``duplicates``: the number of its centroid rows equal to an earlier
    one, which an unconverged vote can leave. The centroids and the output
    distribution are built the first time they are read. ``degenerate`` is
    always False (a pass conserves mass); it stays while
    ``perfbench/golden.py`` reads ``report.final_record.degenerate``
    (ROADMAP item 1).
    """

    degenerate: ClassVar[bool] = False
    k: int
    hf_to_previous: float
    converged: bool
    rounds: int
    duplicates: int
    _centroid_bits: np.ndarray = field(repr=False)
    _output: Callable[[], OutcomeDistribution] = field(repr=False)

    @cached_property
    def centroids(self) -> tuple[BitString, ...]:
        return tuple(rows_to_strings(self._centroid_bits))

    @cached_property
    def distribution(self) -> OutcomeDistribution:
        return self._output()


@dataclass(frozen=True)
class MitigationReport:
    """Every k-iteration run and the one whose output is returned.

    ``final_record`` is the earlier iteration of the pair that converged,
    or the last one run when k reached its cap (``"k_max"``) or was fixed
    (``"fixed"``). ``final`` and ``k_used`` are read from it, so the final
    output is built the first time ``final`` is read.
    """

    final_record: IterationRecord
    iterations: tuple[IterationRecord, ...]
    terminated_by: str  # "convergence" | "k_max" | "fixed"

    @property
    def final(self) -> OutcomeDistribution:
        return self.final_record.distribution

    @property
    def k_used(self) -> int:
        return self.final_record.k


def _iterate(arrays: tuple) -> tuple[np.ndarray, dict[int, float]]:
    """Normalized output of one pass: a probability vector over the input
    rows plus {cache slot: probability} for centroids never observed."""
    masses, _removed, _claim, gained = arrays
    vec = masses.copy()
    extra: dict[int, float] = {}
    for _first, m, slot, row in gained:
        if row >= 0:
            vec[row] = m
        else:
            extra[slot] = m
    total = float(vec.sum()) + _left_to_right_sum(list(extra.values()))
    return vec / total, {key: m / total for key, m in extra.items()}


def _fidelity(a: tuple[np.ndarray, dict], b: tuple[np.ndarray, dict]) -> float:
    """Hellinger fidelity of two normalized iterates over the same rows."""
    acc = float(np.sqrt(a[0] * b[0]).sum())
    acc += _left_to_right_sum([math.sqrt(p * b[1][key]) for key, p in a[1].items() if key in b[1]])
    return min(acc * acc, 1.0)


def mitigate(noisy: OutcomeDistribution, cfg: MitigationConfig) -> MitigationReport:
    """Mitigate a noisy counts (or probability) distribution.

    Iterative mode: run k = 1, 2, ... and return the previous iteration's
    output as soon as HF(current, previous) exceeds the stop threshold;
    when k reaches the number of unique bit-strings without converging,
    the last output is returned. Fixed mode: one pass at the configured k
    (capped at the unique-string count). Deterministic for identical
    inputs and configuration.
    """
    packed = PackedDistribution(noisy, cfg.flip_rate)
    theta = outlier_threshold(noisy.width, cfg.flip_rate)
    fixed = cfg.fixed_k is not None
    ks = [min(cfg.fixed_k, len(packed))] if fixed else range(1, len(packed) + 1)
    noisy_view = (packed.weights / packed.total, {})

    records: list[IterationRecord] = []
    previous = noisy_view
    for k in ks:
        centroid_bits, weights, _nearest, _outlier, converged, rounds, slots = _cluster_packed(packed, k, theta)
        duplicates = len(slots) - len(set(slots.tolist()))
        arrays = _redistribute_packed(packed, slots, weights)
        current = _iterate(arrays)
        # the record keeps the pass's masses and gains, not the run's cache
        output = partial(_mitigated_distribution, noisy, centroid_bits, arrays[0], arrays[3], cfg.flip_rate)
        hf = _fidelity(current, previous)
        records.append(IterationRecord(k, hf, converged, rounds, duplicates, centroid_bits, output))
        if not fixed and k >= 2 and hf > cfg.stop_threshold:
            return MitigationReport(records[-2], tuple(records), "convergence")
        previous = current
    return MitigationReport(records[-1], tuple(records), "fixed" if fixed else "k_max")


@dataclass(frozen=True)
class SweepCell:
    """One grid cell of a synthetic-noise experiment.

    ``supplied_rate`` is the error rate handed to the mitigator (defaults
    to the true rate); keeping them separate supports mis-estimation
    studies. ``fixed_k`` switches the cell to single-pass fixed-k mode.
    """

    width: int
    num_dominant: int
    flip_rate: float
    supplied_rate: float | None = None
    stop_threshold: float = 0.95
    shots: int = 8192
    fixed_k: int | None = None

    @property
    def mitigation_rate(self) -> float:
        return self.flip_rate if self.supplied_rate is None else self.supplied_rate


@dataclass(frozen=True)
class ExperimentRecord:
    """One (cell, trial) outcome with the fidelities against ground truth."""

    cell: SweepCell
    trial: int
    seed: int
    hf_noisy: float
    hf_mitigated: float
    improvement: float
    k_used: int
    terminated_by: str
    wall_time_s: float
    error: str = ""


def run_trial(cell: SweepCell, trial: int, base_seed: int) -> ExperimentRecord:
    """Generate one synthetic instance for the cell, mitigate and score it.

    ``wall_time_s`` times ``mitigate`` and the building of its final
    output; generating the instance and scoring it are left out.
    """
    # base XOR trial index: cells sharing generation parameters see identical
    # synthetic data for the same trial index, which pairs comparisons such
    # as mis-estimation studies
    seed = base_seed ^ trial
    try:
        rng = np.random.default_rng(seed)
        ideal = generate_ideal(SyntheticSpec(cell.width, cell.num_dominant, rng))
        counts = sample_shots(ideal, cell.shots, rng)
        noisy = apply_bitflip(counts, NoiseSpec(cell.flip_rate, rng))
        cfg = MitigationConfig(
            flip_rate=cell.mitigation_rate,
            stop_threshold=cell.stop_threshold,
            fixed_k=cell.fixed_k,
        )
        t0 = time.perf_counter()
        report = mitigate(noisy, cfg)
        final = report.final  # built on first read, so inside the timed span
        wall = time.perf_counter() - t0
        hf_noisy = hellinger_fidelity(noisy, ideal)
        hf_mit = hellinger_fidelity(final, ideal)
        return ExperimentRecord(
            cell=cell,
            trial=trial,
            seed=seed,
            hf_noisy=hf_noisy,
            hf_mitigated=hf_mit,
            improvement=improvement_ratio(hf_mit, hf_noisy),
            k_used=report.k_used,
            terminated_by=report.terminated_by,
            wall_time_s=wall,
        )
    except Exception as exc:  # record the failure, keep the sweep running
        return ExperimentRecord(
            cell=cell,
            trial=trial,
            seed=seed,
            hf_noisy=math.nan,
            hf_mitigated=math.nan,
            improvement=math.nan,
            k_used=-1,
            terminated_by="error",
            wall_time_s=math.nan,
            error=f"{type(exc).__name__}: {exc}",
        )


def sweep(cells: Iterable[SweepCell], trials: int, base_seed: int = 0, workers: int = 1) -> list[ExperimentRecord]:
    """Run every (cell, trial) pair; optionally across a process pool of
    at most one process per pair.

    Results are returned in canonical (cell order, trial) order regardless
    of worker scheduling, and each trial's data depends only on
    ``base_seed ^ trial`` and the cell parameters.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    cells = list(cells)
    jobs = [(cell, t) for cell in cells for t in range(trials)]
    workers = min(workers, len(jobs))  # a pool starts all its processes at the first submit
    if workers <= 1:
        return [run_trial(cell, t, base_seed) for cell, t in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_trial, cell, t, base_seed) for cell, t in jobs]
        return [f.result() for f in futures]


def cell_means(records: Sequence[ExperimentRecord]) -> dict[SweepCell, dict[str, float]]:
    """Arithmetic per-cell means of the scoring columns (failed rows skipped)."""
    grouped: dict[SweepCell, list[ExperimentRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.cell, []).append(rec)
    out: dict[SweepCell, dict[str, float]] = {}
    for cell, recs in grouped.items():
        ok = [r for r in recs if not r.error]
        if not ok:
            out[cell] = {"trials": len(recs), "failures": len(recs)}
            continue
        out[cell] = {
            "trials": len(recs),
            "failures": len(recs) - len(ok),
            "hf_noisy": _left_to_right_sum([r.hf_noisy for r in ok]) / len(ok),
            "hf_mitigated": _left_to_right_sum([r.hf_mitigated for r in ok]) / len(ok),
            "improvement": _left_to_right_sum([r.improvement for r in ok]) / len(ok),
            "k_used": sum(r.k_used for r in ok) / len(ok),
        }
    return out
