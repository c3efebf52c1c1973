"""Golden outputs: comparison, recording and the acceptance-seed suite.

Two sets live under ``golden/``:

* ``<workload>.json`` holds, for the default seed, the checked fields and
  the exact output digest of every instance in the workload's pool, plus
  digests of its generated inputs. ``run.py`` compares each op against it.
* ``roadmap.json`` holds the outputs of the acceptance suite's fixed
  seeds: the sweep trials of c02-c04, the mitigations of c05, c09 and c10,
  and the c08 model and cross-validation result.

A field matches when ints, strings, bools and key or structure digests are
equal and floats agree to ``REL_TOL`` relative to max(1, |golden|). The
``exact`` digests of output bytes are not required to match; byte-identical
agreement is counted separately, so a float-order refactor shows without
failing. Usage::

    python3 perfbench/golden.py check
    python3 perfbench/golden.py record

Both run every workload's pool and the roadmap set. ``record`` overwrites the files and is only for a change that alters
outputs on purpose; say why in CHANGES.md. ``check`` exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import common
from outputs import sha256

REL_TOL = 1e-12


def compare(got, want, path: str = "") -> list[str]:
    """Differences between two summaries, as readable strings."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return [f"{path}: {got!r} != {want!r}"]
        if abs(got - want) > REL_TOL * max(1.0, abs(want)):
            return [f"{path}: {got!r} differs from {want!r} by {abs(got - want):.3g}"]
        return []
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        # "exact" digests are byte-identity, counted apart from failures
        return [d for k in want if k != "exact" for d in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _path(name: str) -> Path:
    return common.GOLDEN_DIR / f"{name}.json"


def load(name: str) -> dict | None:
    path = _path(name)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _dump(name: str, doc: dict) -> None:
    common.GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    _path(name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- workloads


def run_pool(name: str) -> dict:
    """Every pool instance of one workload at the default seed, once."""
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"golden-{name}-", dir=_workroot()))
    try:
        wl = workloads.make(name, workdir)
        wl.setup(common.DEFAULT_SEED, lambda: None)
        setup = wl.inputs()
        ops = []
        for i in range(wl.pool):
            fields, exact, _quality = wl.summarize(i, wl.run(i))
            ops.append({"fields": fields, "exact": exact})
        return {"seed": common.DEFAULT_SEED, "params": wl.params(), "setup": setup, "ops": ops}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _workroot() -> Path:
    common.OUT_DIR.mkdir(exist_ok=True)
    return common.OUT_DIR


# ---------------------------------------------------------------- roadmap set

WORKED_IDEAL = {"111000": 0.39, "011010": 0.32, "111010": 0.29}


def _trial_fields(rec) -> dict:
    if rec.error:
        raise RuntimeError(f"error row in trial {rec.trial} of {rec.cell}: {rec.error}")
    return {
        "cell": [rec.cell.width, rec.cell.num_dominant, rec.cell.flip_rate, rec.cell.mitigation_rate],
        "seed": rec.seed,
        "hf_noisy": rec.hf_noisy,
        "hf_mitigated": rec.hf_mitigated,
        "improvement": rec.improvement,
        "k_used": rec.k_used,
        "terminated_by": rec.terminated_by,
    }


def _report_fields(report, workdir: Path) -> dict:
    from qemclust import io as qio

    from outputs import distribution_fields

    path = workdir / "final.json"
    qio.write_distribution(report.final, str(path))
    fields, probs = distribution_fields(path.read_bytes(), report.final.width)
    fields.update(
        k_used=report.k_used,
        terminated_by=report.terminated_by,
        degenerate=report.final_record.degenerate,
        centroids=sorted(c.text for c in report.final_record.centroids),
        hf_to_previous=[rec.hf_to_previous for rec in report.iterations],
    )
    if len(probs) <= 64:
        fields["probabilities"] = probs
    return fields


def run_roadmap() -> dict:
    """The acceptance suite's seeded computations, as tests/test_acceptance.py makes them."""
    import numpy as np

    from qemclust import (
        MitigationConfig,
        NoiseSpec,
        OutcomeDistribution,
        SweepCell,
        SyntheticSpec,
        apply_bitflip,
        cross_validate,
        fit_tree_ensemble,
        generate_ideal,
        make_synthetic_corpus,
        mitigate,
        sample_shots,
        sweep,
    )
    from qemclust import io as qio

    from outputs import model_fields

    def trials(cells, base_seed):
        return [_trial_fields(r) for r in sweep(cells, trials=10, base_seed=base_seed)]

    workdir = Path(tempfile.mkdtemp(prefix="golden-roadmap-", dir=_workroot()))
    try:
        out = {}
        out["c02"] = trials([SweepCell(14, 1, 0.4, stop_threshold=0.95, shots=8192)], 7)
        moderate = [SweepCell(14, d, 0.15, stop_threshold=0.95, shots=8192) for d in (2, 16, 128)]
        out["c03"] = trials(moderate, 7) + trials(moderate, 1042)
        out["c04"] = trials([SweepCell(14, 16, 0.2, supplied_rate=pe, shots=8192) for pe in (0.15, 0.20, 0.25)], 7)

        worked = OutcomeDistribution.from_counts(WORKED_IDEAL)
        c05, c09 = [], []
        for t in range(20):
            rng = np.random.default_rng(101 ^ t)
            noisy = apply_bitflip(sample_shots(worked, 8192, rng), NoiseSpec(0.15, rng))
            c05.append(_report_fields(mitigate(noisy, MitigationConfig(0.15, stop_threshold=0.9)), workdir))
            c09.append(_report_fields(mitigate(noisy, MitigationConfig(0.15, fixed_k=3)), workdir))
        out["c05"], out["c09"] = c05, c09

        c10 = []
        for shots in (8192, 1024, 4096, 16384):
            for r in range(3):
                rng = np.random.default_rng(33 + r)
                ideal = generate_ideal(SyntheticSpec(14, 16, rng))
                noisy = apply_bitflip(sample_shots(ideal, shots, rng), NoiseSpec(0.15, rng))
                c10.append(_report_fields(mitigate(noisy, MitigationConfig(0.15, stop_threshold=0.95)), workdir))
        out["c10"] = c10

        features, labels = make_synthetic_corpus(500, seed=42)
        cv = cross_validate(features, labels, folds=5, seed=42)
        model_path = workdir / "c08-model.json"
        qio.save_model(fit_tree_ensemble(features, labels, seed=42), str(model_path))
        out["c08"] = {
            "cv": {"mse": cv.mse, "r2": cv.r2, "fold_mse": list(cv.fold_mse), "fold_r2": list(cv.fold_r2)},
            "model": model_fields(model_path.read_bytes(), 100),
            "exact": sha256(model_path.read_bytes()),
        }
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------- command line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("action", choices=("check", "record"))
    args = ap.parse_args(argv)
    common.bootstrap()
    import workloads

    jobs = [(n, lambda n=n: run_pool(n)) for n in workloads.NAMES]
    jobs.append(("roadmap", run_roadmap))

    status = 0
    for name, job in jobs:
        got = job()
        if args.action == "record":
            _dump(name, got)
            print(f"recorded golden/{name}.json")
            continue
        want = load(name)
        if want is None:
            print(f"{name}: no golden file")
            status = 1
            continue
        diffs = compare(got, want)
        exact = _exact_count(got, want)
        print(f"{name}: {'OK' if not diffs else 'MISMATCH'} ({exact} byte-identical)")
        for d in diffs[:20]:
            print(f"  {d}")
        status |= bool(diffs)
    return status


def _exact_count(got: dict, want: dict) -> str:
    if "ops" in want:
        same = sum(g["exact"] == w["exact"] for g, w in zip(got["ops"], want["ops"]))
        return f"{same}/{len(want['ops'])} ops"
    same = json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    return "all" if same else "not all"


if __name__ == "__main__":
    sys.exit(main())
