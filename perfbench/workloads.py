"""The benchmark's workloads: input generation, the timed op, output checks.

Every workload drives the package through its public entry points only:
``qemclust.cli.main`` in-process, ``qemclust.engine.run_trial``, and the
``io``, ``noise`` and ``estimator`` functions for set-up. An op's inputs
are one of ``pool`` distinct instances derived from the workload seed;
op ``i`` runs instance ``i % pool``, so every instance runs several times
in a run and every repeat must reproduce the first run's output bytes.
Instance ``pool`` is the warm-up op's instance: the same at every seed
(for ``estimate``, the first features file against the seed's model), so
that set-up time does not depend on which instances a seed drew.

Each workload's ``summarize`` turns an op's output into
``(fields, exact, quality)``: ``fields`` is what the golden comparison
checks, ``exact`` a digest of the output bytes (byte-identical agreement
with the golden run is reported separately, not required), and
``quality`` the per-op scores behind the quality metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
from pathlib import Path

import numpy as np

from qemclust import (
    NoiseSpec,
    SweepCell,
    SyntheticSpec,
    apply_bitflip,
    cli,
    engine,
    fit_tree_ensemble,
    generate_ideal,
    make_synthetic_corpus,
    sample_shots,
)
from qemclust import io as qio

from outputs import CheckError, distribution_fields, hellinger, model_fields, report_fields, sha256

# improvement_ratio's regularization constant, as the sweep uses it
EPSILON = 0.01
WARMUP_SEED = 0


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``qemclust ARGV`` in-process; return (exit code, stdout, stderr)."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument with SystemExit(2)
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue(), err.getvalue()


def _require_exit(code: int, stderr: str, allowed=(0,)) -> None:
    if code not in allowed:
        raise CheckError(f"exit code {code}: {stderr.strip()[:200]}")


class Workload:
    name = ""
    pool = 1
    layer = "cli"  # layer of the op's root span
    root = "cli.main"

    def __init__(self, workdir: Path):
        self.dir = workdir

    def params(self) -> dict:
        """Everything that defines the instances; the golden file must match it."""
        raise NotImplementedError

    def setup(self, seed: int, tick) -> None:
        """Generate the inputs for ``seed`` with the package; this is timed.

        ``tick()`` is called between steps, where the caller may sample
        the machine's speed.
        """
        raise NotImplementedError

    def inputs(self) -> dict:
        """Exact digests of the generated inputs, and what the checks need
        from them; the benchmark's own work, so it runs after the timed set-up."""
        raise NotImplementedError

    def run(self, i: int):
        """The timed op on instance ``i``."""
        raise NotImplementedError

    def summarize(self, i: int, raw) -> tuple[dict, str, dict]:
        raise NotImplementedError


class Mitigate(Workload):
    """``qemclust mitigate FILE --p 0.15 [--delta D] --out O --report R``."""

    width, dominant, rate, shots = 14, 16, 0.15, 8192

    def __init__(self, workdir, name, pool, extra):
        super().__init__(workdir)
        self.name, self.pool, self.extra = name, pool, extra

    def params(self):
        return {
            "width": self.width,
            "dominant": self.dominant,
            "rate": self.rate,
            "shots": self.shots,
            "args": self.extra,
            "pool": self.pool,
        }

    def _counts(self, i):
        return str(self.dir / f"counts-{i}.json")

    def setup(self, seed, tick):
        self.generated = []
        for i in range(self.pool + 1):
            tick()
            rng = np.random.default_rng([seed, i] if i < self.pool else [WARMUP_SEED, 0])
            ideal = generate_ideal(SyntheticSpec(self.width, self.dominant, rng))
            noisy = apply_bitflip(sample_shots(ideal, self.shots, rng), NoiseSpec(self.rate, rng))
            qio.write_counts(noisy, self._counts(i))
            self.generated.append((ideal, noisy))
        self.out, self.rep = str(self.dir / "out.json"), str(self.dir / "report.json")

    def inputs(self):
        self.ideal, self.hf_noisy = [], []
        digest = hashlib.sha256()
        for i, (ideal, noisy) in enumerate(self.generated):
            ideal_map = {b.text: w for b, w in ideal.items()}
            self.ideal.append(ideal_map)
            self.hf_noisy.append(hellinger({b.text: w for b, w in noisy.items()}, ideal_map))
            digest.update(Path(self._counts(i)).read_bytes())
        return {"inputs_sha": digest.hexdigest()}

    def run(self, i):
        argv = ["mitigate", self._counts(i), "--p", str(self.rate), *self.extra]
        return call_cli(argv + ["--out", self.out, "--report", self.rep])

    def summarize(self, i, raw):
        code, _stdout, stderr = raw
        _require_exit(code, stderr, allowed=(0, 3))
        out_bytes, rep_bytes = Path(self.out).read_bytes(), Path(self.rep).read_bytes()
        fields = report_fields(json.loads(rep_bytes), code, self.width, "--fixed-k" in self.extra)
        dist, probs = distribution_fields(out_bytes, self.width)
        fields.update(dist)
        hf = hellinger(probs, self.ideal[i])
        fields["hf_mitigated"] = hf
        quality = {
            "hf_mitigated": hf,
            "improvement": (hf + EPSILON) / (self.hf_noisy[i] + EPSILON),
            "k_used": fields["k_used"],
            "degenerate": code == 3,
        }
        return fields, sha256(out_bytes, rep_bytes), quality


class Wide(Workload):
    """``run_trial`` for one 100-qubit fixed-k sweep cell, as ``sweep(workers=1)`` runs it."""

    name, pool, layer, root = "wide", 48, "engine", "engine.run_trial"
    cell = SweepCell(width=100, num_dominant=2, flip_rate=0.05, fixed_k=2, shots=8192)

    def params(self):
        c = self.cell
        return {
            "width": c.width,
            "dominant": c.num_dominant,
            "rate": c.flip_rate,
            "fixed_k": c.fixed_k,
            "shots": c.shots,
            "pool": self.pool,
        }

    def setup(self, seed, tick):
        # shifted so that seeds s and s ^ t never share trial seeds
        self.base = seed << 20

    def inputs(self):
        return {"base_seed": self.base}

    def _trial(self, i):
        return (i, self.base) if i < self.pool else (0, WARMUP_SEED << 20)

    def run(self, i):
        return engine.run_trial(self.cell, *self._trial(i))

    def summarize(self, i, rec):
        if rec.error:
            raise CheckError(f"error row: {rec.error}")
        trial, base = self._trial(i)
        if rec.seed != base ^ trial or rec.k_used != self.cell.fixed_k or rec.terminated_by != "fixed":
            raise CheckError(f"trial record seed/k/termination {rec.seed}/{rec.k_used}/{rec.terminated_by}")
        for v in (rec.hf_noisy, rec.hf_mitigated):
            if not 0.0 <= v <= 1.0:
                raise CheckError(f"trial fidelity {v!r} outside [0, 1]")
        fields = {
            "seed": rec.seed,
            "hf_noisy": rec.hf_noisy,
            "hf_mitigated": rec.hf_mitigated,
            "improvement": rec.improvement,
            "k_used": rec.k_used,
            "terminated_by": rec.terminated_by,
        }
        exact = sha256(repr(sorted(fields.items())).encode())
        quality = {"hf_mitigated": rec.hf_mitigated, "improvement": rec.improvement, "k_used": rec.k_used}
        return fields, exact, quality


class Train(Workload):
    """``qemclust --seed S train --synthesize N --trees T --out M --metrics J`` (5 folds)."""

    name, pool = "train", 12
    samples, trees, folds = 60, 10, 5

    def params(self):
        return {"samples": self.samples, "trees": self.trees, "folds": self.folds, "pool": self.pool}

    def setup(self, seed, tick):
        self.base = seed << 20
        self.model, self.metrics = str(self.dir / "model.json"), str(self.dir / "metrics.json")

    def inputs(self):
        return {"base_seed": self.base}

    def run(self, i):
        seed = self.base | i if i < self.pool else WARMUP_SEED << 20
        argv = ["--seed", str(seed), "train", "--synthesize", str(self.samples)]
        argv += ["--trees", str(self.trees), "--folds", str(self.folds)]
        return call_cli(argv + ["--out", self.model, "--metrics", self.metrics])

    def summarize(self, i, raw):
        code, _stdout, stderr = raw
        _require_exit(code, stderr)
        model_bytes, metrics_bytes = Path(self.model).read_bytes(), Path(self.metrics).read_bytes()
        fields = model_fields(model_bytes, self.trees)
        metrics = json.loads(metrics_bytes)
        if metrics.get("samples") != self.samples or len(metrics.get("fold_mse", ())) != self.folds:
            raise CheckError("metrics file sample or fold count is wrong")
        if not (math.isfinite(metrics.get("cv_mse", math.nan)) and metrics["cv_mse"] >= 0):
            raise CheckError(f"cv_mse {metrics.get('cv_mse')!r} is not finite and >= 0")
        for key in ("cv_mse", "cv_r2", "fold_mse", "fold_r2", "feature_importances"):
            fields[key] = metrics[key]
        return fields, sha256(model_bytes, metrics_bytes), {"cv_mse": metrics["cv_mse"]}


class Estimate(Workload):
    """``qemclust estimate --model M --features F`` on held-out feature files."""

    name, pool = "estimate", 128
    samples, trees = 100, 100

    def params(self):
        return {"samples": self.samples, "trees": self.trees, "pool": self.pool}

    def _features(self, i):
        return str(self.dir / f"features-{i}.json")

    def setup(self, seed, tick):
        base = seed << 20
        features, labels = make_synthetic_corpus(self.samples, seed=base)
        tick()
        self.model = str(self.dir / "model.json")
        qio.save_model(fit_tree_ensemble(features, labels, n_trees=self.trees, seed=base), self.model)
        tick()
        held_out, self.labels = make_synthetic_corpus(self.pool, seed=base | 1)
        for i, f in enumerate(held_out):
            tick()
            qio.write_features_file(f, self._features(i))

    def inputs(self):
        digest = hashlib.sha256()
        for i in range(self.pool):
            digest.update(Path(self._features(i)).read_bytes())
        model_bytes = Path(self.model).read_bytes()
        return {"features_sha": digest.hexdigest(), "model": model_fields(model_bytes, self.trees)}

    def run(self, i):
        return call_cli(["estimate", "--model", self.model, "--features", self._features(i % self.pool)])

    def summarize(self, i, raw):
        code, stdout, stderr = raw
        _require_exit(code, stderr)
        try:
            rate = float(stdout.strip())
        except ValueError:
            raise CheckError(f"estimate printed {stdout.strip()[:80]!r}, not a rate") from None
        if not 0.0 <= rate <= 0.5:
            raise CheckError(f"estimated rate {rate!r} outside [0, 0.5]")
        quality = {"abs_err": abs(rate - float(self.labels[i % self.pool]))}
        return {"rate": rate}, sha256(stdout.encode()), quality


def make(name: str, workdir: Path) -> Workload:
    if name == "headline":
        return Mitigate(workdir, "headline", 64, [])
    if name == "high-k":
        return Mitigate(workdir, "high-k", 64, ["--delta", "0.99"])
    if name == "wide":
        return Wide(workdir)
    if name == "train":
        return Train(workdir)
    if name == "estimate":
        return Estimate(workdir)
    raise KeyError(name)


NAMES = ("headline", "high-k", "wide", "train", "estimate")
