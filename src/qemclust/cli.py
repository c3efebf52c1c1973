"""Command-line surface.

Subcommands: simulate, mitigate, sweep, train, estimate. Exit codes:
0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from datetime import datetime, timezone

import numpy as np

from . import io
from .distributions import hellinger_fidelity, improvement_ratio, normalized_entropy, rows_to_texts
from .engine import MitigationConfig, SweepCell, mitigate, sweep
from .estimator import cross_validate, fit_tree_ensemble, make_synthetic_corpus
from .noise import RATE_MAX, RATE_RANGE, is_rate
from .noise import NoiseSpec, SyntheticSpec, apply_bitflip, generate_ideal, sample_shots

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _ranged(parse, ok, expected: str):
    """argparse ``type`` that also range-checks, so a bad value is a usage
    error naming its flag, raised before any work starts."""

    def convert(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {expected}, got {text}")
        return value

    convert.__name__ = parse.__name__  # "invalid float value" on a parse error
    return convert


_SEED = _ranged(int, lambda v: v >= 0, "be a non-negative integer")
_RATE = _ranged(float, is_rate, f"lie in {RATE_RANGE}")
_SCALE = _ranged(float, lambda v: 0.0 <= v < float("inf"), "be a finite number >= 0")
_THRESHOLD = _ranged(float, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
_COUNT = _ranged(int, lambda v: v >= 1, "be at least 1")
_FOLDS = _ranged(int, lambda v: v >= 2, "be at least 2")


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process: parsing keeps no state."""
    parser = _Parser(prog="qemclust", description=__doc__)
    parser.add_argument("--seed", type=_SEED, default=0, help="global RNG seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate an ideal/noisy counts pair")
    sim.add_argument("--n", type=_COUNT, required=True, help="qubit count")
    sim.add_argument("--d", type=_COUNT, required=True, help="number of dominant bit-strings")
    sim.add_argument("--p", type=_RATE, required=True, help="bit-flip rate in [0, 0.5]")
    sim.add_argument("--shots", type=_COUNT, default=8192)
    sim.add_argument("--out-ideal", required=True, help="ideal (pre-noise) counts file")
    sim.add_argument("--out-noisy", required=True, help="noisy counts file")
    sim.add_argument("--out-probs", help="optional exact ideal distribution file")
    sim.add_argument("--no-timestamp", action="store_true", help="omit metadata timestamp")

    mit = sub.add_parser("mitigate", help="mitigate a noisy counts file")
    mit.add_argument("counts", help="noisy counts file")
    mit.add_argument("--p", type=_RATE, help="bit-flip rate; alternative to --model")
    mit.add_argument("--model", help="tree-ensemble model file for rate estimation")
    mit.add_argument("--features", help="circuit features file (with --model)")
    mit.add_argument("--calibration", help="calibration file, used when features lack ESP")
    mit.add_argument("--p-scale", type=_SCALE, default=1.0, help="multiply the rate (e.g. 1.5)")
    mit.add_argument("--delta", type=_THRESHOLD, default=0.95, help="stopping threshold (default 0.95)")
    mit.add_argument("--fixed-k", type=_COUNT, help="disable the iterative mode, use this k")
    mit.add_argument("--out", help="mitigated distribution file")
    mit.add_argument("--report", help="mitigation report JSON file")
    mit.add_argument("--hf-against", help="ideal counts/distribution file for fidelity scoring")

    swp = sub.add_parser("sweep", help="run a synthetic sensitivity sweep grid")
    swp.add_argument("--n", type=_COUNT, nargs="+", required=True)
    swp.add_argument("--d", type=_COUNT, nargs="+", required=True)
    swp.add_argument("--p", type=_RATE, nargs="+", required=True)
    swp.add_argument("--pe", type=_RATE, nargs="+", help="supplied rates (default: true rates)")
    swp.add_argument("--delta", type=_THRESHOLD, nargs="+", default=[0.95])
    swp.add_argument("--shots", type=_COUNT, default=8192)
    swp.add_argument("--trials", type=_COUNT, default=10)
    swp.add_argument("--fixed-k", type=_COUNT, nargs="+", help="run these fixed cluster counts")
    swp.add_argument("--workers", type=_COUNT, default=1)
    swp.add_argument("--out", required=True, help="output CSV path")
    swp.add_argument("--no-timing", action="store_true", help="blank the wall-time column")

    trn = sub.add_parser("train", help="fit the error-rate estimator on a corpus")
    trn.add_argument("--corpus", help="training corpus CSV (default: synthesize one)")
    trn.add_argument("--synthesize", type=_COUNT, metavar="N", help="generate an N-sample corpus")
    trn.add_argument("--save-corpus", help="where to write a synthesized corpus")
    trn.add_argument("--out", required=True, help="model file")
    trn.add_argument("--metrics", help="cross-validation metrics JSON file")
    trn.add_argument("--folds", type=_FOLDS, default=5)
    trn.add_argument("--trees", type=_COUNT, default=100)
    trn.add_argument("--min-samples-leaf", type=_COUNT, default=1)

    est = sub.add_parser("estimate", help="print the effective error rate for a circuit")
    est.add_argument("--model", required=True)
    est.add_argument("--features", required=True)
    est.add_argument("--calibration")
    return parser


def _check_dominant(widths, dominants) -> None:
    """Every ``--d`` must fit the 2^``--n`` strings of every ``--n``; compared
    on bit lengths, so no 2^n is built."""
    for n in widths:
        for d in dominants:
            if (d - 1).bit_length() > n:
                raise _UsageError(f"--d {d} exceeds the 2^{n} bit-strings of --n {n}")


def _metadata(args) -> dict:
    meta = {"shots": args.shots, "seed": args.seed}
    if not args.no_timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _cmd_simulate(args) -> int:
    _check_dominant([args.n], [args.d])
    rng = np.random.default_rng(args.seed)
    ideal = generate_ideal(SyntheticSpec(args.n, args.d, rng))
    counts = sample_shots(ideal, args.shots, rng)
    noisy = apply_bitflip(counts, NoiseSpec(args.p, rng))
    io.write_counts(counts, args.out_ideal, _metadata(args))
    io.write_counts(noisy, args.out_noisy, _metadata(args))
    if args.out_probs:
        io.write_distribution(ideal, args.out_probs)
    return EXIT_OK


def _read_features(args, entropy: float | None = None):
    """The feature vector from ``--features``, its ESP from ``--calibration``
    when the record has none; an inconsistent pair names both files."""
    raw = io.read_features_file(args.features)
    calibration = io.read_calibration(args.calibration) if args.calibration else None
    try:
        return io.build_features(raw, calibration, entropy=entropy)
    except ValueError as exc:
        source = args.features if calibration is None else f"{args.features} with {args.calibration}"
        raise io.DataFormatError(f"{source}: {exc}") from None


def _predict_rate(args, entropy: float | None = None) -> float:
    """The ``--model`` estimate for ``--features``; a model that cannot
    read the feature vector is a data error naming the model file."""
    model = io.load_model(args.model)
    features = _read_features(args, entropy)
    try:
        return model.predict(features)
    except ValueError as exc:
        raise io.DataFormatError(f"{args.model}: {exc}") from None


def _resolve_rate(args, noisy) -> float:
    """The rate times ``--p-scale``, clamped to the rate range; a clamp is
    reported on stderr."""
    rate = args.p if args.p is not None else _predict_rate(args, normalized_entropy(noisy))
    requested = rate * args.p_scale
    if requested > RATE_MAX:
        print(f"warning: requested rate {requested!r} is clamped to {RATE_MAX!r}", file=sys.stderr)
    return min(requested, RATE_MAX)


def _cmd_mitigate(args) -> int:
    if (args.p is None) == (args.model is None):
        raise _UsageError("exactly one of --p or --model must be given")
    if args.model is not None and not args.features:
        raise _UsageError("--model requires --features")
    for flag in ("features", "calibration"):
        if args.model is None and getattr(args, flag) is not None:
            raise _UsageError(f"--{flag} requires --model")
    noisy, _meta = io.read_counts(args.counts)
    ideal = io.read_any_distribution(args.hf_against) if args.hf_against else None
    if ideal is not None and ideal.width != noisy.width:
        raise io.DataFormatError(
            f"{args.hf_against}: width {ideal.width} does not match width {noisy.width} of {args.counts}"
        )
    rate = _resolve_rate(args, noisy)
    cfg = MitigationConfig(flip_rate=rate, stop_threshold=args.delta, fixed_k=args.fixed_k)
    report = mitigate(noisy, cfg)
    if args.out:
        io.write_distribution(report.final, args.out)
    # the always-false degenerate flags stay until the report format drops them
    doc = {
        "degenerate_fallback": False,
        "flip_rate": rate,
        "k_used": report.k_used,
        "terminated_by": report.terminated_by,
        "iterations": [
            {
                "k": rec.k,
                "hf_to_previous": rec.hf_to_previous,
                "degenerate": False,
                "centroids": rows_to_texts(rec._centroid_bits),
                "converged": rec.converged,
                "rounds": rec.rounds,
                "duplicates": rec.duplicates,
            }
            for rec in report.iterations
        ],
    }
    if ideal is not None:
        doc["hf_noisy"] = hellinger_fidelity(noisy, ideal)
        doc["hf_mitigated"] = hellinger_fidelity(report.final, ideal)
        doc["improvement"] = improvement_ratio(doc["hf_mitigated"], doc["hf_noisy"])
    if args.report:
        io._dump_json(args.report, doc)
    else:
        print(
            f"k_used={report.k_used} terminated_by={report.terminated_by}"
            + (f" improvement={doc['improvement']:.4f}" if "improvement" in doc else "")
        )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _check_dominant(args.n, args.d)
    fixed = args.fixed_k if args.fixed_k else [None]
    pes = args.pe if args.pe else [None]
    cells = [
        SweepCell(
            width=n,
            num_dominant=d,
            flip_rate=p,
            supplied_rate=pe,
            stop_threshold=delta,
            shots=args.shots,
            fixed_k=fk,
        )
        for n in args.n
        for d in args.d
        for p in args.p
        for pe in pes
        for delta in args.delta
        for fk in fixed
    ]
    records = sweep(cells, trials=args.trials, base_seed=args.seed, workers=args.workers)
    io.write_sweep_csv(records, args.out, include_timing=not args.no_timing)
    failures = sum(1 for r in records if r.error)
    print(f"wrote {len(records)} trial rows ({failures} failures) to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    if args.corpus and args.synthesize:
        raise _UsageError("give either --corpus or --synthesize, not both")
    if args.corpus and args.save_corpus:
        raise _UsageError("--save-corpus writes a synthesized corpus; it cannot be given with --corpus")
    n = args.synthesize or 500
    if not args.corpus and args.folds > n:
        raise _UsageError(f"--folds {args.folds} exceeds the {n} samples of --synthesize")
    if args.corpus:
        features, labels = io.read_corpus(args.corpus)
        if args.folds > len(features):
            raise io.DataFormatError(f"{args.corpus}: {len(features)} samples cannot fill --folds {args.folds}")
    else:
        features, labels = make_synthetic_corpus(n, seed=args.seed)
        if args.save_corpus:
            io.write_corpus(features, labels, args.save_corpus)
    cv = cross_validate(
        features,
        labels,
        folds=args.folds,
        seed=args.seed,
        n_trees=args.trees,
        min_samples_leaf=args.min_samples_leaf,
    )
    model = fit_tree_ensemble(
        features,
        labels,
        n_trees=args.trees,
        min_samples_leaf=args.min_samples_leaf,
        seed=args.seed,
    )
    io.save_model(model, args.out)
    doc = {
        "samples": len(features),
        "folds": args.folds,
        "cv_mse": cv.mse,
        "cv_r2": cv.r2,
        "fold_mse": list(cv.fold_mse),
        "fold_r2": list(cv.fold_r2),
        "feature_importances": model.feature_importance(),
    }
    if args.metrics:
        io._dump_json(args.metrics, doc)
    print(f"cv_mse={cv.mse:.6f} cv_r2={cv.r2:.4f} model={args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    print(format(_predict_rate(args), ".10g"))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "mitigate": _cmd_mitigate,
    "sweep": _cmd_sweep,
    "train": _cmd_train,
    "estimate": _cmd_estimate,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # io.DataFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
