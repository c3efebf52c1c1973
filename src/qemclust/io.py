"""File formats: counts, distributions, calibration, features, corpora,
tree-ensemble models and sweep CSVs.

Everything structured is JSON with a ``format`` tag and integer
``version`` so files are self-describing; floats are written with
``repr`` semantics and round-trip bit-exactly. Writers emit sorted keys,
making identical inputs produce byte-identical files (timestamps are
opt-in metadata).
"""

from __future__ import annotations

import csv
import json
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._packed import PackedDistribution, value_order
from .distributions import OutcomeDistribution
from .engine import ExperimentRecord, SweepCell, cell_means
from .estimator import (
    FEATURE_NAMES,
    RATE_MAX,
    RATE_MIN,
    CalibrationSnapshot,
    CircuitFeatures,
    TreeEnsemble,
    _Tree,
    compute_esp,
)

__all__ = [
    "DataFormatError",
    "read_counts",
    "write_counts",
    "read_distribution",
    "write_distribution",
    "read_any_distribution",
    "read_calibration",
    "write_calibration",
    "read_features_file",
    "build_features",
    "write_features_file",
    "read_corpus",
    "write_corpus",
    "save_model",
    "load_model",
    "SWEEP_CSV_COLUMNS",
    "write_sweep_csv",
]

COUNTS_FORMAT = "qemclust-counts"
DISTRIBUTION_FORMAT = "qemclust-distribution"
CALIBRATION_FORMAT = "qemclust-calibration"
FEATURES_FORMAT = "qemclust-features"
MODEL_FORMAT = "qemclust-extratrees"
FORMAT_VERSION = 1


class DataFormatError(ValueError):
    """A file failed validation; the message names the file and offender."""


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataFormatError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    return doc


def _load_json(path: str, expected_format: str, doc: dict | None = None) -> dict:
    """The JSON object in ``path`` (or ``doc``, already read from it),
    checked to carry ``expected_format`` at the supported version."""
    if doc is None:
        doc = _read_json(path)
    if doc.get("format") != expected_format:
        raise DataFormatError(
            f"{path}: expected format {expected_format!r}, got {doc.get('format')!r}"
        )
    if doc.get("version") != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {doc.get('version')!r}")
    return doc


def _is_int(v) -> bool:
    """A JSON integer; ``true`` and ``false`` are not 1 and 0."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _float(v) -> float:
    """``float(v)`` of a number; inf for an integer too large for a float."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _dump_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_weights(
    path: str, doc: dict | None, expected_format: str, field: str, name: str, rule: str, types: set
):
    """Load a file (or its parsed ``doc``) whose ``field`` maps width-bit
    keys to weights.

    Returns the JSON document and the distribution, in file-key order.
    Every weight must be of one of ``types`` (JSON values, so ``bool`` is
    not ``int``), finite and >= 0 (``name`` and ``rule`` word the error),
    and their sums in file and in value order positive and finite. All
    keys are checked at once on their joined text, all values in one pass;
    only a failure looks at single entries, to name the first bad one.
    """
    doc = _load_json(path, expected_format, doc)
    width = doc.get("width")
    weights = doc.get(field)
    if not _is_int(width) or width < 1:
        raise DataFormatError(f"{path}: 'width' must be a positive integer")
    if not isinstance(weights, dict) or not weights:
        raise DataFormatError(f"{path}: {field!r} must be a nonempty object")
    keys, values = list(weights), list(weights.values())
    text = "".join(keys)
    ok = set(map(len, keys)) == {width} and text.isascii() and set(map(type, values)) <= types
    if ok:
        bits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        try:
            w = np.array(values, dtype=np.float64)
            ok = (bits <= 1).all() and ((w >= 0) & (w < math.inf)).all()
        except OverflowError:  # an integer too large for a float
            ok = False
    if not ok:
        for key, val in weights.items():
            if len(key) != width or set(key) - {"0", "1"}:
                raise DataFormatError(f"{path}: key {key!r} is not a width-{width} bit-string")
            if type(val) not in types or not 0 <= _float(val) < math.inf:
                raise DataFormatError(f"{path}: {name} for key {key!r} must be {rule}")
    dist = OutcomeDistribution._from_rows(bits.reshape(-1, width), w)
    try:
        dist._mass()
        PackedDistribution(dist)
    except ValueError:
        raise DataFormatError(f"{path}: the {name} values must sum to a positive finite number") from None
    return doc, dist


def _dump_weights(path: str, doc: dict, field: str, dist: OutcomeDistribution, as_int: bool) -> None:
    """Write ``doc`` with ``field`` mapping each bit-string of ``dist`` to
    its weight in value order, byte for byte as ``_dump_json`` writes the
    same document. Counts are written as ints (``as_int``), probabilities
    as float reprs, as the json encoder writes them."""
    text = json.dumps({**doc, field: {}}, indent=2, sort_keys=True)
    if len(dist):
        rows, weights = dist._arrays()
        order = value_order(rows)
        text_keys = (rows[order] + ord("0")).tobytes().decode("ascii")
        width = dist.width
        keys = [text_keys[i : i + width] for i in range(0, len(text_keys), width)]
        values = weights[order].tolist()
        if as_int:
            values = map(round, values)
        block = ",\n    ".join([f'"{k}": {v!r}' for k, v in zip(keys, values)])
        # top-level keys sit at indent 2; nested ones are deeper and string
        # values hold no raw newline, so this placeholder is unique
        head, tail = text.split(f'\n  "{field}": {{}}')
        text = f'{head}\n  "{field}": {{\n    {block}\n  }}{tail}'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_counts(path: str, *, doc: dict | None = None) -> tuple[OutcomeDistribution, dict]:
    """Load a counts file (``doc``: its JSON, if already parsed); returns
    the distribution and its metadata."""
    doc, dist = _read_weights(path, doc, COUNTS_FORMAT, "counts", "count", "an integer >= 0", {int})
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataFormatError(f"{path}: 'metadata' must be an object")
    return dist, metadata


def write_counts(dist: OutcomeDistribution, path: str, metadata: Mapping | None = None) -> None:
    if not dist.is_integral():
        raise ValueError("counts files hold integer counts; normalize first?")
    doc = {"format": COUNTS_FORMAT, "version": FORMAT_VERSION, "width": dist.width}
    if metadata:
        doc["metadata"] = dict(metadata)
    _dump_weights(path, doc, "counts", dist, as_int=True)


def read_distribution(path: str, *, doc: dict | None = None) -> OutcomeDistribution:
    """Load a distribution file (``doc``: its JSON, if already parsed)."""
    return _read_weights(
        path,
        doc,
        DISTRIBUTION_FORMAT,
        "probabilities",
        "probability",
        "a finite number >= 0",
        {int, float},
    )[1]


def write_distribution(dist: OutcomeDistribution, path: str) -> None:
    doc = {"format": DISTRIBUTION_FORMAT, "version": FORMAT_VERSION, "width": dist.width}
    _dump_weights(path, doc, "probabilities", dist, as_int=False)


def read_any_distribution(path: str) -> OutcomeDistribution:
    """Accept either a counts file or a probability-distribution file."""
    doc = _read_json(path)
    fmt = doc.get("format")
    if fmt == COUNTS_FORMAT:
        return read_counts(path, doc=doc)[0]
    if fmt == DISTRIBUTION_FORMAT:
        return read_distribution(path, doc=doc)
    raise DataFormatError(f"{path}: not a counts or distribution file (format={fmt!r})")


def read_calibration(path: str) -> CalibrationSnapshot:
    doc = _load_json(path, CALIBRATION_FORMAT)
    gate_errors = doc.get("gate_errors")
    readout = doc.get("readout_errors")
    if not isinstance(gate_errors, dict):
        raise DataFormatError(f"{path}: 'gate_errors' must be an object")
    if not isinstance(readout, list):
        raise DataFormatError(f"{path}: 'readout_errors' must be a list")
    if not all(_is_number(v) for v in [*gate_errors.values(), *readout]):
        raise DataFormatError(f"{path}: error rates must be numbers")
    try:
        return CalibrationSnapshot(
            gate_errors={k: _float(v) for k, v in gate_errors.items()},
            readout_errors=tuple(_float(v) for v in readout),
        )
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def write_calibration(calibration: CalibrationSnapshot, path: str) -> None:
    _dump_json(
        path,
        {
            "format": CALIBRATION_FORMAT,
            "version": FORMAT_VERSION,
            "gate_errors": dict(calibration.gate_errors),
            "readout_errors": list(calibration.readout_errors),
        },
    )


_COUNT_FIELDS = FEATURE_NAMES[:6]  # the integer circuit counts


def read_features_file(path: str) -> dict:
    """Raw feature record; 'esp' and 'entropy' may be absent (derivable)."""
    doc = _load_json(path, FEATURES_FORMAT)
    out: dict = {}
    for field in _COUNT_FIELDS:
        v = doc.get(field)
        if not _is_int(v) or not 0 <= _float(v) < math.inf:
            raise DataFormatError(f"{path}: {field!r} must be an integer >= 0 that fits a float")
        out[field] = v
    for field in ("entropy", "esp"):
        if field in doc:
            v = doc[field]
            if not _is_number(v) or not 0.0 <= v <= 1.0:
                raise DataFormatError(f"{path}: {field!r} must lie in [0, 1]")
            out[field] = float(v)
    if "measured_qubits" in doc:
        mq = doc["measured_qubits"]
        if not isinstance(mq, list) or not all(_is_int(q) and q >= 0 for q in mq):
            raise DataFormatError(f"{path}: 'measured_qubits' must be a list of qubit indices")
        out["measured_qubits"] = mq
    return out


def write_features_file(features: CircuitFeatures, path: str) -> None:
    doc = {"format": FEATURES_FORMAT, "version": FORMAT_VERSION}
    for name in FEATURE_NAMES:
        doc[name] = getattr(features, name)
    _dump_json(path, doc)


def build_features(
    raw: Mapping,
    calibration: CalibrationSnapshot | None = None,
    entropy: float | None = None,
) -> CircuitFeatures:
    """Assemble the full vector, deriving ESP from calibration when absent.

    The measured qubits default to the first ``num_measurements``; a listed
    set must name that many distinct qubits below ``num_qubits``.
    """
    n, mq = raw["num_measurements"], raw.get("measured_qubits")
    if mq is not None and not (len(mq) == len(set(mq)) == n and all(0 <= q < raw["num_qubits"] for q in mq)):
        raise ValueError(f"measured_qubits {mq} must be {n} distinct qubits below num_qubits {raw['num_qubits']}")
    esp = raw.get("esp")
    if esp is None:
        if calibration is None:
            raise DataFormatError(
                "feature record has no 'esp' and no calibration file was given"
            )
        gate_counts = {
            "2q": raw["num_2q_gates"],
            "sx": raw["num_sx_gates"],
            "x": raw["num_x_gates"],
            "rz": raw["num_rz_gates"],
        }
        esp = compute_esp(gate_counts, range(n) if mq is None else mq, calibration)
    ent = raw.get("entropy", entropy)
    if ent is None:
        raise DataFormatError(
            "feature record has no 'entropy' and none could be derived from counts"
        )
    return CircuitFeatures(**{f: raw[f] for f in _COUNT_FIELDS}, entropy=ent, esp=esp)


CORPUS_COLUMNS = FEATURE_NAMES + ("effective_error_rate",)


def write_corpus(features: Sequence[CircuitFeatures], labels: Sequence[float], path: str) -> None:
    if len(features) != len(labels):
        raise ValueError(f"{len(features)} feature rows but {len(labels)} labels")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CORPUS_COLUMNS)
        for f, y in zip(features, labels):
            row = [int(getattr(f, n)) for n in _COUNT_FIELDS]
            row += [repr(float(f.entropy)), repr(float(f.esp)), repr(float(y))]
            writer.writerow(row)


def read_corpus(path: str) -> tuple[list[CircuitFeatures], np.ndarray]:
    features: list[CircuitFeatures] = []
    labels: list[float] = []
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise DataFormatError(f"{path}: file not found") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CORPUS_COLUMNS):
            raise DataFormatError(f"{path}: expected header {','.join(CORPUS_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CORPUS_COLUMNS):
                raise DataFormatError(f"{path}: line {lineno}: expected {len(CORPUS_COLUMNS)} fields")
            try:
                features.append(CircuitFeatures(*map(int, row[:6]), *map(float, row[6:8])))
                label = float(row[8])
                if not RATE_MIN <= label <= RATE_MAX:
                    raise ValueError(
                        f"effective_error_rate must lie in [{RATE_MIN}, {RATE_MAX}], got {row[8]}"
                    )
                labels.append(label)
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
    if not features:
        raise DataFormatError(f"{path}: corpus holds no samples")
    return features, np.array(labels, dtype=np.float64)


def save_model(model: TreeEnsemble, path: str) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "feature_names": list(model.feature_names),
        "hyperparameters": {
            "n_trees": model.n_trees,
            "min_samples_leaf": model.min_samples_leaf,
            "max_features": model.max_features,
            "seed": model.seed,
        },
        "feature_importances": list(model.importances),
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "value": t.value.tolist(),
            }
            for t in model.trees
        ],
    }
    _dump_json(path, doc)


def load_model(path: str) -> TreeEnsemble:
    doc = _load_json(path, MODEL_FORMAT)
    try:
        hp = doc["hyperparameters"]
        trees = tuple(
            _Tree(
                feature=np.array(t["feature"], dtype=np.int64),
                threshold=np.array(t["threshold"], dtype=np.float64),
                left=np.array(t["left"], dtype=np.int64),
                right=np.array(t["right"], dtype=np.int64),
                value=np.array(t["value"], dtype=np.float64),
            )
            for t in doc["trees"]
        )
        return TreeEnsemble(
            trees=trees,
            feature_names=tuple(doc["feature_names"]),
            n_trees=int(hp["n_trees"]),
            min_samples_leaf=int(hp["min_samples_leaf"]),
            max_features=int(hp["max_features"]),
            seed=int(hp["seed"]),
            importances=tuple(float(v) for v in doc["feature_importances"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: malformed model file ({exc})") from None


SWEEP_CSV_COLUMNS = (
    "row_type",
    "width",
    "num_dominant",
    "flip_rate",
    "supplied_rate",
    "stop_threshold",
    "shots",
    "fixed_k",
    "trial",
    "seed",
    "hf_noisy",
    "hf_mitigated",
    "improvement",
    "k_used",
    "terminated_by",
    "wall_time_s",
    "error",
)


def _cell_key(cell: SweepCell) -> tuple:
    return (
        cell.width,
        cell.num_dominant,
        cell.flip_rate,
        cell.mitigation_rate,
        cell.stop_threshold,
        cell.shots,
        cell.fixed_k if cell.fixed_k is not None else -1,
    )


def _cell_fields(cell: SweepCell) -> list:
    return [
        cell.width,
        cell.num_dominant,
        repr(cell.flip_rate),
        repr(cell.mitigation_rate),
        repr(cell.stop_threshold),
        cell.shots,
        "" if cell.fixed_k is None else cell.fixed_k,
    ]


def write_sweep_csv(records: Iterable[ExperimentRecord], path: str, include_timing: bool = True) -> None:
    """One row per (cell, trial) plus one ``cell_mean`` row per cell.

    Rows are sorted on the grid keys, so output bytes do not depend on
    execution order; pass ``include_timing=False`` for byte-reproducible
    files.
    """
    records = sorted(records, key=lambda r: (_cell_key(r.cell), r.trial))
    means = cell_means(records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                ["trial"]
                + _cell_fields(rec.cell)
                + [
                    rec.trial,
                    rec.seed,
                    repr(rec.hf_noisy),
                    repr(rec.hf_mitigated),
                    repr(rec.improvement),
                    rec.k_used,
                    rec.terminated_by,
                    repr(rec.wall_time_s) if include_timing else "",
                    rec.error,
                ]
            )
        for cell in sorted(means, key=_cell_key):
            stats = means[cell]
            if "improvement" not in stats:
                continue
            writer.writerow(
                ["cell_mean"]
                + _cell_fields(cell)
                + [
                    "mean",
                    "",
                    repr(stats["hf_noisy"]),
                    repr(stats["hf_mitigated"]),
                    repr(stats["improvement"]),
                    repr(stats["k_used"]),
                    "",
                    "",
                    "",
                ]
            )
