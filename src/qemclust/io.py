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
from itertools import chain
from operator import countOf, itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._packed import _pack_words, _unpack_words
from .distributions import OutcomeDistribution, _left_to_right_sum
from .engine import ExperimentRecord, SweepCell, cell_means
from .estimator import (
    COUNT_FEATURES,
    FEATURE_NAMES,
    GATE_FEATURES,
    CalibrationSnapshot,
    CircuitFeatures,
    TreeEnsemble,
    _Tree,
    compute_esp,
)
from .noise import RATE_MAX, RATE_MIN, RATE_RANGE, is_rate

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


def _load_json(path: str, *formats: str) -> dict:
    """The JSON object in ``path``, checked to carry one of ``formats`` at
    the supported version."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataFormatError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    if doc.get("format") not in formats:
        expected = " or ".join(map(repr, formats))
        raise DataFormatError(f"{path}: expected format {expected}, got {doc.get('format')!r}")
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


# per weight-map format: the field mapping width-bit keys to weights, a
# weight's name and rule (for errors), its JSON types (so ``bool`` is not
# ``int``), and whether it is written as an integer
_WEIGHT_MAPS = {
    COUNTS_FORMAT: ("counts", "count", "an integer >= 0", {int}, True),
    DISTRIBUTION_FORMAT: ("probabilities", "probability", "a finite number >= 0", {int, float}, False),
}


def _read_weights(path: str, *formats: str) -> tuple[dict, OutcomeDistribution]:
    """Load a file of one of the weight-map ``formats``, parsed once.

    Returns the JSON document and the distribution, in file-key order.
    Every weight must be of its format's JSON types, finite and >= 0, and
    their sums in file and in value order positive and finite; an optional
    ``metadata`` must be an object. All keys are checked at once on their
    joined text, all values in one pass; only a failure looks at single
    entries, to name the first bad one.
    """
    doc = _load_json(path, *formats)
    field, name, rule, types, _ = _WEIGHT_MAPS[doc["format"]]
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
    dist = OutcomeDistribution._from_words(width, _pack_words(bits.reshape(-1, width)), w)
    try:
        _check_mass(name, dist.total, dist._sorted().total)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if not isinstance(doc.get("metadata", {}), dict):
        raise DataFormatError(f"{path}: 'metadata' must be an object")
    return doc, dist


def _check_mass(name: str, *totals: float) -> None:
    """Raise ValueError unless each of ``totals``, sums of the weights
    named ``name`` in the message, is a positive finite number. A
    weight-map file's reader applies it to its distribution's two totals
    (left to right in file order, numpy's sum in value order), and its
    writer keeps it."""
    if not all(0 < total < math.inf for total in totals):
        raise ValueError(f"the {name} values must sum to a positive finite number")


def _dump_weights(path: str, doc: dict, dist: OutcomeDistribution) -> None:
    """Write ``doc`` with its format's weight-map field mapping each
    bit-string of ``dist`` to its weight in value order, byte for byte as
    ``_dump_json`` writes the same document. Counts are written as ints,
    probabilities as float reprs, as the json encoder writes them. Raises
    ValueError, before the file is opened, when the reader would refuse the
    written weights' sums (see ``_check_mass``).

    Every entry is a row of one byte template, ``,\\n    "<bits>": %s``,
    filled by one ``%``; each distinct weight (by its bits, so -0.0 is not
    0.0) is formatted once."""
    field, name, *_, as_int = _WEIGHT_MAPS[doc["format"]]
    view = dist._sorted()
    weights = np.rint(view.weights) if as_int else view.weights
    # the file's rows are in value order, so the reader sums these weights both ways
    with np.errstate(over="ignore"):
        _check_mass(name, _left_to_right_sum(weights), float(weights.sum()))
    n, width = len(view.words), dist.width
    template = np.empty((n, width + 12), dtype=np.uint8)
    template[:, :7] = np.frombuffer(b',\n    "', dtype=np.uint8)
    template[:, 7:-5] = _unpack_words(view.words, width) + ord("0")  # only 0s and 1s: no other '%'
    template[:, -5:] = np.frombuffer(b'": %s', dtype=np.uint8)
    distinct, inverse = np.unique(weights.view(np.uint64), return_inverse=True)
    values = distinct.view(np.float64).tolist()
    # str(int(v)) of the rint is repr(round(v)): both round half to even
    texts = list(map(str, map(int, values)) if as_int else map(repr, values))
    # one row gets itemgetter's one text, not a tuple: ``%`` takes it as its one argument
    block = (template.tobytes().decode("ascii") % itemgetter(*inverse.tolist())(texts))[6:]
    # top-level keys sit at indent 2; nested ones are deeper and string
    # values hold no raw newline, so this placeholder is unique
    head, tail = json.dumps({**doc, field: {}}, indent=2, sort_keys=True).split(f'\n  "{field}": {{}}')
    text = f'{head}\n  "{field}": {{\n    {block}\n  }}{tail}'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_counts(path: str) -> tuple[OutcomeDistribution, dict]:
    """Load a counts file; returns the distribution and its metadata."""
    doc, dist = _read_weights(path, COUNTS_FORMAT)
    return dist, doc.get("metadata", {})


def write_counts(dist: OutcomeDistribution, path: str, metadata: Mapping | None = None) -> None:
    if not dist.is_integral():
        raise ValueError("counts files hold integer counts; normalize first?")
    doc = {"format": COUNTS_FORMAT, "version": FORMAT_VERSION, "width": dist.width}
    if metadata:
        doc["metadata"] = dict(metadata)
    _dump_weights(path, doc, dist)


def read_distribution(path: str) -> OutcomeDistribution:
    return _read_weights(path, DISTRIBUTION_FORMAT)[1]


def write_distribution(dist: OutcomeDistribution, path: str) -> None:
    doc = {"format": DISTRIBUTION_FORMAT, "version": FORMAT_VERSION, "width": dist.width}
    _dump_weights(path, doc, dist)


def read_any_distribution(path: str) -> OutcomeDistribution:
    """Accept either a counts file or a probability-distribution file."""
    return _read_weights(path, *_WEIGHT_MAPS)[1]


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


def read_features_file(path: str) -> dict:
    """Raw feature record; 'esp' and 'entropy' may be absent (derivable)."""
    doc = _load_json(path, FEATURES_FORMAT)
    out: dict = {}
    for field in COUNT_FEATURES:
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
        gate_counts = {kind: raw[name] for kind, name in GATE_FEATURES.items()}
        esp = compute_esp(gate_counts, range(n) if mq is None else mq, calibration)
    ent = raw.get("entropy", entropy)
    if ent is None:
        raise DataFormatError(
            "feature record has no 'entropy' and none could be derived from counts"
        )
    return CircuitFeatures(**{f: raw[f] for f in COUNT_FEATURES}, entropy=ent, esp=esp)


CORPUS_COLUMNS = FEATURE_NAMES + ("effective_error_rate",)


def write_corpus(features: Sequence[CircuitFeatures], labels: Sequence[float], path: str) -> None:
    if len(features) != len(labels):
        raise ValueError(f"{len(features)} feature rows but {len(labels)} labels")
    for i, y in enumerate(labels):  # the rule ``read_corpus`` applies
        if not is_rate(float(y)):
            raise ValueError(f"label {i}: {CORPUS_COLUMNS[-1]} must lie in {RATE_RANGE}, got {float(y)!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CORPUS_COLUMNS)
        for f, y in zip(features, labels):
            row = [int(getattr(f, n)) for n in COUNT_FEATURES]
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
        # the integer counts, then the float features, then the label
        n_counts = len(COUNT_FEATURES)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CORPUS_COLUMNS):
                raise DataFormatError(f"{path}: line {lineno}: expected {len(CORPUS_COLUMNS)} fields")
            try:
                features.append(CircuitFeatures(*map(int, row[:n_counts]), *map(float, row[n_counts:-1])))
                label = float(row[-1])
                if not is_rate(label):
                    raise ValueError(f"{CORPUS_COLUMNS[-1]} must lie in {RATE_RANGE}, got {row[-1]}")
                labels.append(label)
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
    if not features:
        raise DataFormatError(f"{path}: corpus holds no samples")
    return features, np.array(labels, dtype=np.float64)


# the fields of ``_Tree``, in its order, with their dtypes
_TREE_FIELDS = {
    "feature": np.int64, "threshold": np.float64, "left": np.int64, "right": np.int64, "value": np.float64,
}
# the ``TreeEnsemble`` settings a model file keeps under "hyperparameters"
_HYPERPARAMETERS = ("n_trees", "min_samples_leaf", "max_features", "seed")


def save_model(model: TreeEnsemble, path: str) -> None:
    """Write ``model`` byte for byte as ``_dump_json`` writes its document,
    one tree at a time: the envelope is json's indented text with an empty
    ``"trees"`` (top-level keys sit at indent 2 and string values hold no
    raw newline, so that placeholder is unique), and each node array, in
    sorted key order, is one call of json's C encoder, split one number to
    a line as the indented encoder writes it."""
    doc = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "feature_names": list(model.feature_names),
        "hyperparameters": {key: getattr(model, key) for key in _HYPERPARAMETERS},
        "feature_importances": list(model.importances),
        "trees": [],
    }
    head, tail = json.dumps(doc, indent=2, sort_keys=True).split('\n  "trees": []')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '\n  "trees": [')
        for i, tree in enumerate(model.trees):
            arrays = ",".join(
                f'\n      "{name}": [\n        '
                + json.dumps(getattr(tree, name).tolist())[1:-1].replace(", ", ",\n        ")
                + "\n      ]"
                for name in sorted(_TREE_FIELDS)
            )
            fh.write(f"{',' if i else ''}\n    {{{arrays}\n    }}")
        fh.write(("\n  ]" if model.trees else "]") + tail + "\n")


# the JSON types each dtype reads (the usual one last), and their name
_JSON_TYPES = {np.int64: ((int,), "an integer"), np.float64: ((int, float), "a number")}


def _read_trees(docs: list, n_features: int) -> tuple[_Tree, ...]:
    """Flat trees from their JSON objects, each field read for all trees at
    once. Raises ValueError on what would make ``predict`` loop, index out
    of range or return a non-rate: a tree with no nodes or with fields of
    unequal length, a ``feature``, ``left`` or ``right`` that is not a JSON
    integer, a ``threshold`` or ``value`` that is not a JSON number, a
    feature outside [-1, n_features), a split whose child is not a later
    node of its tree, a non-finite threshold or a value outside
    [RATE_MIN, RATE_MAX]."""
    if not docs:
        raise ValueError("the model has no trees")
    columns = [[t[name] for t in docs] for name in _TREE_FIELDS]
    lengths = np.array([[len(c) if type(c) is list else -1 for c in column] for column in columns])
    short = (lengths != lengths[0]).any(axis=0) | (lengths[0] <= 0)
    if short.any():
        raise ValueError(f"tree {int(short.argmax())}: node arrays must be nonempty lists of equal length")
    sizes = lengths[0]
    ends = np.cumsum(sizes)
    size = np.repeat(sizes, sizes)
    node = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)

    def fault(bad: np.ndarray, message: str) -> ValueError:
        j = int(bad.argmax())
        return ValueError(f"tree {int(np.searchsorted(ends, j, side='right'))} node {int(node[j])}: {message}")

    arrays = []
    for (name, dtype), column in zip(_TREE_FIELDS.items(), columns):
        # the casts would read 0.5 and 3.0 as integers, true as 1 and "1" as 1 or 1.0
        types, rule = _JSON_TYPES[dtype]
        if countOf(map(type, chain.from_iterable(column)), types[-1]) != ends[-1]:
            bad = np.array([type(v) not in types for v in chain.from_iterable(column)])
            if bad.any():
                raise fault(bad, f"{name} must be {rule}")
        arrays.append(np.fromiter(chain.from_iterable(column), dtype=dtype, count=ends[-1]))
    feature, threshold, left, right, value = arrays
    faults = {
        f"feature must lie in [-1, {n_features})": (feature < -1) | (feature >= n_features),
        "a split's children must be later nodes of its tree": (feature >= 0)
        & ~((node < left) & (left < size) & (node < right) & (right < size)),
        "threshold must be finite": ~np.isfinite(threshold),
        f"value must lie in {RATE_RANGE}": ~((value >= RATE_MIN) & (value <= RATE_MAX)),
    }
    for message, bad in faults.items():
        if bad.any():
            raise fault(bad, message)
    bounds = zip([0, *ends[:-1].tolist()], ends.tolist())
    return tuple(_Tree(*(a[start:end] for a in arrays)) for start, end in bounds)


def load_model(path: str) -> TreeEnsemble:
    doc = _load_json(path, MODEL_FORMAT)
    try:
        hp = doc["hyperparameters"]
        names, importances = doc["feature_names"], doc["feature_importances"]
        if type(names) is not list or not all(type(n) is str for n in names):
            raise ValueError("feature_names must be a list of strings")
        if type(importances) is not list or len(importances) != len(names) or not all(map(_is_number, importances)):
            raise ValueError("feature_importances must be a list of numbers, one per feature name")
        if not all(-math.inf < _float(v) < math.inf for v in importances):
            raise ValueError("feature_importances must be finite")
        params = {key: hp[key] for key in _HYPERPARAMETERS}
        for key, v in params.items():
            if not _is_int(v):
                raise ValueError(f"hyperparameter {key} must be an integer")
        trees = _read_trees(doc["trees"], len(names))
        rules = {
            "n_trees": (params["n_trees"] == len(trees), f"equal the number of trees, {len(trees)}"),
            "min_samples_leaf": (params["min_samples_leaf"] >= 1, "be >= 1"),
            "max_features": (1 <= params["max_features"] <= len(names), f"lie in [1, {len(names)}]"),
            "seed": (params["seed"] >= 0, "be >= 0"),
        }
        for key, (ok, rule) in rules.items():
            if not ok:
                raise ValueError(f"hyperparameter {key} must {rule}, got {params[key]}")
        del params["n_trees"]  # the model counts its trees
        return TreeEnsemble(
            trees=trees,
            feature_names=tuple(names),
            importances=tuple(map(float, importances)),
            **params,
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


def _cell_fields(cell: SweepCell) -> dict:
    """The grid columns of a sweep row. csv writes a float as its repr, and
    None (no fixed k) or a column a row leaves out as an empty field."""
    return {
        "width": cell.width, "num_dominant": cell.num_dominant, "flip_rate": cell.flip_rate,
        "supplied_rate": cell.mitigation_rate, "stop_threshold": cell.stop_threshold, "shots": cell.shots,
        "fixed_k": cell.fixed_k,
    }


def _cell_key(cell: SweepCell) -> tuple:
    return tuple(-1 if v is None else v for v in _cell_fields(cell).values())


def write_sweep_csv(records: Iterable[ExperimentRecord], path: str, include_timing: bool = True) -> None:
    """One row per (cell, trial) plus one ``cell_mean`` row per cell with
    at least one trial that succeeded, written by column name.

    Rows are sorted on the grid keys, so output bytes do not depend on
    execution order; pass ``include_timing=False`` for byte-reproducible
    files. A failed trial's scores and time read ``nan``, its ``k_used``
    -1, its ``terminated_by`` ``error``, and ``error`` holds the message;
    a mean covers only the trials that succeeded.
    """
    records = sorted(records, key=lambda r: (_cell_key(r.cell), r.trial))
    means = cell_means(records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, SWEEP_CSV_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow({
                "row_type": "trial", **_cell_fields(rec.cell), "trial": rec.trial, "seed": rec.seed,
                "hf_noisy": rec.hf_noisy, "hf_mitigated": rec.hf_mitigated, "improvement": rec.improvement,
                "k_used": rec.k_used, "terminated_by": rec.terminated_by,
                "wall_time_s": rec.wall_time_s if include_timing else "", "error": rec.error,
            })
        for cell in sorted(means, key=_cell_key):
            stats = means[cell]
            if "improvement" in stats:  # else every trial of the cell failed
                scores = {key: stats[key] for key in ("hf_noisy", "hf_mitigated", "improvement", "k_used")}
                writer.writerow({"row_type": "cell_mean", **_cell_fields(cell), "trial": "mean", **scores})
