"""Parse the program's output files into checked, comparable summaries.

Everything here reads the files and objects the program produced and is
independent of the package's own readers, so a broken reader cannot hide
a broken writer. A summary holds the exact fields (ints, strings, key
digests) and the float fields that the golden comparison checks to
``REL_TOL``; full probability vectors and tree arrays are too large to
store for every op, so they are pinned by exact digests of their keys or
structure plus a sum, a maximum and seeded random projections.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib

RATE_RANGE = (0.0, 0.5)
PROJECTIONS = 3  # independent random projections per float vector


class CheckError(Exception):
    """An op's output failed a structural check."""


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _key_weight(key: str, j: int) -> float:
    """Deterministic pseudo-random weight in [0.5, 1) for key ``key``."""
    return 0.5 + zlib.crc32(key.encode(), 0x9E3779B1 * (j + 1) & 0xFFFFFFFF) / 2.0**33


def _index_weight(i: int, j: int) -> float:
    return 0.5 + ((i + 1) * 2654435761 * (2 * j + 1) & 0xFFFFFFFF) / 2.0**33


def project(values, keys=None) -> list[float]:
    """Seeded random projections; a change of one entry by more than
    twice the tolerance moves every projection by more than the tolerance."""
    out = []
    for j in range(PROJECTIONS):
        if keys is None:
            out.append(math.fsum(v * _index_weight(i, j) for i, v in enumerate(values)))
        else:
            out.append(math.fsum(v * _key_weight(k, j) for k, v in zip(keys, values)))
    return out


def is_bitstring(key, width: int) -> bool:
    return isinstance(key, str) and len(key) == width and not set(key) - {"0", "1"}


def hellinger(p: dict, q: dict) -> float:
    """Squared Bhattacharyya coefficient of two weight maps, as the paper defines HF."""
    pt, qt = math.fsum(p.values()), math.fsum(q.values())
    small, big = (p, q) if len(p) <= len(q) else (q, p)
    st, bt = (pt, qt) if small is p else (qt, pt)
    acc = math.fsum(
        math.sqrt((w / st) * (big[k] / bt)) for k, w in small.items() if w > 0 and big.get(k, 0) > 0
    )
    return min(acc * acc, 1.0)


def distribution_fields(raw: bytes, width: int) -> tuple[dict, dict]:
    """Check a ``qemclust-distribution`` file; return (fields, probabilities)."""
    doc = json.loads(raw)
    if doc.get("format") != "qemclust-distribution" or doc.get("version") != 1:
        raise CheckError("output is not a version-1 qemclust-distribution file")
    if doc.get("width") != width:
        raise CheckError(f"output width {doc.get('width')!r}, expected {width}")
    probs = doc.get("probabilities")
    if not isinstance(probs, dict) or not probs:
        raise CheckError("output has no probabilities")
    keys = sorted(probs)
    values = [probs[k] for k in keys]
    for k, v in zip(keys, values):
        if not is_bitstring(k, width):
            raise CheckError(f"output key {k!r} is not a width-{width} bit-string")
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
            raise CheckError(f"output probability {v!r} for {k} is not finite and >= 0")
    total = math.fsum(values)
    if abs(total - 1.0) > 1e-9:
        raise CheckError(f"output probabilities sum to {total!r}, not 1")
    fields = {
        "support_n": len(keys),
        "support_sha": sha256("\n".join(keys).encode()),
        "prob_sum": total,
        "prob_max": max(values),
        "prob_proj": project(values, keys),
    }
    return fields, probs


def report_fields(rep: dict, code: int, width: int, fixed: bool) -> dict:
    """Check a mitigation report against the exit code and the CLI's stop rule."""
    k_used = rep.get("k_used")
    term = rep.get("terminated_by")
    its = rep.get("iterations")
    if not isinstance(k_used, int) or k_used < 1:
        raise CheckError(f"report k_used {k_used!r} is not a positive integer")
    if term not in (("fixed",) if fixed else ("convergence", "k_max")):
        raise CheckError(f"report terminated_by {term!r} is invalid for this mode")
    if not isinstance(its, list) or not its:
        raise CheckError("report has no iterations")
    if term == "convergence" and len(its) != k_used + 1:
        raise CheckError(f"converged at k={k_used} after {len(its)} iterations")
    if rep.get("degenerate_fallback") is not (code == 3):
        raise CheckError(f"degenerate_fallback {rep.get('degenerate_fallback')!r} but exit {code}")
    final = [it for it in its if it.get("k") == k_used]
    if not final:
        raise CheckError(f"report has no iteration record for k={k_used}")
    centroids = sorted(final[0].get("centroids", []))
    if not all(is_bitstring(c, width) for c in centroids):
        raise CheckError("report centroid is not a bit-string of the input width")
    hfs = [it.get("hf_to_previous") for it in its]
    if not all(isinstance(h, float) and 0.0 <= h <= 1.0 for h in hfs):
        raise CheckError("report hf_to_previous outside [0, 1]")
    return {
        "exit": code,
        "flip_rate": rep.get("flip_rate"),
        "k_used": k_used,
        "terminated_by": term,
        "degenerate": code == 3,
        "centroids": centroids,
        "hf_to_previous": hfs,
    }


def model_fields(raw: bytes, n_trees: int) -> dict:
    """Check a ``qemclust-extratrees`` model file; return its fields."""
    doc = json.loads(raw)
    if doc.get("format") != "qemclust-extratrees" or doc.get("version") != 1:
        raise CheckError("model is not a version-1 qemclust-extratrees file")
    trees = doc.get("trees")
    if not isinstance(trees, list) or len(trees) != n_trees:
        raise CheckError(f"model has {len(trees) if isinstance(trees, list) else 0} trees, expected {n_trees}")
    n_features = len(doc.get("feature_names", []))
    thresholds, values, structure = [], [], []
    for t in trees:
        feat, left, right = t["feature"], t["left"], t["right"]
        n = len(feat)
        if not n or any(len(t[a]) != n for a in ("threshold", "left", "right", "value")):
            raise CheckError("model tree arrays differ in length")
        for i in range(n):
            leaf = feat[i] < 0
            if leaf != (left[i] < 0) or leaf != (right[i] < 0):
                raise CheckError("model node is half leaf, half split")
            if not leaf and not (feat[i] < n_features and i < left[i] < n and i < right[i] < n):
                raise CheckError("model node points outside its tree")
        if not all(RATE_RANGE[0] <= v <= RATE_RANGE[1] for v in t["value"]):
            raise CheckError("model leaf value outside the rate range")
        thresholds += t["threshold"]
        values += t["value"]
        structure.append([feat, left, right])
    fields = {
        "hyperparameters": doc.get("hyperparameters"),
        "feature_importances": doc.get("feature_importances"),
        "nodes": len(values),
        "structure_sha": sha256(json.dumps(structure, separators=(",", ":")).encode()),
        "threshold_sum": math.fsum(thresholds),
        "threshold_proj": project(thresholds),
        "value_sum": math.fsum(values),
        "value_proj": project(values),
    }
    return fields
