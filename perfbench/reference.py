"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark runs on shared machines whose single-core speed drifts by
up to 2x over minutes, so that raw times from two runs of the same code
differ by more than any useful regression bound. The kernel below mixes
the same kinds of work as a mitigation run (Python dict building and
sorting, a uint8 broadcast Hamming table, argmin, a likelihood lookup and
a float reduction loop) on fixed data, and it is part of the benchmark,
not of the program, so no change to the program changes its cost. The
benchmark times it every ``EVERY_S`` seconds beside the ops and reports
each time scaled to a machine on which the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.0055  # the kernel's time between ops in the fast state of the machine the bounds were set on
EVERY_S = 0.25  # cadence of reference samples during set-up


class Reference:
    def __init__(self, n: int = 3000, width: int = 14, seed: int = 12345):
        rng = np.random.default_rng(seed)
        self._width = width
        self._values = rng.integers(0, 1 << width, size=n).tolist()
        self._weights = rng.integers(1, 20, size=n).astype(float).tolist()
        self.samples: list[tuple[float, float]] = []  # (midpoint, duration)
        self.busy = 0.0  # total time spent in the kernel, to subtract from enclosing timings

    def _kernel(self) -> float:
        width = self._width
        counts: dict[tuple[int, int], float] = {}
        for v, w in zip(self._values, self._weights):
            key = (v, width)
            counts[key] = counts.get(key, 0.0) + w
        keys = sorted(counts, key=lambda k: k[0])
        text = "".join(format(k[0], f"0{width}b") for k in keys).encode()
        bits = (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(len(keys), width)
        w = np.array([counts[k] for k in keys])
        centroids = bits[np.argsort(-w, kind="stable")[:6]]
        hd = (bits[:, None, :] ^ centroids[None, :, :]).sum(axis=2, dtype=np.int64)
        nearest = np.argmin(hd, axis=1)
        h = np.arange(width + 1)
        joint = (0.85 ** (width - h) * 0.15**h)[hd] * w[:, None]
        out = {k: float(m) for k, m in zip(keys, joint.sum(axis=1)) if m > 0}
        total, wsum = sum(out.values()), float(w.sum())
        acc = 0.0
        for k, m in out.items():
            acc += math.sqrt(m / total * counts[k] / wsum)
        return acc + float(nearest.sum())

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.busy += t1 - t0

    def sample_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over [start, end] into nominal seconds.

        Uses the last sample before ``start``, every sample inside, and the
        first sample after ``end``.
        """
        before = [d for t, d in self.samples if t < start][-1:]
        inside = [d for t, d in self.samples if start <= t <= end]
        after = [d for t, d in self.samples if t > end][:1]
        near = before + inside + after
        return NOMINAL_S * len(near) / math.fsum(near)
