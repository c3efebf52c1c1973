"""Checkout discovery, package bootstrap and the run record's environment."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Golden outputs are recorded at this seed only; any other seed runs the
# structural checks and reports the golden comparison as skipped.
DEFAULT_SEED = 0


def bootstrap() -> None:
    """Import qemclust from this checkout's ``src`` or exit non-zero.

    The benchmark must never measure an installed copy of the package, so
    a checkout without ``src/qemclust`` is an error, not a fallback.
    """
    src = ROOT / "src"
    if not (src / "qemclust" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'qemclust'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import qemclust

    if Path(qemclust.__file__).resolve().parent != (src / "qemclust").resolve():
        sys.exit(f"perfbench: imported qemclust from {qemclust.__file__}, not {src}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }
