"""Every name the benchmark's tracer hooks still exists, and its counters
still read the hooked calls.

``perfbench/tracing.py`` wraps the bindings named in its ``HOOKS`` list;
a renamed binding only shows up there as a missing hook whose metrics
are dropped. This reads the targets with ``ast``, without importing the
benchmark, and resolves each one by the tracer's rule: the module
imports, and the attribute sits in its owner's ``vars`` and is callable.
The last test loads the tracer from its file, runs a small train,
mitigate, estimate and sweep trial under it, and requires every hook to
record a span and no counter to fail.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hook_targets() -> list[str]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets):
            return [entry.elts[0].value for entry in node.value.elts]
    raise AssertionError(f"no HOOKS list in {TRACING}")


TARGETS = _hook_targets()


def test_hooks_are_listed():
    assert TARGETS and all(isinstance(t, str) and ":" in t for t in TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_hook_target_resolves(target):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    assert attr in vars(owner) and callable(vars(owner)[attr])


def _load_tracing():
    """The benchmark's tracing module, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_records_a_span_and_its_counters(tmp_path, capsys):
    # the counters read the hooked calls' arguments and results (such as
    # the run's bit rows, or the removed rows at result[1]); a counter that
    # raises marks its target missing
    from qemclust import NoiseSpec, SweepCell, SyntheticSpec, apply_bitflip, generate_ideal, make_synthetic_corpus
    from qemclust import run_trial, sample_shots
    from qemclust import io as qio
    from qemclust.cli import main

    tracing = _load_tracing()
    rng = np.random.default_rng(5)
    ideal = generate_ideal(SyntheticSpec(8, 3, rng))
    counts, ideal_path = tmp_path / "counts.json", tmp_path / "ideal.json"
    qio.write_counts(apply_bitflip(sample_shots(ideal, 1024, rng), NoiseSpec(0.05, rng)), str(counts))
    qio.write_distribution(ideal, str(ideal_path))
    model, features = str(tmp_path / "model.json"), str(tmp_path / "features.json")
    qio.write_features_file(make_synthetic_corpus(1, seed=5)[0][0], features)  # with entropy
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["train", "--synthesize", "12", "--trees", "2", "--folds", "2", "--out", model]) == 0
        argv = ["mitigate", str(counts), "--model", model, "--features", features, "--hf-against", str(ideal_path)]
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
        assert main(["estimate", "--model", model, "--features", features]) == 0
        assert not run_trial(SweepCell(70, 2, 0.05, fixed_k=2, shots=256), 0, 0).error
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.missing == set()
    assert {span[0] for span in tracer.spans} == {hook[1] for hook in tracing.HOOKS}
