"""Every name the benchmark's tracer hooks still exists.

``perfbench/tracing.py`` wraps the bindings named in its ``HOOKS`` list;
a renamed binding only shows up there as a missing hook whose metrics
are dropped. This reads the targets with ``ast``, without importing the
benchmark, and resolves each one by the tracer's rule: the module
imports, and the attribute sits in its owner's ``vars`` and is callable.
"""

import ast
import importlib
from pathlib import Path

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
