import importlib

import pytest

import qemclust

MODULES = ("clustering", "distributions", "engine", "estimator", "noise", "redistribution")


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_of_a_module_is_a_top_level_name(module):
    mod = importlib.import_module(f"qemclust.{module}")
    for name in mod.__all__:
        assert getattr(qemclust, name, None) is getattr(mod, name), name
