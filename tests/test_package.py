"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import splayer

MODULES = sorted(info.name for info in pkgutil.iter_modules(splayer.__path__))


@pytest.mark.parametrize("module_name", ["splayer"] + [f"splayer.{m}" for m in MODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
