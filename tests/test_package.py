"""The public surface: every exported name resolves."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import splayer

MODULES = sorted(info.name for info in pkgutil.iter_modules(splayer.__path__))


@pytest.mark.parametrize("module_name", ["splayer"] + [f"splayer.{m}" for m in MODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_bench_span_targets_resolve():
    # the bench times the layers by wrapping these names from outside, and a
    # name that is gone silently reads 0; its spans module is loaded by path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
