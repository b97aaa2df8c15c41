"""The public names: every module's __all__ resolves, the package exports
the contour types, the one winding function and the one route to L, and
every function the benchmark traces by name exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import zetalab

MODULES = ["annulus", "cli", "kronecker", "quadfield", "series", "twist",
           "zerofinder"]

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"zetalab.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert hasattr(module, attr), f"zetalab.{name}.{attr}"


def test_package_exports():
    assert zetalab.Circle is zetalab.zerofinder.Circle
    assert zetalab.argument_count is zetalab.zerofinder.argument_count
    assert not hasattr(zetalab, "argument_count_circle")
    assert not hasattr(zetalab.zerofinder, "argument_count_circle")
    assert zetalab.lfunction is zetalab.series.lfunction
    assert not hasattr(zetalab, "decompose")
    assert not hasattr(zetalab.series, "decompose")
    assert not hasattr(zetalab, "QuadratureSpec")
    assert not hasattr(zetalab, "GreedyState")
    assert not hasattr(zetalab.twist, "GreedyState")


def test_traced_names_resolve():
    # the tracer wraps these by name; it imports no zetalab itself
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), name)), \
            f"{module}.{name}"
