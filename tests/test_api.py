"""The public names: every module's __all__ resolves, and the package
exports the contour types and the one winding function."""

import importlib

import pytest

import zetalab

MODULES = ["annulus", "cli", "kronecker", "quadfield", "series", "twist",
           "zerofinder"]


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
