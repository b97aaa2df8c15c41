"""The public names: every module's __all__ resolves, the package exports
the contour types, the one winding function and the one route to L, and
every function the benchmark traces by name exists."""

import ast
import importlib
import importlib.util
import inspect
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
    # f.residue is the residue, and brute_series in the tests the oracle
    for name in ("residue", "lfunction_direct"):
        assert not hasattr(zetalab, name), name
        assert not hasattr(zetalab.series, name), name
    # the character-target route is gone
    for name in ("solve_character_targets", "multiplicative_basis",
                 "MultiplicativeBasis", "fundamental_unit"):
        for module in (zetalab, zetalab.kronecker, zetalab.quadfield):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(zetalab.quadfield, "_pell_minimal")
    # a quadratic shift has one representation: Alpha's (a, b, d)
    for name in ("QuadraticField", "QuadElement"):
        for module in (zetalab, zetalab.quadfield):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(zetalab.Alpha, "encode")
    assert not hasattr(zetalab.PeriodicFunction, "ratio")
    fz = zetalab.quadfield._ShiftFactorizer(zetalab.Alpha.parse("quad:0,1,2"))
    assert not hasattr(fz, "cache")
    params = inspect.signature(zetalab.rouche_check).parameters
    for name in ("samples", "n_cut"):
        assert params[name].default is inspect.Parameter.empty, name


def test_traced_names_resolve():
    # the tracer wraps these by name; it imports no zetalab itself
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), name)), \
            f"{module}.{name}"


def test_euler_maclaurin_core_is_float_only():
    # one arithmetic in the core; high precision is series_tail_mp alone
    from zetalab import quadfield, series
    for fn in (series.hurwitz_zeta, series.series_tail, series.lfunction):
        assert "dps" not in inspect.signature(fn).parameters, fn.__name__
    for name in ("_precision", "_C_EXACT"):
        assert not hasattr(series, name), name
    assert not hasattr(quadfield, "_RootLift")
    tree = ast.parse(inspect.getsource(series))
    allowed = [range(node.lineno, node.end_lineno + 1)
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name in ("series_tail_mp", "value_mp")]
    assert len(allowed) == 2
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "mp":
            assert any(node.lineno in lines for lines in allowed), \
                f"series.py:{node.lineno} uses mp.{node.attr}"


def test_one_direct_sum():
    # _direct_block in series.py forms every sum w(n) (n+a)^(-s); no other
    # module builds its own points x terms table or slab size
    package = Path(zetalab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "outer":
                assert not (isinstance(node.value, ast.Attribute)
                            and node.value.attr == "multiply"), \
                    f"{path.name}:{node.lineno} calls np.multiply.outer"
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                assert not (isinstance(target, ast.Name)
                            and target.id == "_SLAB"), \
                    f"{path.name}:{node.lineno} defines _SLAB"


def test_no_unused_imports():
    # no linter runs here: a module-level import is used or exported
    package = Path(zetalab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        exported = {name for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets
                         if isinstance(t, ast.Name)] == ["__all__"]
                    for name in ast.literal_eval(node.value)}
        for name, line in imported.items():
            assert name in used or name in exported, \
                f"{path.name}:{line} imports {name} and never uses it"


def test_greedy_ledger_takes_only_its_settable_values():
    # the ledger runs one way, on the private-prime census: no mode, seed,
    # density or scale numerator is left to set
    import dataclasses

    from zetalab.twist import BlockSchedule, run_schedule
    assert [f.name for f in dataclasses.fields(BlockSchedule)] == \
        ["n1", "num_blocks", "scale_den", "sigma"]
    assert list(inspect.signature(run_schedule).parameters) == \
        ["f", "alpha", "schedule", "hp_check"]
