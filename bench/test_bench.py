"""Tests of the benchmark's own checks and inputs.

    python3 -m pytest bench/test_bench.py -q

Every check must reject a wrong answer, the yardstick and the reference
code must not touch zetalab, and a seed must fix a workload's inputs.
"""

from __future__ import annotations

import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import spec        # noqa: E402
import workloads   # noqa: E402

REF = json.loads((HERE / "reference.json").read_text())


def _render(x: float) -> str:
    return format(x, ".17g")


def test_value_check_rejects_ten_tol():
    p = REF["eval"]["points"][0]
    tol = REF["eval"]["tol"]
    re, im = (float(v) for v in p["value"])
    good = json.dumps({"re": re, "im": im})
    off = json.dumps({"re": re + 10 * tol, "im": im})
    assert checks.check_value(good, p["value"], tol) == []
    assert checks.check_value(off, p["value"], tol)


def test_grid_check_rejects_ten_tol():
    g = REF["eval"]["grids"][0]
    tol = REF["eval"]["tol"]
    rows = ["sigma,t,re,im"] + [
        ",".join(_render(x) for x in (s, t, float(v[0]), float(v[1])))
        for (s, t), v in zip(g["points"], g["values"])]
    assert checks.check_grid("\n".join(rows), g["points"], g["values"],
                             tol) == []
    s, t, re, im = rows[2].split(",")
    rows[2] = ",".join([s, t, re, _render(float(im) - 10 * tol)])
    assert checks.check_grid("\n".join(rows), g["points"], g["values"], tol)


def test_count_check_rejects_off_by_one():
    p = REF["contour"]["pool"][0]
    assert checks.check_count(json.dumps({"count": p["count"]}),
                              p["count"]) == []
    assert checks.check_count(json.dumps({"count": p["count"] + 1}),
                              p["count"])


def test_kron_check_rejects_t_past_delta():
    freqs = [math.log(n + 0.7) / (2 * math.pi) for n in range(5)]
    t_star, delta = 5000.25, 0.05
    targets = [(t_star * w) % 1.0 for w in freqs]
    ok = json.dumps({"t": t_star, "x": [], "max_error": 0.0})
    assert checks.check_kron(ok, freqs, targets, delta, 1000.0) == []
    nudged = t_star + 1.01 * delta / max(freqs)
    bad = json.dumps({"t": nudged, "x": [], "max_error": 0.0})
    assert checks.check_kron(bad, freqs, targets, delta, 1000.0)
    assert checks.check_kron(ok, freqs, targets, delta, t_star)


def _ledger_doc(shift: str, hp: bool) -> dict:
    led = REF["ledger"]
    blocks = []
    for j, (top, tail) in enumerate(zip(led["tops"], led["tails"][shift]), 1):
        s4 = float(tail)
        blocks.append({"j": j, "n_end": top, "s4": s4,
                       "damping_rhs": s4 / 100, "damping_lhs": 1e-3,
                       "realize_err": 1e-15,
                       "damping_lhs_hp": 1e-3 if hp else None,
                       "damping_rhs_hp": s4 / 100 if hp else None,
                       "damping_ok_hp": True if hp else None})
    return {"sigma": float(led["sigma"]), "ok": True, "halted_at": None,
            "blocks": blocks}


@pytest.mark.parametrize("hp", [False, True])
def test_ledger_check_rejects_tail_off_by_1e9(hp):
    shift = spec.LEDGER_SHIFTS[0]
    doc = _ledger_doc(shift, hp)
    assert checks.check_ledger(json.dumps(doc), shift, REF["ledger"], hp) == []
    doc["blocks"][7]["s4"] += 1e-9
    assert checks.check_ledger(json.dumps(doc), shift, REF["ledger"], hp)


def test_ledger_check_rejects_undamped_block_and_hp_disagreement():
    shift = spec.LEDGER_SHIFTS[1]
    doc = _ledger_doc(shift, True)
    doc["blocks"][3]["damping_lhs"] = doc["blocks"][3]["damping_rhs"]
    assert checks.check_ledger(json.dumps(doc), shift, REF["ledger"], True)
    doc = _ledger_doc(shift, True)
    doc["blocks"][5]["damping_lhs_hp"] = 1e-3 + 1e-6
    assert checks.check_ledger(json.dumps(doc), shift, REF["ledger"], True)


def _imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("name", ["yardstick.py", "checks.py", "refdata.py",
                                  "spec.py"])
def test_independent_modules_import_no_zetalab(name):
    assert "zetalab" not in _imports(HERE / name)


def test_yardstick_loads_no_zetalab():
    code = ("import sys; sys.path.insert(0, %r); import yardstick; "
            "yardstick.compute(); "
            "sys.exit(any(m.startswith('zetalab') for m in sys.modules))"
            % str(HERE))
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


@pytest.mark.parametrize("name", sorted(workloads.ROUNDS))
def test_seed_fixes_inputs_and_faults_do_not_depend_on_it(name):
    one = workloads.build(name, 1, REF)
    assert [j.argv for j in one] == [j.argv for j in workloads.build(name, 1, REF)]
    two = workloads.build(name, 2, REF)
    assert [j.argv for j in one] != [j.argv for j in two]
    faults = lambda jobs: sorted(j.argv for j in jobs if j.known_fault)
    assert faults(one) == faults(two)
    assert len(one) == len(two)
