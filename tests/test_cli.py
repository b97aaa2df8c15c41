"""Command-line front end: dispatch, determinism, round trips, exit codes."""

import argparse
import cmath
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import cli
from zetalab.cli import main, render_json
from zetalab.zerofinder import PipelineBudget, PipelineResult


ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "zetalab", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_eval_half_shift_value():
    code, out, _ = run_cli("eval", "--f", "1", "--alpha", "rat:1,2",
                           "--s", "2,0")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["re"] - 4.934802200544679) < 1e-10
    assert abs(doc["im"]) < 1e-12


def test_eval_against_mpmath():
    code, out, _ = run_cli("eval", "--f", "1,-1", "--alpha", "rat:1,1",
                           "--s", "2.5,3")
    assert code == 0
    doc = json.loads(out)
    # f(0) = f(2) = -1 and f(1) = 1: the series is minus the eta function
    with mp.workdps(30):
        ref = -mp.altzeta(mp.mpc(2.5, 3))
        assert abs(mp.mpc(doc["re"], doc["im"]) - ref) < 1e-10


def test_eval_precision_is_mpmath_at_that_many_digits(capsys):
    # the float route holds this point as a strict xfail at tol = 1e-12
    base = ["eval", "--alpha", "dec:0.3183098861837907", "--s", "1.1,2000"]
    assert main(base + ["--precision", "30"]) == 0
    doc = json.loads(capsys.readouterr().out)
    with mp.workdps(40):
        ref = mp.zeta(mp.mpc(1.1, 2000), mp.mpf("0.3183098861837907"))
        assert abs(mp.mpc(doc["re"], doc["im"]) - ref) <= 1e-15
    # the precision less five digits of the magnitude must reach --tol
    for digits in (10, 16, 17):
        assert main(base + ["--precision", str(digits)]) == 3, digits
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PrecisionUnreachable", digits
    for digits in (20, 40):
        assert main(base + ["--precision", str(digits)]) == 0, digits
        capsys.readouterr()
    high = ["eval", "--alpha", "dec:0.3183098861837907", "--precision", "30"]
    assert main(high + ["--s", "1,0"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "PoleAt1"
    assert main(high + ["--s", "0.4,3"]) == 2
    assert "Re(s) > 1/2" in capsys.readouterr().err


def test_eval_has_one_route():
    code, out, err = run_cli("eval", "--route", "decompose", "--f", "1,-1",
                             "--alpha", "rat:1,1", "--s", "2.5,3")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: zetalab eval")


def test_eval_grid_csv(tmp_path):
    out_file = tmp_path / "grid.csv"
    code, _, _ = run_cli("--format", "csv", "--out", str(out_file),
                         "eval", "--f", "1", "--alpha", "rat:1,1",
                         "--grid", "1.5,2.5,3:0,10,4")
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "sigma,t,re,im"
    assert len(lines) == 1 + 3 * 4
    for row in lines[1:]:
        sigma, t, re, im = (float(x) for x in row.split(","))
        assert 1.5 <= sigma <= 2.5 and 0 <= t <= 10


def test_annulus_radii():
    code, out, _ = run_cli("annulus", "radii", "--r", "1,2,5")
    assert code == 0
    assert json.loads(out) == {"R": 8, "T": 2}


def test_annulus_realize_round_trip():
    code, out, _ = run_cli("annulus", "realize", "--r", "1,2,5",
                           "--z", "0,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["err"] <= 1e-9
    assert len(doc["angles"]) == 3


def test_annulus_realize_answers_in_the_order_given(capsys):
    # the angles were those of the sorted radii 1, 2, 5, which paired with
    # 5, 1, 2 reach a point 6.0 from z
    assert main(["annulus", "realize", "--r", "5,1,2", "--z", "0,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["angles"] == pytest.approx(
        [math.pi / 2, 3 * math.pi / 2, 3 * math.pi / 2])
    reached = sum(r * cmath.exp(1j * a)
                  for r, a in zip((5, 1, 2), doc["angles"]))
    assert abs(reached - 2j) <= 1e-9 and doc["err"] <= 1e-9


def test_kron_solve():
    code, out, _ = run_cli("kron", "solve", "--freqs", "0.1103,0.2,0.31",
                           "--targets", "0.25,0.5,0.75", "--delta", "0.05")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_error"] < 0.05
    assert len(doc["x"]) == 3


def test_kron_solve_rejects_non_finite_input():
    code, out, err = run_cli("kron", "solve", "--freqs", "inf,0.2",
                             "--targets", "0,0.5", "--delta", "0.1",
                             "--max-t", "1e4")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_kron_solve_honours_max_t():
    for argv in (["--freqs", "0.1103,0.2,0.31", "--targets", "0.25,0.5,0.75",
                  "--delta", "0.012", "--max-t", "20"],
                 ["--freqs", "0.001", "--targets", "0.5", "--delta", "0.1",
                  "--max-t", "10"]):
        code, out, err = run_cli("kron", "solve", *argv)
        assert code == 3, argv
        assert out == ""
        assert json.loads(err)["error"] == "BudgetExhausted"


def test_ideals_factor():
    code, out, _ = run_cli("ideals", "factor", "--alpha", "quad:0,1,2",
                           "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["norm"] == "7"
    assert doc["factors"] == [["(7,4)", 1]]


def test_ideals_cassels_jsonl():
    code, out, _ = run_cli("--format", "jsonl", "ideals", "cassels",
                           "--alpha", "quad:0,1,2", "--N", "0", "--M", "5")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[-1]["type"] == "summary"
    assert rows[-1]["density"] == 0.6
    private = [r["n"] for r in rows[:-1] if r["private"]]
    assert private == [3, 4, 5]


def test_far_cassels_stdout_is_pinned(capsys):
    # SHA-256 of the census of (10^6, 10^6 + 10], recorded when a census
    # still factored every shift from 0 up to its block end
    argv = ["ideals", "cassels", "--alpha", "quad:0,1,2", "--N", "1000000",
            "--M", "10"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d5ab54f366d435344d09855a26aa9f4be92f2f76f7210eeb62456914d06f2dab"


def test_twist_sign_flip():
    code, out, _ = run_cli("twist", "sign-flip", "--alpha", "rat:1,1",
                           "--f", "1", "--delta", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["flip_index"] == 1
    assert abs(doc["sigma0"] - 1.47408988958) < 1e-6
    assert doc["residual"] <= 1e-10


def test_twist_greedy_jsonl():
    code, out, _ = run_cli("--format", "jsonl", "twist", "greedy",
                           "--alpha", "quad:0,1,2", "--f", "1",
                           "--n1", "1000", "--blocks", "3", "--no-hp")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[-1]["ok"] is True
    blocks = rows[:-1]
    assert len(blocks) == 3
    assert all(b["damping_ok"] for b in blocks)


@pytest.mark.parametrize("sigma", ["0", "1", "0.9"])
def test_twist_greedy_rejects_sigma_not_above_1(sigma, capsys):
    # 0 used to read as "not given", 1 divided by zero and 0.9 printed a
    # ledger with a negative tail mass
    code = main(["twist", "greedy", "--alpha", "quad:0,1,2", "--blocks", "2",
                 "--n1", "1000", "--no-hp", "--sigma", sigma])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "sigma > 1" in err


@pytest.mark.parametrize("flags, field", [
    (["--alpha", "quad:0,1,2", "--scale-den", "0", "--blocks", "2"],
     "scale_den"),
    (["--alpha", "quad:0,1,2", "--n1", "-5"], "n1"),
])
def test_twist_greedy_rejects_bad_schedule(flags, field, capsys):
    code = main(["twist", "greedy", "--no-hp"] + flags)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"block schedule needs {field} " in err


@pytest.mark.parametrize("delta", ["0.05", "0.03"])
def test_sign_flip_reaches_small_delta(delta, capsys):
    # flip indices 591474 and 6093498008: the series is L - 2 tail, one L
    # per value, and its zero is checked against mpmath's
    # zeta(s, 1) - 2 zeta(s, m + 2)
    assert main(["twist", "sign-flip", "--alpha", "rat:1,1", "--f", "1",
                 "--delta", delta]) == 0
    doc = json.loads(capsys.readouterr().out)
    m = doc["flip_index"]
    lo, hi = doc["bracket"]
    assert lo <= doc["sigma0"] <= hi
    with mp.workdps(40):
        def flipped(x):
            x = mp.mpf(x)
            return mp.zeta(x, 1) - 2 * mp.zeta(x, m + 2)
        assert abs(flipped(doc["sigma0"])) <= 1e-10
        assert flipped(lo) < 0 < flipped(hi)


def test_zeros_count():
    code, out, _ = run_cli("zeros", "count", "--f", "1", "--alpha",
                           "rat:1,1", "--rect", "1.1,2,0,30")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_zeros_count_gives_each_point_its_own_class_tol(capsys):
    # at sigma = 1.001 the class a = 1/8 gets a tol below the floor that
    # a^(-3) = 512 sets at 3+1.35i; the tol 3+1.35i gets alone is above it
    count = ["zeros", "count", "--alpha", "rat:1,4", "--f", "1,-1",
             "--rect", "1.001,3,1,600"]
    assert main(count) == 0
    assert isinstance(json.loads(capsys.readouterr().out)["count"], int)
    assert main(count + ["--tol", "1e-14"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PrecisionUnreachable"
    details = err["details"]
    assert details["tol"] == 1e-14
    assert details["class_tol"] < details["floor"]
    assert details["shift"] in (0.125, 0.625)
    sigma, t = details["s"]
    assert 1.001 <= sigma <= 3 and 1 <= t <= 600


def test_zeros_count_to_height_1e4_reads_the_settled_count(capsys):
    # zeta(s, pi/4) on [1.1,1.6]x[0,1e4]: its sides are runs of 1,024
    # points summed over many slabs of terms; 91 is the count that every
    # larger sampling reads
    code = main(["zeros", "count", "--alpha", "dec:0.7853981634", "--rect",
                 "1.1,1.6,0,1e4", "--samples", "16384"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 91


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_zeros_count_refuses_too_few_samples(samples, capsys):
    code = main(["zeros", "count", "--alpha", "rat:1,1", "--rect",
                 "1.1,2,0,30", "--samples", samples])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "initial_points >= 16" in err


def test_zeros_pipeline_structured_failure():
    code, out, err = run_cli("zeros", "pipeline", "--alpha",
                             "dec:0.7853981634", "--delta", "0.5",
                             "--max-t", "2000", "--max-iter", "200000",
                             "--ncut", "6")
    doc = json.loads(out)
    if doc["success"]:
        assert code == 0
        assert doc["record"]["certificate"]["margin"] > 0
    else:
        assert code == 3
        assert doc["failed_stage"] is not None
        diag = json.loads(err)
        assert diag["failed_stage"] == doc["failed_stage"]


def test_bad_flag_exits_2():
    code, _, err = run_cli("eval", "--nonsense", "1")
    assert code == 2
    assert "usage" in err.lower()


def test_missing_subcommand_exits_2():
    for argv in ((), ("nosuch",), ("kron",)):
        code, _, err = run_cli(*argv)
        assert code == 2, argv
        assert "usage: zetalab" in err, argv


def test_help_lists_commands_and_flags(capsys):
    for argv in (["-h"], ["kron", "-h"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        for words in ("eval", "kron solve", "annulus radii",
                      "annulus realize", "ideals factor", "ideals cassels",
                      "twist sign-flip", "twist greedy", "zeros count",
                      "zeros pipeline"):
            assert f"  {words} " in out, (argv, words)
    for argv, leaf_flags in (
            (["eval", "-h"], ["--alpha", "--s", "--grid", "--tol",
                              "--precision"]),
            (["kron", "solve", "-h"], ["--freqs", "--max-t"])):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        for flag in leaf_flags + ["--out", "--format"]:
            assert flag in out, (argv, flag)
        assert "--config" not in out, argv


def test_flags_a_command_does_not_read_are_refused(capsys):
    sign_flip = ["twist", "sign-flip", "--alpha", "rat:1,1", "--f", "1",
                 "--delta", "1.0"]
    greedy = ["twist", "greedy", "--alpha", "quad:0,1,2", "--n1", "2000",
              "--blocks", "2", "--no-hp"]
    pipeline = ["zeros", "pipeline", "--alpha", "dec:0.7853981634",
                "--delta", "0.5"]
    count = ["zeros", "count", "--f", "1", "--alpha", "rat:1,1", "--rect",
             "1.1,2,0,30"]
    kron = ["kron", "solve", "--freqs", "0.1103,0.2", "--targets",
            "0.25,0.5", "--delta", "0.05"]
    for argv in (sign_flip + ["--tol", "1e-3"],
                 greedy + ["--tol", "1e-3"],
                 pipeline + ["--tol", "1e-3"],
                 sign_flip + ["--precision", "40"],
                 count + ["--precision", "40"],
                 kron + ["--seed", "7"],
                 ["--precision", "40", "eval", "--alpha", "rat:1,2"],
                 ["--seed", "7"] + greedy,
                 greedy + ["--delta", "1.0"],
                 # the flags of the synthetic free sets, since removed
                 greedy + ["--mode", "synthetic"],
                 greedy + ["--density", "0.6"],
                 greedy + ["--seed", "7"],
                 greedy + ["--scale-num", "1"],
                 count + ["--q", "1"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2, argv
        assert "usage: zetalab" in capsys.readouterr().err, argv
    # the commands that read them still take them
    assert main(["eval", "--alpha", "rat:1,2", "--precision", "40"]) == 0
    assert abs(json.loads(capsys.readouterr().out)["re"]
               - 4.934802200544679) < 1e-12


PIPELINE = ["zeros", "pipeline", "--alpha", "dec:0.7853981634", "--delta",
            "0.5"]


def test_budget_rejects_unknown_keys(capsys):
    # --maxT is not --max-t: the search must not silently run with the
    # default max_t
    with pytest.raises(SystemExit) as exc:
        main(PIPELINE + ["--maxT", "5", "--max-iter", "400000", "--ncut", "6"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage: zetalab zeros pipeline" in err
    assert "--maxT" in err


@pytest.mark.parametrize("flags", [["--samples", "0", "--ncut", "0"],
                                   ["--samples", "-5", "--ncut", "0"],
                                   ["--ncut", "-1"]],
                         ids=["samples=0,ncut=0", "samples=-5,ncut=0",
                              "ncut=-1"])
def test_budget_rejects_bad_sample_and_cut_counts(flags, capsys):
    # they ended in a ZeroDivisionError or TypeError traceback, or in a
    # certificate with an infinite margin
    assert main(PIPELINE + flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "samples >= 1 and n_cut_max >= 0" in err


@pytest.fixture
def budgets(monkeypatch):
    """The PipelineBudget each zeros pipeline run is handed; the run
    itself is skipped."""
    seen = []

    def record(f, alpha, delta, budget):
        seen.append(budget)
        return PipelineResult(success=True, record=None, failed_stage=None,
                              failure=None, stages={})

    monkeypatch.setattr(cli, "find_zero_pipeline", record)
    return seen


def test_budget_flags_default_to_pipeline_budget(budgets, capsys):
    # no budget flag given: exactly PipelineBudget(), whose fields are the
    # only home of the defaults
    assert main(PIPELINE) == 0
    assert budgets == [PipelineBudget()]


def test_budget_flags_set_every_field(budgets, capsys):
    assert main(PIPELINE + ["--max-t", "5000", "--max-iter", "4e5",
                            "--tmin", "10", "--ncut", "4",
                            "--samples", "90"]) == 0
    assert budgets == [PipelineBudget(max_t=5000.0, max_iterations=400_000,
                                      t_min=10.0, n_cut_max=4, samples=90)]


def test_pipeline_help_lists_budget_flags(capsys):
    with pytest.raises(SystemExit):
        main(["zeros", "pipeline", "-h"])
    out = capsys.readouterr().out
    for flag in ("--max-t", "--max-iter", "--tmin", "--ncut", "--samples"):
        assert flag in out


def test_kron_refuses_t_min_past_float_resolution(capsys):
    argv = ["kron", "solve", "--freqs", "0.3,0.2", "--targets", "0.1,0.2",
            "--delta", "0.1", "--tmin", "1e20", "--max-t", "1e21"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "float resolution" in err


def test_each_command_has_its_own_handler():
    from zetalab.cli import _COMMANDS, _parse_args
    handlers = [entry[0] for entry in _COMMANDS.values()]
    assert len(set(handlers)) == len(handlers)
    args = _parse_args(["annulus", "radii", "--r", "1,2"])
    assert args.run is _COMMANDS[("annulus", "radii")][0]
    assert not hasattr(args, "action")


def test_every_declared_flag_is_read():
    # a flag that a command accepts and never reads changes nothing: the
    # handler reads each of its flags as args.<dest>, or _parse_f reads it
    # as ns.<dest> for a handler that calls _parse_f
    parse_f = inspect.getsource(cli._parse_f)
    for words, (run, _, flags) in cli._COMMANDS.items():
        source = inspect.getsource(run)
        for flag, _ in flags:
            dest = flag[2:].replace("-", "_")
            read = re.search(rf"\bargs\.{dest}\b", source) or (
                "_parse_f(args)" in source
                and re.search(rf"\bns\.{dest}\b", parse_f))
            assert read, f"zetalab {' '.join(words)} {flag} is never read"


def test_global_flag_value_equal_to_command_word(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["--out", "eval", "eval", "--alpha", "rat:1,2"]) == 0
    assert capsys.readouterr().out == ""
    assert abs(json.loads((tmp_path / "eval").read_text())["re"]
               - 4.934802200544679) < 1e-10


def test_complex_flags_reject_extra_components():
    for argv in (["eval", "--alpha", "rat:1,2", "--s", "2,0,7"],
                 ["annulus", "realize", "--r", "1,2,5", "--z", "0,2,1"]):
        code, out, err = run_cli(*argv)
        assert code == 2, argv
        assert out == ""
        assert json.loads(err)["error"] == "ConfigInvalid"


def test_eval_grid_point_matches_single_point(capsys):
    base = ["eval", "--f", "1,-1", "--alpha", "rat:1,1"]
    assert main(base + ["--s", "2,3"]) == 0
    point = json.loads(capsys.readouterr().out)
    assert main(base + ["--grid", "2,2,1:3,3,1", "--format", "csv"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert [float(x) for x in row] == [2.0, 3.0, point["re"], point["im"]]


def test_determinism_byte_identical():
    args = ("eval", "--f", "1,2,0.5", "--alpha", "quad:0,1,2", "--s", "1.7,9")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_render_json_round_trip():
    doc = {"a": 1.5, "b": [1, 2.25, -0.0], "c": {"d": True, "e": None},
           "f": float("inf")}
    text = render_json(doc)
    back = json.loads(text)
    assert back["a"] == 1.5 and back["c"]["d"] is True
    assert back["f"] == float("inf")


def test_main_callable_directly(capsys):
    code = main(["annulus", "radii", "--r", "3,4"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"R": 7, "T": 1}


def test_readme_command_lines(tmp_path, monkeypatch, capsys):
    readme = ROOT / "README.md"
    lines = [ln.strip() for ln in readme.read_text().splitlines()
             if ln.startswith("zetalab ")]
    assert len(lines) >= 12
    assert any("--freqs=-" in ln for ln in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code = main(shlex.split(line)[1:])
        capsys.readouterr()
        # the pipeline ends in a structured failure at desk-scale budgets
        assert code == 0 or (code == 3 and " pipeline " in line), line
    assert (tmp_path / "grid.csv").read_text().startswith("sigma,t,re,im\n")


def test_readme_names_only_declared_flags():
    # every --flag the README names is one the zetalab command declares;
    # pip's install flag is the one other command line it shows
    declared = {flag for _, _, flags in cli._COMMANDS.values()
                for flag, _ in flags}
    declared |= {flag for flag, _ in cli._GLOBAL_FLAGS}
    named = set(re.findall(r"--[a-z][a-z0-9-]*",
                           (ROOT / "README.md").read_text()))
    assert named - declared == {"--no-build-isolation"}


def _run_in_process(argv):
    """main(argv) in this process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:         # argparse rejects the command line
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_cli_reads_only_its_flags():
    # the command line is the only input: two global flags, a command's
    # parser keyed by its command words alone, and no file opened but --out
    assert [f for f, _ in cli._GLOBAL_FLAGS] == ["--out", "--format"]
    assert list(inspect.signature(cli._leaf_parser).parameters) == ["words"]
    assert re.findall(r"\bopen\((\w+(?:\.\w+)?)",
                      inspect.getsource(cli)) == ["args.out"]


# every line ends in exit 2 through main, with nothing on stdout and a
# message from where the input entered: non-finite or overflowing numbers,
# a --tol not above 0, an eval --precision below 1, a --grid spec that is
# not one, more initial samples than a count may spend, an empty search
# budget, a --format the command cannot write, and --config, which is not
# a flag
SHIFT = "shift must be a finite positive double"
FLAG = "invalid input"
KRON = ["kron", "solve", "--freqs", "0.1103,0.2,0.31", "--targets",
        "0.25,0.5,0.75", "--delta", "0.05"]
PIPELINE = ["zeros", "pipeline", "--alpha", "dec:0.7853981634", "--delta",
            "0.5"]
GRID = "a grid is smin,smax,ns:tmin,tmax,nt"
RECT = "a rectangle is smin,smax,tmin,tmax"
INVALID_LINES = [
    (["eval", "--alpha", "rat:1,2", "--tol", "inf"], FLAG),
    (["eval", "--alpha", "rat:1,2", "--tol", "nan"], FLAG),
    (["eval", "--alpha", "rat:1,2", "--tol", "-1"], FLAG),
    (["eval", "--alpha", "rat:1,2", "--tol", "0"], FLAG),
    (["zeros", "count", "--alpha", "rat:1,1", "--rect", "1.1,2,0,30",
      "--tol", "inf"], FLAG),
    (["annulus", "realize", "--r", "1,2,5", "--z", "0,2", "--tol", "0"], FLAG),
    (["twist", "sign-flip", "--alpha", "rat:1,1", "--f", "1", "--delta",
      "nan"], FLAG),
    (["zeros", "pipeline", "--alpha", "dec:0.7853981634", "--delta", "nan"],
     FLAG),
    (["kron", "solve", "--freqs", "0.1103,0.2", "--targets", "0.25,0.5",
      "--delta", "0.05", "--max-t", "inf"], FLAG),
    (KRON + ["--max-iter", "-5"], "invalid input: the search budget needs "
     "max_iterations >= 1"),
    (KRON + ["--max-iter", "0"], "invalid input: the search budget needs "
     "max_iterations >= 1"),
    (KRON + ["--max-t", "-1"], "invalid input: the search needs max_t > "
     "t_min"),
    (PIPELINE + ["--max-iter", "-3"], "invalid input: the pipeline budget "
     "needs"),
    (PIPELINE + ["--max-t", "0"], "invalid input: the pipeline budget "
     "needs"),
    (["eval", "--alpha", "rat:1,2", "--s", "2,0", "--precision", "-20"],
     FLAG),
    (["eval", "--alpha", "rat:1,2", "--s", "2,0", "--precision", "0"], FLAG),
    (["eval", "--alpha", "rat:1,2", "--grid", "1.2,inf,2:0,1,2"], GRID),
    (["zeros", "count", "--alpha", "rat:1,1", "--rect", "1.1,2,0,30",
      "--samples", "100000000"], "the cap 200000"),
    (["eval", "--alpha", "dec:1e400"], SHIFT),
    (["eval", "--alpha", "dec:inf"], SHIFT),
    (["eval", "--alpha", "dec:nan"], SHIFT),
    (["eval", "--alpha", "quad:1e400,1,2"], SHIFT),
    (["eval", "--alpha", "rat:1,2", "--f", "nan"], "values must be finite"),
    (["eval", "--alpha", "rat:1,2", "--s", "inf,0"], "both finite"),
    (["annulus", "radii", "--r", "1,nan"], "radii must be finite"),
    (["zeros", "count", "--alpha", "rat:1,1", "--rect", "1.1,2,0,inf"],
     "rectangle corners must be finite"),
    (["--format", "csv", "kron", "solve", "--freqs", "0.1103,0.2,0.31",
      "--targets", "0.25,0.5,0.75", "--delta", "0.05"], "cannot write csv"),
    (["--format", "jsonl", "eval", "--alpha", "rat:1,2"],
     "cannot write jsonl"),
    (["--config", "x.json", "eval", "--alpha", "rat:1,2"], "usage: zetalab"),
    (["eval", "--alpha", "rat:1,2", "--config", "x.json"], "usage: zetalab"),
]


@pytest.mark.parametrize("argv, message", INVALID_LINES,
                         ids=[" ".join(argv) for argv, _ in INVALID_LINES])
def test_invalid_command_lines_exit_2(argv, message):
    code, out, err = _run_in_process(argv)
    assert (code, out) == (2, ""), err
    assert message in err


@pytest.mark.parametrize("spec", [
    "1.2,inf,2:0,1,2", "1.2,1.5,2:nan,1,2", "1.2,1.5,0:0,1,2",
    "1.2,1.5,2:0,1,-1", "1.2,1.5,2", "1.2,1.5:0,1,2", "1.2,1.5,2:0,1,2:3",
    "1.2,1.5,2.5:0,1,2", "a,b,c:d,e,f", ""])
def test_eval_grid_spec_is_checked_where_it_enters(spec):
    code, out, err = _run_in_process(["eval", "--alpha", "rat:1,2",
                                      "--grid", spec, "--format", "csv"])
    assert (code, out) == (2, "")
    # one message, which names the spec
    [line] = err.splitlines()
    assert GRID in line and json.dumps(spec) in line


@pytest.mark.parametrize("spec", ["1.1,2,0", "1.1,2,0,30,5", "a,b,c,d", ""])
def test_count_rect_spec_is_checked_where_it_enters(spec):
    code, out, err = _run_in_process(["zeros", "count", "--alpha", "rat:1,1",
                                      "--rect", spec])
    assert (code, out) == (2, "")
    # one message, which names the spec
    [line] = err.splitlines()
    assert RECT in line and json.dumps(spec) in line


def test_refused_calls_leave_the_next_call_unchanged():
    good = ["twist", "greedy", "--alpha", "quad:0,1,2", "--blocks", "2",
            "--no-hp", "--format", "jsonl"]
    expected = _run_in_process(good)
    assert expected[0] == 0
    refused = (["twist", "greedy", "--blocks", "2"],         # --alpha missing
               ["--config", "run.json"] + good,              # unknown flag
               good + ["--format", "neither"],               # bad choice
               ["twist", "greedy", "--bogus"] + good[2:])    # unknown flag
    for argv in refused:
        assert _run_in_process(argv)[0] == 2, argv
        assert _run_in_process(good) == expected, argv


def test_a_repeated_call_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = ["kron", "solve", "--freqs", "1,1.4142135623730951",
            "--targets", "0.5,0.25", "--delta", "0.1"]
    cli._top_parser.cache_clear()
    cli._leaf_parser.cache_clear()
    assert main(argv) == 0
    assert built == ["zetalab", "zetalab kron solve"]
    first = capsys.readouterr()
    assert main(argv) == 0
    assert built == ["zetalab", "zetalab kron solve"]
    assert capsys.readouterr() == first


def test_import_builds_no_parser():
    # parsers are built by the first call that needs one, never at import
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counted(self, *a, **k):\n"
             "    built.append(k.get('prog'))\n"
             "    init(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = counted\n"
             "import zetalab, zetalab.cli\n"
             "print(len(built))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_importing_the_main_module_runs_nothing(monkeypatch, capsys):
    # the module runs main() only as `python -m zetalab`
    monkeypatch.setattr(sys, "argv", ["pytest", "--no-such-flag"])
    monkeypatch.delitem(sys.modules, "zetalab.__main__", raising=False)
    importlib.import_module("zetalab.__main__")
    assert capsys.readouterr() == ("", "")


def test_python_dash_m_help_exits_zero():
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "usage: zetalab" in out


# SHA-256 of the stdout of ten greedy ledgers, the first three recorded
# before the factor sieve worked on arrays, the README line (the fourth)
# before the synthetic free sets were removed, and the other six, which with
# the first three are every benchmark ledger, before censuses were read off
# each block's own factorizations: any drift in a ledger's bytes fails here
LEDGER_GOLDEN = [
    (["--alpha", "quad:0,1,7"],
     "3d030c16ed5f38944046a11a6be8ab8c3e3bfe5be919ff33c9eefae5c50386d2"),
    (["--alpha", "quad:1/3,1,2", "--no-hp"],
     "33ecffe9c35968bff5a3a28d2862dfe2f76873f1da5ad6f6f6c9cd1f6907e2f9"),
    (["--alpha", "quad:1/2,1,3", "--no-hp"],
     "e3dbde08244c502f31f17e5d65d02cdceb51940746c4c2059b22056b92ceab76"),
    (["--alpha", "quad:0,1,2", "--format", "jsonl"],
     "84e33e89ae1844334746c625776c0c163a22ae9e8568c99bd4d151937ca0928d"),
    (["--alpha", "quad:0,1,5", "--no-hp"],
     "60ef0eac02fdc00b78899df6b5e5d4456eea529331abaac73c6ec077a78c366c"),
    (["--alpha", "quad:1/2,1,2", "--no-hp"],
     "59cd7b5db1ef0f9aaea815ea4f711f77eea750171f7a046c6e4ab3cbce35bb4d"),
    (["--alpha", "quad:0,1,7", "--no-hp"],
     "11c2a632162341ce58680f5335072a530633ec0c24c3d5905dd532e14cb5ff8f"),
    (["--alpha", "quad:0,1,2", "--no-hp"],
     "a7e105d7b7e165597845b387cd912dfead045fd2778d3f5681891bb4fc27a07b"),
    (["--alpha", "quad:0,1,3", "--no-hp"],
     "4c91f1a0511c47696a7ef0d4b463528ba56086660598d3863965cb2a6f06c229"),
    (["--alpha", "quad:0,1,6", "--no-hp"],
     "7258e93eec314a26e275d9dd5e5d74ae390d77d1876856aaa937160eb343c6ed"),
]


# a line is named by its shift; a second line on one shift adds its flags
_SHIFTS = [flags[1] for flags, _ in LEDGER_GOLDEN]


@pytest.mark.parametrize("flags, digest", LEDGER_GOLDEN,
                         ids=[flags[1] if _SHIFTS.index(flags[1]) == i
                              else " ".join(flags[1:])
                              for i, (flags, _) in enumerate(LEDGER_GOLDEN)])
def test_ledger_stdout_is_pinned(flags, digest, capsys):
    argv = ["twist", "greedy", *flags, "--blocks", "50", "--n1", "1000"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def render_json_oracle(obj) -> str:
    """The recursive renderer render_json replaced, kept as its oracle."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {render_json_oracle(v)}"
                          for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json_oracle(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return cli._fmt_float(obj)
    if isinstance(obj, complex):
        return render_json_oracle([obj.real, obj.imag])
    return json.dumps(str(obj))


_text = st.text(alphabet=st.characters(codec="utf-8"), max_size=8) | \
    st.sampled_from(['"', '\\', "q\"u'o\\te", "é", " ", "\x00", "😀"])
_scalars = (st.none() | st.booleans()
            | st.integers(min_value=-10**40, max_value=10**40)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan])
            | st.complex_numbers(allow_nan=True, allow_infinity=True)
            | _text)
_documents = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_text | st.integers(), inner,
                                     max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_render_json_matches_the_recursive_renderer(doc):
    assert render_json(doc) == render_json_oracle(doc)
