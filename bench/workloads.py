"""The four workloads: one round of CLI jobs, generated from a seed.

A job is one documented `zetalab` command line with global flags before
the subcommand, plus the check its printed answer must pass.  Every run
repeats the same round, so the share of failed jobs is fixed; the only jobs
expected to fail are those of the two kept faults, whose inputs do not
depend on the seed.  See README.md for why each workload is made up as it
is.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import checks
import spec


@dataclass
class Job:
    argv: list[str]
    check: Callable[[str], list[str]]
    known_fault: bool = False
    before: Callable[[], None] | None = field(default=None, repr=False)


def _r(x: float) -> str:
    return repr(float(x))


def eval_round(seed: int, ref: dict) -> list[Job]:
    rng = random.Random(seed)
    tol = ref["tol"]
    jobs = []
    for p in ref["faults"]:
        jobs.append(_eval_job(p, tol, known_fault=True))
    for band in range(spec.EVAL_BANDS):
        pool = [p for p in ref["points"] if p["band"] == band]
        jobs += [_eval_job(p, tol)
                 for p in rng.sample(pool, spec.EVAL_PICK_PER_BAND)]
    for g in rng.sample(ref["grids"], spec.EVAL_GRID_PICK):
        argv = ["--format", "csv", "eval", "--alpha", g["alpha"],
                "--f", g["f"], "--grid", g["grid"]]
        jobs.append(Job(argv, lambda out, g=g: checks.check_grid(
            out, g["points"], g["values"], tol)))
    rng.shuffle(jobs)
    return jobs


def _eval_job(p: dict, tol: float, known_fault: bool = False) -> Job:
    sigma, t = p["s"]
    argv = ["eval", "--alpha", p["alpha"], "--f", p["f"],
            "--s", f"{_r(sigma)},{_r(t)}"]
    return Job(argv, lambda out: checks.check_value(out, p["value"], tol),
               known_fault)


def contour_round(seed: int, ref: dict) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for p in ref["faults"]:
        jobs.append(_count_job(p["alpha"], p["f"], p["rect"], p["count"],
                               known_fault=True))
    for height in spec.ZERO_FREE_HEIGHTS:
        for shift in spec.ZERO_FREE_SHIFTS:
            t0 = round(height * rng.uniform(0.98, 1.02), 3)
            s0 = round(rng.uniform(1.09, 1.11), 4)
            rect = [s0, 2.0, t0, t0 + spec.ZERO_FREE_SPAN]
            jobs.append(_count_job(shift, "1", rect, 0))
    for name in spec.CONTOUR_FUNCTIONS:
        pool = [p for p in ref["pool"] if p["function"] == name]
        for p in rng.sample(pool, spec.CONTOUR_POOL_PICK):
            jobs.append(_count_job(p["alpha"], p["f"], p["rect"], p["count"]))
    rng.shuffle(jobs)
    return jobs


def _count_job(shift, fvals, rect, expected, known_fault=False) -> Job:
    argv = ["zeros", "count", "--alpha", shift, "--f", fvals,
            "--rect", ",".join(_r(x) for x in rect)]
    return Job(argv, lambda out: checks.check_count(out, expected),
               known_fault)


def search_round(seed: int, ref: dict) -> list[Job]:
    """Problems w_n = log(n + a)/2pi, n < N, with a witness planted.

    Targets are b_n = t* w_n + e_n (mod 1), |e_n| < delta/2, with t* a
    little above tmin, so every problem has a witness early in the scan
    and the work per round does not hinge on where a first random hit
    happens to lie.  The search may return any witness; it is checked as
    found.
    """
    rng = random.Random(seed)
    jobs = []
    for n_freq, delta in spec.SEARCH_SETTINGS:
        for _ in range(spec.SEARCH_PER_SETTING):
            a = round(rng.uniform(0.2, 0.95), 6)
            freqs = [math.log(n + a) / (2 * math.pi) for n in range(n_freq)]
            tmin = round(rng.uniform(1e3, 1e5), 3)
            t_star = tmin + rng.uniform(100.0, 300.0)
            targets = [(t_star * w + rng.uniform(-delta / 2, delta / 2)) % 1.0
                       for w in freqs]
            # "--freqs=" keeps a leading minus from reading as a flag
            argv = ["kron", "solve", "--freqs=" + ",".join(map(_r, freqs)),
                    "--targets", ",".join(map(_r, targets)),
                    "--delta", _r(delta), "--tmin", _r(tmin)]
            jobs.append(Job(argv, lambda out, f=freqs, b=targets, d=delta,
                            t=tmin: checks.check_kron(out, f, b, d, t)))
    rng.shuffle(jobs)
    return jobs


def ledger_round(seed: int, ref: dict) -> list[Job]:
    """Greedy ledgers on every quadratic shift, each with a cold
    factorization cache, as a fresh CLI process has; the seed orders them."""
    rng = random.Random(seed)
    plan = [(spec.LEDGER_HP_SHIFT, True)] + \
        [(shift, False) for shift in spec.LEDGER_SHIFTS]
    rng.shuffle(plan)
    jobs = []
    for shift, hp in plan:
        argv = ["twist", "greedy", "--alpha", shift,
                "--blocks", str(spec.LEDGER_BLOCKS), "--n1", str(spec.LEDGER_N1)]
        if not hp:
            argv.append("--no-hp")
        jobs.append(Job(argv, lambda out, s=shift, hp=hp: checks.check_ledger(
            out, s, ref, hp), before=_cold_factorizer))
    return jobs


def _cold_factorizer():
    import zetalab.quadfield as qf
    # a private name: if a later version drops the cache, there is none to empty
    cache = getattr(qf, "_FACTORIZERS", None)
    if cache is not None:
        cache.clear()


ROUNDS = {"eval": eval_round, "contour": contour_round,
          "search": search_round, "ledger": ledger_round}


def build(name: str, seed: int, ref: dict) -> list[Job]:
    return ROUNDS[name](seed, ref.get(name))
