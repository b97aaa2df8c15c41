"""Simultaneous approximation: soundness, closed forms, the window scan."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from zetalab.errors import BudgetExhausted, DegenerateInput
from zetalab.kronecker import (PHASE_LIPSCHITZ, KroneckerProblem,
                               SearchBudget, solve, verify)


def coarse_witness(problem, t_hi, step):
    """Independent brute scanner used to confirm solver results."""
    w = np.asarray(problem.frequencies)
    b = np.asarray(problem.targets)
    ts = np.arange(problem.t_min + step, t_hi, step)
    x = ts[:, None] * w[None, :] - b[None, :]
    frac = np.mod(x, 1.0)
    err = np.minimum(frac, 1.0 - frac).max(axis=1)
    i = int(np.argmin(err))
    return float(ts[i]), float(err[i])


def test_single_frequency_closed_form():
    w = math.log(2) / (2 * math.pi)
    p = KroneckerProblem((w,), (0.0,), delta=0.01, t_min=1.0)
    sol = solve(p)
    assert abs(sol.t - 2 * math.pi / math.log(2)) < 1e-9
    assert sol.integer_parts == (1,)
    assert sol.max_error < 1e-12


def test_single_frequency_homogeneous():
    # beta = 0 with generous delta: window 0, (-0.4/0.31, 0.4/0.31), reaches
    # past t_min = 0 and holds the first witness, the middle of its part
    # (0, 0.4/0.31) past t_min
    p = KroneckerProblem((0.31,), (0.0,), delta=0.4, t_min=0.0)
    sol = solve(p)
    assert sol.t > 0.0
    assert abs(sol.t - 0.2 / 0.31) < 1e-9


def test_window_straddling_t_min_is_scanned():
    # the window centred before t_min = 0 that reaches past it holds a
    # witness below 0.16; the scan used to start one window later and
    # printed t = 19.19
    p = KroneckerProblem((0.31, 0.05), (0.95, 0.01), delta=0.1)
    sol = solve(p)
    assert 0.0 < sol.t < 0.16
    assert verify(p, sol.t) < 0.1
    # a scan of that window alone reports its best error at t_min, not at
    # its centre below t_min
    p = KroneckerProblem((0.31, 0.05), (0.95, 0.5), delta=0.1, t_min=0.05)
    with pytest.raises(BudgetExhausted) as exc:
        solve(p, SearchBudget(max_t=1.0))
    d = exc.value.details
    assert d["windows_scanned"] == 1 and d["best_t"] == 0.05
    assert d["best_error"] == verify(p, 0.05)


def test_verify_examples():
    p = KroneckerProblem((0.3, 0.41), (0.0, 0.0), delta=0.1)
    assert verify(p, 0.0) == 0.0
    p2 = KroneckerProblem((0.5,), (0.0,), delta=0.3)
    assert verify(p2, 1.0) == 0.5      # antipodal point
    sol = solve(p, SearchBudget(max_t=1e5))
    assert verify(p, sol.t) == sol.max_error < 0.1


def test_three_frequency_example(rng):
    w = tuple(math.log(n + math.pi) / (2 * math.pi) for n in range(3))
    b = tuple(rng.uniform(0, 1, 3))
    p = KroneckerProblem(w, b, delta=0.05)
    sol = solve(p)
    assert verify(p, sol.t) < 0.05
    # an independent coarse scan finds a witness in the same range
    t_ind, err_ind = coarse_witness(p, sol.t + 1.0, p.delta / (8 * max(w)))
    assert err_ind < 0.05
    assert t_ind <= sol.t + 1.0


def test_soundness_random(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        w = tuple(sorted(rng.uniform(0.02, 0.8, n)))
        if len(set(w)) != n:
            continue
        b = tuple(rng.uniform(0, 1, n))
        p = KroneckerProblem(w, b, delta=0.05)
        sol = solve(p, SearchBudget(max_t=1e6, max_iterations=20_000_000))
        assert sol.t > p.t_min
        assert verify(p, sol.t) < 0.05
        assert sol.max_error < 0.05
        # integer parts are the nearest integers
        for wi, bi, xi in zip(w, b, sol.integer_parts):
            assert abs(sol.t * wi - bi - xi) <= 0.5 + 1e-12


def test_phase_transfer_lipschitz(rng):
    w = tuple(sorted(rng.uniform(0.05, 0.6, 3)))
    b = tuple(rng.uniform(0, 1, 3))
    p = KroneckerProblem(w, b, delta=0.04)
    sol = solve(p)
    for wi, bi in zip(w, b):
        chord = abs(cmath.exp(-2j * math.pi * sol.t * wi)
                    - cmath.exp(-2j * math.pi * bi))
        assert chord <= PHASE_LIPSCHITZ * sol.max_error + 1e-12


def test_monotone_budget():
    w = (0.123, 0.456, 0.321)
    b = (0.2, 0.7, 0.4)
    p = KroneckerProblem(w, b, delta=0.06)
    small = solve(p, SearchBudget(max_t=1e5, max_iterations=10_000_000))
    large = solve(p, SearchBudget(max_t=1e6, max_iterations=50_000_000))
    assert small.t == large.t


def test_degenerate_input():
    with pytest.raises(DegenerateInput):
        KroneckerProblem((0.3, 0.3), (0.1, 0.2), delta=0.1)
    with pytest.raises(DegenerateInput):
        solve(KroneckerProblem((0.0,), (0.0,), delta=0.1))


@pytest.mark.parametrize("freqs, targets, t_min", [
    ((math.inf, 0.2), (0.0, 0.5), 0.0),
    ((-math.inf, 0.2), (0.0, 0.5), 0.0),
    ((math.nan, 0.2), (0.0, 0.5), 0.0),
    ((0.1, 0.2), (math.nan, 0.5), 0.0),
    ((0.1, 0.2), (0.0, math.inf), 0.0),
    ((0.1, 0.2), (0.0, 0.5), math.inf),
    ((0.1, 0.2), (0.0, 0.5), math.nan),
])
def test_non_finite_input_rejected(freqs, targets, t_min):
    # a non-finite frequency or target would make the grid step 0 or every
    # error nan, and the scan would spend its whole budget on nothing
    with pytest.raises(ValueError, match="finite"):
        KroneckerProblem(freqs, targets, delta=0.1, t_min=t_min)


def test_t_min_past_float_resolution_refused():
    # at t = 1e20 one rounding step of t moves the phase 0.3 t by 4915
    # units: the scan would report a best error of 0 and no witness
    with pytest.raises(ValueError, match="float resolution"):
        KroneckerProblem((0.3, 0.2), (0.1, 0.2), delta=0.1, t_min=1e20)
    # the bound leaves room for every t_min a float can resolve
    w = tuple(math.log(n + 0.2) / (2 * math.pi) for n in range(8))
    KroneckerProblem(w, (0.0,) * 8, delta=0.02, t_min=1e5)
    KroneckerProblem((0.3, 0.2), (0.1, 0.2), delta=0.1, t_min=1e12)


def test_budget_exhausted_reports_diagnostics():
    w = (0.1, 0.2000001, 0.31113)
    b = (0.25, 0.75, 0.5)
    p = KroneckerProblem(w, b, delta=0.001)
    with pytest.raises(BudgetExhausted) as exc:
        solve(p, SearchBudget(max_t=50.0, max_iterations=100_000))
    assert "best_error" in exc.value.details
    assert "max_t" in exc.value.message
    assert exc.value.details["t_reached"] == 50.0
    with pytest.raises(BudgetExhausted) as exc:
        solve(p, SearchBudget(max_t=1e6, max_iterations=10))
    d = exc.value.details
    assert "max_iterations" in exc.value.message
    assert d["windows_scanned"] == 10
    # windows k = 0..9 of the fastest phase are covered, up to where
    # window 10 starts
    assert d["t_reached"] == pytest.approx((0.5 + 10 - 0.001) / 0.31113)


def test_default_solve_n6(rng):
    w = tuple(math.log(n + 0.7853981634) / (2 * math.pi) for n in range(6))
    b = tuple(rng.uniform(0, 1, 6))
    p = KroneckerProblem(w, b, delta=0.2)
    sol = solve(p, SearchBudget(max_t=1e7, max_iterations=30_000_000))
    assert verify(p, sol.t) < 0.2


def _scan_peak(n):
    """tracemalloc peak of a scan that finds no witness and runs long
    enough for its phase tables to reach their largest size."""
    w = tuple(0.1 + 0.0731 * k for k in range(n))
    p = KroneckerProblem(w, (0.5,) * n, delta=1e-9)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted) as exc:
            solve(p, SearchBudget(max_t=1e12, max_iterations=100_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.details["windows_scanned"] == 100_000
    return peak


def test_phase_table_memory_does_not_grow_with_n():
    assert _scan_peak(8) <= 1.1 * _scan_peak(4)


@pytest.mark.parametrize("freqs, targets, delta, max_t, reach", [
    ((0.1103, 0.2, 0.31), (0.25, 0.5, 0.75), 0.012, 20.0, 48.0),
    ((0.001,), (0.5,), 0.1, 10.0, 500.0),
])
def test_no_witness_past_max_t(freqs, targets, delta, max_t, reach):
    p = KroneckerProblem(freqs, targets, delta=delta)
    with pytest.raises(BudgetExhausted) as exc:
        solve(p, SearchBudget(max_t=max_t))
    assert exc.value.details["max_t"] == max_t
    # the first witness lies past max_t; a budget reaching it finds it
    sol = solve(p, SearchBudget(max_t=reach))
    assert max_t < sol.t <= reach
    assert verify(p, sol.t) < delta


def _fastest(problem):
    """The fastest frequency and its target, folded to a positive one."""
    w = np.asarray(problem.frequencies)
    i = int(np.argmax(np.abs(w)))
    return abs(w[i]), (np.sign(w[i]) * problem.targets[i]) % 1.0


def _window(problem, t):
    """Index k of the window (b + k -+ delta)/w of the fastest phase."""
    w, b = _fastest(problem)
    return round(t * w - b)


def _brute_windows(problem, t_hi):
    """Windows holding a witness among t_min + i*step < t_hi, step =
    delta/(400 w_max), scanned 2^14 points at a time to bound memory."""
    wmax, bmax = _fastest(problem)
    step = problem.delta / (400 * wmax)
    w, b = np.asarray(problem.frequencies), np.asarray(problem.targets)
    found = set()
    for start in np.arange(problem.t_min, t_hi, step * (1 << 14)):
        ts = start + step * np.arange(1, (1 << 14) + 1)
        ts = ts[ts < t_hi]
        err = np.abs((ts[:, None] * w - b + 0.5) % 1.0 - 0.5).max(axis=1)
        found.update(np.rint(ts[err < problem.delta] * wmax - bmax)
                     .astype(int).tolist())
    return found


@pytest.mark.parametrize("delta", [0.08, 0.2, 0.3, 0.45])
def test_scan_is_exact_against_brute_force(rng, delta):
    # windows 1..40 of the fastest phase: each search restarts in the gap
    # after the window of the last witness, and every window where the
    # brute scan meets a witness is one of those the solver finds
    confirmed = solved_total = 0
    for _ in range(8):
        n = int(rng.integers(1, 4))
        w = tuple(rng.uniform(0.05, 0.8, n) * rng.choice([-1.0, 1.0], n))
        b = tuple(rng.uniform(0, 1, n))
        wmax, bmax = _fastest(KroneckerProblem(w, b, delta=delta))
        t_min, t_hi = (bmax + 0.5) / wmax, (bmax + 40.5) / wmax
        solved = set()
        # a budget that ends at t_min is refused, and holds no witness
        while t_min < t_hi:
            p = KroneckerProblem(w, b, delta=delta, t_min=t_min)
            try:
                sol = solve(p, SearchBudget(max_t=t_hi))
            except BudgetExhausted:
                break
            k = _window(p, sol.t)
            solved.add(k)
            t_min = (bmax + k + 0.5) / wmax
        brute = _brute_windows(KroneckerProblem(
            w, b, delta=delta, t_min=(bmax + 0.5) / wmax), t_hi)
        assert brute <= solved
        confirmed += len(brute)
        solved_total += len(solved)
    # the brute scan is not vacuous: it meets most windows the solver finds
    assert confirmed >= 0.9 * solved_total > 0


def test_zero_frequency_met_target_is_dropped():
    p = KroneckerProblem((0.0, 0.2), (0.05, 0.3), delta=0.1)
    sol = solve(p)
    assert sol.t == pytest.approx(1.5)
    assert verify(p, sol.t) < 0.1


def test_zero_frequency_missed_target_fails_at_once():
    p = KroneckerProblem((0.0, 0.2), (0.5, 0.3), delta=0.1)
    with pytest.raises(BudgetExhausted) as exc:
        solve(p)
    assert exc.value.details["windows_scanned"] == 0
    assert exc.value.details["best_error"] == 0.5


def test_negative_single_frequency_closed_form():
    # -0.31 t - 0.2 = -1 at t = 0.8 / 0.31
    sol = solve(KroneckerProblem((-0.31,), (0.2,), delta=0.05))
    assert sol.t == pytest.approx(0.8 / 0.31)
    assert sol.integer_parts == (-1,)


def test_an_empty_budget_is_refused_before_any_scan():
    with pytest.raises(ValueError, match="max_iterations >= 1"):
        SearchBudget(max_iterations=0)
    p = KroneckerProblem((0.31,), (0.5,), delta=0.1, t_min=5.0)
    for max_t in (5.0, -1.0):
        with pytest.raises(ValueError, match="max_t > t_min"):
            solve(p, SearchBudget(max_t=max_t))
