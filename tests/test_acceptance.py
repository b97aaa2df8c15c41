"""Acceptance criteria, one test per criterion, pinned tolerances.

Each test prints a single PASS line on success; failures carry enough
diagnostics to identify the offending case.  Runtime-limited criteria
assert their budget.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from zetalab.annulus import AnnulusSpec, radii, realize_phases, sample_oracle
from zetalab.kronecker import KroneckerProblem, SearchBudget, solve, verify
from zetalab.quadfield import factor_shift, private_primes
from zetalab.series import (Alpha, PeriodicFunction, hurwitz_zeta, lfunction,
                            series_head, series_tail)
from zetalab.twist import BlockSchedule, run_schedule, _correction
from zetalab.zerofinder import (Circle, PipelineBudget, Rectangle,
                                argument_count, find_zero_pipeline,
                                rouche_certificate, _NEWTON_TOL)

SQRT2 = Alpha.quadratic(0, 1, 2)
ONE = PeriodicFunction.constant()


def report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS  {text}")


def test_criterion_01_decomposition_identity():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        q = int(rng.integers(1, 9))
        f = PeriodicFunction(tuple(rng.uniform(-2, 2, q)))
        alpha = float(rng.uniform(0.05, 5))
        s = complex(rng.uniform(1.1, 3.0), rng.uniform(-50, 50))
        # request the criterion tolerance itself: tiny shifts push the
        # series magnitude to ~1e4 where 1e-12 absolute is below the
        # double-precision floor.  The split from 0 is compared with a
        # direct head and the split from 16q.
        cut = 16 * q
        split = (series_head(s, f, alpha, cut - 1)
                 + series_tail(s, f, alpha, cut, tol=1e-10))
        diff = abs(lfunction(s, f, alpha, tol=1e-10) - split)
        worst = max(worst, diff)
        assert diff <= 1e-10, (q, alpha, s, diff)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(1, f"decomposition identity: 200 cases, worst {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_02_half_identity_grid():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        s = complex(rng.uniform(1.1, 3.0), rng.uniform(-50, 50))
        lhs = hurwitz_zeta(s, 0.5, tol=1e-12)
        rhs = (2 ** s - 1) * hurwitz_zeta(s, 1.0, tol=1e-12)
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) <= 1e-10
    report(2, f"half-shift identity on 100 grid points, worst {worst:.2e}")


def test_criterion_03_residue_convergence():
    rng = np.random.default_rng(103)
    for trial in range(50):
        q = int(rng.integers(1, 9))
        f = PeriodicFunction(tuple(rng.uniform(-2, 2, q)))
        alpha = float(rng.uniform(1.0, 3.0))
        r = f.residue
        for k in range(2, 7):
            s = 1.0 + 10.0 ** -k
            v = (s - 1.0) * lfunction(s + 0j, f, alpha, tol=1e-7)
            assert abs(v.real - r) <= 10.0 * 10.0 ** -k, (trial, k)
    report(3, "residue convergence: 50 random f, k = 2..6 within 10*10^-k")


def test_criterion_04_kronecker_soundness():
    rng = np.random.default_rng(104)
    solved = 0
    start = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(1, 5))
        w = tuple(float(x) for x in
                  np.sort(rng.uniform(0.02, 0.8, n)))
        if len(set(w)) != n:
            continue
        b = tuple(rng.uniform(0, 1, n))
        p = KroneckerProblem(w, b, delta=0.05)
        sol = solve(p, SearchBudget(max_t=3e6, max_iterations=60_000_000))
        assert verify(p, sol.t) < 0.05
        solved += 1
    # the single-frequency closed form t = (beta + k)/omega, or, in the
    # window that straddles t_min, the middle of its part past t_min
    for _ in range(20):
        w = float(rng.uniform(0.05, 0.9))
        b = float(rng.uniform(0, 1))
        t_min = float(rng.uniform(0, 20))
        sol = solve(KroneckerProblem((w,), (b,), delta=0.05, t_min=t_min))
        k = round(sol.t * w - b)
        if (b + k) / w > t_min:
            assert abs(sol.t - (b + k) / w) < 1e-9
        else:
            assert abs(sol.t - (t_min + (b + k + 0.05) / w) / 2) < 1e-9
    elapsed = time.monotonic() - start
    report(4, f"kronecker soundness: {solved} multi-frequency problems "
              f"re-verified, closed form to 1e-9, {elapsed:.1f}s")


def test_criterion_05_annulus():
    rng = np.random.default_rng(105)
    for _ in range(10_000):
        n = int(rng.integers(1, 13))
        r = rng.uniform(1e-3, 10, n)
        _, inner = radii(r)
        assert inner == max(0.0, 2.0 * float(r.max()) - math.fsum(r))
    for seed in range(10):
        n = int(rng.integers(1, 9))
        r = rng.uniform(0.1, 5, n)
        outer, inner = radii(r)
        lo, hi = sample_oracle(r, 100_000, seed=seed)
        assert lo >= inner - 1e-12
        assert hi <= outer + 1e-12
    spec = AnnulusSpec((0.4, 1.0, 1.7, 2.2))
    for rho in np.linspace(spec.inner, spec.outer, 20):
        for th in np.linspace(0, 2 * math.pi, 20, endpoint=False):
            z = rho * cmath.exp(1j * th)
            angles = realize_phases(spec, z, tol=1e-9)
            got = sum(ri * cmath.exp(1j * a)
                      for ri, a in zip(spec.radii, angles))
            assert abs(got - z) <= 1e-9
    report(5, "annulus: 10^4 radii lists, 10*10^5 oracle samples, "
              "20x20 polar grid realized")


def test_criterion_06_correction_rule():
    rng = np.random.default_rng(106)
    for _ in range(10_000):
        lam = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        s3 = float(rng.uniform(1e-6, 150))
        z = _correction(lam, s3)
        target = max(0.0, abs(lam) - s3)
        assert abs(abs(lam + z) - target) <= 1e-12
    report(6, "correction rule |lam + z| = max(0, |lam| - S3) on 10^4 draws")


def test_criterion_07_greedy_induction():
    schedule = BlockSchedule(n1=1000, num_blocks=50, scale_den=100)
    report_obj = run_schedule(ONE, SQRT2, schedule, hp_check=True)
    for row in report_obj.blocks:
        if not (row.damping_ok and row.damping_ok_hp and row.chain_ok):
            pytest.fail(f"damping inequality violated at block {row.j}: "
                        f"{row.to_json()}")
    assert report_obj.ok and len(report_obj.blocks) >= 50
    worst = max(b.damping_lhs / b.damping_rhs for b in report_obj.blocks)
    report(7, f"greedy induction: 50 authentic blocks, damping holds in "
              f"float and 30-digit precision, worst lhs/rhs {worst:.3f}")


def test_criterion_08_ideal_arithmetic():
    for n in range(5001):
        fact = factor_shift(n, SQRT2)
        assert Fraction(fact.recombined_norm()) == fact.norm, n

    def oracle_divides(prime, m):
        if prime.kind == "inert":
            return m % prime.p == 0 and 1 % prime.p == 0
        return (m + prime.r) % prime.p == 0

    for n_start, length in ((0, 40), (300, 25), (900, 30), (1960, 40)):
        block = private_primes(n_start, length, SQRT2)
        top = n_start + length
        for n in range(n_start + 1, top + 1):
            has_private = any(
                not any(oracle_divides(p, m)
                        for m in range(top + 1) if m != n)
                for p in factor_shift(n, SQRT2).primes())
            assert has_private == (n in block.private), (n_start, n)
    report(8, "ideal arithmetic: norms recombine exactly for n <= 5000, "
              "private primes match the membership oracle")


def test_criterion_09_argument_principle():
    start = time.monotonic()
    count = argument_count(lambda s: 1 - 2 ** 1.05 * 2 ** (-s),
                           Rectangle(1.01, 1.1, -1.0, 20.0))
    assert count == 3
    count0 = argument_count(lambda s: lfunction(s, ONE, 1.0, tol=1e-10),
                            Rectangle(1.1, 2.0, 0.0, 30.0))
    assert count0 == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(9, f"argument principle: counts 3 and 0 as constructed, "
              f"{elapsed:.1f}s")


def test_criterion_10_rouche_cross_validation():
    rng = np.random.default_rng(110)
    positives = 0
    for _ in range(50):
        z0 = complex(rng.uniform(1.2, 1.6), rng.uniform(-1.5, 1.5))
        slope = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        F = lambda s: (s - z0) * slope
        c = rng.uniform(0.0, 0.5) * cmath.exp(2j * math.pi * rng.uniform())
        L = lambda s: F(s) + c
        center = complex(z0.real, 0.0)
        radius = float(rng.uniform(0.1, 0.3))
        cert = rouche_certificate(F, lambda s: c, center.real, radius,
                                  samples=256,
                                  f_deriv_bound=abs(slope),
                                  diff_deriv_bound=0.0, diff_tail=0.0)
        if cert.margin > 0:
            positives += 1
            count_l = argument_count(L, Circle(center, radius))
            count_f = argument_count(F, Circle(center, radius))
            assert count_l == count_f, (z0, c, radius)
    assert positives >= 10          # the machinery is not vacuously negative
    report(10, f"rouche cross-validation: {positives} positive margins out "
               f"of 50 pairs, zero false certificates")


def test_criterion_11_pipeline_smoke():
    budget = PipelineBudget(max_t=5e3, max_iterations=400_000, n_cut_max=6)
    res = find_zero_pipeline(ONE, Alpha.decimal("0.7853981634"), 0.5, budget)
    assert "truncation_index" in res.stages
    assert "sigma0" in res.stages and 1 < res.stages["sigma0"] < 1.5
    if res.success:
        assert res.record is not None
        assert res.record.residual <= _NEWTON_TOL
        assert res.record.certificate.margin > 0
        outcome = f"certified zero at {res.record.s}"
    else:
        assert res.record is None
        assert res.failed_stage is not None
        assert isinstance(res.failure, dict) and "error" in res.failure
        outcome = f"structured failure at stage {res.failed_stage!r}"
    report(11, f"pipeline smoke test: {outcome}")
