"""Series evaluation against brute-force oracles and structural identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab.errors import PoleAt1, PrecisionUnreachable
from zetalab.series import (Alpha, PeriodicFunction, hurwitz_zeta, lfunction,
                            series_head, series_tail)

from conftest import brute_hurwitz, brute_series

ONE = PeriodicFunction.constant()

# frozen expected values, recomputed by the brute-force oracle below
ZETA2 = 1.6449340668482264          # zeta(2, 1)
ZETA2_HALF = 4.934802200544679      # zeta(2, 1/2) = 3 * zeta(2)
ZETA3_SHIFT2 = 0.2020569031595943   # zeta(3, 2) = zeta(3) - 1
ALT2 = -0.8224670334241132          # sum f(n)/(n+1)^2 for f = (1,-1):
                                    # f(0) = f(2) = -1, so the value is
                                    # -(pi^2/12)
ZETA3 = 1.2020569031595943


def test_oracle_confirms_frozen_constants():
    v, h = brute_hurwitz(2 + 0j, 1.0, 1_000_000)
    assert abs(v.real - ZETA2) <= h + 1e-12
    v, h = brute_hurwitz(2 + 0j, 0.5, 1_000_000)
    assert abs(v.real - ZETA2_HALF) <= h + 1e-12
    v, h = brute_hurwitz(3 + 0j, 2.0, 200_000)
    assert abs(v.real - ZETA3_SHIFT2) <= h + 1e-12
    falt = PeriodicFunction((1.0, -1.0))
    # alternating series: tail below first omitted term
    partial = math.fsum(falt(n) / (n + 1.0) ** 2 for n in range(100_001))
    assert abs(partial - ALT2) < 1e-8


def test_hurwitz_basic_values():
    assert abs(hurwitz_zeta(2 + 0j, 1.0, tol=1e-12).real - ZETA2) < 1e-12
    assert abs(hurwitz_zeta(2 + 0j, Alpha.rational(1, 2)).real - ZETA2_HALF) < 1e-11
    assert abs(hurwitz_zeta(3 + 0j, 2.0).real - ZETA3_SHIFT2) < 1e-12
    # real s gives exactly real output
    assert hurwitz_zeta(2.5 + 0j, 1.7).imag == 0.0


def test_half_shift_identity_grid():
    sigmas = np.linspace(1.1, 3.0, 10)
    ts = np.linspace(-50, 50, 10)
    for sg in sigmas:
        for t in ts:
            s = complex(sg, t)
            lhs = hurwitz_zeta(s, 0.5, tol=1e-12)
            rhs = (2 ** s - 1) * hurwitz_zeta(s, 1.0, tol=1e-12)
            assert abs(lhs - rhs) <= 1e-10


def test_pole_and_domain_errors():
    with pytest.raises(PoleAt1):
        hurwitz_zeta(1 + 0j, 1.0)
    with pytest.raises(PoleAt1):
        hurwitz_zeta(1 + 1e-13j, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(0.3 + 5j, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2 + 0j, -1.0)
    with pytest.raises(PrecisionUnreachable):
        hurwitz_zeta(1 + 1e-9j, 1.0, tol=1e-18)
    with pytest.raises(PoleAt1):
        lfunction(1 + 1e-13j, ONE, 1.0)
    # no residue class calls hurwitz_zeta here, so lfunction must refuse itself
    with pytest.raises(PoleAt1):
        lfunction(1 + 0j, PeriodicFunction((0.0, 0.0)), 1.0)


def test_lfunction_reduces_to_hurwitz():
    for s in (2 + 0j, 1.3 + 7j, 2.5 - 11j):
        assert abs(lfunction(s, ONE, 1.25) - hurwitz_zeta(s, 1.25)) < 1e-11
    # constant f of period 2 equals the q = 1 case
    f2 = PeriodicFunction((1.0, 1.0))
    assert abs(lfunction(2 + 0j, f2, 1.0).real - ZETA2) < 1e-11


def test_lfunction_alternating():
    falt = PeriodicFunction((1.0, -1.0))
    v = lfunction(2 + 0j, falt, 1.0, tol=1e-12)
    assert abs(v.real - ALT2) < 1e-11
    assert abs(v.imag) < 1e-12


def test_decompose_examples():
    # constant f over two residue classes collapses to the plain series
    f2 = PeriodicFunction((1.0, 1.0))
    assert abs(lfunction(3 + 0j, f2, 1.0).real - ZETA3) < 1e-11
    # q = 1 keeps the n = 0 term: the residue-class split is the identity
    for alpha in (0.75, 1.0, 2.5):
        d = lfunction(2.5 + 0j, ONE, alpha)
        z = hurwitz_zeta(2.5 + 0j, alpha)
        shift = alpha ** -2.5 + hurwitz_zeta(2.5 + 0j, alpha + 1.0).real
        assert abs(d - z) < 1e-11
        assert abs(d.real - shift) < 1e-11
    # mass only on the odd class
    f20 = PeriodicFunction((2.0, 0.0))
    assert abs(lfunction(2 + 0j, f20, 1.0).real - (-ALT2)) < 1e-11


def test_decompose_agrees_with_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(8):
        q = int(rng.integers(1, 9))
        f = PeriodicFunction(tuple(rng.uniform(-2, 2, q)))
        alpha = float(rng.uniform(0.3, 5))
        s = complex(rng.uniform(2.0, 3.0), rng.uniform(-10, 10))
        v, h = brute_series(f, alpha, s, 400_000)
        assert abs(lfunction(s, f, alpha) - v) <= h + 1e-10


def test_decomposition_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        q = int(rng.integers(1, 9))
        f = PeriodicFunction(tuple(rng.uniform(-2, 2, q)))
        alpha = float(rng.uniform(0.05, 5))
        s = complex(rng.uniform(1.1, 3.0), rng.uniform(-50, 50))
        # the split from 0 against a direct head and the split from 16q
        cut = 16 * q
        split = (series_head(s, f, alpha, cut - 1)
                 + series_tail(s, f, alpha, cut))
        assert abs(lfunction(s, f, alpha) - split) <= 1e-10


def test_residue_examples():
    assert ONE.residue == 1.0
    assert PeriodicFunction((1.0, -1.0)).residue == 0.0
    assert PeriodicFunction((3.0, 1.0, 2.0)).residue == 2.0


def test_residue_limit():
    rng = np.random.default_rng(3)
    for _ in range(6):
        q = int(rng.integers(1, 9))
        f = PeriodicFunction(tuple(rng.uniform(-2, 2, q)))
        alpha = float(rng.uniform(1.0, 3.0))
        r = f.residue
        errs = []
        for k in range(2, 7):
            s = 1.0 + 10.0 ** -k
            # near the pole only modest absolute accuracy on L is needed:
            # the (s-1) factor scales the evaluation error down again
            v = (s - 1.0) * lfunction(s + 0j, f, alpha, tol=1e-7)
            errs.append(abs(v.real - r) / 10.0 ** -k)
        # error scales linearly in (s-1): the ratio stays bounded
        assert max(errs) < 10.0


def test_conjugate_symmetry():
    f = PeriodicFunction((0.5, -1.5, 2.0))
    for s in (1.5 + 9j, 2.2 + 31j):
        a = lfunction(s, f, 0.9)
        b = lfunction(s.conjugate(), f, 0.9)
        assert abs(a.conjugate() - b) < 1e-11


def test_em_vs_direct_summation_sigma3():
    for alpha in (0.4, 1.0, 2.7):
        em = hurwitz_zeta(3 + 0j, alpha, tol=1e-13)
        v, h = brute_hurwitz(3 + 0j, alpha, 1_000_000)
        assert h < 5e-12
        assert abs(em - v) <= h + 1e-11
    f = PeriodicFunction((1.0, 0.25, -0.5))
    p, b = brute_series(f, 0.8, 3 + 0j, 1_000_000)
    assert abs(lfunction(3 + 0j, f, 0.8, tol=1e-13) - p) <= b + 1e-11


def test_series_tail_and_head_consistency():
    f = PeriodicFunction((1.0, 2.0))
    s = 2.2 + 3j
    full = lfunction(s, f, 0.7, tol=1e-13)
    for cut in (0, 5, 37, 1000):
        head = series_head(s, f, 0.7, cut - 1)
        tail = series_tail(s, f, 0.7, cut, tol=1e-13)
        assert abs(head + tail - full) < 1e-11


def test_empty_head_is_zero():
    from zetalab.series import _direct_block
    assert series_head(2 + 0j, ONE, 0.5, -1) == 0
    assert _direct_block(2 + 1j, 0.5, 0) == (0, 0)
    total, mass = _direct_block(np.array([2 + 0j, 3 + 1j]), 0.5, 0)
    assert total.tolist() == [0, 0] and mass.tolist() == [0, 0]


@given(st.integers(1, 8), st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_periodic_indexing(q, n):
    values = tuple(float(i + 1) for i in range(q))
    f = PeriodicFunction(values)
    assert f(n) == values[(n - 1) % q]
    assert f(0) == f(q)
    assert f(n + q) == f(n)


def test_against_mpmath_oracle():
    import mpmath as mp
    rng = np.random.default_rng(17)
    with mp.workdps(30):
        for _ in range(25):
            sigma = float(rng.uniform(1.05, 4.0))
            t = float(rng.uniform(-200, 200))
            a = float(rng.uniform(0.05, 8.0))
            mine = hurwitz_zeta(complex(sigma, t), a, tol=1e-11)
            ref = mp.zeta(mp.mpc(sigma, t), a)
            scale = max(1.0, abs(ref))
            assert abs(mp.mpc(mine.real, mine.imag) - ref) < 1e-11 * scale


def test_cutoff_cap_fails_fast():
    with pytest.raises(PrecisionUnreachable):
        hurwitz_zeta(2 + 1e9j, 1.0, tol=1e-10)
    # a batch's refusal carries plain numbers, no array
    with pytest.raises(PrecisionUnreachable) as err:
        lfunction(np.array([2 + 1e9j, 3 + 0j]), ONE, 1.0, tol=1e-10)
    assert {type(v) for v in err.value.details.values()} <= {int, float}


def test_alpha_parsing_and_validation():
    assert Alpha.parse("rat:1,2").value == 0.5
    a = Alpha.parse("quad:0,1,2")
    assert abs(a.value - math.sqrt(2)) < 1e-15
    assert Alpha.parse("dec:0.7853981634").value == 0.7853981634
    assert Alpha.parse("quad:2,-1,3") == Alpha.quadratic(2, -1, 3)
    with pytest.raises(ValueError):
        Alpha.rational(-1, 2)
    with pytest.raises(ValueError):
        Alpha.quadratic(0, 1, 4)      # not squarefree
    with pytest.raises(ValueError):
        Alpha.quadratic(0, 0, 2)
    with pytest.raises(ValueError):
        Alpha.parse("bad:1")


def test_max_abs():
    assert PeriodicFunction((-3.0, 2.0)).max_abs == 3.0


# ---------------------------------------------------------------------------
# Euler-Maclaurin plan: Bernoulli table, accuracy, work counts
# ---------------------------------------------------------------------------

def test_bernoulli_table_matches_mpmath():
    import mpmath as mp
    from fractions import Fraction
    from zetalab import series
    table = series._bernoulli_even(41)
    assert len(table) == 41
    for k, b in enumerate(table, 1):
        assert b == Fraction(*mp.bernfrac(2 * k))


@pytest.fixture
def em_passes(monkeypatch):
    """(cutoff, order, remainder bound) of every Euler-Maclaurin pass."""
    from zetalab import series
    passes = []
    once = series._em_once

    def recording(s, a, m, order, coeffs):
        out = once(s, a, m, order, coeffs)
        passes.append((m, order, out[1]))
        return out

    monkeypatch.setattr(series, "_em_once", recording)
    return passes


@pytest.mark.parametrize("t", [1e3, 1e4, 1e5])
def test_planned_cutoff_is_a_fraction_of_t(em_passes, t):
    hurwitz_zeta(complex(1.1, t), 0.75, tol=1e-12)
    [(m, order, rem)] = em_passes           # one pass: no doubling
    assert m <= 0.25 * t + 64
    assert rem <= 1e-12


def test_order_forty_remainder_stays_finite(em_passes):
    # the separate rising product and power of p overflow to inf * 0 = nan
    # at order 40 from |t| of about 1e4 on
    v = hurwitz_zeta(1.1 + 3e5j, 0.75, tol=1e-12)
    [(m, order, rem)] = em_passes
    assert order == 40 and math.isfinite(rem) and rem <= 1e-12
    # the value of the fixed-order evaluator that preceded the plan
    assert abs(v - (0.36369290138897453 - 1.529150739963321j)) < 2e-11


def test_nonfinite_remainder_fails_fast(monkeypatch):
    from zetalab import series
    calls = []

    def broken(s, a, m, order, coeffs):
        calls.append(m)
        return 0j, math.nan, 1.0

    monkeypatch.setattr(series, "_em_once", broken)
    with pytest.raises(PrecisionUnreachable) as err:
        hurwitz_zeta(1.5 + 100j, 0.75)
    assert calls == [err.value.details["cutoff"]]
    assert err.value.details["s"] == [1.5, 100.0]
    assert err.value.details["order"] in series._ORDERS


# the shift and coefficient families of the benchmark's eval workload
EVAL_FAMILIES = [
    ("rat:3,4", "1"), ("quad:0,1,2", "1"), ("dec:0.3183098861837907", "1"),
    ("rat:2,5", "1,2,0.5"), ("quad:1/2,1,3", "2,-1,1"), ("dec:0.9", "1,0,3"),
]


def _mp_series_tail(s, values, alpha, start):
    """sum_{n >= start} f(n) (n+alpha)^(-s) in mpmath's working precision."""
    import mpmath as mp
    q = len(values)
    sm = mp.mpc(s.real, s.imag)
    total = mp.fsum(mp.mpf(values[(start + r - 1) % q])
                    * mp.zeta(sm, (alpha.value_mp() + start + r) / q)
                    for r in range(q))
    return mp.power(q, -sm) * total


@pytest.mark.parametrize("t", [0.0, 10.0, 300.0, 1e3, 2e3])
@pytest.mark.parametrize("shift, fvals", EVAL_FAMILIES)
def test_eval_families_against_mpmath(request, shift, fvals, t):
    import mpmath as mp
    if shift == "dec:0.3183098861837907" and t == 2e3:
        # |(0 + a)^(-s)| is 3.5 here, and the double-precision phase
        # t log(a) is off by about eps * 2300: 1.3e-12
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="phase error of large terms at large |t|"))
    alpha = Alpha.parse(shift)
    f = PeriodicFunction(tuple(float(v) for v in fvals.split(",")))
    s = complex(1.1, t)
    with mp.workdps(30):
        ref = _mp_series_tail(s, f.values, alpha, 0)
        v = lfunction(s, f, alpha, tol=1e-12)
        assert abs(mp.mpc(v.real, v.imag) - ref) <= 1e-12


@pytest.mark.parametrize("shift, fvals", [EVAL_FAMILIES[0], EVAL_FAMILIES[4]])
def test_series_tail_far_start_against_mpmath(shift, fvals):
    import mpmath as mp
    alpha = Alpha.parse(shift)
    f = PeriodicFunction(tuple(float(v) for v in fvals.split(",")))
    with mp.workdps(30):
        for s in (1.1 + 0j, 1.1 + 10j, 2.0 + 1e3j):
            v = series_tail(s, f, alpha, 10**6, tol=1e-12)
            ref = _mp_series_tail(s, f.values, alpha, 10**6)
            assert abs(mp.mpc(v.real, v.imag) - ref) <= 1e-12, s


# ---------------------------------------------------------------------------
# Batches: one array of points through the same kernel
# ---------------------------------------------------------------------------

BATCH = np.array([complex(sigma, t) for sigma in (1.1, 1.5, 2.5)
                  for t in (0.0, 10.0, -10.0, 300.0, -300.0, 1e3, -1e3)])

# The phase error of the large terms at large |t| (see the xfail above)
# misses tol = 1e-12 at these points of the batch, on the single-point route
# as well: 3.1e-12 at a = 0.318..., 1.6e-12 for rat:2,5.
PHASE_FAULTS = [(EVAL_FAMILIES[i], complex(2.5, t))
                for i in (2, 3) for t in (1e3, -1e3)]


def _batch_values(shift, fvals, tol):
    alpha = Alpha.parse(shift)
    f = PeriodicFunction(tuple(float(v) for v in fvals.split(",")))
    return f, alpha, lfunction(BATCH, f, alpha, tol=tol)


@pytest.mark.parametrize("shift, fvals", EVAL_FAMILIES)
def test_batch_agrees_with_single_points_and_mpmath(shift, fvals):
    import mpmath as mp
    from zetalab.series import series_tail_mp
    tol = 1e-12
    f, alpha, values = _batch_values(shift, fvals, tol)
    assert isinstance(values, np.ndarray) and values.shape == BATCH.shape
    for s, v in zip(BATCH.tolist(), values.tolist()):
        assert abs(v - lfunction(s, f, alpha, tol=tol)) <= tol, s
        if ((shift, fvals), s) not in PHASE_FAULTS:
            ref, _ = series_tail_mp(s, f, alpha, 0, 30)
            assert abs(mp.mpc(v.real, v.imag) - ref) <= tol, s
        if s.imag == 0:
            assert v.imag == 0.0, s


@pytest.mark.xfail(strict=True,
                   reason="phase error of large terms at large |t|")
@pytest.mark.parametrize("family, s", PHASE_FAULTS)
def test_batch_phase_fault_points_against_mpmath(family, s):
    import mpmath as mp
    from zetalab.series import series_tail_mp
    f, alpha, values = _batch_values(*family, 1e-12)
    v = complex(values[BATCH.tolist().index(s)])
    ref, _ = series_tail_mp(s, f, alpha, 0, 30)
    assert abs(mp.mpc(v.real, v.imag) - ref) <= 1e-12


def test_batch_refuses_what_a_single_point_refuses():
    with pytest.raises(PoleAt1):
        lfunction(np.array([2 + 0j, 1 + 0j, 1.5 + 3j]), ONE, 0.75)
    with pytest.raises(ValueError, match="Re"):
        lfunction(np.array([2 + 0j, 0.5 + 3j]), ONE, 0.75)
    with pytest.raises(ValueError, match="1-D"):
        lfunction(np.array([[2 + 0j]]), ONE, 0.75)
    with pytest.raises(PrecisionUnreachable, match="floor"):
        lfunction(np.array([2 + 0j, 1.5 + 3j]), ONE, 0.75, tol=1e-18)
    # the public hurwitz_zeta takes one point
    with pytest.raises(TypeError):
        hurwitz_zeta(np.array([2 + 0j, 3 + 0j]), 1.0)


def test_batch_evaluates_what_each_single_point_evaluates():
    # at sigma = 1.001 the class a = 1/8 gets a class tol of 3.3e-13, below
    # the floor 4.6e-13 that a^(-3) = 512 sets at 3+1.35i; that point alone
    # gets 1.3e-12, so the batch takes each point's own class tol
    f = PeriodicFunction((1.0, -1.0))
    alpha = Alpha.rational(1, 4)
    batch = np.array([1.001 + 1j, 3 + 1.35j, 2 + 300j, 1.001 + 600j])
    values = lfunction(batch, f, alpha, tol=1e-12)
    for s, v in zip(batch.tolist(), values.tolist()):
        assert abs(v - lfunction(s, f, alpha, tol=1e-12)) <= 1e-12, s


# Past _SLAB terms a batch goes one point at a time through the slabs of
# the direct block: M is about 21,000 at |t| = 1e5.
LONG_BATCH = np.array([complex(sigma, t) for sigma in (1.1, 2.5)
                       for t in (2e4, -2e4, 1e5, -1e5)])


@pytest.mark.parametrize("shift, fvals", [EVAL_FAMILIES[0], EVAL_FAMILIES[4]])
def test_batch_past_a_slab_agrees_with_single_points(shift, fvals):
    from zetalab import series
    tol = 1e-12
    alpha = Alpha.parse(shift)
    f = PeriodicFunction(tuple(float(v) for v in fvals.split(",")))
    assert series._em_plan(1e5, 1.1, 0.75, tol)[0] > series._SLAB
    values = lfunction(LONG_BATCH, f, alpha, tol=tol)
    for s, v in zip(LONG_BATCH.tolist(), values.tolist()):
        assert abs(v - lfunction(s, f, alpha, tol=tol)) <= tol, s


@pytest.mark.parametrize("m", [100, 10_000])
def test_direct_block_point_is_a_batch_of_one(m):
    from zetalab.series import _direct_block
    s = 1.3 + 2e4j
    weights = PeriodicFunction((2.0, -1.0, 1.0)).table(m)
    for w in (None, weights):
        total, mass = _direct_block(s, 0.75, m, w)
        batch_total, batch_mass = _direct_block(np.array([s]), 0.75, m, w)
        assert total == batch_total[0] and mass == batch_mass[0]


def _no_direct_block(s, a, m, weights=None):
    """_direct_block's zero sum and mass, so that _em_once returns its tail,
    half term and corrections alone."""
    if isinstance(s, np.ndarray):
        return np.zeros(s.size, complex), np.zeros(s.size)
    return 0j, 0.0


@pytest.mark.parametrize("tmin", [10.0, 1e3])
def test_em_batch_agrees_with_each_point_alone(monkeypatch, tmin):
    # a batch forms its corrections as one array from one power of m + a; a
    # single point keeps its loop and its three powers
    from zetalab import series
    from zetalab.zerofinder import Rectangle
    monkeypatch.setattr(series, "_direct_block", _no_direct_block)
    a = 0.75
    batch = Rectangle(1.1, 2.0, tmin, tmin + 30).boundary(np.arange(256) / 256)
    m, _ = series._em_plan(*series._extent(batch), a, 1e-12)
    eps = math.ulp(1.0)
    for order in series._ORDERS:
        values, rems, scales = series._em_once(batch, a, m, order,
                                               series._C_EVEN)
        for s, v, r in zip(batch.tolist(), values.tolist(), rems.tolist()):
            want, want_rem, scale = series._em_once(s, a, m, order,
                                                    series._C_EVEN)
            bound = 8 * eps * (1 + abs(s.imag) * math.log(m + a)) * scale
            assert abs(v - want) <= bound, (order, s)
            assert abs(r - want_rem) <= 1e-13 * want_rem, (order, s)


def test_em_batch_ladder_goes_in_pieces(monkeypatch):
    # one ladder of 2^16 points x 40 orders would hold 2.6 million values
    from zetalab import series
    from zetalab.zerofinder import Rectangle
    monkeypatch.setattr(series, "_direct_block", _no_direct_block)
    batch = Rectangle(1.2, 1.6, 0.0, 1e4).boundary(np.arange(2 ** 16) / 2 ** 16)
    a = 0.7853981634
    m, _ = series._em_plan(*series._extent(batch), a, 1e-12)
    pieces = []
    cumprod = np.cumprod

    def recorded(x, *args, **kwargs):
        pieces.append(x.shape)
        return cumprod(x, *args, **kwargs)

    monkeypatch.setattr(np, "cumprod", recorded)
    series._em_once(batch, a, m, 40, series._C_EVEN)
    assert all(rows * cols <= series._PRODUCT for rows, cols in pieces)
    assert sum(rows for rows, _ in pieces) == batch.size


# hurwitz_zeta at single points, as float.hex of the real and imaginary
# parts, from before batches formed their corrections as one array
SINGLE_POINTS = [
    (1.0009765625, 1000.5, "0x1.fc8ec86ee0f45p+9", "0x0.0p+0"),
    (1.5 + 300j, 0.75, "-0x1.b32da3de44ee8p-2", "-0x1.6fd602f467b4bp+0"),
    (1.1 + 1e4j, 0.75, "0x1.233daefc57270p+0", "-0x1.f26b0c809758cp-2"),
]


@pytest.mark.parametrize("s, a, re, im", SINGLE_POINTS)
def test_single_points_keep_their_arithmetic(s, a, re, im):
    v = hurwitz_zeta(s, a)
    assert (v.real.hex(), v.imag.hex()) == (re, im)


# ---------------------------------------------------------------------------
# Runs of equally spaced points: the factored direct block
# ---------------------------------------------------------------------------

def direct_block_oracle(s, a, m, weights=None):
    """The direct block before runs shared their exponentials, kept as its
    oracle: one exp per point and term."""
    from zetalab.series import _SLAB
    neg = -np.array(s, ndmin=1)
    rows = max(1, _SLAB // max(m, 1))
    sums, mags = [], []
    for lo in range(0, max(m, 1), _SLAB):
        hi = min(lo + _SLAB, m)
        logs = np.log(np.arange(lo, hi, dtype=float) + a)
        for p in range(0, neg.size, rows):
            terms = np.exp(np.multiply.outer(neg[p:p + rows], logs))
            if weights is not None:
                terms = terms * weights[lo:hi]
            sums.append(terms.sum(axis=1))
            mags.append(np.abs(terms).sum(axis=1))
    if m <= _SLAB:
        total, mass = np.concatenate(sums), np.concatenate(mags)
    else:
        sums = np.reshape(sums, (-1, neg.size))
        mags = np.reshape(mags, (-1, neg.size))
        total = np.array([complex(math.fsum(col.real), math.fsum(col.imag))
                          for col in sums.T])
        mass = np.array([math.fsum(col) for col in mags.T])
    if isinstance(s, np.ndarray):
        return total, mass
    return total.item(), mass.item()


def _run_points(corner, width, height, direction, length, spread):
    """length points of one side of a contour, rounded the way
    Rectangle.boundary rounds them: the parameter k / length times the side,
    added to the corner."""
    u = np.arange(length) / length * spread
    re = corner.real + (u * width if direction != "vertical" else 0.0)
    im = corner.imag + (u * height if direction != "horizontal" else 0.0)
    return re + 1j * im


def _weights(kind, m):
    if kind == "none":
        return None
    if kind == "real":
        return PeriodicFunction((2.0, -1.0, 0.5)).table(m)
    return np.exp(0.7j * np.arange(m)) * PeriodicFunction((1.0, 3.0)).table(m)


def _assert_close_to_oracle(batch, a, m, weights):
    from zetalab.series import _direct_block
    total, mass = _direct_block(batch, a, m, weights)
    want, want_mass = direct_block_oracle(batch, a, m, weights)
    biggest = max(abs(math.log(a)), abs(math.log(max(m - 1, 0) + a)))
    eps = math.ulp(1.0)
    bound = 8 * eps * (1 + np.abs(batch.imag) * biggest) * want_mass
    assert (np.abs(total - want) <= bound).all()
    assert (np.abs(mass - want_mass) <= 1e-13 * want_mass).all()


@given(direction=st.sampled_from(["horizontal", "vertical", "diagonal"]),
       length=st.integers(1, 300),
       sigma=st.floats(1.05, 3.0), t=st.floats(-2e3, 2e3),
       side=st.floats(0.1, 40.0), spread=st.floats(0.5, 1.0),
       a=st.floats(0.05, 5.0),
       m=st.sampled_from([0, 1, 3, 40, 4096, 4097, 10_000]),
       kind=st.sampled_from(["none", "real", "complex"]),
       scattered=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_runs_agree_with_the_loop_oracle(direction, length, sigma, t, side,
                                         spread, a, m, kind, scattered):
    # a run with a few scattered points before it, which take the loop
    run = _run_points(complex(sigma, t), 0.9, side, direction, length, spread)
    rng = np.random.default_rng(length)
    loose = complex(sigma, t) + rng.uniform(0, 1, scattered) * (1 + 1j)
    batch = np.concatenate([loose, run])
    _assert_close_to_oracle(batch, a, m, _weights(kind, m))


@pytest.mark.parametrize("m", [300, 2000])
@pytest.mark.parametrize("t", [0.0, 20.0, 1e3, 1e4])
@pytest.mark.parametrize("direction", ["horizontal", "vertical", "diagonal"])
@pytest.mark.parametrize("length", [512, 1024])
def test_long_runs_agree_with_the_loop_oracle(length, direction, t, m):
    # a run of _RUN_MAX points has tables of 32 rows, each row the one
    # before times a ratio row
    run = _run_points(complex(1.1, t), 0.9, 30.0, direction, length, 1.0)
    _assert_close_to_oracle(run, 0.75, m, _weights("complex", m))


@pytest.mark.parametrize("m", [0, 1, 5, 4096, 4097, 10_000])
def test_contour_sides_agree_with_the_loop_oracle(m):
    from zetalab.zerofinder import Rectangle
    batch = Rectangle(1.1, 2.0, 1e3, 1e3 + 30).boundary(np.arange(256) / 256)
    for kind in ("none", "real", "complex"):
        _assert_close_to_oracle(batch, 0.75, m, _weights(kind, m))


def test_contour_sides_are_summed_as_runs():
    from zetalab import series
    from zetalab.zerofinder import Rectangle
    batch = Rectangle(1.1, 2.0, 1e3, 1e3 + 30).boundary(np.arange(256) / 256)
    # bottom and top have 4 and 3 points; the sides take the rest
    assert series._runs(-batch, 200) == [(4, 129), (132, 256)]
    # points that stray from their progression by more than a few ulps
    # are left to the loop
    bent = batch[4:129] + 1e-9j * np.arange(125) ** 2
    assert series._run_sums(-bent, 0.75, 200, None) is None
    total, _ = series._direct_block(bent, 0.75, 200)
    assert (total == direct_block_oracle(bent, 0.75, 200)[0]).all()


def test_run_tables_take_three_exp_rows_a_slab(monkeypatch):
    # the tables of a run are built by cumprod from a first row and two
    # ratio rows, where one exp row a table row took rows + b of them
    from zetalab import series
    from zetalab.zerofinder import Rectangle
    batch = Rectangle(1.09, 2.0, 9094.421, 9124.421).boundary(
        np.arange(256) / 256)
    m, _ = series._em_plan(*series._extent(batch), 1.0, 2.5e-13)
    assert m == 1978
    run = -batch[4:129]
    exps = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        exps.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    assert series._run_sums(run, 1.0, m, None) is not None
    assert sum(exps) <= 3 * (m - series._HEAD) + series._HEAD * run.size


def test_long_runs_are_summed_in_pieces():
    # the sides of 2^16 boundary points of [1.2,1.6]x[0,1e4], runs of
    # 32,767 points at m = 2,108, go in pieces of at most _RUN_MAX points,
    # and each piece adds its slabs into one running sum.  Kept as a list
    # of P sums a slab, one uncut run would hold about 2,108 rows of 32,767
    # values, near 1.6 GB; the bound is eight times the batch itself
    import tracemalloc
    from zetalab import series
    from zetalab.zerofinder import Rectangle
    batch = Rectangle(1.2, 1.6, 0.0, 1e4).boundary(np.arange(2 ** 16) / 2 ** 16)
    a = 0.7853981634
    m, _ = series._em_plan(*series._extent(batch), a, 1e-12)
    assert m == 2108
    runs = series._runs(-batch, m)
    assert max(hi - lo for lo, hi in runs) <= series._RUN_MAX
    assert sum(hi - lo for lo, hi in runs) >= 2 ** 16 - 8
    tracemalloc.start()
    try:
        series._direct_block(batch, a, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * batch.nbytes


@pytest.mark.parametrize("m", [0, 3, 200, 4097])
def test_batches_without_runs_are_bit_identical_to_the_loop(m):
    from zetalab.series import _direct_block
    from zetalab.zerofinder import Circle
    rng = np.random.default_rng(m)
    batches = [Circle(1.5 + 40j, 0.25).boundary(np.arange(n) / n)
               for n in (64, 720)]
    batches.append(1.2 + 1j * np.sort(rng.uniform(0, 600, 50)))
    batches.append(np.array([1.7 - 3e3j]))
    for batch in batches:
        for kind in ("none", "real", "complex"):
            w = _weights(kind, m)
            total, mass = _direct_block(batch, 0.625, m, w)
            want, want_mass = direct_block_oracle(batch, 0.625, m, w)
            assert (total == want).all() and (mass == want_mass).all()


@pytest.mark.parametrize("t", [10.0, 1e3])
@pytest.mark.parametrize("shift, fvals", EVAL_FAMILIES)
def test_contour_batch_against_mpmath(request, shift, fvals, t):
    import mpmath as mp
    from zetalab.series import series_tail_mp
    from zetalab.zerofinder import Rectangle
    if (shift, fvals) in (EVAL_FAMILIES[2], EVAL_FAMILIES[3]) and t == 1e3:
        # the phase error of the n = 0 term, a^(-sigma) = 9.9 for
        # a = 0.318... at sigma = 2: single points miss tol by as much,
        # 1.8e-12 at 2+1022.3i, and 1.5e-12 at 2+1030i for rat:2,5
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="phase error of large terms at large |t|"))
    tol = 1e-12
    alpha = Alpha.parse(shift)
    f = PeriodicFunction(tuple(float(v) for v in fvals.split(",")))
    batch = Rectangle(1.1, 2.0, t, t + 30).boundary(np.arange(256) / 256)
    values = lfunction(batch, f, alpha, tol=tol)
    # a corner, and points of both long sides at varied places in their runs
    for i in np.linspace(0, 255, 8).astype(int).tolist():
        ref, _ = series_tail_mp(complex(batch[i]), f, alpha, 0, 20)
        v = complex(values[i])
        assert abs(mp.mpc(v.real, v.imag) - ref) <= tol, batch[i]
