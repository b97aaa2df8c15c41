"""Twisted series: truncation, sign change, greedy induction."""

import ast
import cmath
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zetalab.quadfield as quadfield
import zetalab.twist as twist
from zetalab.errors import AnnulusGap, CaseUnreachable, NoSuchIndex, \
    NotQuadratic, SignChangeNotBracketed, ZetalabError
from zetalab.quadfield import factor_shift
from zetalab.series import Alpha, PeriodicFunction, series_tail_mp
from zetalab.twist import (BlockSchedule, TwistedSeries,
                           choose_case_sigma, find_sigma0, greedy_step,
                           run_schedule, truncation_index)
from zetalab.twist import _correction

ONE = PeriodicFunction.constant()
SQRT2 = Alpha.quadratic(0, 1, 2)


def head_and_bound(f, alpha, delta, m):
    a = float(alpha)
    head = math.fsum(f(n) / (n + a) ** (1 + delta) for n in range(m + 1))
    bound = f.max_abs * (m + a) ** (-delta) / delta
    return head, bound


def test_truncation_examples():
    # delta = 1, alpha = 1: head(0) = 1 equals the bound, head(1) beats it
    assert truncation_index(ONE, 1.0, 1.0) == 1
    h, b = head_and_bound(ONE, 1.0, 1.0, 0)
    assert not h > b
    h, b = head_and_bound(ONE, 1.0, 1.0, 1)
    assert h > b
    # huge delta: the first term dominates alone
    assert truncation_index(ONE, 1.0, 10.0) == 0
    # the returned index satisfies the inequality it claims
    m = truncation_index(ONE, 1.0, 0.35)
    h, b = head_and_bound(ONE, 1.0, 0.35, m)
    assert h > b
    h, b = head_and_bound(ONE, 1.0, 0.35, m - 1)
    assert not h > b


def test_truncation_small_delta_grows_fast():
    m = truncation_index(ONE, 1.0, 0.01)
    assert m > 1e25          # exp-scale growth in 1/delta
    # the inequality holds at the returned index, checked through the
    # split-tail evaluator (term-by-term is impossible here)
    from zetalab.series import series_head
    s = 1.01
    head = series_head(s + 0j, ONE, 1.0, m, tol=1e-9).real
    bound = (m + 1.0) ** -0.01 / 0.01
    assert head > bound


@pytest.mark.parametrize("delta, expected", [
    (1.0, 1), (0.35, 3), (0.05, 591474),
    (0.01, 712400955135952592051195871232)])
def test_truncation_evaluates_the_full_series_once(delta, expected,
                                                   monkeypatch):
    # L(1 + delta) is the same at every doubling and bisection step; the
    # linear scan alone needs none
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return twist_lfunction(*args, **kwargs)

    twist_lfunction = twist.lfunction
    monkeypatch.setattr(twist, "lfunction", counted)
    m = truncation_index(ONE, 1.0, delta)
    assert m == expected
    assert len(calls) == (1 if m > twist._LINEAR_CAP else 0)


def test_truncation_rejects_nonpositive_residue():
    with pytest.raises(NoSuchIndex):
        truncation_index(PeriodicFunction((1.0, -1.0)), 1.0, 1.0)
    with pytest.raises(NoSuchIndex):
        truncation_index(PeriodicFunction((-1.0,)), 1.0, 1.0)


def test_head_minus_bound_monotone_for_positive_f():
    f = PeriodicFunction((1.0, 0.5, 1.4))
    gaps = []
    for m in range(0, 60):
        h, b = head_and_bound(f, 0.8, 0.5, m)
        gaps.append(h - b)
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_find_sigma0_classic():
    # flip after n = 1: F(s) = 2(1 + 2^-s) - zeta(s); root frozen from an
    # independent mpmath root-find of that closed form
    series = TwistedSeries(ONE, 1.0, flip_index=1)
    sigma0, lo, hi = find_sigma0(series, 1.0, tol=1e-10)
    assert lo <= sigma0 <= hi
    assert abs(sigma0 - 1.4740898895836146) < 1e-7
    assert abs(series.evaluate(complex(sigma0, 0)).real) <= 1e-10
    with mp.workdps(30):
        root = mp.findroot(lambda s: 2 * (1 + 2 ** -s) - mp.zeta(s), 1.5)
        assert abs(sigma0 - float(root)) < 1e-8


def test_sign_flip_positive_at_right_endpoint():
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = int(rng.integers(1, 5))
        f = PeriodicFunction(tuple(rng.uniform(0.5, 1.5, q)))
        alpha = float(rng.uniform(0.3, 3))
        delta = float(rng.uniform(0.2, 1.5))
        m = truncation_index(f, alpha, delta)
        series = TwistedSeries(f, alpha, flip_index=m)
        assert series.evaluate(complex(1 + delta, 0)).real > 0
        sigma0, _, _ = find_sigma0(series, delta)
        assert 1 < sigma0 < 1 + delta


def test_sign_flip_identity_against_brute_force():
    f = PeriodicFunction((1.2, 0.9))
    m = 7
    series = TwistedSeries(f, 1.3, flip_index=m)
    s = 3 + 0j
    brute = math.fsum((f(n) if n <= m else -f(n)) / (n + 1.3) ** 3
                      for n in range(400_000))
    assert abs(series.evaluate(s).real - brute) < 1e-10


def test_find_sigma0_requires_bracket():
    falt = PeriodicFunction((1.0, -1.0))   # no pole: F does not blow down
    series = TwistedSeries(falt, 1.0, flip_index=3)
    with pytest.raises(SignChangeNotBracketed):
        find_sigma0(series, 1.0)


@given(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                          allow_infinity=False),
       st.floats(1e-9, 1e6))
@settings(max_examples=300, deadline=None)
def test_correction_rule_identity(lam, s3):
    z = _correction(lam, s3)
    assert abs(abs(lam + z) - max(0.0, abs(lam) - s3)) <= 1e-12 * max(1.0, abs(lam))


def test_correction_rule_cases():
    assert _correction(0j, 2.0) == 0j
    assert _correction(3 + 0j, 5.0) == -3 + 0j          # full cancellation
    z = _correction(10 + 0j, 4.0)
    assert abs(z - (-4 + 0j)) < 1e-14                   # clamped pullback
    assert abs(abs(10 + z) - 6.0) < 1e-14


def test_greedy_step_examples():
    free = [1.0, 1.0, 1.0]
    correction, phases, partial = greedy_step(0j, free)
    assert correction == 0j
    assert abs(partial) <= 1e-9

    correction, _, partial = greedy_step(3 + 0j, free)
    assert correction == -3 + 0j
    assert abs(partial) <= 1e-9

    correction, _, partial = greedy_step(10 + 0j, [1.0] * 4)
    assert abs(correction + 4) < 1e-12
    assert abs(abs(partial) - 6.0) <= 1e-9


def test_greedy_step_phases_follow_the_weights():
    # one phase per weight, in the weights' order, summing to the correction
    weights = [0.5, 2.0, 1.25, 0.75, 1.0]
    for lam in (3 - 1j, 10 + 0j, 0.25j):
        correction, phases, partial = greedy_step(lam, weights)
        assert isinstance(phases, list) and len(phases) == len(weights)
        realized = sum(w * cmath.exp(1j * ph)
                       for w, ph in zip(weights, phases))
        assert abs(realized - correction) <= 1e-9
        assert partial == lam + realized
    assert greedy_step(2 - 1j, []) == (0j, [], 2 - 1j)


def test_greedy_step_annulus_gap():
    with pytest.raises(AnnulusGap):
        greedy_step(1 + 0j, [1.0])
    with pytest.raises(AnnulusGap):
        greedy_step(1 + 0j, [1.0, 3.0])


def test_case_sigma_found_and_unreachable():
    sigma = choose_case_sigma(ONE, SQRT2, 1000)
    assert 1 < sigma < 2
    from zetalab.series import series_head, series_tail
    head = series_head(sigma + 0j, ONE, SQRT2, 1000, tol=1e-9).real
    tail = series_tail(sigma + 0j, ONE, SQRT2, 1001, tol=1e-9).real
    assert head < 1e-2 * tail
    with pytest.raises(CaseUnreachable):
        choose_case_sigma(PeriodicFunction((1.0, -1.0)), SQRT2, 1000)


def test_fixed_sigma_too_large_halts():
    # an exponent with a small tail cannot satisfy the damping inequality
    schedule = BlockSchedule(n1=1000, num_blocks=3, sigma=1.5)
    report = run_schedule(ONE, SQRT2, schedule, hp_check=False)
    assert not report.ok
    assert report.halted_at == 1
    assert not report.blocks[0].damping_ok


def test_short_authentic_run():
    schedule = BlockSchedule(n1=1000, num_blocks=5)
    report = run_schedule(ONE, SQRT2, schedule, hp_check=False)
    assert report.ok and report.halted_at is None
    assert len(report.blocks) == 5
    a = SQRT2.value
    for row in report.blocks:
        assert row.damping_ok
        assert row.damping_lhs < row.damping_rhs
        assert row.realize_err < 1e-8
        assert row.pair_ratio < 3.0
        # masses recomputed from scratch here
        s2 = math.fsum(1.0 / (n + a) ** report.sigma
                       for n in range(row.n_start + 1, row.n_end + 1)
                       if n not in range(0))  # all block terms
        assert row.s2 + row.s3 <= s2 + 1e-12
        assert abs((row.s2 + row.s3) - s2) < 1e-9


def test_greedy_blocks_partition():
    schedule = BlockSchedule(n1=500, num_blocks=4)
    report = run_schedule(ONE, SQRT2, schedule, hp_check=False)
    prev_end = None
    for row in report.blocks:
        assert row.free_count + row.fixed_count == row.n_end - row.n_start
        if prev_end is not None:
            assert row.n_start == prev_end
        prev_end = row.n_end


@pytest.mark.parametrize("field, value", [
    ("scale_den", 0), ("n1", -5), ("num_blocks", -1),
])
def test_block_schedule_refuses_bad_fields(field, value):
    with pytest.raises(ValueError, match=f"needs {field} "):
        BlockSchedule(**{field: value})


def test_block_schedule_accepts_edge_values():
    BlockSchedule(n1=0, num_blocks=0, scale_den=1)


@pytest.mark.parametrize("alpha, schedule", [
    (SQRT2, BlockSchedule(n1=1000, num_blocks=5)),
], ids=["authentic"])
def test_unified_ledger_invariants(alpha, schedule):
    # the sums read one angle table: the chain form of a block is the
    # previous settled sum plus the block's fixed mass minus its free mass
    report = run_schedule(ONE, alpha, schedule, hp_check=False)
    assert report.ok and len(report.blocks) == schedule.num_blocks
    prev = None
    for row in report.blocks:
        assert row.free_count + row.fixed_count == row.n_end - row.n_start
        assert row.realize_err <= 1e-9
        if prev is not None:
            assert row.chain_lhs == prev.damping_lhs + row.s2 - row.s3
        prev = row


def test_ledger_refuses_nonpositive_f_before_any_work(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("work done before the f > 0 check")

    monkeypatch.setattr(twist, "choose_case_sigma", boom)
    monkeypatch.setattr(quadfield._ShiftFactorizer, "segment", boom)
    for f in (PeriodicFunction((1.0, 0.0)), PeriodicFunction((1.0, -0.5, 2.0))):
        with pytest.raises(ValueError, match="f > 0"):
            run_schedule(f, SQRT2, BlockSchedule(n1=1000, num_blocks=2),
                         hp_check=False)


@pytest.mark.parametrize("alpha, kind", [
    (Alpha.rational(1, 2), "rational"), (0.5, "float"),
], ids=["rational", "float"])
def test_ledger_refuses_a_shift_that_is_not_quadratic_before_any_work(
        monkeypatch, alpha, kind):
    def boom(*args, **kwargs):
        raise AssertionError("work done before the shift check")

    monkeypatch.setattr(twist, "choose_case_sigma", boom)
    monkeypatch.setattr(quadfield._ShiftFactorizer, "segment", boom)
    with pytest.raises(NotQuadratic) as err:
        run_schedule(ONE, alpha, BlockSchedule(n1=1000, num_blocks=2),
                     hp_check=False)
    assert err.value.details["kind"] == kind


def test_hp_recheck_agrees_with_float():
    schedule = BlockSchedule(n1=800, num_blocks=3)
    report = run_schedule(ONE, SQRT2, schedule, hp_check=True)
    for row in report.blocks:
        assert row.damping_ok_hp
        assert abs(row.damping_lhs - row.damping_lhs_hp) < 1e-9
        assert abs(row.damping_rhs - row.damping_rhs_hp) < 1e-9


def from_scratch_sums(report, f, alpha, dps=30):
    """The settled sum at every block start and end, summed from n = 0 under
    the report's final character values: top -> (the float sum, the modulus
    of the dps-digit sum)."""
    a, sigma = float(alpha), report.sigma
    tops = {row.n_start for row in report.blocks} | \
        {row.n_end for row in report.blocks}
    sums = {}
    acc = 0j
    with mp.workdps(dps):
        a_mp = alpha.value_mp()
        acc_hp = mp.mpc(0)
        for n in range(max(tops) + 1):
            total = 0.0
            for prime, e in factor_shift(n, alpha).factors:
                total += e * report.prime_angles[prime]
            angle = math.fmod(total, 2.0 * math.pi)
            acc += f(n) / (n + a) ** sigma * cmath.exp(1j * angle)
            ang = mp.mpf(angle)
            acc_hp += (f(n) * (mp.cos(ang) + 1j * mp.sin(ang))
                       / (n + a_mp) ** sigma)
            if n in tops:
                sums[n] = (acc, abs(acc_hp))
    return sums


def test_ledger_matches_from_scratch_recompute():
    # the running prefixes agree bit for bit with sums taken from n = 0
    # under the final character values, since those never change once
    # a block ends
    schedule = BlockSchedule(n1=200, num_blocks=15, scale_den=10)
    report = run_schedule(ONE, SQRT2, schedule, hp_check=True)
    assert report.ok and len(report.blocks) == 15
    sums = from_scratch_sums(report, ONE, SQRT2)
    for row in report.blocks:
        assert row.damping_lhs == abs(sums[row.n_end][0])
        assert row.chain_lhs == abs(sums[row.n_start][0]) + row.s2 - row.s3
        assert row.damping_lhs_hp == float(sums[row.n_end][1])


def test_hp_head_keeps_its_digits_near_the_pole():
    # the 30-digit head is L minus the tail from n1 + 1, each about 2^20
    # here, so about six digits cancel
    sigma = 1 + 2 ** -20
    schedule = BlockSchedule(n1=200, num_blocks=5, scale_den=10, sigma=sigma)
    report = run_schedule(ONE, SQRT2, schedule, hp_check=True)
    assert report.ok and len(report.blocks) == 5
    sums = from_scratch_sums(report, ONE, SQRT2)
    for row in report.blocks:
        assert row.damping_lhs_hp == float(sums[row.n_end][1])
    # here the free mass cancels the settled sum down to about 1e-16, where
    # lost digits show: the ledger stays within 30-digit rounding of a
    # 50-digit sum (without the guard digits it is 2.2e-26 off)
    schedule = BlockSchedule(n1=20, num_blocks=8, scale_den=1, sigma=sigma)
    report = run_schedule(ONE, SQRT2, schedule, hp_check=True)
    assert report.ok and report.blocks[-1].damping_lhs_hp < 1e-15
    sums = from_scratch_sums(report, ONE, SQRT2, dps=50)
    with mp.workdps(50):
        for row in report.blocks:
            ref = sums[row.n_end][1]
            assert abs(row.damping_lhs_hp - ref) <= 1e-28 + ref * 2.0 ** -53


@pytest.mark.parametrize("alpha, f, blocks", [
    (Alpha.parse("quad:0,1,7"), ONE, 50),
    (SQRT2, PeriodicFunction((1.0, 2.0)), 20),
], ids=["quad:0,1,7", "quad:0,1,2-f1,2"])
def test_hp_tail_is_carried_exactly(alpha, f, blocks):
    # the 30-digit tail is evaluated once, from n1 + 1, and each block
    # subtracts its own 30-digit mass.  Carried so, it stays within 1e-25
    # relative of a fresh mpmath tail at every block end, and the ledger
    # reports the double that the fresh tail rounds to.
    report = run_schedule(f, alpha, BlockSchedule(num_blocks=blocks),
                          hp_check=True)
    assert report.ok and len(report.blocks) == blocks
    sigma = report.sigma
    with mp.workdps(30):
        a_mp, sigma_mp = alpha.value_mp(), mp.mpf(sigma)
        carried = series_tail_mp(sigma, f, alpha, report.blocks[0].n_start + 1,
                                 30)[0]
        for row in report.blocks:
            carried -= mp.fsum(f(n) / (n + a_mp) ** sigma_mp
                               for n in range(row.n_start + 1, row.n_end + 1))
            fresh = series_tail_mp(sigma, f, alpha, row.n_end + 1, 30)[0]
            assert abs(carried - fresh) <= 1e-25 * fresh, row.j
            assert row.damping_rhs_hp == float(mp.mpf("0.01") * fresh), row.j


def test_hp_ledger_calls_mpmath_tails_twice(monkeypatch):
    # one tail from 0 and one from n1 + 1, however many blocks: a per-block
    # mpmath call must not come back
    starts = []

    def counted(*args, **kwargs):
        starts.append(args[3])
        return tail_mp(*args, **kwargs)

    tail_mp = twist.series_tail_mp
    monkeypatch.setattr(twist, "series_tail_mp", counted)
    report = run_schedule(ONE, Alpha.parse("quad:0,1,7"),
                          BlockSchedule(n1=1000, num_blocks=50),
                          hp_check=True)
    assert report.ok and len(report.blocks) == 50
    assert starts == [0, 1001]



@pytest.fixture
def sieved(monkeypatch):
    """The spans sieved from here on, by factorizers made from here on."""
    spans = []

    def counted(self, lo, hi):
        spans.append((lo, hi))
        return sieve(self, lo, hi)

    sieve = quadfield._ShiftFactorizer._sieve
    monkeypatch.setattr(quadfield._ShiftFactorizer, "_sieve", counted)
    monkeypatch.setattr(quadfield, "_FACTORIZERS", {})
    return spans


def test_authentic_ledger_sieves_once(sieved):
    # one segment from n1 + 1 to the last block end, sieved before the first
    # block: nothing up to n1, and not one sieve per block
    report = run_schedule(ONE, SQRT2, BlockSchedule(n1=1000, num_blocks=20),
                          hp_check=False)
    assert report.ok and len(report.blocks) == 20
    assert sieved == [(1001, report.blocks[-1].n_end)]


def test_halting_ledger_sieves_near_its_halt(sieved):
    # this schedule would end near n = 19,800, but the ledger halts at its
    # first block (n <= 1010); the segment stops at twice that block's end
    report = run_schedule(ONE, Alpha.parse("quad:0,1,7"),
                          BlockSchedule(n1=1000, num_blocks=300, sigma=1.5),
                          hp_check=False)
    assert report.halted_at == 1
    assert sieved == [(1001, 2020)]


def test_a_long_ledger_sieves_ahead_by_doubling(sieved):
    # past its first segment the ledger sieves from the block in hand to
    # twice its end, or to the schedule's end
    report = run_schedule(ONE, SQRT2, BlockSchedule(n1=200, num_blocks=40,
                                                    scale_den=10),
                          hp_check=False)
    assert report.ok and len(report.blocks) == 40
    end = report.blocks[-1].n_end
    block_at = {row.n_start + 1: row for row in report.blocks}
    assert sieved[0][0] == 201 and sieved[-1][1] == end
    prev_hi = 200
    for lo, hi in sieved:
        # a new segment starts at the first block the last one cut
        row = block_at[lo]
        assert row.n_start <= prev_hi < row.n_end
        assert hi == min(end, 2 * row.n_end)
        prev_hi = hi
    assert len(sieved) == 5


def test_cold_ledgers_sieve_the_same_ranges(sieved):
    # a ledger keeps no state but the factorizer cache: emptied, it sieves
    # again exactly what it sieved the first time
    alpha = Alpha.parse("quad:1/2,1,3")
    schedule = BlockSchedule(n1=1000, num_blocks=50)
    runs = []
    for _ in range(2):
        quadfield._FACTORIZERS.clear()
        del sieved[:]
        report = run_schedule(ONE, alpha, schedule, hp_check=False)
        runs.append((list(sieved), report.to_json()))
    assert runs[0] == runs[1]
    assert runs[0][0] == [(1001, report.blocks[-1].n_end)]


def test_witness_with_an_angle_is_refused(monkeypatch):
    # a census naming a witness that already carries an angle would change
    # terms the running prefixes have summed; the ledger must refuse it
    def census(self, n_start, top):
        labels = private(self, n_start, top)
        n = next(n for n in range(n_start + 1, top + 1)
                 if n % 2 == 0 and n not in labels)
        # (2, 0) labels the ramified prime above 2, which divides every even
        # shift, n = 0 too
        assert self.ideals([(2, 0)]) == [factor_shift(n, SQRT2).factors[0][0]]
        return {**labels, n: (2, 0)}

    private = quadfield._ShiftFactorizer.private
    monkeypatch.setattr(quadfield._ShiftFactorizer, "private", census)
    with pytest.raises(ZetalabError, match="witness prime") as err:
        run_schedule(ONE, SQRT2, BlockSchedule(n1=1000, num_blocks=1),
                     hp_check=False)
    assert err.value.details["witness"] == "(2,0)"


def test_ledger_makes_its_prime_ideals_in_one_call(monkeypatch):
    # the ledger keys its angles by sieve label; the report's PrimeIdeals
    # are made once, for every witness, after the last block
    calls = []

    def counted(self, labels):
        labels = list(labels)
        calls.append(len(labels))
        return ideals(self, labels)

    ideals = quadfield._ShiftFactorizer.ideals
    monkeypatch.setattr(quadfield._ShiftFactorizer, "ideals", counted)
    report = run_schedule(ONE, SQRT2, BlockSchedule(n1=1000, num_blocks=50),
                          hp_check=False)
    assert report.ok
    assert calls == [sum(row.free_count for row in report.blocks)]
    assert calls[0] == len(report.prime_angles)


def test_twist_reads_quadfield_through_the_factorizer_alone():
    # witnesses cross from quadfield to twist as sieve labels, so twist needs
    # the cached factorizer and nothing else of quadfield
    tree = ast.parse(Path(twist.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module and node.module.endswith("quadfield")
             for alias in node.names]
    assert names == ["_factorizer"]
