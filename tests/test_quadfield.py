"""Quadratic field arithmetic: factorizations and censuses."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zetalab.errors import NotQuadratic
from zetalab.quadfield import (PrimeIdeal, factor_shift, ideal_denominator,
                               private_primes)
from zetalab.quadfield import (_FACTORIZERS, _ShiftFactorizer, _factorizer,
                               _prime_key)
from zetalab.series import Alpha
from zetalab.twist import BlockSchedule

SQRT2 = Alpha.quadratic(0, 1, 2)


def integral_coords(n, alpha):
    """(D, a, b) with D*(n + alpha) = a + b*w over the integral basis {1, w},
    w = sqrt(d) or (1 + sqrt(d))/2, and D the least clearing denominator."""
    x, y, d = alpha.data
    x, y = (n + x - y, 2 * y) if d % 4 == 1 else (n + x, y)
    den = math.lcm(x.denominator, y.denominator)
    return den, int(x * den), int(y * den)


def membership_divides(prime, n, alpha=SQRT2):
    """Independent oracle: does the prime ideal (p, r) contain D*(n + alpha)?

    Membership test in terms of the integral basis: a + b*w lies in
    (p, w - r) iff a + b*r = 0 (mod p); inert primes require p | a and
    p | b.  No valuations, no sieve.  Every prime factor of (n + alpha)*a
    contains D*(n + alpha); for p not dividing D the test is exact.
    """
    _, a, b = integral_coords(n, alpha)
    if prime.kind == "inert":
        return a % prime.p == 0 and b % prime.p == 0
    return (a + b * prime.r) % prime.p == 0


def test_ideal_denominator_examples():
    assert ideal_denominator(SQRT2) == {}
    half = Alpha.quadratic(0, Fraction(1, 2), 2)
    denom = ideal_denominator(half)
    assert len(denom) == 1
    (prime, e), = denom.items()
    assert (prime.p, prime.r, e) == (2, 0, 1)    # norm 2
    golden = Alpha.quadratic(Fraction(1, 2), Fraction(1, 2), 5)
    assert ideal_denominator(golden) == {}
    with pytest.raises(NotQuadratic):
        ideal_denominator(Alpha.rational(1, 3))


def test_factor_shift_refuses_a_float_shift():
    # a plain float used to fail with an AttributeError on alpha.kind
    with pytest.raises(NotQuadratic) as err:
        factor_shift(3, 0.5)
    assert err.value.details["kind"] == "float"


def test_denominator_clears_shifts():
    # a * (n + alpha) integral for every n, and no smaller ideal works
    # n + sqrt(2)/2 = x + y*sqrt(2), and sqrt(2) generates the denominator
    # prime: (x + y*sqrt(2))*sqrt(2) = 2y + x*sqrt(2)
    for n in range(6):
        x, y = Fraction(n), Fraction(1, 2)
        assert (2 * y).denominator == 1 and x.denominator == 1
        assert not (x.denominator == y.denominator == 1) or n != 0


def test_factor_shift_examples():
    f0 = factor_shift(0, SQRT2)
    assert f0.norm == 2
    ((p, e),) = f0.factors
    assert (p.p, p.kind, e) == (2, "ramified", 1)

    f1 = factor_shift(1, SQRT2)           # 1 + sqrt(2) is a unit
    assert f1.norm == 1 and f1.factors == ()

    f3 = factor_shift(3, SQRT2)           # norm 7, and 2 is a QR mod 7
    assert f3.norm == 7
    ((p, e),) = f3.factors
    assert p.p == 7 and p.kind == "split" and e == 1
    assert pow(2, (7 - 1) // 2, 7) == 1   # the splitting criterion


def test_norm_recombination_range():
    for n in range(0, 400):
        fact = factor_shift(n, SQRT2)
        assert Fraction(fact.recombined_norm()) == fact.norm
        assert all(e >= 1 for _, e in fact.factors)


def test_recombination_with_denominator():
    half = Alpha.quadratic(0, Fraction(1, 2), 2)
    for n in range(0, 60):
        fact = factor_shift(n, half)
        assert Fraction(fact.recombined_norm()) == fact.norm


def test_recombination_half_basis_field():
    golden = Alpha.quadratic(Fraction(1, 2), Fraction(1, 2), 5)
    for n in range(0, 120):
        fact = factor_shift(n, golden)
        assert Fraction(fact.recombined_norm()) == fact.norm


def test_private_primes_small_block():
    block = private_primes(0, 5, SQRT2)
    # norms for n = 0..5: 2, 1, 2, 7, 14, 23.  At the ideal level the two
    # primes above 7 are distinct, so n = 3 and n = 4 are both private.
    assert sorted(block.private) == [3, 4, 5]
    assert block.private[3] != block.private[4]
    assert {p.p for p in block.private.values()} == {7, 23}
    assert block.density == 0.6


# an inert prime dividing B, split-prime denominators, a half basis with a
# denominator, class number two, a denominator at an inert prime, a split
# prime dividing B (7 in Q(sqrt 2): p stripped from both coordinates), the
# split prime 2 (d = 17 = 1 mod 8), and the split prime 2 not dividing B,
# where nothing is stripped and one conjugate takes the whole valuation
RANGE_SHAPES = ["quad:0,3,2", "quad:0,1/7,2", "quad:1/4,1/2,5",
                "quad:0,1,10", "quad:1/3,1,2", "quad:0,7,2", "quad:0,1,17",
                "quad:1/2,1/2,17"]
# the shapes whose small blocks in test_small_blocks_match_the_definition
# have a witness above a special prime, one dividing 2*d*D*B
SPECIAL_PRIVATE = {"quad:1/4,1/2,5", "quad:1/3,1,2", "quad:0,1,17",
                   "quad:1/2,1/2,17"}


def shift_primes(alpha, top):
    """The prime ideals of (m + alpha) * a for every m <= top, read from one
    kept segment [0, top] in place of top + 1 one-element sieves."""
    _factorizer(alpha).segment(0, top)
    return [factor_shift(m, alpha).primes() for m in range(top + 1)]


def census_from_scratch(n_start, length, alpha, primes=None):
    """The census by its definition: every occurrence over 0..top counted.
    primes, when given, lists the prime ideals of each m up to at least top."""
    top = n_start + length
    primes = primes or shift_primes(alpha, top)
    occurrences = {}
    for m in range(top + 1):
        for prime in primes[m]:
            occurrences.setdefault(prime, []).append(m)
    private = {}
    for n in range(n_start + 1, top + 1):
        for prime in primes[n]:
            if occurrences[prime] == [n]:
                private[n] = prime
                break
    return private


def test_private_primes_match_membership_oracle():
    # one warm factorizer, queried past its kept segment and then below it
    _FACTORIZERS.clear()
    for n_start, length in ((500, 15), (0, 30), (100, 20)):
        block = private_primes(n_start, length, SQRT2)
        top = n_start + length
        for n in range(n_start + 1, top + 1):
            fact = factor_shift(n, SQRT2)
            # oracle: n is private iff some prime of n divides no other shift
            has_private = False
            for prime in fact.primes():
                if not any(membership_divides(prime, m)
                           for m in range(top + 1) if m != n):
                    has_private = True
                    break
            assert has_private == (n in block.private), n


# the shifts of the benchmark's greedy ledgers
LEDGER_SHIFTS = ["quad:0,1,5", "quad:1/2,1,2", "quad:0,1,7", "quad:1/3,1,2",
                 "quad:0,1,2", "quad:0,1,3", "quad:1/2,1,3", "quad:0,1,6"]


def test_private_primes_over_a_schedule_match_the_definition():
    # the blocks of a 30-block ledger on every ledger shift, and on a half
    # basis with a denominator ideal
    schedule = BlockSchedule(n1=1000, num_blocks=30)
    for shape in LEDGER_SHIFTS + ["quad:1/4,1/2,5"]:
        alpha = Alpha.parse(shape)
        _FACTORIZERS.clear()
        n, blocks = schedule.n1, []
        for _ in range(schedule.num_blocks):
            blocks.append((n, schedule.block_length(n)))
            n += blocks[-1][1]
        primes = shift_primes(alpha, n)
        for n, m_len in blocks:
            block = private_primes(n, m_len, alpha)
            assert block.private == census_from_scratch(n, m_len, alpha,
                                                        primes), (shape, n)


@pytest.mark.parametrize("shape", RANGE_SHAPES)
def test_small_blocks_match_the_definition(shape):
    # near 0 the ideals above the special primes dividing 2*d*D*B can be
    # private too, where the rule must also look at their other classes
    alpha = Alpha.parse(shape)
    _FACTORIZERS.clear()
    primes = shift_primes(alpha, 40)
    special = set(_factorizer(alpha).above)
    witnesses = []
    for n_start, length in ((0, 5), (3, 4), (0, 1), (1, 12), (7, 30)):
        block = private_primes(n_start, length, alpha)
        assert block.private == census_from_scratch(n_start, length, alpha,
                                                    primes), (n_start, length)
        witnesses += block.private.values()
    assert (shape in SPECIAL_PRIVATE) == \
        any(w.p in special for w in witnesses)


def test_private_primes_read_the_same_from_a_segment_past_the_block():
    # a ledger sieves ahead of its block in one segment, and a census reads
    # the same from it as from a segment of the block alone
    schedule = BlockSchedule(n1=1000, num_blocks=30)
    blocks, n = [], schedule.n1
    for _ in range(schedule.num_blocks):
        blocks.append((n, schedule.block_length(n)))
        n += blocks[-1][1]
    for alpha in (SQRT2, Alpha.quadratic(Fraction(1, 2), 1, 3)):
        _FACTORIZERS.clear()
        per_block = [private_primes(n, m, alpha) for n, m in blocks]
        assert len(_factorizer(alpha).segments) == len(blocks)
        _FACTORIZERS.clear()
        _factorizer(alpha).segment(schedule.n1 + 1, n)
        assert [private_primes(n, m, alpha) for n, m in blocks] == per_block
        assert len(_factorizer(alpha).segments) == 1


@pytest.mark.parametrize("shape", RANGE_SHAPES)
def test_each_prime_ideal_divides_one_class(shape):
    # the census rule: a P above p dividing (n + alpha) * a contains
    # D*(n + p + alpha), and divides no shift outside the class of n mod p
    alpha = Alpha.parse(shape)
    primes = shift_primes(alpha, 300)
    for n in range(301):
        for prime in primes[n]:
            assert membership_divides(prime, n + prime.p, alpha), (n, prime)
            assert all(m % prime.p == n % prime.p
                       for m in range(301) if prime in primes[m]), (n, prime)


def test_membership_oracle_consistency():
    # every factor found by valuations passes the membership test
    for n in range(1, 200):
        for prime in factor_shift(n, SQRT2).primes():
            assert membership_divides(prime, n)


@pytest.mark.parametrize("shape", RANGE_SHAPES)
def test_range_factorizations_match_single_elements(shape):
    alpha = Alpha.parse(shape)
    d = alpha.data[2]
    _FACTORIZERS.clear()
    # each n factored alone: nothing has been indexed, so factor_shift
    # sieves the one-element range [n, n]
    single = [factor_shift(n, alpha) for n in range(1501)]
    _FACTORIZERS.clear()
    fz = _factorizer(alpha)
    lo = 0
    for top in (0, 1, 7, 150, 151, 640, 1499, 1500):   # uneven segments
        fz.segment(lo, top)
        lo = top + 1
    den = integral_coords(0, alpha)[0]
    for n in range(1501):
        fact = factor_shift(n, alpha)
        assert fact == single[n], n
        for prime, _ in fact.factors:
            assert membership_divides(prime, n, alpha), (n, prime)
            if prime.kind == "split" and den % prime.p:
                # which conjugate divides: the oracle decides it alone
                r = (-prime.r if d % 4 != 1 else 1 - prime.r) % prime.p
                other = PrimeIdeal(prime.p, r, "split")
                assert (other in fact.primes()) == \
                    membership_divides(other, n, alpha), (n, prime)


@pytest.mark.parametrize("shape", RANGE_SHAPES)
def test_factors_come_in_prime_key_order(shape):
    # the sieve sorts by plain tuple order; that must be _prime_key order
    alpha = Alpha.parse(shape)
    _factorizer(alpha).segment(0, 3000)
    for n in range(3001):
        keys = [_prime_key(prime)
                for prime, _ in factor_shift(n, alpha).factors]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:])), (n, keys)


# sqrt(2)/7^5: its denominator ideal has norm 7^10, so the norms the sieve
# forms pass 2^63 between n = 10 and n = 11, where quad:0,1,2 would not
# pass it before n of about 3e9, far past any root table
SWITCH = Alpha.parse("quad:0,1/16807,2")


def test_sieve_switches_to_python_integers_past_int64():
    fz = _ShiftFactorizer(SWITCH)
    assert fz._sieve(0, 10).norm.dtype == np.int64
    assert fz._sieve(10, 11).norm.dtype == object
    assert fz._sieve(11, 11).norm.dtype == object


def test_ranges_across_the_int64_switch_match_single_elements():
    _FACTORIZERS.clear()
    single = [factor_shift(n, SWITCH) for n in range(17)]
    # one kept segment in either dtype, or an int64 segment and an object
    # one
    for lo, hi in ((0, 10), (0, 16), (9, 13), (11, 16)):
        _FACTORIZERS.clear()
        if lo:
            _factorizer(SWITCH).segment(0, lo - 1)
        _factorizer(SWITCH).segment(lo, hi)
        for n in range(hi + 1):
            fact = factor_shift(n, SWITCH)
            assert fact == single[n], (lo, hi, n)
            assert Fraction(fact.recombined_norm()) == fact.norm
            for prime in fact.primes():
                assert membership_divides(prime, n, SWITCH), (n, prime)
        block = private_primes(lo, hi - lo, SWITCH)
        assert block.private == census_from_scratch(lo, hi - lo, SWITCH)


@pytest.mark.parametrize("alpha, n", [(SQRT2, 3), (SWITCH, 16)],
                         ids=["int64", "object"])
def test_norm_recombination_check_fires(alpha, n):
    # the recombination product is built inside the sieve; a wrong norm on
    # the other side of the check must still be caught, in either dtype
    fz = _ShiftFactorizer(alpha)
    fz.denominator_norm += 1
    with pytest.raises(ArithmeticError, match="norm recombination failed"):
        fz.factor(n)


def test_queries_inside_a_kept_segment_read_it(monkeypatch):
    _FACTORIZERS.clear()
    fz = _factorizer(SQRT2)
    fz.segment(0, 2000)
    expected = {(n_start, length): census_from_scratch(n_start, length, SQRT2)
                for n_start, length in ((0, 30), (1000, 10), (1980, 20))}

    def no_sieve(lo, hi):
        raise AssertionError(f"re-sieved [{lo}, {hi}] inside a kept segment")

    monkeypatch.setattr(fz, "_sieve", no_sieve)
    for n in (0, 1, 999, 1500, 2000):
        factor_shift(n, SQRT2)
    for (n_start, length), private in expected.items():
        assert private_primes(n_start, length, SQRT2).private == private
    assert [(seg.lo, seg.hi) for seg in fz.segments] == [(0, 2000)]


def test_a_cold_single_shift_is_sieved_alone(monkeypatch):
    # outside every kept segment one n is sieved over [n, n], and kept
    # nowhere: every request makes an equal record
    alpha = Alpha.parse("quad:1/3,1,2")
    _FACTORIZERS.clear()
    spans = []

    def counted(self, lo, hi):
        spans.append((lo, hi))
        return sieve(self, lo, hi)

    sieve = _ShiftFactorizer._sieve
    with monkeypatch.context() as m:
        m.setattr(_ShiftFactorizer, "_sieve", counted)
        first = factor_shift(100000, alpha)
        assert factor_shift(100000, alpha) == first
        cold = factor_shift(5000, alpha)
    assert spans == [(100000, 100000)] * 2 + [(5000, 5000)]
    assert _factorizer(alpha).segments == []
    assert Fraction(first.recombined_norm()) == first.norm
    _factorizer(alpha).segment(0, 5000)
    assert factor_shift(5000, alpha) == cold


def test_a_far_census_sieves_its_block_alone(monkeypatch):
    # the census reads the block's own factorizations: nothing below it
    _FACTORIZERS.clear()
    spans = []

    def counted(self, lo, hi):
        spans.append((lo, hi))
        return sieve(self, lo, hi)

    sieve = _ShiftFactorizer._sieve
    monkeypatch.setattr(_ShiftFactorizer, "_sieve", counted)
    block = private_primes(10**6, 10, SQRT2)
    for n in range(10**6 + 1, 10**6 + 11):
        factor_shift(n, SQRT2)
    assert spans == [(10**6 + 1, 10**6 + 10)]
    # each witness divides its n, and its class mod p meets [0, 10^6 + 10]
    # at n alone
    assert block.private
    for n, prime in block.private.items():
        assert membership_divides(prime, n)
        assert n < prime.p and n + prime.p > 10**6 + 10


def test_split_prime_denominator():
    # sqrt(2)/7: both primes above 7 carry the denominator
    a7 = Alpha.quadratic(0, Fraction(1, 7), 2)
    denom = ideal_denominator(a7)
    assert sorted((p.p, p.r) for p in denom) == [(7, 3), (7, 4)]
    assert all(e == 1 for e in denom.values())
    for n in range(12):
        fact = factor_shift(n, a7)
        assert Fraction(fact.recombined_norm()) == fact.norm
