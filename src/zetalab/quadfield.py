"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Supports the ideal bookkeeping the greedy character construction needs:
the denominator ideal of a shift alpha, factorization of the integral
ideals (n + alpha)*a into prime ideals, detection of primes private to a
single n inside a block, and a multiplicative basis (with verified integer
exponent vectors) of the group generated by the shifted elements.

Elements are stored as x + y*sqrt(d) with exact rational coordinates.
Prime ideals above p are labeled (p, r) where r is the smallest nonnegative
root mod p of the minimal polynomial of the integral generator w (w =
sqrt(d), or (1+sqrt(d))/2 when d = 1 mod 4); inert primes carry r = None.

Factorizations are sieved over whole ranges of n in integer arithmetic.
With D the common denominator of alpha's integral coordinates,
D*(n + alpha) = A(n) + B*w where A(n) = D*n + A0, and its norm g(n) is an
integer quadratic in n.  The few primes dividing 2*d*D*B get exact local
valuations (at a split one, p is stripped from both coordinates, and what
is left lies in at most one of the two conjugate ideals).  Any other prime
dividing g(n) is split, and its ideal (p, r) divides exactly the n in one
residue class mod p, with exponent v_p(g(n)).  Once the primes up to the
square root of the largest cofactor are stripped, what is left of g(n) is
1 or one prime q, whose ideal is (q, -A(n)/B mod q).  Two checks guard
every factorization: the ideal (n + alpha)*a must come out integral, and
the norms of its prime factors must multiply back to its norm.

The interface is degree-agnostic on purpose (factorizations are lists of
labeled primes with exponents); only the quadratic case is implemented.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import mpmath as mp

from .errors import NotQuadratic
from .series import Alpha, _is_squarefree

__all__ = [
    "QuadraticField", "QuadElement", "PrimeIdeal", "IdealFactorization",
    "CasselsBlock", "MultiplicativeBasis", "ideal_denominator", "factor_shift",
    "private_primes", "multiplicative_basis", "fundamental_unit",
]


# ---------------------------------------------------------------------------
# rational-prime utilities
# ---------------------------------------------------------------------------

_SIEVE_LIMIT = 1 << 12
_SIEVE: list[int] = []


def _primes_up_to(n: int) -> list[int]:
    global _SIEVE, _SIEVE_LIMIT
    if not _SIEVE or _SIEVE_LIMIT < n:
        while _SIEVE_LIMIT < n:
            _SIEVE_LIMIT <<= 1
        sieve = bytearray([1]) * (_SIEVE_LIMIT + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, int(_SIEVE_LIMIT ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
        _SIEVE = list(itertools.compress(range(_SIEVE_LIMIT + 1), sieve))
    return _SIEVE


def _factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (desk-scale inputs)."""
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    limit = math.isqrt(n) + 1
    for p in _primes_up_to(max(limit, 4096)):
        if p > limit:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
            limit = math.isqrt(n) + 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sqrt_mod_p(a: int, p: int) -> int | None:
    """Tonelli-Shanks; smallest root of x^2 = a (mod p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# field and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticField:
    """Real quadratic field Q(sqrt(d)), d >= 2 squarefree."""

    d: int

    def __post_init__(self):
        if not _is_squarefree(self.d):
            raise ValueError("d must be squarefree and >= 2")

    @property
    def half_basis(self) -> bool:
        """True when the ring of integers is Z[(1+sqrt(d))/2]."""
        return self.d % 4 == 1

    def element(self, x, y) -> "QuadElement":
        return QuadElement(Fraction(x), Fraction(y), self.d)

    def from_alpha(self, alpha: Alpha) -> "QuadElement":
        if alpha.kind != "quadratic":
            raise NotQuadratic("shift is not a quadratic irrational",
                               kind=alpha.kind)
        a, b, d = alpha.data
        if d != self.d:
            raise ValueError("shift belongs to a different field")
        return QuadElement(Fraction(a), Fraction(b), d)


@dataclass(frozen=True)
class QuadElement:
    """x + y*sqrt(d) with exact rational coordinates."""

    x: Fraction
    y: Fraction
    d: int

    def __add__(self, other):
        if isinstance(other, QuadElement):
            return QuadElement(self.x + other.x, self.y + other.y, self.d)
        return QuadElement(self.x + Fraction(other), self.y, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(-self.x, -self.y, self.d)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuadElement)
                       else QuadElement(Fraction(-other), Fraction(0), self.d))

    def __mul__(self, other):
        if isinstance(other, QuadElement):
            return QuadElement(self.x * other.x + self.d * self.y * other.y,
                               self.x * other.y + self.y * other.x, self.d)
        k = Fraction(other)
        return QuadElement(self.x * k, self.y * k, self.d)

    __rmul__ = __mul__

    @cached_property
    def norm(self) -> Fraction:
        return self.x * self.x - self.d * self.y * self.y

    def inverse(self) -> "QuadElement":
        n = self.norm
        if n == 0:
            raise ZeroDivisionError("zero element")
        return QuadElement(self.x / n, -self.y / n, self.d)

    def __pow__(self, e: int) -> "QuadElement":
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = QuadElement(Fraction(1), Fraction(0), self.d)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_integral(self) -> bool:
        if self.d % 4 == 1:
            u, v = 2 * self.x, 2 * self.y
            return (u.denominator == 1 and v.denominator == 1
                    and (u.numerator - v.numerator) % 2 == 0)
        return self.x.denominator == 1 and self.y.denominator == 1

    def omega_coords(self) -> tuple[Fraction, Fraction]:
        """Coordinates over the integral basis {1, w}."""
        if self.d % 4 == 1:
            return self.x - self.y, 2 * self.y
        return self.x, self.y

    def is_positive(self) -> bool:
        # x + y*sqrt(d) > 0, exactly
        if self.y == 0:
            return self.x > 0
        if self.x == 0:
            return self.y > 0
        if self.x > 0 and self.y > 0:
            return True
        if self.x < 0 and self.y < 0:
            return False
        # opposite signs: compare x^2 with d y^2
        if self.x > 0:
            return self.x * self.x > self.d * self.y * self.y
        return self.x * self.x < self.d * self.y * self.y

    def approx(self) -> float:
        return float(self.x) + float(self.y) * math.sqrt(self.d)

    def log_approx(self) -> float:
        """log of a positive element, overflow-safe for huge coordinates."""
        with mp.workdps(40):
            v = (mp.mpf(self.x.numerator) / self.x.denominator
                 + (mp.mpf(self.y.numerator) / self.y.denominator) * mp.sqrt(self.d))
            return float(mp.log(v))

    def __str__(self):
        return f"{self.x}{'+' if self.y >= 0 else ''}{self.y}*sqrt({self.d})"


# ---------------------------------------------------------------------------
# prime ideals and valuations
# ---------------------------------------------------------------------------

class PrimeIdeal(NamedTuple):
    """Label (p, r): r is the smallest nonnegative root of the minimal
    polynomial of the integral generator mod p; None marks the inert prime.

    A named tuple, so that the dict lookups of the ledger hash it natively.
    """

    p: int
    r: int | None
    kind: str   # "split" | "ramified" | "inert"

    @property
    def ideal_norm(self) -> int:
        return self.p * self.p if self.kind == "inert" else self.p

    def label(self) -> str:
        return f"({self.p},{'-' if self.r is None else self.r})"


def _minpoly_coeffs(field: QuadraticField) -> tuple[int, int]:
    """(linear, constant) of w^2 + linear*w + constant."""
    if field.half_basis:
        return -1, (1 - field.d) // 4
    return 0, -field.d


def _primes_above(field: QuadraticField, p: int) -> list[PrimeIdeal]:
    d = field.d
    if p == 2:
        if d % 4 == 1:
            if d % 8 == 1:
                return [PrimeIdeal(2, 0, "split"), PrimeIdeal(2, 1, "split")]
            return [PrimeIdeal(2, None, "inert")]
        # ramified: minpoly x^2 - d mod 2 has the double root d mod 2
        return [PrimeIdeal(2, d % 2, "ramified")]
    if d % p == 0:
        # double root of the generator polynomial mod p
        if field.half_basis:
            r = (1 * pow(2, p - 2, p)) % p     # root of (2x-1)^2 = d = 0
        else:
            r = 0
        return [PrimeIdeal(p, r, "ramified")]
    root = _sqrt_mod_p(d % p, p)
    if root is None:
        return [PrimeIdeal(p, None, "inert")]
    if field.half_basis:
        inv2 = pow(2, p - 2, p)
        r1, r2 = (1 + root) * inv2 % p, (1 - root) * inv2 % p
    else:
        r1, r2 = root, p - root
    r1, r2 = sorted((r1, r2))
    return [PrimeIdeal(p, r1, "split"), PrimeIdeal(p, r2, "split")]


class IdealFactorization(NamedTuple):
    """Factorization of (n + alpha) * a into labeled prime-ideal powers,
    in _prime_key order.

    A named tuple, as PrimeIdeal is: the sieve makes one per n.
    """

    n: int
    factors: tuple          # ((PrimeIdeal, exponent >= 1), ...)
    norm: int               # |Norm((n+alpha)*a)|, for the recombination check

    def recombined_norm(self) -> int:
        out = 1
        for prime, e in self.factors:
            out *= prime.ideal_norm ** e
        return out

    def primes(self) -> list[PrimeIdeal]:
        return [prime for prime, _ in self.factors]


@dataclass(frozen=True)
class CasselsBlock:
    """Private-prime census of the block (N, N+M]."""

    n_start: int
    length: int
    private: dict           # n -> witness PrimeIdeal
    density: float


# ---------------------------------------------------------------------------
# factorization machinery, cached per alpha
# ---------------------------------------------------------------------------

def _prime_key(prime: PrimeIdeal) -> tuple:
    return prime.p, prime.r is None, prime.r or 0


class _ShiftFactorizer:
    """Factorizations of (n + alpha) * a, sieved over ranges of n.

    D*(n + alpha) = A(n) + B*w with A(n) = D*n + A0 and fixed integers D > 0
    and B != 0, so the norm of D*(n + alpha) is the integer quadratic
    g(n) = A^2 - lin*A*B + const*B^2.
    """

    def __init__(self, field: QuadraticField, alpha: Alpha):
        self.field = field
        self.alpha_elem = field.from_alpha(alpha)
        x, y = self.alpha_elem.omega_coords()
        self.D = math.lcm(x.denominator, y.denominator)
        self.A0, self.B = int(x * self.D), int(y * self.D)
        self.lin, self.const = _minpoly_coeffs(field)
        self.cache: dict[int, IdealFactorization] = {}
        # primes dividing 2*d*D*B get exact local valuations; every other
        # prime ideal dividing some g(n) is split and is sieved
        self.special = sorted(_factor_int(2 * field.d * self.D * self.B))
        self.above = {p: _primes_above(field, p) for p in self.special}
        # (p, prime, n0): the split prime divides D*(n + alpha) iff n = n0
        # mod p; complete for the non-special primes <= roots_to
        self.roots: list[tuple[int, PrimeIdeal, int]] = []
        self.roots_to = 1
        # the exponent of P above a special p in (n + alpha) * a is
        # v_P(A(n) + B*w) + offset[P]: D contributes e_P * v_p(D), and the
        # denominator ideal adds its own exponent back
        self.offset = {prime: -(2 if prime.kind == "ramified" else 1)
                       * _vp(self.D, p)
                       for p in self.special for prime in self.above[p]}
        self.denominator = self._denominator_ideal()
        self.denominator_norm = 1
        for prime, e in self.denominator.items():
            self.offset[prime] += e
            self.denominator_norm *= prime.ideal_norm ** e
        # occurrence index over the shifts 0..scanned: the first and second
        # m whose factorization contains each prime ideal
        self.first: dict[PrimeIdeal, int] = {}
        self.second: dict[PrimeIdeal, int] = {}
        self.scanned = -1

    def _norm(self, a: int) -> int:
        b = self.B
        return a * a - self.lin * a * b + self.const * b * b

    def _local(self, p: int, a: int, g: int) -> list[tuple[PrimeIdeal, int]]:
        """v_P(a + B*w) for each P above the special prime p; g is the norm."""
        vg = _vp(g, p)
        out = []
        for prime in self.above[p]:
            if prime.kind == "inert":
                if vg % 2:
                    raise ArithmeticError("odd norm valuation at an inert prime")
                v = vg // 2
            elif prime.kind == "ramified":
                v = vg
            else:
                # p O = P P' with P = (p, w - r): p stripped from both
                # coordinates e times leaves an element in at most one of
                # P and P', in P iff it vanishes at w = r mod p, and then
                # with the rest of the norm's valuation
                x, y, e = a, self.B, 0
                while x % p == 0 and y % p == 0:
                    x, y, e = x // p, y // p, e + 1
                v = vg - e if (x + y * prime.r) % p == 0 else e
            out.append((prime, v))
        # sum of f_P * v_P over P | p must equal v_p of the norm
        if sum((2 if pr.kind == "inert" else 1) * v for pr, v in out) != vg:
            raise ArithmeticError(f"norm bookkeeping failed at p={p}")
        return out

    def _denominator_ideal(self) -> dict[PrimeIdeal, int]:
        out: dict[PrimeIdeal, int] = {}
        g0 = self._norm(self.A0)
        for p in self.special:
            for prime, v in self._local(p, self.A0, g0):
                v += self.offset[prime]
                if v < 0:
                    out[prime] = -v
        return out

    def _extend_roots(self, limit: int):
        """Add the residue classes of the split non-special primes <= limit."""
        primes = _primes_up_to(limit)
        for p in primes[bisect.bisect_right(primes, self.roots_to):
                        bisect.bisect_right(primes, limit)]:
            if p in self.above:
                continue
            primes_p = _primes_above(self.field, p)
            if primes_p[0].kind != "split":
                continue
            inv_d = pow(self.D, -1, p)
            for prime in primes_p:
                n0 = -(self.A0 + self.B * prime.r) * inv_d % p
                self.roots.append((p, prime, n0))
        self.roots_to = limit

    def _sieve(self, lo: int, hi: int):
        """Factor (n + alpha) * a for every n in [lo, hi] into the cache.

        Special primes are stripped from g(n) with exact local valuations.
        A split prime (p, r) off the special set divides D*(n + alpha) for
        n = -(A0 + B*r)/D (mod p), with exponent v_p(g(n)); inert and
        ramified primes off that set never divide.  Once every prime up to
        the square root of the largest cofactor is stripped, each cofactor
        is 1 or a prime q, whose ideal is (q, -A(n)/B mod q).
        """
        size = hi - lo + 1
        a_lo = self.D * lo + self.A0
        norms = [self._norm(a_lo + i * self.D) for i in range(size)]
        rest = [abs(g) for g in norms]
        found: list[list] = [[] for _ in range(size)]
        # the norms of the factors found, multiplied as they are appended
        recombined = [1] * size
        for p in self.special:
            for i in range(size):
                # no prime above p divides (n + alpha) * a when p does not
                # divide g(n)
                if rest[i] % p:
                    continue
                for prime, v in self._local(p, a_lo + i * self.D, norms[i]):
                    e = v + self.offset[prime]
                    if e < 0:
                        raise ArithmeticError("shifted ideal is not integral")
                    if e:
                        found[i].append((prime, e))
                        recombined[i] *= prime.ideal_norm ** e
                while rest[i] % p == 0:
                    rest[i] //= p
        # the residue table grows by doubling, and only while what is left
        # of some g(n) may still have two prime factors
        bound = math.isqrt(max(rest))
        k = 0
        while True:
            while k < len(self.roots) and self.roots[k][0] <= bound:
                p, prime, n0 = self.roots[k]
                k += 1
                for i in range((n0 - lo) % p, size, p):
                    r, v = rest[i] // p, 1
                    while r % p == 0:
                        r //= p
                        v += 1
                    rest[i] = r
                    found[i].append((prime, v))
                    recombined[i] *= p ** v
            if k < len(self.roots) or self.roots_to >= bound:
                break
            bound = math.isqrt(max(rest))
            if self.roots_to < bound:
                self._extend_roots(min(bound, 2 * self.roots_to))
        for i in range(size):
            n = lo + i
            q = rest[i]
            factors = found[i]
            if q > 1:
                r = -(a_lo + i * self.D) * pow(self.B, -1, q) % q
                factors.append((PrimeIdeal(q, r, "split"), 1))
                recombined[i] *= q
            norm, frac = divmod(abs(norms[i]) * self.denominator_norm,
                                self.D * self.D)
            if frac or recombined[i] != norm:
                raise ArithmeticError(
                    f"norm recombination failed at n={n}: "
                    f"{recombined[i]} != {norm}")
            # plain tuple order is _prime_key order: no prime repeats, and
            # the labels above one p are all inert (r = None, alone) or
            # all carry an integer r
            factors.sort()
            self.cache.setdefault(n, IdealFactorization(n, tuple(factors),
                                                        norm))

    def factor(self, n: int) -> IdealFactorization:
        if n not in self.cache:
            self._sieve(n, n)
        return self.cache[n]

    def index_to(self, top: int):
        """Extend the occurrence index over every m <= top, sieving once."""
        if top <= self.scanned:
            return
        self._sieve(self.scanned + 1, top)
        for m in range(self.scanned + 1, top + 1):
            for prime, _ in self.cache[m].factors:
                if prime not in self.first:
                    self.first[prime] = m
                elif prime not in self.second:
                    self.second[prime] = m
        self.scanned = top


_FACTORIZERS: dict[tuple, _ShiftFactorizer] = {}


def _factorizer(alpha: Alpha) -> _ShiftFactorizer:
    """The cached factorizer of alpha, over its field Q(sqrt(d))."""
    if alpha.kind != "quadratic":
        raise NotQuadratic("shift is not a quadratic irrational", kind=alpha.kind)
    if alpha.data not in _FACTORIZERS:
        _FACTORIZERS[alpha.data] = _ShiftFactorizer(
            QuadraticField(alpha.data[2]), alpha)
    return _FACTORIZERS[alpha.data]


def ideal_denominator(alpha: Alpha) -> dict[PrimeIdeal, int]:
    """The minimal integral ideal a with a*(alpha O_K) integral, as
    prime-power exponents (empty dict means the unit ideal)."""
    return dict(_factorizer(alpha).denominator)


def factor_shift(n: int, alpha: Alpha) -> IdealFactorization:
    """Prime-ideal factorization of (n + alpha) * a."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _factorizer(alpha).factor(n)


def private_primes(n_start: int, length: int, alpha: Alpha) -> CasselsBlock:
    """Census of n in (n_start, n_start+length] owning a prime ideal that
    divides no other (m + alpha) * a with m <= n_start + length.

    Determined exactly by factoring every shifted element up to the block
    end: a prime ideal is private to n when n is its first occurrence and
    its second occurrence, if any, lies past the block end.  The occurrence
    index is kept on the cached factorizer, so successive blocks only scan
    shifts beyond the largest end seen so far.  Primes of the denominator
    ideal divide everything and so are never private.
    """
    if length < 1 or n_start < 0:
        raise ValueError("need n_start >= 0 and length >= 1")
    fz = _factorizer(alpha)
    top = n_start + length
    fz.index_to(top)
    private: dict[int, PrimeIdeal] = {}
    for n in range(n_start + 1, top + 1):
        for prime, _ in fz.cache[n].factors:
            if fz.first[prime] == n and fz.second.get(prime, top + 1) > top:
                private[n] = prime
                break
    return CasselsBlock(n_start=n_start, length=length, private=private,
                        density=len(private) / length)


# ---------------------------------------------------------------------------
# fundamental unit and multiplicative bases
# ---------------------------------------------------------------------------

def _pell_minimal(d: int) -> tuple[int, int]:
    """Minimal (x, y), y > 0, with x^2 - d y^2 = +-1, by continued fractions."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    h_prev, h_cur = 1, a0
    k_prev, k_cur = 0, 1
    while True:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        if a == 2 * a0:
            break
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev
    return h_cur, k_cur


def fundamental_unit(field: QuadraticField) -> QuadElement:
    """The fundamental unit > 1 of the ring of integers."""
    d = field.d
    x, y = _pell_minimal(d)
    u = field.element(x, y)
    assert abs(u.norm) == 1
    if field.half_basis:
        # the unit group of Z[sqrt(d)] has index 1 or 3 here; look for an
        # exact cube root with half-integer coordinates
        approx = u.approx() ** (1.0 / 3.0)
        for nu in (1, -1):
            cx = round(approx + nu / approx)          # = 2x of the candidate
            cy = round((approx - nu / approx) / math.sqrt(d))
            if (cx - cy) % 2 == 0 and (cx, cy) != (0, 0):
                cand = field.element(Fraction(cx, 2), Fraction(cy, 2))
                if cand.is_integral() and cand ** 3 == u:
                    return cand if cand.is_positive() else -cand
    return u


@dataclass(frozen=True)
class MultiplicativeBasis:
    """Basis s_1..s_l of the group generated by the input elements, with
    verified exponent vectors: elements[n] = prod s_j^(u_j) exactly."""

    elements: tuple          # QuadElement, all positive
    exponents: dict          # n -> tuple of ints, one per basis element
    exponent_bound: int      # max |u_j| over all represented n


def multiplicative_basis(shifts, alpha: Alpha) -> MultiplicativeBasis:
    """Multiplicative basis for {n + alpha : n in shifts}.

    Ideal exponent vectors are reduced to an integer echelon basis by
    unimodular row operations carried out simultaneously on the field
    elements, so each basis vector is realized by an explicit element of
    the group.  Rows that reduce to the zero vector are units; they land in
    the sign-free cyclic group generated by the fundamental unit, which is
    appended as an extra basis element when needed.  Every reconstruction
    is re-verified in exact field arithmetic.
    """
    fz = _factorizer(alpha)
    fld = fz.field
    ns = sorted(set(int(n) for n in shifts))
    if any(n < 0 for n in ns):
        raise ValueError("shifts must be nonnegative")

    # principal ideal exponents of n + alpha: shift factorization minus a
    denom = fz.denominator
    vectors: dict[int, dict[PrimeIdeal, int]] = {}
    for n in ns:
        exps = {pr: e for pr, e in fz.factor(n).factors}
        for pr, e in denom.items():
            exps[pr] = exps.get(pr, 0) - e
            if exps[pr] == 0:
                del exps[pr]
        vectors[n] = exps

    cols = sorted({pr for v in vectors.values() for pr in v}, key=_prime_key)
    col_ix = {pr: i for i, pr in enumerate(cols)}
    width = len(cols)

    rows: list[tuple[QuadElement, list[int]]] = []
    for n in ns:
        vec = [0] * width
        for pr, e in vectors[n].items():
            vec[col_ix[pr]] = e
        rows.append((fz.alpha_elem + n, vec))

    unit = fundamental_unit(fld)
    log_unit = unit.log_approx()

    def unit_exponent(elem: QuadElement) -> int:
        """elem is a positive unit; return m with elem = unit^m, verified."""
        m = round(elem.log_approx() / log_unit)
        if unit ** m == elem:
            return m
        raise ArithmeticError("element is not a power of the fundamental unit")

    # integer echelon reduction with tracked elements
    basis_rows: list[tuple[QuadElement, list[int]]] = []
    unit_ms: list[int] = []
    active = rows
    for col in range(width):
        live = [r for r in active if r[1][col] != 0]
        rest = [r for r in active if r[1][col] == 0]
        if not live:
            active = rest
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[1][col]))
            pivot = live[0]
            others = []
            for elem, vec in live[1:]:
                qt = vec[col] // pivot[1][col]
                if qt:
                    elem = elem * (pivot[0] ** (-qt))
                    vec = [a - qt * b for a, b in zip(vec, pivot[1])]
                if vec[col] != 0:
                    others.append((elem, vec))
                elif any(vec):
                    rest.append((elem, vec))
                else:
                    unit_ms.append(unit_exponent(elem))
            live = [pivot] + others
        elem, vec = live[0]
        if vec[col] < 0:
            elem = elem.inverse()
            vec = [-a for a in vec]
        basis_rows.append((elem, vec))
        active = rest
    for elem, vec in active:
        if any(vec):
            raise ArithmeticError("echelon reduction left a nonzero row")
        unit_ms.append(unit_exponent(elem))

    unit_step = math.gcd(*unit_ms) if unit_ms else 0
    basis = [elem for elem, _ in basis_rows]
    if unit_step:
        basis.append(unit ** unit_step)

    # express each original element in the basis
    exponents: dict[int, tuple] = {}
    bound = 0
    for n in ns:
        vec = [0] * width
        for pr, e in vectors[n].items():
            vec[col_ix[pr]] = e
        coeffs = []
        for elem, bvec in basis_rows:
            col = next(i for i, v in enumerate(bvec) if v != 0)
            if vec[col] % bvec[col] != 0:
                raise ArithmeticError("element escapes the basis lattice")
            c = vec[col] // bvec[col]
            coeffs.append(c)
            vec = [a - c * b for a, b in zip(vec, bvec)]
        if any(vec):
            raise ArithmeticError("nonzero residual after back-substitution")
        residual = fz.alpha_elem + n
        for (elem, _), c in zip(basis_rows, coeffs):
            residual = residual * (elem ** (-c))
        m = unit_exponent(residual)
        if unit_step:
            if m % unit_step:
                raise ArithmeticError("unit residual outside the unit lattice")
            coeffs.append(m // unit_step)
        elif m != 0:
            raise ArithmeticError("unit residual with no unit generator")
        # exact reconstruction check
        rebuilt = QuadElement(Fraction(1), Fraction(0), fld.d)
        for b, c in zip(basis, coeffs):
            rebuilt = rebuilt * (b ** c)
        if not (rebuilt - (fz.alpha_elem + n)).is_zero():
            raise ArithmeticError(f"reconstruction failed for n={n}")
        exponents[n] = tuple(coeffs)
        bound = max(bound, max((abs(c) for c in coeffs), default=0))

    for b in basis:
        if not b.is_positive():
            raise ArithmeticError("basis element not positive")
    return MultiplicativeBasis(elements=tuple(basis), exponents=exponents,
                               exponent_bound=bound)
