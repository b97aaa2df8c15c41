"""Ideal factorizations of n + alpha and private-prime censuses.

For a quadratic irrational shift alpha in a real field Q(sqrt(d)), this is
the ideal bookkeeping the greedy character construction needs: the
denominator ideal of alpha, factorization of the integral ideals
(n + alpha)*a into prime ideals, and detection of primes private to a
single n inside a block.

Prime ideals above p are labeled (p, r) where r is the smallest nonnegative
root mod p of the minimal polynomial of the integral generator w (w =
sqrt(d), or (1+sqrt(d))/2 when d = 1 mod 4); inert primes carry r = None.

Factorizations are sieved over whole ranges of n at once, in numpy
arrays: int64 while every product the sieve forms fits, Python integers
past that, by the same code.  With D the common denominator of alpha's
integral coordinates, D*(n + alpha) = A(n) + B*w where A(n) = D*n + A0,
and its norm g(n) is an integer quadratic in n.  The few primes dividing
2*d*D*B get exact local valuations (at a split one, p is stripped from
both coordinates, and what is left lies in at most one of the two
conjugate ideals).  Any other prime dividing g(n) is split, and its ideal
(p, r) divides exactly the n in one residue class mod p, with exponent
v_p(g(n)); the hits of every class are laid out together from a table of
classes.  Once the primes up to the square root of the largest cofactor
are stripped, what is left of g(n) is 1 or one prime q, whose ideal is
(q, -A(n)/B mod q).  Checks guard every range: parity at inert primes,
the norm bookkeeping at each special prime, integrality of (n + alpha)*a,
and the norms of its prime factors multiplying back to its norm.

A prime ideal P above p that divides (n + alpha)*a divides (n +- p + alpha)*a
too, as both lie in (n + alpha)*a + p*a, inside P (a is integral).  So P
divides whole residue classes mod p, and in fact one class at most: where
alpha has a pole at P, v_P(n + alpha) = v_P(alpha) = -v_P(a) and P divides
no (n + alpha)*a; elsewhere P divides it iff n = -alpha in O/P, and the
integers n meet each residue of the prime field F_p in one class mod p.
Hence P is private to n in a block (N, N+M] exactly when n < p and
n + p > N+M: the local census reads the block's own factorizations and
nothing below them.  A sieved block is kept as a segment of Python lists of
(ideal label, exponent) entries, which censuses and the greedy ledger read;
the IdealFactorization of an n is built each time it is asked for.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotQuadratic
from .series import Alpha

__all__ = [
    "PrimeIdeal", "IdealFactorization", "CasselsBlock", "ideal_denominator",
    "factor_shift", "private_primes",
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
    if p % 4 == 3:
        # a^((p+1)/4) squares to a times a's Euler criterion, so the one
        # power both finds the root and tells a non-residue
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r) if r * r % p == a else None
    if pow(a, (p - 1) // 2, p) != 1:
        return None
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


def _minpoly_coeffs(d: int) -> tuple[int, int]:
    """(linear, constant) of w^2 + linear*w + constant."""
    if d % 4 == 1:
        return -1, (1 - d) // 4
    return 0, -d


def _primes_above(d: int, p: int) -> list[PrimeIdeal]:
    if p == 2:
        if d % 4 == 1:
            if d % 8 == 1:
                return [PrimeIdeal(2, 0, "split"), PrimeIdeal(2, 1, "split")]
            return [PrimeIdeal(2, None, "inert")]
        # ramified: minpoly x^2 - d mod 2 has the double root d mod 2
        return [PrimeIdeal(2, d % 2, "ramified")]
    if d % p == 0:
        # double root of the generator polynomial mod p: 1/2, the root of
        # (2x-1)^2 = d = 0, on the half basis
        r = (p + 1) // 2 if d % 4 == 1 else 0
        return [PrimeIdeal(p, r, "ramified")]
    roots = _split_roots(d, p)
    if roots is None:
        return [PrimeIdeal(p, None, "inert")]
    return [PrimeIdeal(p, r, "split") for r in roots]


def _split_roots(d: int, p: int) -> tuple[int, int] | None:
    """The roots mod p of the minimal polynomial of w, ascending, for an odd
    prime p not dividing d; None when p is inert."""
    root = _sqrt_mod_p(d % p, p)
    if root is None:
        return None
    if d % 4 == 1:
        inv2 = (p + 1) // 2
        return tuple(sorted(((1 + root) * inv2 % p, (1 - root) * inv2 % p)))
    return root, p - root


class IdealFactorization(NamedTuple):
    """Factorization of (n + alpha) * a into labeled prime-ideal powers,
    in _prime_key order.

    A named tuple, as PrimeIdeal is: factor() makes one per n asked for.
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


def _valuations(x, p):
    """v_p of each (nonzero) entry of the array x; p is one prime or an
    array of primes, one per entry.  The result has x's dtype."""
    if not x.all():
        raise ValueError("valuation of zero")
    v = np.zeros(len(x), x.dtype)
    hit = x % p == 0
    while hit.any():
        v += hit
        x = np.where(hit, x // p, x)
        hit = x % p == 0
    return v


class _Sieved(NamedTuple):
    """A sieved range [lo, hi] as flat arrays, one entry per prime-ideal
    power, sorted by (at, p, c): entry j is the ideal labelled (p[j], c[j])
    to the exponent e[j] in the factorization of lo + at[j]; norm[i] is the
    norm of (lo + i + alpha) * a."""

    at: np.ndarray
    p: np.ndarray
    c: np.ndarray
    e: np.ndarray
    norm: np.ndarray


class _Segment(NamedTuple):
    """A sieved range [lo, hi] as Python lists: the entries of n are
    entries[start[n - lo]:start[n - lo + 1]], each ((p, c), exponent), in
    _prime_key order; norm[i] is the norm of (lo + i + alpha) * a."""

    lo: int
    hi: int
    start: list
    entries: list
    norm: np.ndarray

    def of(self, n: int) -> list:
        i = n - self.lo
        return self.entries[self.start[i]:self.start[i + 1]]


class _ShiftFactorizer:
    """Factorizations of (n + alpha) * a, sieved over ranges of n.

    D*(n + alpha) = A(n) + B*w with A(n) = D*n + A0 and fixed integers D > 0
    and B != 0, so the norm of D*(n + alpha) is the integer quadratic
    g(n) = A^2 - lin*A*B + const*B^2.

    The sieve labels a prime ideal by (p, c) without its root r: above a
    special p, c is its place in above[p]; any other ideal is split, and c
    is the class mod p of the n it divides.  A prime ideal divides the
    (n + alpha) * a of one class of n mod p at most, so the ideals private
    to n in a block (N, N+M] are read off n's own entries: those of a
    label (p, c) with n < p and n + p > N+M.  Sieved blocks are kept as
    segments of labels; a PrimeIdeal is made only for a witness or for an
    IdealFactorization asked for.
    """

    def __init__(self, alpha: Alpha):
        a, b, self.d = alpha.data
        # alpha's coordinates over the integral basis {1, w}
        x, y = (a - b, 2 * b) if self.d % 4 == 1 else (a, b)
        self.D = math.lcm(x.denominator, y.denominator)
        self.A0, self.B = int(x * self.D), int(y * self.D)
        self.lin, self.const = _minpoly_coeffs(self.d)
        # primes dividing 2*d*D*B get exact local valuations; every other
        # prime ideal dividing some g(n) is split and is sieved
        self.special = sorted(_factor_int(2 * self.d * self.D * self.B))
        self.above = {p: _primes_above(self.d, p) for p in self.special}
        # rows (p, n0), p ascending: the split prime p divides D*(n + alpha)
        # iff n = n0 mod p; complete for the non-special primes <= roots_to
        self.roots = np.zeros((0, 2), np.int64)
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
        # the sieved segments kept for the censuses and factorizations that
        # read them
        self.segments: list[_Segment] = []

    def _norm(self, a: int) -> int:
        b = self.B
        return a * a - self.lin * a * b + self.const * b * b

    def _local(self, p: int, a, vg) -> list[tuple[PrimeIdeal, np.ndarray]]:
        """v_P(a + B*w) for each P above the special prime p, over an array
        of first coordinates a whose norms have p-valuations vg."""
        out = []
        for prime in self.above[p]:
            if prime.kind == "inert":
                if (vg % 2).any():
                    raise ArithmeticError("odd norm valuation at an inert prime")
                v = vg // 2
            elif prime.kind == "ramified":
                v = vg
            else:
                # p O = P P' with P = (p, w - r): p stripped from both
                # coordinates e times leaves an element in at most one of
                # P and P', in P iff it vanishes at w = r mod p, and then
                # with the rest of the norm's valuation
                x, e = a, np.zeros(len(a), a.dtype)
                for _ in range(_vp(self.B, p)):
                    step = x % p == 0
                    x = np.where(step, x // p, x)
                    e += step
                y = self.B // p ** e
                v = np.where((x + y * prime.r) % p == 0, vg - e, e)
            out.append((prime, v))
        # sum of f_P * v_P over P | p must equal v_p of the norm
        if (sum((2 if pr.kind == "inert" else 1) * v for pr, v in out)
                != vg).any():
            raise ArithmeticError(f"norm bookkeeping failed at p={p}")
        return out

    def _denominator_ideal(self) -> dict[PrimeIdeal, int]:
        out: dict[PrimeIdeal, int] = {}
        a0 = np.array([self.A0], object)
        g0 = self._norm(self.A0)
        for p in self.special:
            vg = np.array([_vp(g0, p)], object)
            for prime, v in self._local(p, a0, vg):
                v = v[0] + self.offset[prime]
                if v < 0:
                    out[prime] = -v
        return out

    def _extend_roots(self, limit: int):
        """Add the residue classes of the split non-special primes <= limit."""
        primes = _primes_up_to(limit)
        rows = []
        for p in primes[bisect.bisect_right(primes, self.roots_to):
                        bisect.bisect_right(primes, limit)]:
            roots = None if p in self.above else _split_roots(self.d, p)
            if roots is None:
                continue
            inv_d = pow(self.D, -1, p)
            for r in roots:
                rows.append((p, -(self.A0 + self.B * r) * inv_d % p))
        if rows:
            self.roots = np.concatenate((self.roots, rows))
        self.roots_to = limit

    def _sieve(self, lo: int, hi: int) -> _Sieved:
        """Factor (n + alpha) * a for every n in [lo, hi], as flat arrays.

        Special primes are stripped from g(n) with exact local valuations.
        A split prime (p, r) off the special set divides D*(n + alpha) for
        n = -(A0 + B*r)/D (mod p), with exponent v_p(g(n)); inert and
        ramified primes off that set never divide.  Once every prime up to
        the square root of the largest cofactor is stripped, each cofactor
        is 1 or a prime q, whose ideal is the one dividing n: class n mod q.
        The arrays are int64 when every product formed here fits, and
        Python integers otherwise.
        """
        size = hi - lo + 1
        a_max = max(abs(self.D * lo + self.A0), abs(self.D * hi + self.A0))
        g_max = a_max * a_max + abs(self.lin * a_max * self.B) \
            + abs(self.const) * self.B * self.B
        dtype = np.int64 if g_max * self.denominator_norm < 1 << 63 else object
        ns = np.arange(lo, hi + 1, dtype=dtype)
        a = self.D * ns + self.A0
        norms = a * a - self.lin * self.B * a + self.const * self.B * self.B
        rest = np.abs(norms)
        # the norms of the factors found, multiplied as they are found
        recombined = np.ones(size, dtype)
        at, ps, cs, es = [], [], [], []
        for p in self.special:
            # no prime above p divides (n + alpha) * a when p does not
            # divide g(n)
            i = np.flatnonzero(rest % p == 0)
            if not i.size:
                continue
            vg = _valuations(rest[i], p)
            for c, (prime, v) in enumerate(self._local(p, a[i], vg)):
                e = v + self.offset[prime]
                if (e < 0).any():
                    raise ArithmeticError("shifted ideal is not integral")
                recombined[i] *= prime.ideal_norm ** e
                keep = e > 0
                at.append(i[keep])
                ps.append(np.full(keep.sum(), p, dtype))
                cs.append(np.full(keep.sum(), c, dtype))
                es.append(e[keep])
            rest[i] //= p ** vg
        # the residue table grows by doubling, and only while what is left
        # of some g(n) may still have two prime factors
        bound = math.isqrt(int(rest.max()))
        k = 0
        while True:
            k_end = int(np.searchsorted(self.roots[:, 0],
                                        min(bound, self.roots_to), "right"))
            if k_end > k:
                p, n0 = self.roots[k:k_end].T
                start = ((n0.astype(dtype) - lo) % p).astype(np.int64)
                count = np.maximum((size - 1 - start) // p + 1, 0)
                hit_p = np.repeat(p, count)
                # the hits of root j: start[j] + t*p[j] for t < count[j]
                t = np.arange(len(hit_p)) - np.repeat(np.cumsum(count) - count,
                                                      count)
                i = np.repeat(start, count) + t * hit_p
                v = _valuations(rest[i], hit_p)
                power = hit_p ** v
                np.floor_divide.at(rest, i, power)
                np.multiply.at(recombined, i, power)
                at.append(i)
                ps.append(hit_p)
                cs.append(np.repeat(n0, count))
                es.append(v)
                k = k_end
            if k < len(self.roots) or self.roots_to >= bound:
                break
            bound = math.isqrt(int(rest.max()))
            if self.roots_to < bound:
                self._extend_roots(min(bound, 2 * self.roots_to))
        i = np.flatnonzero(rest > 1)
        q = rest[i]
        at.append(i)
        ps.append(q)
        cs.append(ns[i] % q)
        es.append(np.ones(len(i), dtype))
        recombined[i] *= q
        norm = np.abs(norms) * self.denominator_norm
        norm, frac = norm // (self.D * self.D), norm % (self.D * self.D)
        bad = np.flatnonzero((frac != 0) | (recombined != norm))
        if bad.size:
            i = bad[0]
            raise ArithmeticError(f"norm recombination failed at n={lo + i}: "
                                  f"{recombined[i]} != {norm[i]}")
        at, ps, cs, es = map(np.concatenate, (at, ps, cs, es))
        # (p, c) order is _prime_key order: at most one ideal of a non-special
        # p divides a given n, and above[p] is in _prime_key order
        order = np.lexsort((cs, ps, at))
        return _Sieved(at[order], ps[order], cs[order], es[order], norm)

    def _ideals(self, labels) -> list[PrimeIdeal]:
        """The prime ideals of the sieve's (p, c) labels."""
        # a split (p, w - r) contains A(c) + B*w, so r = -A(c)/B mod p
        return [self.above[p][c] if p in self.above else
                PrimeIdeal(p, -(self.D * c + self.A0) * pow(self.B, -1, p) % p,
                           "split")
                for p, c in labels]

    def label(self, prime: PrimeIdeal, n: int) -> tuple[int, int]:
        """The sieve's label of a prime ideal dividing (n + alpha) * a."""
        p = prime.p
        return (p, self.above[p].index(prime)) if p in self.above else \
            (p, n % p)

    def _listed(self, lo: int, hi: int) -> _Segment:
        sieved = self._sieve(lo, hi)
        start = np.searchsorted(sieved.at, np.arange(hi - lo + 2)).tolist()
        labels = zip(sieved.p.tolist(), sieved.c.tolist())
        return _Segment(lo, hi, start, list(zip(labels, sieved.e.tolist())),
                        sieved.norm)

    def _holding(self, lo: int, hi: int) -> _Segment | None:
        return next((seg for seg in self.segments
                     if seg.lo <= lo and hi <= seg.hi), None)

    def segment(self, lo: int, hi: int) -> _Segment:
        """A kept segment holding [lo, hi]; [lo, hi] is sieved and kept
        when none does."""
        seg = self._holding(lo, hi)
        if seg is None:
            seg = self._listed(lo, hi)
            self.segments.append(seg)
        return seg

    def factor(self, n: int) -> IdealFactorization:
        """The factorization of n: read from a kept segment that holds n,
        else sieved over [n, n] alone."""
        seg = self._holding(n, n) or self._listed(n, n)
        entries = seg.of(n)
        factors = tuple(zip(self._ideals(label for label, _ in entries),
                            (e for _, e in entries)))
        return IdealFactorization(n, factors, int(seg.norm[n - seg.lo]))

    def private(self, n_start: int, top: int) -> dict[int, PrimeIdeal]:
        """The witness of each n in (n_start, top] that owns a private
        prime ideal, read from the kept segment holding the block."""
        seg = self.segment(n_start + 1, top)
        labels: dict[int, tuple[int, int]] = {}
        for n in range(n_start + 1, top + 1):
            # the ideal divides the m = n mod p alone: with n < p and
            # n + p > top, no other m in [0, top]
            bound = n if n + n > top else top - n
            for label, _ in seg.of(n):
                if label[0] > bound:
                    labels[n] = label
                    break
        return dict(zip(labels, self._ideals(labels.values())))


_FACTORIZERS: dict[tuple, _ShiftFactorizer] = {}


def _factorizer(alpha: Alpha) -> _ShiftFactorizer:
    """The cached factorizer of alpha, over its field Q(sqrt(d)); anything
    but a quadratic Alpha raises NotQuadratic naming what it got."""
    kind = alpha.kind if isinstance(alpha, Alpha) else type(alpha).__name__
    if kind != "quadratic":
        raise NotQuadratic("shift is not a quadratic irrational", kind=kind)
    fz = _FACTORIZERS.get(alpha.data)
    if fz is None:
        fz = _FACTORIZERS[alpha.data] = _ShiftFactorizer(alpha)
    return fz


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

    Read from the block's own factorizations.  A prime ideal P above p that
    divides (n + alpha) * a also divides (n +- p + alpha) * a, since those
    lie in (n + alpha) * a + p * a, inside P (a is integral); and it divides
    no element of any other class mod p (see the module notes).  So P is
    private to n exactly when n < p and n + p > n_start + length, and the
    witness is the first such P in _prime_key order.  The block is sieved
    once and kept on the cached factorizer, where factor_shift reads it
    too.  Primes of the denominator ideal divide no shifted element, and so
    are never private.
    """
    if length < 1 or n_start < 0:
        raise ValueError("need n_start >= 0 and length >= 1")
    private = _factorizer(alpha).private(n_start, n_start + length)
    return CasselsBlock(n_start=n_start, length=length, private=private,
                        density=len(private) / length)
