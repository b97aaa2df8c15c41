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
Valuations at split primes are computed through the p-adic embedding that
sends w to a Hensel lift of r, so everything stays in integer arithmetic.

The interface is degree-agnostic on purpose (factorizations are lists of
labeled primes with exponents); only the quadratic case is implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
        _SIEVE = [i for i, v in enumerate(sieve) if v]
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


def _vp_fraction(x: Fraction, p: int) -> int:
    return _vp(x.numerator, p) - _vp(x.denominator, p)


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
    def discriminant(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

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

    def conj(self) -> "QuadElement":
        return QuadElement(self.x, -self.y, self.d)

    @cached_property
    def norm(self) -> Fraction:
        return self.x * self.x - self.d * self.y * self.y

    @property
    def trace(self) -> Fraction:
        return 2 * self.x

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

@dataclass(frozen=True, order=True)
class PrimeIdeal:
    """Label (p, r): r is the smallest nonnegative root of the minimal
    polynomial of the integral generator mod p; None marks the inert prime."""

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


class _RootLift:
    """Hensel lifts of a generator-polynomial root modulo growing p-powers."""

    def __init__(self, field: QuadraticField, prime: PrimeIdeal):
        self.field = field
        self.prime = prime
        lin, const = _minpoly_coeffs(field)
        self.lin, self.const = lin, const
        self.k = 1
        self.mod = prime.p
        self.root = prime.r

    def ensure(self, k: int):
        while self.k < k:
            new_mod = self.mod * self.mod
            r = self.root
            g = (r * r + self.lin * r + self.const) % new_mod
            gp = (2 * r + self.lin) % new_mod
            inv = pow(gp, -1, new_mod)
            self.root = (r - g * inv) % new_mod
            self.mod = new_mod
            self.k *= 2

    def valuation(self, elem: QuadElement) -> int:
        """v_P(elem) through the embedding w -> lifted root."""
        a, b = elem.omega_coords()
        p = self.prime.p
        den = math.lcm(a.denominator, b.denominator)
        shift = _vp(den, p)
        an = a.numerator * (den // a.denominator)
        bn = b.numerator * (den // b.denominator)
        # generous precision: valuation can't exceed v_p of the norm numerator
        nrm = elem.norm
        cap = (_vp(nrm.numerator, p) if nrm.numerator % p == 0 else 0) \
            + 2 * shift + 4
        self.ensure(1 << max(cap.bit_length(), 3))
        x = (an + bn * self.root) % self.mod
        if x == 0:
            raise ArithmeticError("lift precision exhausted")
        return _vp(x, p) - shift


@dataclass(frozen=True)
class IdealFactorization:
    """Factorization of (n + alpha) * a into labeled prime-ideal powers."""

    n: int
    factors: tuple          # ((PrimeIdeal, exponent >= 1), ...)
    norm: Fraction          # |Norm((n+alpha)*a)|, for the recombination check

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
# factorization machinery, cached per (field, alpha)
# ---------------------------------------------------------------------------

class _ShiftFactorizer:
    def __init__(self, field: QuadraticField, alpha: Alpha):
        self.field = field
        self.alpha_elem = field.from_alpha(alpha)
        self.lifts: dict[PrimeIdeal, _RootLift] = {}
        self.above: dict[int, list[PrimeIdeal]] = {}
        self.cache: dict[int, IdealFactorization] = {}
        self.denominator = self._denominator_ideal()
        # occurrence index over the shifts 0..scanned: the first and second
        # m whose factorization contains each prime ideal
        self.first: dict[PrimeIdeal, int] = {}
        self.second: dict[PrimeIdeal, int] = {}
        self.scanned = -1

    def _primes_above(self, p: int) -> list[PrimeIdeal]:
        if p not in self.above:
            self.above[p] = _primes_above(self.field, p)
        return self.above[p]

    def _valuation(self, elem: QuadElement, prime: PrimeIdeal) -> int:
        nrm = elem.norm
        if prime.kind == "inert":
            v = _vp_fraction(nrm, prime.p)
            if v % 2:
                raise ArithmeticError("odd norm valuation at an inert prime")
            return v // 2
        if prime.kind == "ramified":
            return _vp_fraction(nrm, prime.p)
        if prime not in self.lifts:
            self.lifts[prime] = _RootLift(self.field, prime)
        return self.lifts[prime].valuation(elem)

    def _candidate_primes(self, elem: QuadElement) -> list[int]:
        nrm = elem.norm
        ps = set(_factor_int(nrm.numerator)) | set(_factor_int(nrm.denominator))
        a, b = elem.omega_coords()
        ps |= set(_factor_int(math.lcm(a.denominator, b.denominator)))
        return sorted(ps)

    def _denominator_ideal(self) -> dict[PrimeIdeal, int]:
        out: dict[PrimeIdeal, int] = {}
        for p in self._candidate_primes(self.alpha_elem):
            for prime in self._primes_above(p):
                v = self._valuation(self.alpha_elem, prime)
                if v < 0:
                    out[prime] = -v
        return out

    def denominator_norm(self) -> int:
        out = 1
        for prime, e in self.denominator.items():
            out *= prime.ideal_norm ** e
        return out

    def factor(self, n: int) -> IdealFactorization:
        if n in self.cache:
            return self.cache[n]
        elem = self.alpha_elem + n
        exps: dict[PrimeIdeal, int] = dict(self.denominator)
        for p in self._candidate_primes(elem):
            primes = self._primes_above(p)
            vals = {prime: self._valuation(elem, prime) for prime in primes}
            # sum of f_P * v_P over P | p must equal v_p of the norm
            degree_sum = sum((2 if pr.kind == "inert" else 1) * v
                             for pr, v in vals.items())
            if degree_sum != _vp_fraction(elem.norm, p):
                raise ArithmeticError(f"norm bookkeeping failed at p={p}")
            for prime, v in vals.items():
                if v:
                    exps[prime] = exps.get(prime, 0) + v
        factors = tuple(sorted(((pr, e) for pr, e in exps.items() if e > 0),
                               key=lambda t: (t[0].p, t[0].r is None, t[0].r or 0)))
        if any(e < 0 for _, e in exps.items()):
            raise ArithmeticError("shifted ideal is not integral")
        norm = abs(elem.norm) * self.denominator_norm()
        fact = IdealFactorization(n=n, factors=factors, norm=norm)
        if Fraction(fact.recombined_norm()) != norm:
            raise ArithmeticError(
                f"norm recombination failed at n={n}: "
                f"{fact.recombined_norm()} != {norm}")
        self.cache[n] = fact
        return fact

    def index_to(self, top: int):
        """Extend the occurrence index over every m <= top."""
        for m in range(self.scanned + 1, top + 1):
            for prime in self.factor(m).primes():
                if prime not in self.first:
                    self.first[prime] = m
                elif prime not in self.second:
                    self.second[prime] = m
        self.scanned = max(self.scanned, top)


_FACTORIZERS: dict[tuple, _ShiftFactorizer] = {}


def _factorizer(alpha: Alpha, field: QuadraticField | None) -> _ShiftFactorizer:
    if alpha.kind != "quadratic":
        raise NotQuadratic("shift is not a quadratic irrational", kind=alpha.kind)
    if field is None:
        field = QuadraticField(alpha.data[2])
    key = (field.d, alpha.data)
    if key not in _FACTORIZERS:
        _FACTORIZERS[key] = _ShiftFactorizer(field, alpha)
    return _FACTORIZERS[key]


def ideal_denominator(alpha: Alpha, field: QuadraticField | None = None
                      ) -> dict[PrimeIdeal, int]:
    """The minimal integral ideal a with a*(alpha O_K) integral, as
    prime-power exponents (empty dict means the unit ideal)."""
    return dict(_factorizer(alpha, field).denominator)


def factor_shift(n: int, alpha: Alpha, field: QuadraticField | None = None
                 ) -> IdealFactorization:
    """Prime-ideal factorization of (n + alpha) * a."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _factorizer(alpha, field).factor(n)


def private_primes(n_start: int, length: int, alpha: Alpha,
                   field: QuadraticField | None = None) -> CasselsBlock:
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
    fz = _factorizer(alpha, field)
    top = n_start + length
    fz.index_to(top)
    private: dict[int, PrimeIdeal] = {}
    for n in range(n_start + 1, top + 1):
        for prime in fz.factor(n).primes():
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


def multiplicative_basis(shifts, alpha: Alpha,
                         field: QuadraticField | None = None
                         ) -> MultiplicativeBasis:
    """Multiplicative basis for {n + alpha : n in shifts}.

    Ideal exponent vectors are reduced to an integer echelon basis by
    unimodular row operations carried out simultaneously on the field
    elements, so each basis vector is realized by an explicit element of
    the group.  Rows that reduce to the zero vector are units; they land in
    the sign-free cyclic group generated by the fundamental unit, which is
    appended as an extra basis element when needed.  Every reconstruction
    is re-verified in exact field arithmetic.
    """
    fz = _factorizer(alpha, field)
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

    cols = sorted({pr for v in vectors.values() for pr in v},
                  key=lambda pr: (pr.p, pr.r is None, pr.r or 0))
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
