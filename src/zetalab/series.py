"""Evaluation of Hurwitz-type series with periodic coefficients.

The central objects are

    zeta(s, a)      = sum_{n>=0} (n + a)^(-s)
    L(s, f, a)      = sum_{n>=0} f(n) (n + a)^(-s),   f periodic with period q

both absolutely convergent for Re(s) > 1.  Splitting the sum over residue
classes mod q gives the working identity

    L(s, f, a) = q^(-s) * sum_{b=0..q-1} f(b) zeta(s, (a + b)/q)

(f(0) = f(q) by periodicity).  lfunction evaluates L by it, and it shows
that L extends meromorphically with at most a simple pole at s = 1 of
residue (1/q) sum_b f(b).

zeta(s, a) itself is evaluated by Euler-Maclaurin summation: a direct block
of M terms, the integral tail (M+a)^(1-s)/(s-1), the half term, and K
even-order Bernoulli corrections (B_2 .. B_2K, K <= 40) with a rigorous
remainder bound.  M and K are planned together: for each K the remainder
bound is solved for the least M that meets the requested tolerance, and the
pair of least cost M + c*K is kept.  The bound is checked again after
evaluation; M is doubled in the rare case that it does not hold.  The
core runs in double precision only.  High-precision values come from one
route, series_tail_mp: mpmath's own Hurwitz zeta on the same residue-class
split, at a stated number of working digits.

lfunction and series_tail also take a batch: a 1-D complex array of points,
for which they return the array of values.  One kernel serves a single
point and a batch; a batch shares one plan (at its largest |s|, smallest
sigma and smallest tolerance), and every check holds at each of its points,
against the tolerance that point would get alone.  hurwitz_zeta takes a
single point.

One routine, _direct_block, forms every finite sum w(n) (n+a)^(-s): the
Euler-Maclaurin direct block, series_head, and the disk bounds and Rouche
difference of zerofinder.  It treats a single point as a batch of one.
Runs of equally spaced points in a batch, such as the sides of a rectangle
contour, share their exponentials: a run of P points s_0 + k d is summed
from two tables of about sqrt(P) rows, (n+a)^(-s_0 - k1 B d) and
(n+a)^(-k2 d) with k = k1 B + k2, by a matrix product.  The tables are
filled by doubling from a first row and a ratio row each, (n+a)^(-B d) or
(n+a)^(-d), so a term costs three exps for the whole run, 3/P a point
instead of one.  The masses come from the tables' moduli by one real
product, or on a vertical side, where the points share one mass, by one
sum.  A run adds its slabs of terms into one running compensated sum, so
it keeps O(P) values however many slabs it takes.

The Euler-Maclaurin corrections of a batch are one array of points x K
terms, each term the one before times a ratio, summed against the
coefficients.  A single point keeps its loop of K steps: there the numpy
calls of the array form cost more than they save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import mpmath as mp

from .errors import PoleAt1, PrecisionUnreachable

__all__ = [
    "Alpha", "PeriodicFunction", "hurwitz_zeta", "lfunction", "series_tail",
    "series_tail_mp", "series_head", "tail_bound",
]

# Euler-Maclaurin orders K (corrections B_2 .. B_2K) the plan chooses from.
# Doubling steps keep the plan to a few bound evaluations per call; near its
# minimum the cost is flat enough that the orders in between save little.
_ORDERS = (1, 2, 4, 8, 16, 32, 40)

# Time of one Bernoulli correction in units of one direct-block term, as the
# plan weighs a longer correction sum against a shorter direct block.
_ORDER_COST = 4

_MAX_DIRECT = 40_000_000
_HEAD_DIRECT = 200_000     # series_head sums ranges up to this index directly


def _bernoulli_even(count: int) -> list[Fraction]:
    """B_2, B_4, ..., B_{2*count}, exact, from the tangent numbers.

    The tangent numbers T_1 .. T_count come from the integer recurrence of
    Brent and Harvey (arXiv:1108.0286, Algorithm TangentNumbers), and
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    """
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
            for k in range(1, count + 1)]

# B_{2k} / (2k)!, k = 1 .. max order + 1, as floats
_C_EVEN = [float(b / math.factorial(2 * k))
           for k, b in enumerate(_bernoulli_even(_ORDERS[-1] + 1), 1)]

# per candidate order K: (K, 2K + 1, log |B_{2K+2} / (2K+2)!|)
_PLAN_ROWS = [(k, 2 * k + 1, math.log(abs(_C_EVEN[k]))) for k in _ORDERS]

# 2k - 1, k = 1 .. max order: the ladder of _em_once on a batch
_ODD = np.arange(1.0, 2 * _ORDERS[-1], 2)

# elements (points x terms) of one direct-block slab; larger slabs gain
# little speed and cost peak memory
_SLAB = 4096

# _direct_block sums a run of equally spaced points in factored form when
# it has at least _RUN points and _RUN_TERMS points x terms; below either,
# the matrix products cost more than the exps they save
_RUN = 16
_RUN_TERMS = 1024

# _direct_block cuts a longer run into near-equal pieces of at most _RUN_MAX
# points: a slab of a run of P points holds about _PRODUCT / P terms, so
# each slab stays at least _PRODUCT / _RUN_MAX = 32 terms wide
_RUN_MAX = 1024

# leading terms of a run that _direct_block sums one point at a time
_HEAD = 8

# multiply-adds of one matrix product of _run_sums; OpenBLAS splits a
# complex product of more than about 2^16 across threads, and on a 2-core
# host that hand-off cost up to 16 ms against 0.03 ms for the product
_PRODUCT = 2 ** 15


def _is_squarefree(d: int) -> bool:
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class Alpha:
    """The positive shift of the series, tagged by its arithmetic nature.

    kind "rational"  : p/q in lowest terms,
    kind "quadratic" : a + b*sqrt(d) with a, b rational, d >= 2 squarefree,
    kind "decimal"   : a high-precision literal, used as a stand-in for a
                       transcendental shift.  The literal is taken as exact
                       at its stated precision; nothing here checks (or
                       could check) transcendence.
    """

    kind: str
    data: tuple

    def __post_init__(self):
        try:
            value = self.value
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise ValueError("shift must be a finite positive double")

    @classmethod
    def rational(cls, p: int, q: int) -> "Alpha":
        if q == 0:
            raise ValueError("zero denominator")
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        return cls("rational", (p, q))

    @classmethod
    def quadratic(cls, a, b, d: int) -> "Alpha":
        a, b = Fraction(a), Fraction(b)
        if b == 0:
            raise ValueError("quadratic shift needs b != 0")
        if not _is_squarefree(d):
            raise ValueError("d must be squarefree and >= 2")
        return cls("quadratic", (a, b, d))

    @classmethod
    def decimal(cls, literal: str) -> "Alpha":
        return cls("decimal", (str(literal),))

    @classmethod
    def parse(cls, text: str) -> "Alpha":
        """Parse 'rat:p,q' | 'quad:a,b,d' | 'dec:<literal>'."""
        head, _, rest = text.partition(":")
        if head == "rat":
            p, q = (int(x) for x in rest.split(","))
            return cls.rational(p, q)
        if head == "quad":
            a, b, d = rest.split(",")
            return cls.quadratic(Fraction(a), Fraction(b), int(d))
        if head == "dec":
            return cls.decimal(rest)
        raise ValueError(f"unknown shift encoding {text!r}")

    @property
    def value(self) -> float:
        if self.kind == "rational":
            p, q = self.data
            return p / q
        if self.kind == "quadratic":
            a, b, d = self.data
            return float(a) + float(b) * math.sqrt(d)
        return float(self.data[0])

    def value_mp(self) -> mp.mpf:
        """Render at the current mpmath working precision."""
        if self.kind == "rational":
            p, q = self.data
            return mp.mpf(p) / q
        if self.kind == "quadratic":
            a, b, d = self.data
            return (mp.mpf(a.numerator) / a.denominator
                    + mp.mpf(b.numerator) / b.denominator * mp.sqrt(d))
        return mp.mpf(self.data[0])

    def __float__(self) -> float:
        return self.value


def _shift_value(alpha) -> float:
    """The shift as a float."""
    if isinstance(alpha, Alpha):
        return alpha.value
    a = float(alpha)
    if not 0.0 < a < math.inf:
        raise ValueError("shift must be a finite positive double")
    return a


@dataclass(frozen=True)
class PeriodicFunction:
    """Real coefficient function of period q; values[i] is f(i+1).

    Periodicity puts f(0) = f(q).  The mean of the values is the residue of
    L(s, f, alpha) at s = 1.
    """

    values: tuple

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("need at least one value")
        values = tuple(float(v) for v in self.values)
        if not all(map(math.isfinite, values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls) -> "PeriodicFunction":
        """f = 1: the series is zeta(s, alpha) itself."""
        return cls((1.0,))

    @property
    def period(self) -> int:
        return len(self.values)

    def __call__(self, n: int) -> float:
        return self.values[(n - 1) % len(self.values)]

    @property
    def residue(self) -> float:
        return math.fsum(self.values) / len(self.values)

    @property
    def max_abs(self) -> float:
        return max(abs(v) for v in self.values)

    def table(self, m: int) -> np.ndarray:
        """f(0), f(1), ..., f(m-1) as a float array."""
        return np.take(self.values, np.arange(-1, m - 1) % self.period)

    def negated(self) -> "PeriodicFunction":
        return PeriodicFunction(tuple(-v for v in self.values))


# ----------------------------------------------------------------------------
# Euler-Maclaurin core
# ----------------------------------------------------------------------------
#
# The functions below take s as a Python complex or as a batch: a 1-D
# complex array of points.  Every check holds at each point of a batch.

def _points(s):
    """s as a Python complex, or a batch as a nonempty 1-D complex array."""
    if not isinstance(s, np.ndarray) or s.ndim == 0:
        return complex(s)
    if s.ndim != 1 or not s.size:
        raise ValueError("a batch of points is a nonempty 1-D array")
    return s.astype(complex, copy=False)


def _first(s, mask):
    """s where mask holds, or for a batch its first point where mask holds;
    None if there is none."""
    if not isinstance(s, np.ndarray):
        return s if mask else None
    hits = np.flatnonzero(mask)
    return complex(s[hits[0]]) if hits.size else None


def _extent(s) -> tuple[float, float]:
    """(largest |s|, smallest Re s) over the points of s."""
    if isinstance(s, np.ndarray):
        return float(np.abs(s).max()), float(s.real.min())
    return abs(s), s.real


def _working(s):
    """s for the arithmetic: a float on the real axis (so powers stay real
    and results exactly real), else complex.  A batch stays complex;
    _complete makes its values at real points exactly real."""
    if isinstance(s, np.ndarray) or s.imag:
        return s
    return s.real


def _complete(value, s):
    """Results as complex, with imag exactly 0 at real s."""
    if isinstance(s, np.ndarray):
        return np.where(s.imag == 0, value.real + 0j, value)
    return complex(value) if s.imag else complex(value.real, 0.0)


def _refuse_pole(s) -> None:
    at = _first(s, abs(s - 1) < 1e-12)
    if at is not None:
        raise PoleAt1("s is within 1e-12 of the pole at 1",
                      s=[at.real, at.imag])


def _refuse_left(s) -> None:
    if _first(s, s.real <= 0.5) is not None:
        raise ValueError("evaluation requires Re(s) > 1/2")


def _em_plan(abs_s: float, sigma: float, a: float,
             tol: float) -> tuple[int, int]:
    """(cutoff M >= 1, order K in _ORDERS) of least M + _ORDER_COST * K at
    |s| = abs_s and Re s = sigma.

    For each K the remainder bound of _em_once is bounded above through
    |s| |s+1| ... |s+2K+1| <= (|s|+2K+1)^(2K+2) and solved in closed form
    for the least p = M + a that brings it to tol.  The cost falls and then
    rises with K, so the scan stops at its first rise.  The bound rises
    with |s| and falls with sigma, so the plan at a batch's largest |s| and
    smallest sigma covers each of its points.
    """
    if not tol > 0:     # nothing meets it; the kernel's floor check says so
        return 1, 1
    log_tol = math.log(tol)
    best_cost = math.inf
    for k, e, log_c in _PLAN_ROWS:
        d = sigma + e
        log_p = (log_c + (e + 1) * math.log(abs_s + e) - math.log(d)
                 - log_tol) / d
        # 700 keeps exp finite; such a cutoff is far past _MAX_DIRECT anyway
        m = max(1, math.ceil(math.exp(min(log_p, 700.0)) - a))
        cost = m + _ORDER_COST * k
        if cost >= best_cost:
            break
        best_cost, best = cost, (m, k)
    return best


def _direct_block(s, a: float, m: int, weights=None):
    """(sum, sum of |terms|) of w(n) (n+a)^(-s), n = 0..m-1, at s or at each
    point of a batch; w(n) is weights[n] (real or complex), or 1 if weights
    is None.  m = 0 gives a zero sum and a zero mass.

    A single s is a batch of one.  Runs of equally spaced points share
    their exponentials: _run_sums sums each long enough run in factored
    form, at three exps a term for a run of P points, whatever P, with
    tables filled by doubling, masses from a real product of moduli, and
    one running compensated sum that keeps O(P) values a run.  The other
    points go through _term_sums, one exp a term and point.
    """
    neg = -np.array(s, ndmin=1)
    runs = _runs(neg, m) if neg.size >= _RUN else ()
    if not runs:
        total, mass = _term_sums(neg, a, m, weights)
    else:
        total, mass = np.empty(neg.size, complex), np.empty(neg.size)
        alone = np.ones(neg.size, dtype=bool)
        for lo, hi in runs:
            run = _run_sums(neg[lo:hi], a, m, weights)
            if run is not None:
                total[lo:hi], mass[lo:hi] = run
                alone[lo:hi] = False
        if alone.any():
            total[alone], mass[alone] = _term_sums(neg[alone], a, m, weights)
    if isinstance(s, np.ndarray):
        return total, mass
    return total.item(), mass.item()


def _term_sums(neg, a: float, m: int, weights):
    """(sums, masses) of _direct_block at the points -neg, one exp a term
    and point.

    The terms go in slabs of at most _SLAB points x terms: as many whole
    points as fit, or past _SLAB terms one point's terms _SLAB at a time,
    whose slab sums fsum combines.  Each slab of terms takes its log(n + a)
    from one table that all the points share.
    """
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
    if len(sums) == 1:
        return sums[0], mags[0]
    if m <= _SLAB:      # one slab of terms: the groups of points in order
        return np.concatenate(sums), np.concatenate(mags)
    # one point a slab: a row per slab, a column per point
    return _fsum_columns(sums, mags, neg.size)


def _fsum_columns(sums, mags, points: int):
    """(sums, masses) per point from one row of slab sums and one of slab
    masses per slab of terms, a column per point, each column combined by
    fsum."""
    sums = np.reshape(sums, (-1, points)).T
    total = np.array([complex(math.fsum(re), math.fsum(im)) for re, im in
                      zip(sums.real.tolist(), sums.imag.tolist())])
    mags = np.reshape(mags, (-1, points)).T
    return total, np.array([math.fsum(col) for col in mags.tolist()])


def _runs(neg, m: int) -> list[tuple[int, int]]:
    """[lo, hi) of each maximal run of equally spaced points of the batch
    neg that is long enough for _run_sums at m terms, in order and
    disjoint; a run of more than _RUN_MAX points comes as near-equal pieces.

    A step counts as equal when it differs from the step before by at most
    a few ulps of the largest |s|.
    """
    least = max(_RUN, _RUN_TERMS / max(m, 1))
    if neg.size < least:
        return []
    step = neg[1:] - neg[:-1]
    # even[i + 1] says neg[i], neg[i+1], neg[i+2] are equally spaced, so a
    # stretch even[i+1..j] is the run neg[i..j+1]
    even = np.zeros(neg.size, dtype=bool)
    even[1:-1] = abs(step[1:] - step[:-1]) <= 8 * math.ulp(abs(neg).max())
    edges = np.flatnonzero(even[1:] != even[:-1]).tolist()
    runs, taken = [], 0
    for lo, hi in zip(edges[::2], edges[1::2]):
        lo = max(lo, taken)     # a point closes one run or opens the next
        size = hi + 2 - lo
        if size >= least:
            parts = -(-size // _RUN_MAX)
            cuts = [lo + size * i // parts for i in range(parts + 1)]
            runs.extend(zip(cuts[:-1], cuts[1:]))
            taken = hi + 2
    return runs


def _run_sums(neg, a: float, m: int, weights):
    """(sums, masses) of _direct_block at a run of P equally spaced points
    -neg, in factored form; None if the points stray too far from their
    progression for it.

    With B = ceil(sqrt(P)) and the step d, point k = k1 B + k2 is
    -(r1[k1] + r2[k2] + dev[k]), r1[k1] = -neg[0] - k1 B d, r2[k2] = -k2 d,
    and dev its few ulps off the progression.  So its term is
    A[k1, n] C[k2, n] exp(-dev[k] log(n+a)) with the tables
    A = w (n+a)^(-r1) and C = (n+a)^(-r2), and the sums at all P points are
    one matrix product A C^T, corrected to first order in dev by a second
    one, (A log(n+a)) C^T.  The tables come from three exp rows a term:
    A's first row, its ratio row (n+a)^(-B d) and C's ratio row (n+a)^(-d).
    They are filled by doubling: rows [j, 2j) are rows [0, j) times the
    ratio row to the power j, which comes by repeated squaring: a table
    takes about log2(B) whole-row numpy calls, where cumprod down its rows
    multiplies one complex element at a time.  Row k carries the rounding
    of a few times k products, so the last row of a table of 32 rows may
    be off by a few tens of ulps; over 600 random runs of up to 1,024
    points at |t| <= 2e3 that stayed within 0.12 of the bound the tests
    keep, 8 eps (1 + |t| log(n+a)) of the mass.  The first-order
    correction leaves a relative error of at most (dev log(n+a))^2, below
    1e-18 a term, as dev log(n+a) <= 2^-30 is required.

    On a vertical side every point has the same real part, so every mass
    is the sum of |A's first row|.  Elsewhere the masses come from real
    tables of the moduli, filled the same way from |A's first row| and the
    |ratio rows|, by one real product with its first-order correction in
    dev.real.

    The first _HEAD terms, the largest, go through _term_sums: a product
    adds up its terms in order, and after a large first term every later
    one is rounded to the ulps of the running sum.  A product takes at most
    _PRODUCT multiply-adds and each of A and C at most about _SLAB
    elements: past that, the terms go in slabs.  Each slab's sums go into
    one running sum whose rounding errors TwoSum carries alongside,
    componentwise on the complex array, and its masses into one plain
    running sum, so a run keeps O(P) values however many slabs it takes.
    """
    p = neg.size
    b = math.isqrt(p - 1) + 1
    rows = -(-p // b)
    step = (neg[-1] - neg[0]) / (p - 1)
    outer = neg[0] + step * b * np.arange(rows)
    inner = step * np.arange(b)
    dev = np.zeros(rows * b, dtype=neg.dtype)
    dev[:p] = neg - np.add.outer(outer, inner).ravel()[:p]
    biggest = max(abs(math.log(a)), abs(math.log(max(m - 1, 0) + a)))
    if abs(dev).max() * biggest > 2.0 ** -30:
        return None
    dev = dev.reshape(rows, b)
    # a vertical side, whose points share their real part and so their mass
    vertical = (neg.real == neg[0].real).all()
    # the exponents of the three exp rows: A's first row, A's ratio row
    # (n+a)^(-B d) and C's ratio row (n+a)^(-d)
    rates = np.array([outer[0], step * b, step])
    first = min(m, _HEAD)
    total, mass = _term_sums(neg, a, first, weights)
    carry = np.zeros_like(total)    # the rounding errors of total, by TwoSum
    width = max(1, min(_SLAB // max(rows, b), _PRODUCT // (rows * b)))
    for lo in range(first, m, width):
        hi = min(lo + width, m)
        cols = hi - lo
        logs = np.log(np.arange(lo, hi, dtype=float) + a)
        exps = np.exp(np.multiply.outer(rates, logs))
        # A and C side by side in one table of b rows: A in the first cols
        # columns, C in the rest
        lead = np.ones(2 * cols, complex)
        lead[:cols] = exps[0] if weights is None else exps[0] * weights[lo:hi]
        table = _by_doubling(lead, exps[1:].ravel(), b)
        table_a, table_c = table[:rows, :cols], table[:, cols:].T
        sums = (table_a @ table_c
                + dev * ((table_a * logs) @ table_c)).ravel()[:p]
        new = total + sums
        back = new - total
        carry += (total - (new - back)) + (sums - back)
        total = new
        if vertical:
            mass += np.abs(lead[:cols]).sum()
        else:
            moduli = _by_doubling(np.abs(lead), np.abs(exps[1:]).ravel(), b)
            mod_a, mod_c = moduli[:rows, :cols], moduli[:, cols:].T
            mass += (mod_a @ mod_c
                     + dev.real * ((mod_a * logs) @ mod_c)).ravel()[:p]
    return total + carry, mass


def _by_doubling(first, ratio, rows: int):
    """The table whose row k, k < rows, is first * ratio^k: rows [j, 2j)
    are rows [0, j) times ratio^j, and ratio^j comes by repeated squaring."""
    table = np.empty((rows, ratio.size), ratio.dtype)
    table[0] = first
    j = 1
    while j < rows:
        np.multiply(table[:min(j, rows - j)], ratio, out=table[j:2 * j])
        j *= 2
        if j < rows:
            ratio = ratio * ratio
    return table


def _em_once(s, a: float, m: int, order: int, coeffs):
    """One Euler-Maclaurin pass at cutoff m and order K, at s or at each
    point of a batch.

    coeffs are B_2k/(2k)!, k = 1..K+1.  Returns
    (value, remainder bound, magnitude scale).  The remainder bound is the
    standard one: |first omitted correction| * |s+2K+1| / (sigma+2K+1),
    valid here since sigma + 2K + 1 > 0 (the factor is 1 on the real axis).

    A batch takes one complex power p^(-s), p = m + a, and forms its
    corrections as an array of points x K: a handful of numpy calls in all,
    where a loop of K steps makes seven a step (on 256 points about 300 us
    at K = 40, against about 150 us).  A single point keeps that loop, its
    three powers and the list coeffs: the array form took hurwitz_zeta at
    1.5+300i from 24 to 39 us, and it would move the last bits of every
    single-point value.
    """
    direct, mag = _direct_block(s, a, m)
    p = m + a
    if isinstance(s, np.ndarray):
        # one power gives the tail, the half term and the first correction
        power = p ** -s
        tail = power * p / (s - 1)
        half = power / 2
        first = s * power / p
        # the correction terms over the first, a row per point: the ratios
        # (s+2k-1)(s+2k)/p^2, k = 1..K, multiplied up along the row, in
        # pieces of at most _PRODUCT elements.  einsum weighs them on one
        # thread: a BLAS product of that size may wake a second one, and on
        # a 2-core host that took a count on 2^16 samples from about 1.1 s
        # to as much as 1.8 s
        ladder = np.array(coeffs[1:order])
        corr, last = np.empty_like(s), np.empty_like(s)
        size = _PRODUCT // order
        for lo in range(0, s.size, size):
            x = np.add.outer(s[lo:lo + size], _ODD[:order])
            ratios = np.cumprod(x * (x + 1) * (1 / (p * p)), axis=1)
            corr[lo:lo + size] = coeffs[0] + np.einsum(
                "ij,j->i", ratios[:, :-1], ladder)
            last[lo:lo + size] = ratios[:, -1]
        rem = abs(coeffs[order] * first * last)
        rem *= abs(s + 2 * order + 1) / (s.real + 2 * order + 1)
        return direct + tail + half + first * corr, rem, \
            mag + abs(tail) + abs(half)
    tail = p ** (1 - s) / (s - 1)
    half = p ** (-s) / 2
    # term is s (s+1) ... (s+2k-2) p^(-s-2k+1) at step k; updating it by one
    # ratio per step keeps it finite where the product and power would not be
    p2, term, corr = p * p, s * p ** (-s - 1), 0
    for k in range(1, order + 1):
        corr += coeffs[k - 1] * term
        term *= (s + 2 * k - 1) * (s + 2 * k) / p2
    rem = abs(coeffs[order] * term)
    rem *= abs(s + 2 * order + 1) / (s.real + 2 * order + 1)
    return direct + tail + half + corr, rem, mag + abs(tail) + abs(half)


def _zeta(s, a: float, tol):
    """zeta(s, a) with absolute error at most tol: the kernel of hurwitz_zeta,
    at a Python complex s or at each point of a batch, whose tol may be an
    array of one tolerance per point.

    A batch takes one plan, at its largest |s|, smallest sigma and smallest
    tol, and its cutoff doubles until the remainder bound holds at every
    point within that point's tol.
    """
    _refuse_pole(s)
    _refuse_left(s)
    batch = isinstance(s, np.ndarray)
    least = np.min(tol) if batch else tol
    m, order = _em_plan(*_extent(s), a, least)
    sw = _working(s)
    # the direct block's slabs are combined by fsum or a compensated
    # running sum; a few ulps of the magnitude scale is what double
    # precision can deliver
    unit = 4 * math.ulp(1.0)
    while True:
        if m > _MAX_DIRECT:
            raise PrecisionUnreachable("cutoff beyond the direct-block cap",
                                       tol=float(least), cutoff=m)
        value, rem, scale = _em_once(sw, a, m, order, _C_EVEN)
        worst = rem.max() if batch else rem
        if not worst < math.inf:      # inf or nan
            at = _first(s, ~np.isfinite(rem))
            raise PrecisionUnreachable(
                "Euler-Maclaurin remainder bound is not finite",
                s=[at.real, at.imag], cutoff=m, order=order)
        floor = unit * scale
        reached = tol >= floor
        if not (reached.all() if batch else reached):
            i = int(np.argmin(reached)) if batch else 0
            at, tol_at, floor_at = (np.ravel(x)[i]
                                    for x in np.broadcast_arrays(s, tol, floor))
            raise PrecisionUnreachable(
                "tolerance below reachable floor", tol=float(tol_at),
                shift=a, s=[float(at.real), float(at.imag)],
                floor=float(floor_at))
        met = rem <= tol
        if met.all() if batch else met:
            return _complete(value, s)
        m *= 2


def hurwitz_zeta(s, alpha, tol: float = 1e-12):
    """zeta(s, alpha) with absolute error at most tol, in double precision,
    at a single point s (lfunction and series_tail also take a batch).

    Requires Re(s) > 1/2 and s != 1.  At real s the result has zero
    imaginary part.  A tol below a few ulps of the magnitude scale raises
    PrecisionUnreachable; series_tail_mp gives values beyond that floor.
    """
    return _zeta(complex(s), _shift_value(alpha), tol)


def series_tail(s, f: PeriodicFunction, alpha, start: int,
                tol: float = 1e-12):
    """sum_{n >= start} f(n) (n+alpha)^(-s) via the residue-class split.

    Works for astronomically large start (the split shifts the zeta
    arguments by start/q; no term-by-term summation happens here).  At a
    batch s (a 1-D complex array) the result is the array of values, each
    within tol.
    """
    s = _points(s)
    q = f.period
    # each point's share of tol per class, from its own q^(-sigma)
    weight = q ** -s.real * (math.fsum(abs(v) for v in f.values) + 1.0)
    each = 0.5 * tol / weight
    a = _shift_value(alpha)
    # a single point goes through the public hurwitz_zeta, a batch straight
    # to the kernel they share; either way each class shift is checked as
    # hurwitz_zeta checks its own
    zeta = _zeta if isinstance(s, np.ndarray) else hurwitz_zeta
    total = 0
    try:
        for r in range(q):
            c = f(start + r)
            if c == 0.0:
                continue
            total += c * zeta(s, _shift_value((a + start + r) / q), tol=each)
    except PrecisionUnreachable as err:
        if "tol" in err.details:    # the kernel's tol is one class's share
            err.details = {"tol": float(tol),
                           "class_tol": err.details.pop("tol"), **err.details}
        raise
    return _complete(q ** (-_working(s)) * total, s)


def series_tail_mp(s, f: PeriodicFunction, alpha, start: int, dps: int):
    """(value, magnitude) of sum_{n >= start} f(n) (n+alpha)^(-s) as mpmath
    numbers at dps working digits: the high-precision route.

    The value is q^(-s) sum_r f(start+r) zeta(s, (alpha+start+r)/q) with
    mpmath's own Hurwitz zeta, the class terms summed in order of r; the
    magnitude is |q^(-s)| sum_r |f(start+r) zeta(...)|, the scale of its
    rounding.  Refuses what series_tail refuses: s near 1, Re(s) <= 1/2,
    and a class with f != 0 whose shift (alpha+start+r)/q is not positive.
    """
    s = complex(s)
    _refuse_pole(s)
    _refuse_left(s)
    q = f.period
    a = _shift_value(alpha)
    for r in range(q):
        # a class shift is positive for start + r >= 0, as alpha is
        if start + r < 0 and f(start + r):
            _shift_value((a + start + r) / q)
    with mp.workdps(dps):
        sw = mp.mpc(s.real, s.imag) if s.imag else mp.mpf(s.real)
        a = alpha.value_mp() if isinstance(alpha, Alpha) else mp.mpf(a)
        total, mass = mp.mpf(0), mp.mpf(0)
        for r in range(q):
            c = f(start + r)
            if c:
                term = c * mp.zeta(sw, (a + start + r) / q)
                total += term
                mass += abs(term)
        scale = mp.power(q, -sw)
        return scale * total, abs(scale) * mass


def series_head(s, f: PeriodicFunction, alpha, upto: int,
                tol: float = 1e-12):
    """sum_{n = 0..upto} f(n) (n+alpha)^(-s), inclusive.

    Ranges up to _HEAD_DIRECT are summed directly by _direct_block; larger
    ones go through head = full series minus tail.  upto = -1 gives 0, and
    upto < -1 raises ValueError.
    """
    if upto < -1:
        raise ValueError(f"series_head needs upto >= -1, got {upto}")
    s = complex(s)
    if upto <= _HEAD_DIRECT:
        return _complete(_direct_block(_working(s), _shift_value(alpha),
                                       upto + 1, f.table(upto + 1))[0], s)
    full = lfunction(s, f, alpha, tol=tol / 2)
    tail = series_tail(s, f, alpha, upto + 1, tol=tol / 2)
    return full - tail


def lfunction(s, f: PeriodicFunction, alpha, tol: float = 1e-12):
    """L(s, f, alpha) for s != 1 (meromorphic continuation for Re(s) > 1/2).

    This is the residue-class split q^(-s) sum_b f(b) zeta(s, (alpha+b)/q),
    series_tail from 0: the residues b = 0..q-1 (with f(0) = f(q) by
    periodicity) cover the n = 0 term of the defining series.  The pole is
    refused here, since residue classes with f(b) = 0 call no hurwitz_zeta.
    At a batch s (a 1-D complex array) the result is the array of values.
    """
    s = _points(s)
    _refuse_pole(s)
    return series_tail(s, f, alpha, 0, tol=tol)


def tail_bound(f: PeriodicFunction, alpha, sigma: float, start: int) -> float:
    """Rigorous upper bound for sum_{n > start} |f(n)| (n+alpha)^(-sigma),
    by comparison with the integral from start."""
    a = float(alpha)
    if sigma <= 1:
        return math.inf
    return f.max_abs * (start + a) ** (1.0 - sigma) / (sigma - 1.0)
