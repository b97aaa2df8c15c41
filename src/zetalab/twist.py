"""Auxiliary twisted series engineered to vanish just right of s = 1.

Two constructions are provided.

Sign flip: weights +1 up to a truncation index m and -1 after.  When the
mean of f is positive, m is chosen so the head dominates the tail at
s = 1 + delta; the twisted sum is then positive there but tends to minus
infinity as s -> 1+, so it has a real zero sigma0 in (1, 1+delta), located
by bisection.  TwistedSeries holds this series, or the plain one.

Greedy character: for a quadratic irrational shift, unimodular values are
assigned to prime ideals block by block.  In each block (N_j, N_j + M_j]
the integers owning a private prime ideal form the free set; their
character values can be steered to any correction z inside the reachable
annulus of their weights, and z is chosen to cancel as much of the running
sum as the free mass S3 allows.  The ledger of every block records the
masses S1..S4, the correction, and the damping inequality

    |sum_{n <= N_{j+1}} f(n) chi(n+alpha) / (n+alpha)^sigma| < 1e-2 * tail,

with the left side summed from the character values (optionally also in
30-digit arithmetic).  The float tail is evaluated afresh for every block;
the 30-digit tail is evaluated once, at N_1 + 1, and carried: each block
subtracts its own 30-digit mass.  The character value of every
n <= N_{j+1} is frozen once the block ends: a witness prime divides no
other shift up to the block end, and new non-witness primes are pinned
to 1.  So the angle of chi(n + alpha) is written once into a per-n table,
and the settled sums are kept as running prefixes, each block adding only
its own terms, in the order a sum from n = 0 would take them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import mpmath as mp

from .annulus import AnnulusSpec, realize_phases
from .errors import (AnnulusGap, CaseUnreachable, NoSuchIndex,
                     SignChangeNotBracketed, ZetalabError)
from .quadfield import private_primes, _factorizer
from .series import (Alpha, PeriodicFunction, lfunction, series_head,
                     series_tail, series_tail_mp)

__all__ = [
    "TwistedSeries", "BlockSchedule", "BlockLedger",
    "ScheduleReport", "truncation_index", "find_sigma0", "greedy_step",
    "run_schedule", "choose_case_sigma",
]


@dataclass(frozen=True)
class TwistedSeries:
    """Series sum f(n) w(n) (n+alpha)^(-s) with weights w = +1 or -1.

    flip_index m: w = +1 for n <= m, -1 for n > m (the sign-flip series).
    flip_index None: w = 1 identically (the plain series L(s, f, alpha)).
    """

    f: PeriodicFunction
    alpha: object
    flip_index: int | None = None

    def weight(self, n: int) -> float:
        if self.flip_index is not None and n > self.flip_index:
            return -1.0
        return 1.0

    def evaluate(self, s, tol: float = 1e-12):
        """Value of the series at s (Re s > 1 for the sign flip).

        Sign-flip evaluation uses F(s) = L(s) - 2 * tail_{m+1}(s): one
        L and one tail for every m, however far beyond anything summable
        term by term.  At a batch s (a 1-D complex array) the result is the
        array of values.
        """
        if self.flip_index is None:
            return lfunction(s, self.f, self.alpha, tol=tol)
        full = lfunction(s, self.f, self.alpha, tol=tol / 2)
        tail = series_tail(s, self.f, self.alpha, self.flip_index + 1,
                           tol=tol / 4)
        return full - 2 * tail


_LINEAR_CAP = 100_000      # truncation_index scans m up to this exactly,
_MAX_DOUBLINGS = 600       # then doubles m at most this often
_SIGMA_FLOOR = 1e-8        # find_sigma0 hunts down to sigma = 1 + this
_HP_DPS = 30               # digits of the greedy ledger's recheck
_CASE_MARGIN = 0.8         # choose_case_sigma wants head < this * 1e-2 * tail
_CASE_FLOOR = 1e-9         # and walks sigma down to 1 + this
_REALIZE_TOL = 1e-9        # greedy_step realizes its correction to this


def truncation_index(f: PeriodicFunction, alpha, delta: float) -> int:
    """Smallest m whose head dominates the bounded tail at s = 1 + delta.

    The condition is head(m) > max|f| * (m+alpha)^(-delta) / delta, the
    right side being a rigorous integral bound for the tail from m+1 on.
    Small m are scanned exactly; past the linear cap the index is bracketed
    by doubling and pinned by bisection (the condition is monotone for
    nonnegative f, which is the regime where huge indices occur), and the
    head must win by more than its evaluation error.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if f.residue <= 0:
        raise NoSuchIndex("mean of f is not positive", residue=f.residue)
    a = float(alpha)
    s = 1.0 + delta
    mf = f.max_abs

    def bound(m: float) -> float:
        return mf * (m + a) ** (-delta) / delta

    # exact linear scan
    acc = 0.0
    for m in range(_LINEAR_CAP + 1):
        acc += f(m) * (m + a) ** (-s)
        if acc > bound(m):
            return m

    eval_tol = max(1e-12, 1e-15 / delta)   # the pole inflates magnitudes

    full = lfunction(s, f, alpha, tol=eval_tol)

    def dominates(m: float) -> bool:
        # head = full - tail, each within eval_tol: claim domination only
        # where it survives both errors
        tail = series_tail(s, f, alpha, int(m) + 1, tol=eval_tol)
        return (full - tail).real - 2 * eval_tol > bound(m)

    lo = _LINEAR_CAP
    hi = None
    m = 2 * _LINEAR_CAP
    for _ in range(_MAX_DOUBLINGS):
        if dominates(m):
            hi = m
            break
        lo = m
        m *= 2
    if hi is None:
        raise NoSuchIndex("no dominating index within the doubling budget",
                          delta=delta, last_tried=lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if dominates(mid):
            hi = mid
        else:
            lo = mid
    return hi


def find_sigma0(series: TwistedSeries, delta: float, tol: float = 1e-10):
    """Real zero of the sign-flip series in (1, 1 + delta), by bisection,
    as (sigma0, lo, hi): the series changes sign across [lo, hi].

    The right endpoint must be positive (that is what the truncation index
    guarantees); a negative value is hunted geometrically toward 1, down to
    the precision floor where cancellation near the pole takes over.
    """
    if series.flip_index is None:
        raise ValueError("sign-flip series required")

    def F(x: float) -> float:
        # evaluation accuracy tracks the pole blow-up at x -> 1+
        local = max(min(tol / 4, 1e-12), 4e-15 / (x - 1.0))
        return series.evaluate(complex(x, 0.0), tol=local).real

    b = 1.0 + delta
    fb = F(b)
    if fb <= 0:
        raise SignChangeNotBracketed("series not positive at 1 + delta",
                                     value=fb, at=b)
    a = None
    step = delta
    while True:
        step /= 2.0
        x = 1.0 + step
        if step < _SIGMA_FLOOR:
            raise SignChangeNotBracketed(
                "no negative value found above the precision floor",
                floor=_SIGMA_FLOOR)
        if F(x) < 0:
            a = x
            break
    lo, hi = a, b
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = F(mid)
        if abs(v) <= tol:
            return mid, lo, hi
        if v < 0:
            lo = mid
        else:
            hi = mid
    # interval collapsed to rounding width; the midpoint is the zero
    mid = 0.5 * (lo + hi)
    if abs(F(mid)) <= tol:
        return mid, lo, hi
    raise SignChangeNotBracketed("bisection stalled above tolerance",
                                 lo=lo, hi=hi, value=F(mid))


# ---------------------------------------------------------------------------
# greedy character induction
# ---------------------------------------------------------------------------

def _correction(lam: complex, s3: float) -> complex:
    if lam == 0:
        return 0j
    mag = abs(lam)
    if mag <= s3:
        return -lam
    return -s3 * lam / mag


def greedy_step(lam: complex, free_weights):
    """One block of the induction: steer the free part against lam.

    lam is the running sum the block must cancel (the settled partial sum
    plus the block's fixed part); free_weights is a list of (n, w_n) for
    the steerable part.  Requires the free multiset to reach the full disk
    (inner radius zero).  Returns (correction, angles, new_partial): the
    chosen z, phase angles on the free part realizing it, and lam plus the
    realized free sum.
    """
    weights = [w for _, w in free_weights]
    angles: dict[int, float] = {}
    if free_weights:
        spec = AnnulusSpec(tuple(weights))
        if spec.inner > 0.0:
            raise AnnulusGap("free weights do not reach the full disk",
                             inner=spec.inner, count=len(weights))
        z = _correction(lam, math.fsum(weights))
        phases = realize_phases(spec, z, tol=_REALIZE_TOL)
        angles = {n: th for (n, _), th in zip(free_weights, phases)}
        realized = sum(w * cmath.exp(1j * th)
                       for w, th in zip(weights, phases))
    else:
        z = realized = 0j
    return z, angles, lam + realized


@dataclass(frozen=True)
class BlockSchedule:
    """Parameterized block layout for the induction.

    M_j = max(1, floor(N_j / scale_den)), N_{j+1} = N_j + M_j.  sigma > 1
    is searched (exploiting the pole) when not fixed.
    """

    n1: int = 1000
    num_blocks: int = 50
    scale_den: int = 100
    sigma: float | None = None

    def __post_init__(self):
        rules = (("n1", ">= 0", self.n1 >= 0),
                 ("num_blocks", ">= 0", self.num_blocks >= 0),
                 ("scale_den", ">= 1", self.scale_den >= 1))
        for name, rule, ok in rules:
            if not ok:
                raise ValueError(f"the block schedule needs {name} {rule}, "
                                 f"got {getattr(self, name)!r}")

    def block_length(self, n: int) -> int:
        return max(1, n // self.scale_den)


@dataclass
class BlockLedger:
    j: int
    n_start: int
    n_end: int
    free_count: int
    fixed_count: int
    s1: float
    s2: float
    s3: float
    s4: float
    lam: complex
    correction: complex
    realize_err: float
    damping_lhs: float
    damping_rhs: float
    damping_ok: bool
    damping_lhs_hp: float | None
    damping_rhs_hp: float | None
    damping_ok_hp: bool | None
    chain_lhs: float            # |settled sum at block start| + S2 - S3
    chain_ok: bool
    ratio: float
    ratio_ok: bool
    bound_ok: bool
    pair_ratio: float
    pair_ratio_ok: bool
    census_ok: bool
    density: float

    def to_json(self) -> dict:
        out = dict(vars(self))
        out["lam"] = [self.lam.real, self.lam.imag]
        out["correction"] = [self.correction.real, self.correction.imag]
        return out


@dataclass
class ScheduleReport:
    sigma: float
    blocks: list
    ok: bool
    halted_at: int | None
    prime_angles: dict = field(default_factory=dict, repr=False)

    def to_json(self) -> dict:
        return {"sigma": self.sigma, "ok": self.ok, "halted_at": self.halted_at,
                "blocks": [b.to_json() for b in self.blocks]}


def choose_case_sigma(f: PeriodicFunction, alpha, n1: int) -> float:
    """Exponent sigma in (1, 2) making the initial head small:
    head(n1) < 0.8e-2 * tail(n1).  The pole guarantees existence for
    positive residue; sigma walks geometrically toward 1, from 1.5 by
    halving sigma - 1, until the inequality holds."""
    step = 1.0
    while True:
        step /= 2.0
        if step < _CASE_FLOOR:
            raise CaseUnreachable(
                "no exponent satisfies the head bound above the floor",
                floor=_CASE_FLOOR, n1=n1)
        sigma = 1.0 + step
        local = max(1e-11, 1e-14 / step)
        head = abs(series_head(sigma + 0j, f, alpha, n1, tol=local))
        tail = series_tail(sigma + 0j, f, alpha, n1 + 1, tol=local).real
        if head < _CASE_MARGIN * 1e-2 * tail:
            return sigma


def run_schedule(f: PeriodicFunction, alpha: Alpha, schedule: BlockSchedule,
                 hp_check: bool = True) -> ScheduleReport:
    """Run the greedy character induction over the block schedule.

    f must be positive: the free weights are annulus radii, and alpha must
    be a quadratic irrational; both are checked before any work.  The free
    sets come from ideal factorizations (integers owning a private prime),
    and character values are kept on prime ideals as phase angles.  The
    angle of each n is written once into one per-n table, which is all the
    sums read.  The settled sum is a running prefix over n = 0, 1, ...,
    kept in floats and (optionally) at 30 digits: each block adds its own
    terms once its free angles are written, in index order, so every
    prefix equals the sum from n = 0.  That holds because the angles of
    all n up to a block end are frozen from then on; a witness prime that
    already carries an angle would break it and raises ZetalabError.  The
    prefixes are summed from the table, never taken from the running sum
    that greedy_step returns, so realize_err stays an independent check.
    The float tail is evaluated afresh for every block.  The 30-digit sums
    come from mpmath's Hurwitz zeta twice: every angle up to n1 is 0, so
    the head is the series from 0 minus the tail from n1 + 1, taken with
    guard digits against the cancellation at the pole; that tail is then
    carried, each block subtracting the 30-digit mass of its own terms.

    Processing halts at the first block whose damping inequality fails (the
    offending row stays in the report with ok=False).  A free set whose
    annulus has positive inner radius raises AnnulusGap; blocks where the
    census falls below ceil(27 M / 50) or the mass ratio below 101/99 are
    flagged but not fatal.
    """
    if min(f.values) <= 0:
        raise ValueError("the greedy ledger needs f > 0: its free weights "
                         "f(n) / (n+alpha)^sigma are annulus radii")
    fz = _factorizer(alpha)
    sigma = schedule.sigma if schedule.sigma is not None else \
        choose_case_sigma(f, alpha, schedule.n1)
    if not sigma > 1.0:
        raise ValueError(f"the greedy ledger needs sigma > 1, got {sigma}")
    a = float(alpha)
    prime_angles: dict = {}

    def weight(n: int) -> float:
        return f(n) / (n + a) ** sigma

    def angle_of(factors) -> float:
        total = 0.0
        for prime, e in factors:
            total += e * prime_angles[prime]
        return math.fmod(total, 2.0 * math.pi)

    with mp.workdps(_HP_DPS):
        a_mp = alpha.value_mp()
        sigma_mp = mp.mpf(sigma)

    def settle(acc: complex, acc_hp, lo: int, ws: list[float]):
        """The settled prefixes over n < lo extended by the terms from lo on
        whose float weights are ws, and the 30-digit mass of those terms;
        acc_hp is None (and so is the mass) when there is no high-precision
        recheck."""
        ns = range(lo, lo + len(ws))
        phases = chi[lo:lo + len(ws)]
        for w, ph in zip(ws, phases):
            acc += w * cmath.exp(1j * ph)
        if acc_hp is None:
            return acc, None, None
        with mp.workdps(_HP_DPS):
            ws_hp = [f(n) / (n + a_mp) ** sigma_mp for n in ns]
            turns = [mp.cos_sin(mp.mpf(ph)) if ph else (1, 0)
                     for ph in phases]
            acc_hp += mp.mpc(mp.fdot(ws_hp, [c for c, _ in turns]),
                             mp.fdot(ws_hp, [s for _, s in turns]))
            mass = mp.fsum(ws_hp)
        return acc, acc_hp, mass

    # first block preassignment: everything visible up to n1 is pinned at 1
    n1 = schedule.n1
    # the occurrence index holds absolute first and second occurrences,
    # so a census reads the same from an index that runs past its block,
    # and one sieve can cover many blocks.  It runs to the schedule's
    # end, but to at most twice the block end in hand: a long schedule
    # that halts early has then not factored far past its halt
    end = n1
    for _ in range(schedule.num_blocks):
        end += schedule.block_length(end)

    def index_ahead(top: int):
        if top > fz.scanned:
            fz.index_to(min(end, 2 * top))

    index_ahead(n1)
    for prime in fz.denominator:
        prime_angles[prime] = 0.0
    for prime in fz.first_seen(n1):
        prime_angles.setdefault(prime, 0.0)
    # chi[n]: the settled angle of chi(n + alpha), written once; up to n1
    # it is 0, every prime seen there being pinned at 0
    chi = [0.0] * (n1 + 1)

    settled, _, _ = settle(0j, None, 0, [weight(n) for n in range(n1 + 1)])
    settled_hp = tail_hp = None
    if hp_check:
        # the 30-digit head is L minus the tail from n1 + 1, both near
        # 1/(sigma - 1): guard digits keep the difference good to 30, and
        # both it and the tail are then rounded to 30
        guard = _HP_DPS + 5 + max(0, math.ceil(-math.log10(sigma - 1.0)))
        full = series_tail_mp(sigma, f, alpha, 0, guard)[0]
        tail_hp = series_tail_mp(sigma, f, alpha, n1 + 1, guard)[0]
        with mp.workdps(_HP_DPS):
            settled_hp, tail_hp = mp.mpc(full - tail_hp), +tail_hp
    # the greedy's own running sum, built from the realized phases; the
    # settled prefixes are summed apart from it from the angle table
    partial = settled

    rows: list[BlockLedger] = []
    ok = True
    halted = None
    n_cur = n1
    for j in range(1, schedule.num_blocks + 1):
        m_len = schedule.block_length(n_cur)
        top = n_cur + m_len
        block_ns = range(n_cur + 1, top + 1)
        chi.extend([0.0] * m_len)

        index_ahead(top)
        census = private_primes(n_cur, m_len, alpha)
        free_ns = sorted(census.private)
        free_set = set(free_ns)
        fixed_ns = [n for n in block_ns if n not in free_set]

        # new primes in this block that are nobody's witness get value 1
        witness_set = set(census.private.values())
        factors = {n: fz.factor(n).factors for n in block_ns}
        for n in block_ns:
            for prime, _ in factors[n]:
                if prime not in prime_angles and prime not in witness_set:
                    prime_angles[prime] = 0.0
        for n in fixed_ns:
            chi[n] = angle_of(factors[n])

        # each weight of the block, formed once: n's is block_ws[n - n_cur - 1]
        block_ws = [weight(n) for n in block_ns]
        fixed_ws = [block_ws[n - n_cur - 1] for n in fixed_ns]
        fixed_sum = sum(w * cmath.exp(1j * chi[n])
                        for n, w in zip(fixed_ns, fixed_ws))
        free_weights = [(n, block_ws[n - n_cur - 1]) for n in free_ns]
        ws = [w for _, w in free_weights]
        # S2 and S3: the fixed and the free mass of the block
        s2 = math.fsum(fixed_ws)
        s3 = math.fsum(ws)
        tail_tol = max(1e-11, 1e-14 / (sigma - 1.0))
        tail_mass = series_tail(sigma + 0j, f, alpha, top + 1,
                                tol=tail_tol).real

        s1 = abs(partial)
        lam = partial + fixed_sum
        correction, angles, partial = greedy_step(lam, free_weights)

        # write the free angles through the witness primes; a witness with
        # an angle already would change terms the prefixes have summed
        for n in free_ns:
            witness = census.private[n]
            if witness in prime_angles:
                raise ZetalabError(
                    "witness prime already carries a character value",
                    block=j, n=n, witness=witness.label(),
                    angle=prime_angles[witness])
            e_w = dict(factors[n])[witness]
            known = 0.0
            for prime, e in factors[n]:
                if prime != witness:
                    known += e * prime_angles[prime]
            prime_angles[witness] = math.fmod(
                (angles[n] - known) / e_w, 2.0 * math.pi)
        for n in free_ns:
            chi[n] = angle_of(factors[n])

        # the chain form: the settled sum up to the block start plus the
        # fixed mass minus the free mass
        chain_lhs = abs(settled) + s2 - s3
        settled, settled_hp, mass_hp = settle(settled, settled_hp,
                                              n_cur + 1, block_ws)
        realize_err = abs(settled - partial)
        lhs = abs(settled)
        rhs = 1e-2 * tail_mass
        damping_ok = lhs < rhs
        chain_ok = chain_lhs < rhs
        lhs_hp = rhs_hp = None
        ok_hp = None
        if hp_check:
            with mp.workdps(_HP_DPS):
                tail_hp -= mass_hp
                lhs_hp_v = abs(settled_hp)
                rhs_hp_v = mp.mpf("0.01") * tail_hp
                ok_hp = bool(lhs_hp_v < rhs_hp_v)
                lhs_hp, rhs_hp = float(lhs_hp_v), float(rhs_hp_v)
        ratio = s3 / s2 if s2 > 0 else math.inf
        pair_ratio = max(ws) / min(ws) if ws else 1.0

        rows.append(BlockLedger(
            j=j, n_start=n_cur, n_end=top, free_count=len(free_ns),
            fixed_count=len(fixed_ns), s1=s1, s2=s2, s3=s3,
            s4=tail_mass, lam=lam,
            correction=correction, realize_err=realize_err,
            damping_lhs=lhs, damping_rhs=rhs, damping_ok=damping_ok,
            damping_lhs_hp=lhs_hp, damping_rhs_hp=rhs_hp, damping_ok_hp=ok_hp,
            chain_lhs=chain_lhs, chain_ok=chain_ok,
            ratio=ratio, ratio_ok=ratio > 101.0 / 99.0,
            bound_ok=100.0 * (s3 - s2) > s3 + s2,
            pair_ratio=pair_ratio, pair_ratio_ok=pair_ratio < 3.0,
            census_ok=len(free_ns) >= math.ceil(27 * m_len / 50),
            density=len(free_ns) / m_len))

        if not damping_ok or (hp_check and not ok_hp):
            ok = False
            halted = j
            break
        n_cur = top

    return ScheduleReport(sigma=sigma, blocks=rows, ok=ok, halted_at=halted,
                          prime_angles=prime_angles)
