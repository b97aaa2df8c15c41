"""Search for simultaneous inhomogeneous approximations.

Given frequencies w_1..w_N (rationally independent, by the caller's
assumption) and target phases b_1..b_N, find t > t_min with

    || t*w_n - b_n ||  <  delta   for every n,

where ||.|| is distance to the nearest integer.  Existence for independent
frequencies is Kronecker's theorem, which is non-effective; the search
therefore carries an explicit work budget and either returns a solution
that has been re-verified by direct arithmetic or reports BudgetExhausted.
A failure never refutes independence.

The search is exact.  Every witness lies in a window where the fastest
phase is within delta of its target: t in ((b + k - delta)/w, (b + k +
delta)/w) for w = max|w_n| (a negative frequency is folded, ||t*w - b|| =
||t*(-w) - (-b)||).  Each window is cut into m = floor(2delta/(1-2delta)) + 1
pieces, across which no phase moves by 1 - 2delta, so in one piece each
phase can be within delta of one integer only, the nearest to its value at
the piece middle; the witnesses in the piece then form one interval.  For
N = 1 this is the closed form t = (b + k)/w, except in the window that
straddles t_min, where it is the middle of the window's part past t_min.

All distances live on R/Z (phase units).  The series application supplies
w_n = log(n + alpha) / 2pi and unimodular targets g = exp(-2pi i b); a phase
distance of eps transfers to |exp(-2pi i t w) - g| <= 2pi * eps (chord is
bounded by arc, Lipschitz constant 2pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, DegenerateInput

__all__ = ["KroneckerProblem", "KroneckerSolution", "SearchBudget",
           "solve", "verify", "PHASE_LIPSCHITZ"]

# chord length on the unit circle per unit of phase distance
PHASE_LIPSCHITZ = 2.0 * math.pi


@dataclass(frozen=True)
class KroneckerProblem:
    frequencies: tuple
    targets: tuple
    delta: float
    t_min: float = 0.0

    def __post_init__(self):
        w = tuple(float(x) for x in self.frequencies)
        b = tuple(float(x) % 1.0 for x in self.targets)
        if len(w) != len(b) or len(w) < 1:
            raise ValueError("frequency and target lists must match, N >= 1")
        if not (0.0 < self.delta < 0.5):
            raise ValueError("delta must lie in (0, 1/2)")
        if not all(map(math.isfinite, w + b + (float(self.t_min),))):
            raise ValueError("frequencies, targets and t_min must be finite")
        if len(set(w)) != len(w):
            raise DegenerateInput("duplicate frequencies", frequencies=list(w))
        # one rounding step of t at t_min moves the fastest phase by blur
        blur = math.ulp(float(self.t_min)) * max(map(abs, w))
        if blur >= self.delta:
            raise ValueError(f"t_min is past float resolution: one step of "
                             f"t moves a phase by {blur:g} >= delta")
        object.__setattr__(self, "frequencies", w)
        object.__setattr__(self, "targets", b)


@dataclass(frozen=True)
class KroneckerSolution:
    t: float
    integer_parts: tuple
    max_error: float


@dataclass(frozen=True)
class SearchBudget:
    """The scan stops at t = max_t or after max_iterations windows."""
    max_t: float = 1e6
    max_iterations: int = 50_000_000

    def __post_init__(self):
        if not self.max_iterations >= 1:
            raise ValueError("the search budget needs max_iterations >= 1, "
                             f"got {self.max_iterations}")


def _circle_dist(x: np.ndarray) -> np.ndarray:
    f = np.mod(x, 1.0)
    return np.minimum(f, 1.0 - f)


def verify(problem: KroneckerProblem, t: float) -> float:
    """max_n || t*w_n - b_n ||, recomputed by direct arithmetic."""
    w = np.asarray(problem.frequencies)
    b = np.asarray(problem.targets)
    return float(_circle_dist(t * w - b).max())


def _nearest_ints(problem: KroneckerProblem, t: float) -> tuple:
    w = np.asarray(problem.frequencies)
    b = np.asarray(problem.targets)
    return tuple(int(x) for x in np.rint(t * w - b))


def _finish(problem: KroneckerProblem, t: float) -> KroneckerSolution | None:
    if t <= problem.t_min:
        return None
    err = verify(problem, t)
    if err < problem.delta:
        return KroneckerSolution(t=t, integer_parts=_nearest_ints(problem, t),
                                 max_error=err)
    return None


def solve(problem: KroneckerProblem, budget: SearchBudget | None = None
          ) -> KroneckerSolution:
    """Find t_min < t <= budget.max_t with all phase errors below delta,
    or raise BudgetExhausted.

    Windows are scanned in order from the first one that reaches past
    t_min (it may be centred before t_min), up to max_t or max_iterations
    windows, and no witness there is missed, up to rounding.  A piece's
    witness is its window centre when that lies in the piece's interval
    (clipped to t_min and max_t), otherwise the interval's middle.  A zero
    frequency is checked once: a met target drops it, a missed one raises
    BudgetExhausted at once.  The returned solution was re-checked with
    verify() before being handed back.
    """
    budget = budget or SearchBudget()
    if not budget.max_t > problem.t_min:
        raise ValueError(f"the search needs max_t > t_min, got max_t="
                         f"{budget.max_t}, t_min={problem.t_min}")
    w = np.asarray(problem.frequencies)
    b = np.where(w < 0, -np.asarray(problem.targets), problem.targets) % 1.0
    w = np.abs(w)
    d, t_min, max_t = problem.delta, problem.t_min, budget.max_t
    if not w.any():
        raise DegenerateInput("zero frequency",
                              frequencies=list(problem.frequencies))
    zero = w == 0.0
    miss = float(_circle_dist(b[zero]).max(initial=0.0))
    if miss >= d:
        raise BudgetExhausted("a zero frequency misses its target at every t",
                              best_error=miss, best_t=None, windows_scanned=0,
                              t_reached=t_min, max_t=max_t)
    w, b = w[~zero], b[~zero]
    wmax, bmax = float(w.max()), float(b[np.argmax(w)])
    m = int(2 * d / (1 - 2 * d)) + 1
    # piece middles as offsets from the window centre
    mids = d / wmax * ((2 * np.arange(m) + 1) / m - 1)
    # the first window whose upper end passes t_min; its lower end is
    # clipped to t_min below
    k = k0 = math.floor(t_min * wmax - bmax - d) + 1
    # window k starts below max_t when k < k_last
    k_last = max_t * wmax - bmax + d
    k_end = min(k_last, k0 + budget.max_iterations)
    size = 1 << 11
    best = (math.inf, None)
    while k < k_end:
        rows = min(math.ceil(k_end - k), max(1, size // (m * w.size)))
        c = (bmax + k + np.arange(rows)) / wmax
        ts = np.repeat(c, m)
        j = np.rint((ts + np.tile(mids, rows))[:, None] * w - b)
        lo = np.maximum(((j + b - d) / w).max(axis=1), t_min)
        hi = np.minimum(((j + b + d) / w).min(axis=1), max_t)
        inside = (lo < ts) & (ts < hi)
        for t in np.where(inside, ts, 0.5 * (lo + hi))[lo < hi]:
            sol = _finish(problem, float(t))
            if sol is not None:
                return sol
        c = np.maximum(c, t_min)    # a centre before t_min counts at t_min
        errs = _circle_dist(c[:, None] * w - b).max(axis=1)
        i = int(np.argmin(errs))
        best = min(best, (float(errs[i]), float(c[i])))
        k += rows
        size = min(2 * size, 1 << 17)
    limit = "max_iterations" if k < k_last else "max_t"
    raise BudgetExhausted(f"{limit} ended the window scan without a witness",
                          best_error=best[0], best_t=best[1],
                          windows_scanned=k - k0,
                          t_reached=min(max_t, (bmax + k - d) / wmax),
                          max_t=max_t)

