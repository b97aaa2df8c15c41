"""Search for simultaneous inhomogeneous approximations.

Given frequencies w_1..w_N (rationally independent, by the caller's
assumption) and target phases b_1..b_N, find t > t_min with

    || t*w_n - b_n ||  <  delta   for every n,

where ||.|| is distance to the nearest integer.  Existence for independent
frequencies is Kronecker's theorem, which is non-effective; the search
therefore carries an explicit work budget and either returns a solution
that has been re-verified by direct arithmetic or reports BudgetExhausted.
A failure never refutes independence.

N = 1 has a closed form.  For N >= 2 the search scans t on a grid of step
delta / (2pi max|w_n|).  Every t lies within half a step of a grid point,
which moves no phase by more than delta/4pi, so any t with all phase errors
below (1 - 1/4pi)*delta has a witness beside it on the grid.

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
           "solve", "verify", "solve_character_targets", "PHASE_LIPSCHITZ"]

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
        object.__setattr__(self, "frequencies", w)
        object.__setattr__(self, "targets", b)


@dataclass(frozen=True)
class KroneckerSolution:
    t: float
    integer_parts: tuple
    max_error: float


@dataclass(frozen=True)
class SearchBudget:
    max_t: float = 1e6
    max_iterations: int = 50_000_000


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


def _solve_single(problem: KroneckerProblem, budget: SearchBudget):
    """Closed form for N = 1: t = (b + k)/w for the smallest admissible k."""
    w = problem.frequencies[0]
    b = problem.targets[0]
    if w == 0.0:
        raise DegenerateInput("zero frequency", frequencies=[w])
    k = math.ceil(problem.t_min * w - b)
    # t grows with each step of k
    for _ in range(4):
        t = (b + k) / w
        if t > budget.max_t:
            break
        sol = _finish(problem, t)
        if sol is not None:
            return sol
        k += 1 if w > 0 else -1
    raise BudgetExhausted("no admissible k for the single-frequency form",
                          t_min=problem.t_min, max_t=budget.max_t)


def _solve_grid(problem: KroneckerProblem, budget: SearchBudget):
    """Scan t_min + k*step <= max_t, k = 1, 2, ..., in chunks; verify the
    first hit.

    Each chunk's phase table holds at most 2^17 entries, so the working set
    does not grow with N.
    """
    w = np.asarray(problem.frequencies)
    b = np.asarray(problem.targets)
    wmax = float(np.abs(w).max())
    step = problem.delta / (PHASE_LIPSCHITZ * wmax)
    chunk = min(1 << 15, (1 << 17) // w.size)
    t0 = problem.t_min + step
    used = 0
    best = (math.inf, None)
    while t0 <= budget.max_t and used < budget.max_iterations:
        ts = t0 + step * np.arange(chunk)
        ts = ts[ts <= budget.max_t]
        errs = _circle_dist(ts[:, None] * w[None, :] - b[None, :]).max(axis=1)
        hit = np.nonzero(errs < problem.delta)[0]
        if hit.size:
            t = float(ts[hit[0]])
            sol = _finish(problem, t)
            if sol is not None:
                return sol
        i = int(np.argmin(errs))
        if errs[i] < best[0]:
            best = (float(errs[i]), float(ts[i]))
        used += ts.size
        t0 = float(ts[-1]) + step
    raise BudgetExhausted("grid scan found no witness",
                          best_error=best[0], best_t=best[1],
                          points_scanned=used, max_t=budget.max_t)


def solve(problem: KroneckerProblem, budget: SearchBudget | None = None
          ) -> KroneckerSolution:
    """Find t_min < t <= budget.max_t with all phase errors below delta,
    or raise BudgetExhausted.

    The returned solution always satisfies its invariants: it was re-checked
    with verify() before being handed back.
    """
    budget = budget or SearchBudget()
    if len(problem.frequencies) == 1:
        return _solve_single(problem, budget)
    return _solve_grid(problem, budget)


def solve_character_targets(alpha, basis, chi_on_basis, epsilon: float,
                            t_min: float = 0.0,
                            budget: SearchBudget | None = None):
    """Find t making every s_j^(-it) land within eps/(M*l) of chi(s_j).

    basis is a MultiplicativeBasis over positive field elements; the error
    budget per basis element propagates through exponent vectors bounded by
    M across l elements, so the product bound

        |(n+alpha)^(-it) - chi(n+alpha)| <= M * sum_j |s_j^(-it) - chi(s_j)|

    comes out below epsilon for every represented n.  The conclusion is
    re-verified directly on all n before returning.

    Returns (solution, chi_values) with chi_values[n] the target character
    value on n + alpha.
    """
    import cmath

    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    chi = [complex(c) for c in chi_on_basis]
    if len(chi) != len(basis.elements):
        raise ValueError("one unit target per basis element required")
    for c in chi:
        if abs(abs(c) - 1.0) > 1e-12:
            raise ValueError("targets must be unimodular")
    m_bound = max(basis.exponent_bound, 1)
    ell = len(basis.elements)
    per = epsilon / (m_bound * ell)
    delta_phase = min(per / PHASE_LIPSCHITZ, 0.49)

    freqs = [math.log(e.approx()) / (2.0 * math.pi) for e in basis.elements]
    targets = [(-cmath.phase(c) / (2.0 * math.pi)) % 1.0 for c in chi]
    problem = KroneckerProblem(tuple(freqs), tuple(targets),
                               delta=delta_phase, t_min=t_min)
    sol = solve(problem, budget)

    chi_values = {}
    worst = 0.0
    for n, u in basis.exponents.items():
        val = 1.0 + 0j
        for cj, uj in zip(chi, u):
            val *= cj ** uj
        x = float(n) + alpha.value
        attained = cmath.exp(-1j * sol.t * math.log(x))
        worst = max(worst, abs(attained - val))
        chi_values[n] = val
    if worst >= epsilon:
        raise BudgetExhausted(
            "verified product error not below epsilon; tighten the budget",
            worst=worst, epsilon=epsilon, t=sol.t)
    return sol, chi_values
