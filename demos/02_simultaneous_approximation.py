## Steering the phases (n + alpha)^(-it) toward prescribed unit targets.
##
## The frequencies log(n + alpha)/2pi are rationally independent for
## suitable alpha, so a single multiplier t can park every phase near any
## target (Kronecker).  The theorem is non-effective; the solver works
## inside an explicit budget and re-verifies its witness before returning.

import cmath
import math

from zetalab import Alpha, KroneckerProblem, SearchBudget, solve, verify

## One frequency has a closed form: t = (beta + k) / omega
w = math.log(2) / (2 * math.pi)
problem = KroneckerProblem((w,), (0.0,), delta=0.01, t_min=1.0)
sol = solve(problem)
print("single frequency: t =", sol.t, " (2 pi / log 2 =",
      2 * math.pi / math.log(2), ")")

## Three frequencies: a scan over the windows where the fastest phase is
## within delta of its target
alpha = Alpha.decimal("0.7853981634")
freqs = tuple(math.log(n + alpha.value) / (2 * math.pi) for n in range(3))
targets = (0.25, 0.5, 0.9)
problem = KroneckerProblem(freqs, targets, delta=0.05)
sol = solve(problem)
print("windows: t =", sol.t, " max phase error =", sol.max_error)
print("re-verified:", verify(problem, sol.t))

## The phase error transfers to the unit circle with Lipschitz constant 2pi
for wn, bn in zip(freqs, targets):
    chord = abs(cmath.exp(-2j * math.pi * sol.t * wn)
                - cmath.exp(-2j * math.pi * bn))
    print(f"  chord {chord:.4f} <= 2pi * {sol.max_error:.4f}")

## Six frequencies: the same scan, with a larger budget in t
freqs6 = tuple(math.log(n + alpha.value) / (2 * math.pi) for n in range(6))
targets6 = (0.1, 0.3, 0.5, 0.7, 0.9, 0.2)
problem6 = KroneckerProblem(freqs6, targets6, delta=0.2)
sol6 = solve(problem6, SearchBudget(max_t=1e7))
print("six:     t =", sol6.t, " max phase error =", sol6.max_error)
