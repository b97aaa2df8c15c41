## Evaluating Hurwitz-type series and checking their structural identities.
##
## zeta(s, a) = sum_{n>=0} (n+a)^(-s) and its periodic-coefficient
## generalization L(s, f, a) converge absolutely for Re(s) > 1; both are
## evaluated here by Euler-Maclaurin summation with a checked remainder.

import numpy as np

from zetalab import (Alpha, PeriodicFunction, hurwitz_zeta, lfunction,
                     series_head, series_tail)

## Basic values
print("zeta(2, 1)   =", hurwitz_zeta(2 + 0j, 1.0).real, " (pi^2/6)")
print("zeta(2, 1/2) =", hurwitz_zeta(2 + 0j, 0.5).real, " (3 zeta(2))")
print("zeta(3, 2)   =", hurwitz_zeta(3 + 0j, 2.0).real, " (zeta(3) - 1)")

## The shift-halving identity zeta(s, 1/2) = (2^s - 1) zeta(s)
s = 1.7 + 12.3j
lhs = hurwitz_zeta(s, 0.5)
rhs = (2 ** s - 1) * hurwitz_zeta(s, 1.0)
print("half identity residual:", abs(lhs - rhs))

## A periodic coefficient function: f = (1, -1) has mean zero, so its
## series is entire; f = (3, 1, 2) has residue 2 at s = 1.
f_alt = PeriodicFunction((1.0, -1.0))
f_pos = PeriodicFunction((3.0, 1.0, 2.0))
print("residue of (1,-1):", f_alt.residue)
print("residue of (3,1,2):", f_pos.residue)

## L is the residue-class split; it agrees with the defining series summed
## directly up to n = 47 and split from n = 48 = 16 q on
s = 2.2 - 31.0j
alpha = Alpha.quadratic(0, 1, 2)
print("L           =", lfunction(s, f_pos, alpha))
print("head + tail =", series_head(s, f_pos, alpha, 47)
      + series_tail(s, f_pos, alpha, 48))

## Watching (s - 1) L(s) approach the residue
for k in range(2, 7):
    x = 1.0 + 10.0 ** -k
    v = (x - 1.0) * lfunction(x + 0j, f_pos, alpha, tol=1e-7)
    print(f"  (s-1) L at s = 1+1e-{k}: {v.real:.6f}")

## Emit an evaluation grid as CSV (columns sigma, t, re, im)
rows = ["sigma,t,re,im"]
for sigma in np.linspace(1.2, 3.0, 10):
    for t in np.linspace(0.0, 40.0, 9):
        v = lfunction(complex(sigma, t), f_pos, alpha)
        rows.append(f"{sigma},{t},{v.real},{v.imag}")
with open("series_grid.csv", "w") as fh:
    fh.write("\n".join(rows) + "\n")
print("wrote series_grid.csv with", len(rows) - 1, "samples")
