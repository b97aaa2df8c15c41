## Engineering a real zero just right of s = 1 by flipping signs.
##
## With positive mean, the series has a pole at s = 1.  Flip the weights
## to -1 after an index m chosen so the head dominates the bounded tail at
## s = 1 + delta: the twisted sum is then positive there, but the pole
## drags it to -infinity as s -> 1+, forcing a sign change in between.

import numpy as np

from zetalab import PeriodicFunction, TwistedSeries, find_sigma0, \
    truncation_index

f = PeriodicFunction.constant()

## The truncation index for a few tail budgets
for delta in (10.0, 1.0, 0.5, 0.2, 0.05):
    m = truncation_index(f, 1.0, delta)
    print(f"delta = {delta:>5}: flip after m = {m}")

## delta = 1: head 1 + 1/4 beats the integral tail bound 1/2 at m = 1
m = truncation_index(f, 1.0, 1.0)
series = TwistedSeries(f, 1.0, flip_index=m)
print("\nF(2.0) =", series.evaluate(2 + 0j).real, "(positive by design)")
print("F(1.05) =", series.evaluate(1.05 + 0j).real, "(pole pulling down)")

## Bisection brackets the zero
sigma0, lo, hi = find_sigma0(series, 1.0, tol=1e-12)
print("sigma0 =", sigma0, "in", [lo, hi])
print("|F(sigma0)| =", abs(series.evaluate(complex(sigma0, 0)).real))

## The sign change in a table
for x in np.linspace(1.05, 2.0, 12):
    v = series.evaluate(complex(x, 0)).real
    bar = "-" if v < 0 else "+"
    print(f"  F({x:.3f}) = {v:+10.5f}  {bar}")

## A small tail budget pushes the flip index out exponentially
m_small = truncation_index(f, 1.0, 0.01)
print(f"\ndelta = 0.01 needs m ~ {m_small:.3e} (exp-scale in 1/delta);")
print("the split-tail evaluator still prices the head exactly:")
from zetalab import series_head
head = series_head(1.01 + 0j, f, 1.0, m_small, tol=1e-9).real
print("head =", head, "> bound =", (m_small + 1) ** -0.01 / 0.01)
