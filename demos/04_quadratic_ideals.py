## Ideal bookkeeping in Q(sqrt(2)): factorizations and private primes.
##
## For a quadratic irrational shift the elements n + alpha generate
## integral ideals (after clearing the denominator ideal); factoring them
## exposes "private" primes that divide exactly one shift in a block,
## which is the raw material for the greedy character construction.

from fractions import Fraction

from zetalab import Alpha, factor_shift, ideal_denominator, private_primes

a2 = Alpha.quadratic(0, 1, 2)

## Denominator ideals: sqrt(2) is integral, sqrt(2)/2 is not
print("denominator of sqrt(2):   ", ideal_denominator(a2) or "unit ideal")
half = Alpha.quadratic(0, Fraction(1, 2), 2)
print("denominator of sqrt(2)/2: ",
      {p.label(): e for p, e in ideal_denominator(half).items()})

## Factoring n + sqrt(2) for small n: norms n^2 - 2
for n in range(8):
    fact = factor_shift(n, a2)
    shown = ", ".join(f"{p.label()}^{e}" for p, e in fact.factors) or "unit"
    print(f"  n={n}: norm {str(fact.norm):>4}  {shown}")

## Private primes in (0, 5]: the two primes above 7 are distinct ideals,
## so n = 3 and n = 4 are each private despite 7 | 14
block = private_primes(0, 5, a2)
print("private in (0,5]:",
      {n: p.label() for n, p in sorted(block.private.items())})

## Density at a larger block (the greedy construction feeds on this)
block = private_primes(1000, 50, a2)
print(f"private density in (1000, 1050]: {block.density:.2f}")
