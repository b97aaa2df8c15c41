## Counting and certifying zeros in the half-plane of absolute convergence.
##
## Winding numbers count zeros inside rectangles and circles; Newton pins
## them down; a Rouche certificate (sup of the difference strictly below the
## minimum of the comparison function on a circle) transfers a constructed
## zero to the shifted series.  Desk-scale budgets make honest failure the normal
## outcome for the full pipeline; the machinery never upgrades a failed
## margin into a claim.

from zetalab import (Alpha, Circle, PeriodicFunction, PipelineBudget,
                     Rectangle, argument_count, find_zero_pipeline, lfunction,
                     newton_refine, rouche_certificate)

f1 = PeriodicFunction.constant()

## A Dirichlet polynomial with zeros exactly at 1.05 + 2 pi i k / log 2
poly = lambda s: 1 - 2 ** 1.05 * 2 ** (-s)
count = argument_count(poly, Rectangle(1.01, 1.1, -1.0, 20.0))
print("zeros of 1 - 2^1.05 * 2^-s in the box:", count, "(t = 0, 9.06, 18.13)")

## The plain series has none for sigma > 1
count = argument_count(lambda s: lfunction(s, f1, 1.0, tol=1e-10),
                       Rectangle(1.1, 2.0, 0.0, 30.0))
print("zeros of the plain series in [1.1,2]x[0,30]:", count)

## Newton refinement from a rough start
rec = newton_refine(poly, 1.04 + 9j, tol=1e-12)
print("refined zero:", rec.s, " residual", rec.residual)

## A synthetic certificate: comparison F with a known zero, target F + c
z0 = 1.4 + 0.3j
F = lambda s: (s - z0) * 1.3
c = 0.05 + 0.02j
cert = rouche_certificate(F, lambda s: c, center=z0.real, radius=0.4,
                          samples=256, f_deriv_bound=1.3,
                          diff_deriv_bound=0.0, diff_tail=0.0)
print(f"\nsynthetic certificate: eps_min {cert.eps_min:.4f}, "
      f"sup_diff {cert.sup_diff:.4f}, margin {cert.margin:.4f}")
if cert.margin > 0:
    L = lambda s: F(s) + c
    disk = Circle(complex(z0.real, 0), 0.4)
    inside_l = argument_count(L, disk)
    inside_f = argument_count(F, disk)
    print("winding cross-check:", inside_l, "==", inside_f)

## The full pipeline at honest desk-scale budgets.  The matched cut is
## capped at a handful of terms, so the certificate stage cannot close;
## what matters is that every stage reports structured diagnostics.
budget = PipelineBudget(max_t=5e3, max_iterations=400_000, n_cut_max=6)
res = find_zero_pipeline(f1, Alpha.decimal("0.7853981634"), 0.5, budget)
print("\npipeline success:", res.success)
print("stages recorded:", sorted(res.stages))
if res.success:
    print("certified zero:", res.record.to_json())
else:
    print("failed stage:", res.failed_stage)
    print("diagnostics:", res.failure["error"], "-", res.failure["message"])
