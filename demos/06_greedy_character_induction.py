## The greedy character induction over authentic ideal blocks.
##
## Block by block, the integers owning a private prime ideal are steered:
## their character values realize a correction z that cancels as much of
## the running sum as the free mass S3 allows.  The ledger tracks the
## damping inequality |settled sum| < 1e-2 * tail at every block and
## re-checks it in 30-digit arithmetic: the settled sum is a running
## prefix, the float tail is evaluated afresh, and the 30-digit tail is
## evaluated once and carried, each block subtracting its own mass.

from zetalab import Alpha, BlockSchedule, PeriodicFunction, run_schedule

f = PeriodicFunction.constant()
alpha = Alpha.quadratic(0, 1, 2)

schedule = BlockSchedule(n1=1000, num_blocks=25, scale_den=100)
report = run_schedule(f, alpha, schedule, hp_check=True)

print(f"exponent sigma = {report.sigma!r}  (found by exploiting the pole)")
print(f"induction ok = {report.ok}\n")

hdr = (" j  block         |A| |B|   S3/1e-3  lhs      rhs      "
       "ratio   dens")
print(hdr)
print("-" * len(hdr))
for b in report.blocks:
    print(f"{b.j:3d} ({b.n_start},{b.n_end}] {b.free_count:3d} "
          f"{b.fixed_count:3d}   {1e3 * b.s3:8.4f} {b.damping_lhs:.5f} "
          f"{b.damping_rhs:.5f}  {b.ratio:6.2f} {b.density:6.2f}")

worst = max(b.damping_lhs / b.damping_rhs for b in report.blocks)
print(f"\nworst damping quotient: {worst:.3f} (must stay below 1)")
print("high-precision recheck agreed on every block:",
      all(b.damping_ok_hp for b in report.blocks))
