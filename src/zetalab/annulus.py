"""Reachable sums of unimodular multiples of fixed radii.

For radii r_1, ..., r_n > 0 the set {sum c_i r_i : |c_i| = 1} is a
closed annulus.  Its outer radius is R = r_1 + ... + r_n and its inner
radius is T = max(0, 2*max(r) - R): if the largest radius exceeds the sum
of all the others the gap max(r) - (R - max(r)) cannot be bridged,
otherwise the sums reach all the way to zero.

Besides the radii formula this module tests membership, constructively
realizes any member as an explicit phase assignment, and provides a
Monte-Carlo sampling oracle for property tests.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInAnnulus

__all__ = ["AnnulusSpec", "radii", "contains", "realize", "realize_phases",
           "sample_oracle"]


@dataclass(frozen=True)
class AnnulusSpec:
    """Radii in the order given, with the derived outer and inner radius."""

    radii: tuple

    def __post_init__(self):
        r = tuple(float(x) for x in self.radii)
        if len(r) == 0:
            raise ValueError("empty radius list")
        if not all(0.0 < x < math.inf for x in r):
            raise ValueError("radii must be finite and positive")
        object.__setattr__(self, "radii", r)

    @property
    def outer(self) -> float:
        return math.fsum(self.radii)

    @property
    def inner(self) -> float:
        return max(0.0, 2.0 * max(self.radii) - self.outer)


def radii(r) -> tuple[float, float]:
    """(outer, inner) radius of the reachable annulus for radius list r."""
    spec = AnnulusSpec(tuple(r))
    return spec.outer, spec.inner


def contains(spec: AnnulusSpec, z: complex, slack: float = 0.0) -> bool:
    """Whether z lies in the closed annulus (slack loosens both boundaries)."""
    m = abs(z)
    return spec.inner - slack <= m <= spec.outer + slack


def _wrap(angle: float) -> float:
    w = angle % (2.0 * math.pi)
    return 0.0 if w >= 2.0 * math.pi else w


def realize_phases(spec: AnnulusSpec, z: complex, tol: float = 1e-9) -> list[float]:
    """Phase angles theta_i in [0, 2pi) with |sum r_i e^(i theta_i) - z| <= tol.

    theta_i is the angle of spec.radii[i], in the order the radii were given.

    Induction from the largest radius down: peel off r_k by intersecting the
    circle of radius r_k around the target with the annulus reachable by the
    remaining radii, steering the residual target onto the inner edge of the
    feasible modulus interval (ties resolved toward the smallest nonnegative
    angle).  Unimodularity is exact because only angles are stored.
    """
    if not contains(spec, z, slack=1e-12):
        raise NotInAnnulus("target outside reachable annulus",
                           z=[z.real, z.imag], outer=spec.outer, inner=spec.inner)
    # the induction runs on the radii sorted (stably) by size; each angle is
    # written back to its radius at the end
    order = sorted(range(len(spec.radii)), key=spec.radii.__getitem__)
    r = [spec.radii[i] for i in order]
    n = len(r)
    pre = list(itertools.accumulate(r, initial=0.0))
    # inner radius of the sub-annulus on the first k radii
    def sub_inner(k: int) -> float:
        if k == 0:
            return 0.0
        return max(0.0, 2.0 * r[k - 1] - pre[k])

    target = complex(z)
    angles = [0.0] * n
    for k in range(n - 1, 0, -1):
        rk = r[k]
        lo = max(sub_inner(k), abs(abs(target) - rk))
        hi = min(pre[k], abs(target) + rk)
        rho = min(max(lo, 0.0), hi)     # feasible by the annulus structure
        m = abs(target)
        if m == 0.0:
            # any direction works; point the residual along the negative axis
            angles[k] = 0.0
            target = complex(-rho, 0.0)
            continue
        # law of cosines on (target, contribution, residual)
        c = (m * m + rk * rk - rho * rho) / (2.0 * m * rk)
        c = min(1.0, max(-1.0, c))
        theta = math.acos(c)
        phi = _wrap(cmath.phase(target) - theta)
        angles[k] = phi
        target = target - rk * cmath.exp(1j * phi)
    # base case: single radius must sit on its circle
    m = abs(target)
    angles[0] = _wrap(cmath.phase(target)) if m > 0 else 0.0
    achieved = sum(ri * cmath.exp(1j * th) for ri, th in zip(r, angles))
    if abs(achieved - z) > tol:
        raise NotInAnnulus("realization drifted past tolerance",
                           z=[z.real, z.imag], err=abs(achieved - z))
    given = [0.0] * n
    for slot, i in enumerate(order):
        given[i] = angles[slot]
    return given


def realize(spec: AnnulusSpec, z: complex, tol: float = 1e-9) -> list[complex]:
    """Unit coefficients c_i with |sum c_i r_i - z| <= tol."""
    return [cmath.exp(1j * th) for th in realize_phases(spec, z, tol)]


def sample_oracle(r, k: int, seed: int = 0) -> tuple[float, float]:
    """(min, max) modulus of sum r_i e^(i phi_i) over k uniform phase draws.

    Deterministic given the seed; used as the independent check that no
    reachable sum escapes [inner, outer].
    """
    if k < 1:
        raise ValueError("need at least one sample")
    rv = np.asarray(sorted(float(x) for x in r))
    rng = np.random.default_rng(seed)
    lo, hi = math.inf, -math.inf
    chunk = 1 << 16
    done = 0
    while done < k:
        m = min(chunk, k - done)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(m, rv.size))
        sums = np.abs((rv * np.exp(1j * phases)).sum(axis=1))
        lo = min(lo, float(sums.min()))
        hi = max(hi, float(sums.max()))
        done += m
    return lo, hi
