"""Locating and certifying zeros in the half-plane of absolute convergence.

Three layers:

* argument-principle counting: argument_count, the winding number of an
  analytic function along the boundary of a Rectangle or a Circle,
  computed by adaptive phase tracking with every consecutive argument step
  forced below pi/2 (a heuristic segment test; no derivative bound backs
  it yet).  The evaluator maps a 1-D complex array of boundary points to
  the array of its values, and is called once per refinement level;

* Newton refinement of individual zeros with a central-difference
  derivative;

* Rouche certificates: on a circle around a real zero sigma0 of a
  comparison function F, verify sup |L(s + it) - F(s)| < min |F(s)| with
  explicit inter-sample Lipschitz slack and a rigorous series tail bound,
  so a positive margin certifies a zero of L(. + it) inside the disk.  The
  certificate is cross-checked against the winding count on the same
  Circle.  The matched difference and the derivative bounds are direct
  sums from series._direct_block; a bound over the disk is the larger of
  the sums of |terms| at its two real ends, as they are convex in Re s.

A pipeline chains truncation index -> real zero of the sign-flip twist ->
phase matching (Kronecker search) -> certificate -> Newton refinement, with
every stage failure reported as structured data.  Honest failure at desk
scale is expected and never upgraded to a claim.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (FVanishesOnCircle, LeftHalfPlane, NegativeMargin,
                     NoConvergence, QuadratureStalled, ResidueZero,
                     ZeroOnBoundary, ZetalabError)
from .kronecker import PHASE_LIPSCHITZ, KroneckerProblem, SearchBudget, solve
from .series import PeriodicFunction, _direct_block, lfunction, tail_bound
from .twist import TwistedSeries, find_sigma0, truncation_index

__all__ = [
    "Rectangle", "Circle", "RoucheCertificate",
    "ZeroRecord", "argument_count", "newton_refine",
    "rouche_certificate", "rouche_check", "PipelineBudget", "PipelineResult",
    "find_zero_pipeline",
]

_MAX_POINTS = 200_000      # contour evaluations one winding count may spend
_MIN_POINTS = 16           # least initial samples of a winding count
_ZERO_FLOOR = 1e-12        # contour modulus that stops a winding count
_NEWTON_MAX_ITER = 50      # Newton steps before NoConvergence
_NEWTON_STEP = 1e-6        # central-difference step of the Newton derivative
_NEWTON_TOL = 1e-9         # residual the pipeline's Newton stage must reach
_ESCAPE_RADIUS = 20.0      # Newton gives up this far from its start
_DELTA1_TRIES = 3          # circle radii the pipeline tries, each half the last
# a disk bound's sum of positive terms, each from one log and one exp of
# modest arguments, is rounded by far less than this relative amount
_MASS_ROUNDING = 1e-12


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle inside the half-plane sigma > 1."""

    sigma_min: float
    sigma_max: float
    t_min: float
    t_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.sigma_min, self.sigma_max,
                                       self.t_min, self.t_max))):
            raise ValueError("rectangle corners must be finite")
        if not (self.sigma_min > 1.0):
            raise ValueError("rectangle must satisfy sigma_min > 1")
        if not (self.sigma_min < self.sigma_max and self.t_min < self.t_max):
            raise ValueError("degenerate rectangle")

    def boundary(self, u):
        """Counterclockwise boundary points for parameters u in [0, 1), a
        number or an array."""
        w, h = self.sigma_max - self.sigma_min, self.t_max - self.t_min
        d0 = (np.asarray(u) % 1.0) * (2 * (w + h))
        d1 = d0 - w
        d2 = d1 - h
        d3 = d2 - w
        bottom, right, top = d0 < w, d1 < h, d2 < w     # else left
        re = np.where(bottom, self.sigma_min + d0, np.where(
            right, self.sigma_max, np.where(top, self.sigma_max - d2,
                                            self.sigma_min)))
        im = np.where(bottom, self.t_min, np.where(
            right, self.t_min + d1, np.where(top, self.t_max,
                                             self.t_max - d3)))
        return re + 1j * im


@dataclass(frozen=True)
class Circle:
    """Circle |s - center| = radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and math.isfinite(self.radius)
                and self.radius > 0):
            raise ValueError("circle needs a finite center and a finite "
                             "positive radius")

    def boundary(self, u):
        """Counterclockwise boundary points for parameters u in [0, 1), a
        number or an array."""
        return self.center + self.radius * np.exp(2j * math.pi
                                                  * np.asarray(u))


def _values(fn, pts):
    """fn at the points pts as a complex array; a constant fn broadcasts."""
    return np.broadcast_to(np.asarray(fn(pts), dtype=complex), pts.shape)


def argument_count(evaluator, contour: Rectangle | Circle,
                   initial_points: int = 256) -> int:
    """Number of zeros (with multiplicity) of evaluator inside contour.

    The evaluator maps a 1-D complex array of contour points to the array
    of its values.  It must be analytic inside and on the contour and
    nonzero on it (a sampled modulus below _ZERO_FLOOR raises
    ZeroOnBoundary; move or shrink the contour then).  The contour is first
    sampled at initial_points equally spaced parameters, at least 16 and
    at most the cap _MAX_POINTS.  Each segment whose argument step is not
    clearly below pi/2, or whose modulus jump is not moderate, is halved;
    the midpoints of all such segments of one level are evaluated in one
    call, so the evaluator is called once per refinement level.  The phase
    steps then telescope to the winding number up to rounding noise, which
    is accepted only within 0.25 of an integer.  More than _MAX_POINTS
    evaluations raise QuadratureStalled.  A negative count, which no
    analytic integrand gives, raises ZetalabError.
    """
    if not _MIN_POINTS <= initial_points <= _MAX_POINTS:
        raise ValueError(f"a winding count needs initial_points >= "
                         f"{_MIN_POINTS} and <= the cap {_MAX_POINTS}, got "
                         f"{initial_points}")
    spent = 0

    def sample(us):
        nonlocal spent
        if spent + us.size > _MAX_POINTS:
            raise QuadratureStalled("refinement cap reached", points=spent)
        spent += us.size
        pts = contour.boundary(us)
        vals = _values(evaluator, pts)
        low = np.flatnonzero(np.abs(vals) < _ZERO_FLOOR)
        if low.size:
            pt, v = pts[low[0]], vals[low[0]]
            raise ZeroOnBoundary("contour value below the zero floor",
                                 at=[float(pt.real), float(pt.imag)],
                                 value=float(abs(v)))
        return vals

    # segments [a, b] with values va, vb; the loop closes at u = 1 with the
    # value at u = 0
    a = np.arange(initial_points) / initial_points
    va = sample(a)
    b, vb = np.append(a[1:], 1.0), np.roll(va, -1)
    pieces = []
    while True:
        ratio = vb / va
        d = np.angle(ratio)
        done = (np.abs(d) < math.pi / 2) & (np.abs(np.log(np.abs(ratio)))
                                            < 1.2)
        pieces.append(d[done])
        if done.all():
            break
        a, b, va, vb = a[~done], b[~done], va[~done], vb[~done]
        um = 0.5 * (a + b)
        vm = sample(um)
        a, b = np.concatenate([a, um]), np.concatenate([um, b])
        va, vb = np.concatenate([va, vm]), np.concatenate([vm, vb])
    total = math.fsum(np.concatenate(pieces).tolist()) / (2 * math.pi)
    nearest = round(total)
    if abs(total - nearest) > 0.25:
        raise QuadratureStalled("phase accounting did not settle",
                                raw=total, points=spent)
    if nearest < 0:
        raise ZetalabError("negative winding for an analytic integrand",
                           count=nearest)
    return int(nearest)


@dataclass(frozen=True)
class RoucheCertificate:
    """A verified strict inequality sup |L(s+it) - F(s)| < min |F(s)| on
    the circle |s - sigma0| = delta1.

    eps_min and sup_diff are the safe values: sampled extrema already
    tightened/widened by the inter-sample derivative slack and (for
    sup_diff) the series tail beyond the matched cut.  margin > 0 is the
    certificate; inner_count records the winding cross-check."""

    sigma0: float
    delta1: float
    t: float
    eps_min: float
    sup_diff: float
    samples: int
    margin: float
    inner_count: int | None = None

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ZeroRecord:
    """One finite witness: a certified zero location in sigma > 1."""

    s: complex
    residual: float
    method: str
    certificate: RoucheCertificate | None = None

    def to_json(self) -> dict:
        return {"s": [self.s.real, self.s.imag], "residual": self.residual,
                "method": self.method,
                "certificate": self.certificate.to_json()
                if self.certificate else None}


def newton_refine(evaluator, s0: complex, tol: float = 1e-10) -> ZeroRecord:
    """Newton iteration with central-difference derivative.

    Stays in sigma > 1 or raises LeftHalfPlane; NoConvergence after
    _NEWTON_MAX_ITER steps or when the iterate leaves the basin (an escape
    guard keeps divergence on zero-free regions from running away)."""
    s = complex(s0)
    h = _NEWTON_STEP
    for _ in range(_NEWTON_MAX_ITER):
        v = evaluator(s)
        if abs(v) <= tol:
            return ZeroRecord(s=s, residual=abs(v), method="newton")
        d = (evaluator(s + h) - evaluator(s - h)) / (2 * h)
        if d == 0:
            raise NoConvergence("vanishing numerical derivative",
                                at=[s.real, s.imag])
        s = s - v / d
        if s.real <= 1.0:
            raise LeftHalfPlane("iterate crossed the convergence boundary",
                                at=[s.real, s.imag])
        if abs(s - s0) > _ESCAPE_RADIUS:
            raise NoConvergence("iterate escaped the search region",
                                at=[s.real, s.imag], start=[s0.real, s0.imag])
    raise NoConvergence("iteration cap reached", at=[s.real, s.imag],
                        residual=abs(evaluator(s)))


def rouche_certificate(f_eval, diff_eval, center: float, radius: float,
                       samples: int, f_deriv_bound: float,
                       diff_deriv_bound: float, diff_tail: float,
                       t: float = 0.0) -> RoucheCertificate:
    """Assemble a certificate from callables on the circle.

    f_eval is the comparison function and diff_eval the difference against
    the shifted target; each maps the 1-D complex array of the samples
    circle points to its values (a constant broadcasts).  Derivative bounds
    convert the sampled extrema into bounds over the whole circle;
    diff_tail is added to the sampled sup (series mass not represented in
    diff_eval).  May return a
    certificate with nonpositive margin; raising on that is the caller's
    policy.  Needs samples >= 1: no samples would bound nothing."""
    if samples < 1:
        raise ValueError(f"a certificate needs samples >= 1, got {samples}")
    arc = math.pi * radius / samples
    pts = Circle(center, radius).boundary(np.arange(samples) / samples)
    eps_min = float(np.abs(_values(f_eval, pts)).min())
    sup = float(np.abs(_values(diff_eval, pts)).max())
    eps_safe = eps_min - f_deriv_bound * arc
    sup_safe = sup + diff_deriv_bound * arc + diff_tail
    return RoucheCertificate(sigma0=center, delta1=radius, t=t,
                             eps_min=eps_safe, sup_diff=sup_safe,
                             samples=samples, margin=eps_safe - sup_safe)


def _disk_mass(a: float, weights, disk: Circle) -> float:
    """Upper bound of sum_n |w(n)| (n+a)^(-Re s) over s in the closed disk,
    w(n) = weights[n], n = 0..len(weights)-1.

    Each term is convex in Re s, and so is the sum: its maximum over the
    disk is at one of the disk's two real ends, where the sum is the mass
    that _direct_block returns.  It is rounded up by _MASS_ROUNDING.
    """
    ends = np.array([disk.center.real - disk.radius,
                     disk.center.real + disk.radius])
    mass = _direct_block(ends, a, len(weights), weights)[1].max()
    return float(mass) * (1.0 + _MASS_ROUNDING)


def _abs_log_weight_sum(f: PeriodicFunction, alpha: float, disk: Circle,
                        cut: int) -> float:
    """Upper bound of sum_n |f(n)| |log(n+alpha)| (n+alpha)^(-Re s) over s
    in the closed disk (a derivative bound for the series there): the head
    to cut by _disk_mass plus an integral bound for the rest.

    A term past cut sits at x = n + alpha > 1, where log(x) x^(-sigma)
    rises until x = e^(1/sigma), to 1/(e sigma), and falls after.  So the
    integral from cut + alpha bounds the rest once cut + alpha is past the
    peak; before it, the integral from max(cut + alpha, 1) plus the peak
    value does.
    """
    a = float(alpha)
    sigma = disk.center.real - disk.radius
    logs = np.log(np.arange(cut + 1, dtype=float) + a)
    head = _disk_mass(a, f.table(cut + 1) * logs, disk)
    x = max(cut + a, 1.0)
    s1 = sigma - 1.0
    tail = x ** (-s1) * (math.log(x) / s1 + 1.0 / (s1 * s1))
    if x < math.exp(1.0 / sigma):
        tail += 1.0 / (math.e * sigma)
    return head + f.max_abs * tail


def rouche_check(series: TwistedSeries, sigma0: float, delta1: float,
                 t: float, samples: int, n_cut: int) -> RoucheCertificate:
    """Certificate that L(s + it, f, alpha) has a zero in |s - sigma0| < delta1,
    for the f and alpha of the comparison series.

    Requires 1 + delta1 < sigma0 so the circle stays in the half-plane of
    absolute convergence.  The difference against the twisted comparison
    series is evaluated termwise up to n_cut; beyond it a rigorous tail
    bound (weight factor 2 for unimodular weight mismatch) widens sup_diff.
    Raises FVanishesOnCircle when the comparison minimum cannot be
    separated from zero, NegativeMargin when the inequality fails; on
    success the winding count on the disk is cross-checked to be >= 1.
    """
    if not 1.0 + delta1 < sigma0:
        raise ValueError("need 1 + delta1 < sigma0")
    f, alpha = series.f, series.alpha
    a = float(alpha)
    sigma_min = sigma0 - delta1
    disk = Circle(sigma0, delta1)

    d_f = _abs_log_weight_sum(f, a, disk, min(n_cut, 4000))

    logns = np.log(np.arange(n_cut + 1, dtype=float) + a)
    wts = np.array([series.weight(n) for n in range(n_cut + 1)],
                   dtype=complex)
    coeffs = f.table(n_cut + 1) * (np.exp(-1j * t * logns) - wts)

    def diff_eval(s):
        return _direct_block(s, a, n_cut + 1, coeffs)[0]

    d_diff = _disk_mass(a, coeffs * logns, disk)
    if series.flip_index is None and t == 0.0:
        tail = 0.0
    else:
        tail = 2.0 * tail_bound(f, a, sigma_min, n_cut)

    cert = rouche_certificate(
        lambda s: series.evaluate(s, tol=1e-12), diff_eval,
        sigma0, delta1, samples, f_deriv_bound=d_f, diff_deriv_bound=d_diff,
        diff_tail=tail, t=t)
    if cert.eps_min <= 0:
        raise FVanishesOnCircle(
            "comparison minimum not separated from zero on the circle",
            eps_min=cert.eps_min, delta1=delta1)
    if cert.margin <= 0:
        raise NegativeMargin("certificate inequality fails at this shift",
                             certificate=cert.to_json())
    # a positive margin forces equal zero counts inside the disk
    count_l = argument_count(
        lambda s: lfunction(s + 1j * t, f, alpha, tol=1e-12), disk)
    count_f = argument_count(lambda s: series.evaluate(s, tol=1e-12), disk)
    if count_l != count_f:
        raise ZetalabError(
            "positive margin but unequal windings: certificate machinery broken",
            certificate=cert.to_json(), count_shifted=count_l,
            count_comparison=count_f)
    return dataclasses.replace(cert, inner_count=count_l)


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineBudget:
    """Limits of the pipeline: the phase search stops at t = max_t or after
    max_iterations windows, and starts past t_min; the matched cut is
    n_cut_max and the certificate samples its circle at samples points."""

    max_t: float = 2e5
    max_iterations: int = 20_000_000
    t_min: float = 0.0
    n_cut_max: int = 6
    samples: int = 360

    def __post_init__(self):
        if not (self.samples >= 1 and self.n_cut_max >= 0
                and self.max_iterations >= 1 and self.max_t > self.t_min):
            raise ValueError("the pipeline budget needs samples >= 1 and "
                             "n_cut_max >= 0, max_iterations >= 1 and "
                             f"max_t > t_min, got samples={self.samples}, "
                             f"n_cut_max={self.n_cut_max}, max_iterations="
                             f"{self.max_iterations}, max_t={self.max_t}, "
                             f"t_min={self.t_min}")


@dataclass
class PipelineResult:
    success: bool
    record: ZeroRecord | None
    failed_stage: str | None
    failure: dict | None
    stages: dict

    def to_json(self) -> dict:
        return {"success": self.success,
                "record": self.record.to_json() if self.record else None,
                "failed_stage": self.failed_stage,
                "failure": self.failure,
                "stages": self.stages}


def find_zero_pipeline(f: PeriodicFunction, alpha, delta: float,
                       budget: PipelineBudget | None = None) -> PipelineResult:
    """Chain the sign-flip construction into a zero certificate.

    Stages: residue normalization, truncation index, real zero of the
    twist, circle geometry, matched-phase search, Rouche certificate,
    Newton refinement.  Any stage failure is returned as structured data
    with the stage name; a ZeroRecord is only emitted with residual within
    tolerance and a strictly positive certificate margin.
    """
    budget = budget or PipelineBudget()
    stages: dict = {}
    # every failure below is reported under the stage in progress
    stage = "residue"
    try:
        r = f.residue
        if abs(r) < 1e-15:
            raise ResidueZero("series has no pole", residue=r)
        if r < 0:
            f = f.negated()
        stages["residue"] = r

        stage = "truncation"
        m = truncation_index(f, alpha, delta)
        stages["truncation_index"] = m
        series = TwistedSeries(f, alpha, flip_index=m)

        stage = "sign_change"
        sigma0, lo, hi = find_sigma0(series, delta)
        stages["sigma0"] = sigma0
        stages["sigma0_bracket"] = [lo, hi]

        a = float(alpha)
        delta1 = 0.5 * min(sigma0 - 1.0, delta)
        last_exc: ZetalabError | None = None
        for _ in range(_DELTA1_TRIES):
            stage = "circle_geometry"
            sigma_min = sigma0 - delta1
            stages["theta"] = 0.5 * (sigma_min - 1.0)
            # probe the comparison minimum to size the error budget
            circle = Circle(sigma0, delta1)
            probe = float(np.abs(series.evaluate(
                circle.boundary(np.arange(64) / 64), tol=1e-10)).min())
            stages["delta1"] = delta1
            stages["eps_probe"] = probe
            if probe <= 0:
                delta1 *= 0.5
                last_exc = FVanishesOnCircle("probe minimum is zero",
                                             delta1=delta1)
                continue

            # matched cut from the tail budget; cap and proceed honestly
            target_tail = probe / 8.0
            n_cut = budget.n_cut_max
            capped = 2.0 * tail_bound(f, a, sigma_min, n_cut) > target_tail
            stages["n_cut"] = n_cut
            stages["tail_budget_met"] = not capped

            # the matched terms' largest mass on the disk
            matched_mass = _disk_mass(a, f.table(n_cut + 1), circle)
            chord = probe / (4.0 * matched_mass)
            delta_phase = min(chord / PHASE_LIPSCHITZ, 0.45)
            freqs = tuple(math.log(n + a) / (2 * math.pi)
                          for n in range(n_cut + 1))
            targets = tuple(0.0 if series.weight(n) == 1.0 else 0.5
                            for n in range(n_cut + 1))
            stages["kron_delta"] = delta_phase
            stage = "kronecker"
            sol = solve(KroneckerProblem(freqs, targets, delta=delta_phase,
                                         t_min=budget.t_min),
                        SearchBudget(max_t=budget.max_t,
                                     max_iterations=budget.max_iterations))
            stages["t"] = sol.t
            stages["kron_error"] = sol.max_error

            stage = "certificate"
            try:
                cert = rouche_check(series, sigma0, delta1, sol.t,
                                    samples=budget.samples, n_cut=n_cut)
            except FVanishesOnCircle as e:
                delta1 *= 0.5
                last_exc = e
                continue
            stages["certificate"] = cert.to_json()
            if not cert.inner_count:
                raise ZetalabError("certificate carries no zero despite the "
                                   "bracketed sign change",
                                   certificate=cert.to_json())

            stage = "newton"
            record = newton_refine(
                lambda s: lfunction(s + 1j * sol.t, f, alpha, tol=1e-12),
                complex(sigma0, 0.0), tol=_NEWTON_TOL)
            record = ZeroRecord(s=record.s + 1j * sol.t,
                                residual=record.residual,
                                method="sign-flip pipeline", certificate=cert)
            return PipelineResult(success=True, record=record,
                                  failed_stage=None, failure=None,
                                  stages=stages)
        stage = "circle_geometry"
        raise last_exc or FVanishesOnCircle("no usable circle radius")
    except ZetalabError as e:
        return PipelineResult(success=False, record=None, failed_stage=stage,
                              failure=e.to_json(), stages=stages)
