"""Winding counts, Newton refinement, certificates, pipeline honesty."""

import cmath
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from zetalab import zerofinder
from zetalab.errors import (FVanishesOnCircle, LeftHalfPlane, NegativeMargin,
                            NoConvergence, NoSuchIndex, QuadratureStalled,
                            SignChangeNotBracketed, ZeroOnBoundary,
                            ZetalabError)
from zetalab.kronecker import PHASE_LIPSCHITZ
from zetalab.series import Alpha, PeriodicFunction, lfunction
from zetalab.twist import TwistedSeries, find_sigma0, truncation_index
from zetalab.zerofinder import (Circle, PipelineBudget, Rectangle,
                                argument_count, find_zero_pipeline,
                                RoucheCertificate, newton_refine,
                                rouche_certificate, rouche_check,
                                _abs_log_weight_sum, _NEWTON_TOL)

ONE = PeriodicFunction.constant()


def dirichlet_poly(s):
    # zeros exactly at 1.05 + 2 pi i k / log 2
    return 1 - 2 ** 1.05 * 2 ** (-s)


def test_argument_count_dirichlet_poly():
    count = argument_count(dirichlet_poly, Rectangle(1.01, 1.1, -1.0, 20.0))
    assert count == 3


def test_argument_count_zeta_zero_free():
    ev = lambda s: lfunction(s, ONE, 1.0, tol=1e-10)
    assert argument_count(ev, Rectangle(1.1, 2.0, 0.0, 30.0)) == 0


def test_argument_count_polynomial():
    pol = lambda s: (s - (1.2 + 5j)) * (s - (1.3 + 7j))
    assert argument_count(pol, Rectangle(1.05, 2.0, 0.0, 10.0)) == 2
    assert argument_count(pol, Rectangle(1.05, 2.0, 0.0, 6.0)) == 1
    assert argument_count(pol, Rectangle(1.05, 2.0, 8.0, 10.0)) == 0


def test_negative_winding_raises():
    # a pole inside the contour winds -1: not an analytic integrand
    pole = lambda s: 1 / (s - (1.5 + 5j))
    with pytest.raises(ZetalabError, match="negative winding"):
        argument_count(pole, Rectangle(1.05, 2.0, 0.0, 10.0))
    with pytest.raises(ZetalabError, match="negative winding"):
        argument_count(pole, Circle(1.5 + 5j, 0.25))


def test_argument_count_refinement_invariant():
    rect = Rectangle(1.01, 1.1, -1.0, 20.0)
    base = argument_count(dirichlet_poly, rect, 64)
    doubled = argument_count(dirichlet_poly, rect, 128)
    redoubled = argument_count(dirichlet_poly, rect, 256)
    assert base == doubled == redoubled == 3


@pytest.mark.parametrize("points", [15, 0, -3])
def test_argument_count_refuses_too_few_initial_points(points):
    pol = lambda s: s - (1.5 + 5j)
    with pytest.raises(ValueError, match="initial_points >= 16"):
        argument_count(pol, Rectangle(1.05, 2.0, 4.0, 6.0), points)
    assert argument_count(pol, Rectangle(1.05, 2.0, 4.0, 6.0), 16) == 1


def test_argument_count_refuses_more_initial_points_than_the_cap(
        monkeypatch):
    pol = lambda s: s - (1.5 + 5j)
    rect = Rectangle(1.05, 2.0, 4.0, 6.0)
    with pytest.raises(ValueError, match="the cap 200000"):
        argument_count(pol, rect, 100_000_000)
    monkeypatch.setattr(zerofinder, "_MAX_POINTS", 64)
    assert argument_count(pol, rect, 64) == 1
    called = []
    with pytest.raises(ValueError, match="the cap 64"):
        argument_count(lambda s: called.append(s) or pol(s), rect, 65)
    assert called == []


def test_zero_on_boundary_detected():
    pol = lambda s: s - (1.5 + 5j)
    with pytest.raises(ZeroOnBoundary):
        argument_count(pol, Rectangle(1.5 - 1e-15, 2.0, 4.0, 6.0), 64)


def test_zero_on_boundary_reports_a_point_below_the_floor():
    pol = lambda s: s - (1.5 + 5j)
    rect = Rectangle(1.5 - 1e-15, 2.0, 4.0, 6.0)
    with pytest.raises(ZeroOnBoundary) as err:
        argument_count(pol, rect, 64)
    at = complex(*err.value.details["at"])
    assert at.real == rect.sigma_min and 4.0 <= at.imag <= 6.0
    assert abs(pol(at)) == err.value.details["value"] < zerofinder._ZERO_FLOOR


def test_argument_count_calls_once_per_level():
    # a zero 1e-4 inside the circle forces refinement next to it; a sample
    # of level k sits at an odd multiple of 1 / (initial * 2^k)
    center, radius, initial = 1.5 + 2j, 0.5, 16
    near = center + (radius - 1e-4) * cmath.exp(0.3j)
    batches = []

    def ev(s):
        assert isinstance(s, np.ndarray) and s.ndim == 1
        batches.append(s.copy())
        return (s - near) * (s - (1.6 + 2.1j))

    assert argument_count(ev, Circle(center, radius), initial) == 2

    def level(pt):
        u = (cmath.phase(pt - center) / (2 * math.pi)) % 1.0
        return next(k for k in range(40)
                    if abs(u * initial * 2 ** k - round(u * initial * 2 ** k))
                    < 1e-9)

    depth = max(level(pt) for batch in batches for pt in batch)
    assert depth >= 3
    assert len(batches) <= 1 + depth


def test_argument_count_cap_holds_for_every_point(monkeypatch):
    rect = Rectangle(1.01, 1.1, -1.0, 20.0)
    sizes = []

    def ev(s):
        sizes.append(s.size)
        return dirichlet_poly(s)

    assert argument_count(ev, rect) == 3
    spent = sum(sizes)
    assert spent > 256                  # the count refines
    monkeypatch.setattr(zerofinder, "_MAX_POINTS", spent)
    assert argument_count(dirichlet_poly, rect) == 3
    monkeypatch.setattr(zerofinder, "_MAX_POINTS", spent - 1)
    sizes.clear()
    with pytest.raises(QuadratureStalled) as err:
        argument_count(ev, rect)
    assert err.value.details["points"] == sum(sizes) < spent


# rectangles of the benchmark's contour pool, with their reference counts
@pytest.mark.parametrize("shift, fvals, rect, count", [
    ("rat:3,4", "1", (1.001, 2.0, 343.0, 363.0), 1),
    ("dec:0.9", "1", (1.001, 2.0, 70.0, 90.0), 3),
    ("dec:0.7", "2,1,1", (1.001, 2.0, 5.0, 25.0), 2),
])
def test_pool_rectangle_counts(shift, fvals, rect, count):
    f = PeriodicFunction(tuple(float(v) for v in fvals.split(",")))
    alpha = Alpha.parse(shift)
    ev = lambda s: lfunction(s, f, alpha, tol=1e-12)
    assert argument_count(ev, Rectangle(*rect)) == count


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle(0.9, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rectangle(1.2, 1.1, 0.0, 1.0)


def _select_boundary(rect, u):
    """Rectangle.boundary as np.select formed it, kept as its oracle."""
    w, h = rect.sigma_max - rect.sigma_min, rect.t_max - rect.t_min
    d0 = (np.asarray(u) % 1.0) * (2 * (w + h))
    d1 = d0 - w
    d2 = d1 - h
    d3 = d2 - w
    side = [d0 < w, d1 < h, d2 < w]
    re = np.select(side, [rect.sigma_min + d0, rect.sigma_max,
                          rect.sigma_max - d2], rect.sigma_min)
    im = np.select(side, [rect.t_min, rect.t_min + d1, rect.t_max],
                   rect.t_max - d3)
    return re + 1j * im


@pytest.mark.parametrize("rect", [(1.0001, 2.0, 1.0, 600.0),
                                  (1.09, 2.0, 9094.421, 9124.421),
                                  (1.2, 1.6, 0.0, 1e4)])
def test_rectangle_boundary_is_bit_identical_to_select(rect):
    rect = Rectangle(*rect)
    rng = np.random.default_rng(0)
    params = [np.arange(n) / n for n in (16, 256, 4096, 65536)]
    params += [rng.uniform(0, 1, 1000)]
    params += [float(u) for u in rng.uniform(0, 1, 8)] + [0.0, 0.5]
    for u in params:
        got, want = rect.boundary(u), _select_boundary(rect, u)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(np.real(got).view(np.int64),
                              np.real(want).view(np.int64))
        assert np.array_equal(np.imag(got).view(np.int64),
                              np.imag(want).view(np.int64))


def test_conjugate_rectangle_count():
    pol = lambda s: (s - (1.2 + 5j)) * (s - (1.2 - 5j))   # real coefficients
    up = argument_count(pol, Rectangle(1.05, 2.0, 4.0, 6.0))
    down = argument_count(pol, Rectangle(1.05, 2.0, -6.0, -4.0))
    assert up == down == 1


def test_newton_dirichlet_poly():
    rec = newton_refine(dirichlet_poly, 1.04 + 9j, tol=1e-12)
    assert abs(rec.s - complex(1.05, 2 * math.pi / math.log(2))) < 1e-8
    assert rec.residual <= 1e-12


def test_newton_polynomial_exact():
    rec = newton_refine(lambda s: s - (1.2 + 5j), 1.5 + 4.5j, tol=1e-14)
    assert abs(rec.s - (1.2 + 5j)) < 1e-12


def test_newton_failure_modes():
    ev = lambda s: lfunction(s, ONE, 1.0, tol=1e-10)
    with pytest.raises((NoConvergence, LeftHalfPlane)):
        newton_refine(ev, 1.5 + 10j, tol=1e-12)


def synthetic_pair(rng):
    """A comparison function with one known zero and a perturbed target.

    F(s) = (s - z0) * g(s) with |g| bounded away from zero; L = F + c for a
    random constant c, so sup |L - F| = |c| exactly on any circle.
    """
    z0 = complex(rng.uniform(1.2, 1.6), rng.uniform(-2, 2))
    slope = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
    F = lambda s: (s - z0) * slope
    c = rng.uniform(0.0, 0.6) * cmath.exp(2j * math.pi * rng.uniform())
    L = lambda s: F(s) + c
    return z0, F, L, c


def test_rouche_synthetic_cross_validation(rng):
    false_positives = 0
    for _ in range(50):
        z0, F, L, c = synthetic_pair(rng)
        radius = rng.uniform(0.1, 0.3)
        cert = rouche_certificate(F, lambda s: c, z0.real, radius,
                                  samples=256, f_deriv_bound=2.5,
                                  diff_deriv_bound=0.0, diff_tail=0.0)
        center = complex(z0.real, 0.0)
        inside = abs(center - z0) < radius
        if cert.margin > 0:
            count_l = argument_count(L, Circle(center, radius))
            count_f = argument_count(F, Circle(center, radius))
            if count_l != count_f:
                false_positives += 1
            # the certified disk really contains a zero of L iff F had one
            assert count_f == (1 if inside else 0)
    assert false_positives == 0


@pytest.mark.parametrize("cut", [0, 1, 2, 6, 2000])
def test_derivative_bound_is_at_least_the_series(cut):
    # sum_n |log(n+a)| (n+a)^(-sigma) is -zeta'(sigma, a), with the n = 0
    # term's sign turned when a < 1; the bound over the disk must reach it
    # at both ends of the disk's sigma range
    def exact(a, sigma):
        total = -mp.zeta(sigma, a, 1)
        if a < 1:
            total += 2 * abs(mp.log(a)) * mp.power(a, -sigma)
        return float(total)

    sigmas = (1.001, 1.01, 1.1, 1.2, 1.5, 1.9, 2.0, 3.0)
    for a in (0.05, 0.3, 0.5, 0.7853981634, 1.0, 1.5, 2.5):
        for lo, hi in zip(sigmas, sigmas[1:]):
            disk = Circle((lo + hi) / 2, (hi - lo) / 2)
            bound = _abs_log_weight_sum(ONE, a, disk, cut)
            for sigma in (lo, hi):
                assert bound >= exact(a, sigma), (a, lo, hi, sigma)


def test_rouche_identity_comparison():
    # comparison against itself: sup_diff = 0, margin = eps_min > 0, and
    # the disk winding agrees with the comparison function's own count
    series = TwistedSeries(ONE, 2.0)     # plain series, no twist
    cert = rouche_check(series, sigma0=1.8, delta1=0.3, t=0.0,
                        samples=128, n_cut=64)
    assert cert.sup_diff == 0.0
    assert cert.margin == cert.eps_min > 0
    assert cert.inner_count == 0         # no zeros, counts agree at zero


def test_rouche_adversarial_shift_fails():
    m = truncation_index(ONE, 1.0, 1.0)
    series = TwistedSeries(ONE, 1.0, flip_index=m)
    sigma0, _, _ = find_sigma0(series, 1.0)
    with pytest.raises(NegativeMargin):
        rouche_check(series, sigma0, delta1=0.2, t=0.1, samples=128,
                     n_cut=500)


def test_rouche_coarse_samples_cannot_separate_f():
    # 8 samples leave Lipschitz slack larger than min |F| on the circle
    series = TwistedSeries(ONE, 1.0, flip_index=1)
    sigma0, _, _ = find_sigma0(series, 1.0)
    with pytest.raises(FVanishesOnCircle) as exc:
        rouche_check(series, sigma0, delta1=0.2, t=0.0, samples=8, n_cut=50)
    assert exc.value.details["eps_min"] <= 0
    assert exc.value.details["delta1"] == 0.2


@pytest.mark.parametrize("kwargs", [dict(n_cut_max=-1), dict(samples=0),
                                    dict(samples=-5)])
def test_pipeline_budget_refuses_bad_counts(kwargs):
    with pytest.raises(ValueError, match="samples >= 1 and n_cut_max >= 0"):
        PipelineBudget(**kwargs)


def _no_search(monkeypatch):
    # the phase search returns t = 1 at once
    monkeypatch.setattr(zerofinder, "solve",
                        lambda *args, **kwargs: SimpleNamespace(
                            t=1.0, max_error=0.0))


def _certificate(inner_count):
    return RoucheCertificate(sigma0=1.4, delta1=0.1, t=1.0, eps_min=1.0,
                             sup_diff=0.5, samples=360, margin=0.5,
                             inner_count=inner_count)


def _raises(err):
    def stage(*args, **kwargs):
        raise err
    return stage


def test_pipeline_fails_at_truncation(monkeypatch):
    monkeypatch.setattr(zerofinder, "truncation_index", _raises(
        NoSuchIndex("no dominating index within the doubling budget")))
    res = find_zero_pipeline(ONE, 1.0, 0.5)
    assert (res.success, res.failed_stage) == (False, "truncation")
    assert res.failure["error"] == "NoSuchIndex"
    assert res.stages == {"residue": 1.0}


def test_pipeline_fails_at_sign_change(monkeypatch):
    monkeypatch.setattr(zerofinder, "find_sigma0", _raises(
        SignChangeNotBracketed("series not positive at 1 + delta")))
    res = find_zero_pipeline(ONE, 1.0, 0.5)
    assert (res.success, res.failed_stage) == (False, "sign_change")
    assert res.failure["error"] == "SignChangeNotBracketed"
    assert sorted(res.stages) == ["residue", "truncation_index"]


def test_pipeline_fails_at_certificate(monkeypatch):
    _no_search(monkeypatch)
    monkeypatch.setattr(zerofinder, "rouche_check", _raises(
        NegativeMargin("certificate inequality fails at this shift")))
    res = find_zero_pipeline(ONE, 1.0, 0.5)
    assert (res.success, res.failed_stage) == (False, "certificate")
    assert res.failure["error"] == "NegativeMargin"
    assert res.stages["t"] == 1.0 and "certificate" not in res.stages


def test_pipeline_refuses_certificate_without_zero(monkeypatch):
    _no_search(monkeypatch)
    monkeypatch.setattr(zerofinder, "rouche_check",
                        lambda *args, **kwargs: _certificate(0))
    res = find_zero_pipeline(ONE, 1.0, 0.5)
    assert (res.success, res.failed_stage) == (False, "certificate")
    assert res.failure["error"] == "ZetalabError"
    assert res.failure["details"]["certificate"] == _certificate(0).to_json()


def test_pipeline_fails_at_newton(monkeypatch):
    _no_search(monkeypatch)
    monkeypatch.setattr(zerofinder, "rouche_check",
                        lambda *args, **kwargs: _certificate(1))
    monkeypatch.setattr(zerofinder, "newton_refine", _raises(
        NoConvergence("iteration cap reached")))
    res = find_zero_pipeline(ONE, 1.0, 0.5)
    assert (res.success, res.failed_stage) == (False, "newton")
    assert res.failure["error"] == "NoConvergence"
    assert res.stages["certificate"] == _certificate(1).to_json()


def test_pipeline_halves_the_circle_then_fails(monkeypatch):
    _no_search(monkeypatch)
    radii = []

    def vanishing(*args, **kwargs):
        radii.append(args[-2])             # delta1
        raise FVanishesOnCircle("comparison minimum not separated from zero",
                                delta1=args[-2])

    monkeypatch.setattr(zerofinder, "rouche_check", vanishing)
    res = find_zero_pipeline(ONE, 1.0, 0.5)
    assert (res.success, res.failed_stage) == (False, "circle_geometry")
    d = 0.5 * min(res.stages["sigma0"] - 1.0, 0.5)
    assert radii == [d, d / 2, d / 4]
    assert res.stages["delta1"] == d / 4
    assert res.failure["error"] == "FVanishesOnCircle"
    assert res.failure["details"]["delta1"] == d / 4


def test_pipeline_residue_zero():
    res = find_zero_pipeline(PeriodicFunction((1.0, -1.0)), 1.0, 0.5)
    assert not res.success
    assert res.failed_stage == "residue"
    assert res.failure["error"] == "ResidueZero"


def test_pipeline_rational_shift_honest():
    budget = PipelineBudget(max_t=2e3, max_iterations=500_000)
    res = find_zero_pipeline(ONE, Alpha.rational(1, 3), 0.5, budget)
    if res.success:
        assert res.record.certificate.margin > 0
        assert res.record.residual <= _NEWTON_TOL
    else:
        assert res.failed_stage in ("kronecker", "certificate",
                                    "circle_geometry", "newton")
        assert res.failure is not None


def test_pipeline_smoke_structured():
    budget = PipelineBudget(max_t=5e3, max_iterations=400_000)
    res = find_zero_pipeline(ONE, Alpha.decimal("0.7853981634"), 0.5, budget)
    # all early stages ran and were recorded
    assert "truncation_index" in res.stages
    assert "sigma0" in res.stages
    assert 1 < res.stages["sigma0"] < 1.5
    payload = res.to_json()
    assert payload["success"] == res.success
    if res.success:
        assert res.record.certificate.margin > 0
    else:
        assert res.failed_stage is not None and res.failure is not None


@pytest.mark.parametrize("shift", ["dec:0.7853981634", "rat:1,3"])
def test_pipeline_phase_tolerance_covers_the_matched_mass(shift):
    # the phase tolerance bounds the matched terms' error by the probe
    # minimum on the whole circle: for a < 1 the n = 0 term is largest at
    # the circle's right end, where at a = 1/3 it outweighs the rest
    alpha = Alpha.parse(shift)
    res = find_zero_pipeline(ONE, alpha, 0.5, PipelineBudget(max_t=1.0))
    st = res.stages
    assert res.failed_stage == "kronecker"
    circle = Circle(st["sigma0"], st["delta1"])
    ns = [n + alpha.value for n in range(st["n_cut"] + 1)]
    mass = max(sum(abs(ONE(n)) * x ** -circle.boundary(i / 4096).real
                   for n, x in enumerate(ns)) for i in range(4096))
    assert st["kron_delta"] * 4 * PHASE_LIPSCHITZ * mass <= st["eps_probe"]


@pytest.mark.parametrize("center, radius", [
    (1.5, 0.0), (1.5, -0.1), (1.5, math.inf), (1.5, math.nan),
    (complex(math.inf, 0.0), 0.1), (complex(1.5, math.nan), 0.1),
])
def test_circle_refuses_bad_geometry(center, radius):
    with pytest.raises(ValueError, match="circle"):
        Circle(center, radius)


def test_circle_boundary_is_the_closed_form():
    circle = Circle(1.5 + 2j, 0.25)
    for u in (0.0, 0.125, 1 / 3, 0.7):
        assert circle.boundary(u) == \
            (1.5 + 2j) + 0.25 * cmath.exp(2j * math.pi * u)
    # both contour types count through the one winding function
    pol = lambda s: (s - (1.5 + 2.1j)) * (s - (1.9 + 2j))
    assert argument_count(pol, circle) == 1
    assert argument_count(pol, Rectangle(1.05, 2.0, 1.0, 3.0)) == 2


def test_rouche_certificate_samples_in_one_batch():
    shapes = []

    def F(s):
        shapes.append(np.shape(s))
        return s - 1.4

    cert = rouche_certificate(F, lambda s: 0.05, 1.4, 0.1, samples=64,
                              f_deriv_bound=1.0, diff_deriv_bound=0.0,
                              diff_tail=0.0)
    assert shapes == [(64,)]
    arc = math.pi * 0.1 / 64
    assert cert.eps_min == pytest.approx(0.1 - arc, rel=1e-12)
    assert cert.sup_diff == 0.05


@pytest.mark.parametrize("samples", [0, -3])
def test_rouche_certificate_refuses_bad_sample_counts(samples):
    # without samples the minimum stayed inf and the margin came back inf,
    # where F = s - 1.4 against a difference of 0.5 on radius 0.1 fails
    F = lambda s: s - 1.4
    with pytest.raises(ValueError, match="samples"):
        rouche_certificate(F, lambda s: 0.5, 1.4, 0.1, samples=samples,
                           f_deriv_bound=1.0, diff_deriv_bound=0.0,
                           diff_tail=0.0)
    cert = rouche_certificate(F, lambda s: 0.5, 1.4, 0.1, samples=1,
                              f_deriv_bound=1.0, diff_deriv_bound=0.0,
                              diff_tail=0.0)
    assert cert.margin < 0
