"""Annulus calculus: radii formula, membership, constructive realization."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab.annulus import (AnnulusSpec, contains, radii, realize,
                             realize_phases, sample_oracle)
from zetalab.errors import NotInAnnulus

positive_radii = st.lists(st.floats(0.01, 50.0), min_size=1, max_size=12)


def test_radii_examples():
    assert radii([1, 2, 5]) == (8.0, 2.0)
    assert radii([1]) == (1.0, 1.0)          # a circle
    assert radii([1, 1, 1]) == (3.0, 0.0)    # full disk
    assert radii([3, 4]) == (7.0, 1.0)
    with pytest.raises(ValueError):
        radii([])
    with pytest.raises(ValueError):
        radii([1.0, -2.0])


def test_monte_carlo_oracle_confirms_inner_radius():
    lo, hi = sample_oracle([1, 2, 5], 100_000, seed=3)
    assert lo >= 2.0 - 1e-12 and hi <= 8.0 + 1e-12
    # the extremes are approached from inside
    assert lo < 2.2 and hi > 7.5
    lo, hi = sample_oracle([1, 1, 1], 100_000, seed=4)
    assert lo < 0.05
    lo, hi = sample_oracle([1], 1000, seed=5)
    assert abs(lo - 1.0) < 1e-12 and abs(hi - 1.0) < 1e-12


def test_sample_oracle_deterministic():
    assert sample_oracle([3, 4], 5000, seed=9) == sample_oracle([3, 4], 5000, seed=9)


@given(positive_radii)
@settings(max_examples=200, deadline=None)
def test_inner_radius_closed_form(r):
    _, inner = radii(r)
    assert inner == max(0.0, 2.0 * max(r) - math.fsum(r))


@given(positive_radii, st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_samples_always_inside(r, seed):
    outer, inner = radii(r)
    lo, hi = sample_oracle(r, 2000, seed=seed)
    assert lo >= inner - 1e-12
    assert hi <= outer + 1e-12


def test_contains_examples():
    spec = AnnulusSpec((1, 2, 5))
    assert contains(spec, 2 + 0j)          # inner boundary
    assert not contains(spec, 0j)
    assert contains(spec, 8 + 0j)          # outer boundary, all ones
    assert contains(spec, 2j)
    assert not contains(spec, 9 + 0j)


def test_realize_examples():
    spec = AnnulusSpec((1, 2, 5))
    c = realize(spec, 8 + 0j)
    assert all(abs(ci - 1.0) < 1e-12 for ci in c)
    c = realize(spec, 2j, tol=1e-9)
    assert abs(sum(ci * ri for ci, ri in zip(c, spec.radii)) - 2j) <= 1e-9
    c = realize(AnnulusSpec((1, 1, 1)), 0j)
    assert abs(sum(c)) <= 1e-9
    with pytest.raises(NotInAnnulus):
        realize(spec, 0.5 + 0j)


def test_realize_polar_grid():
    spec = AnnulusSpec((0.3, 1.1, 2.0, 2.0, 0.7))
    outer, inner = spec.outer, spec.inner
    for rho in np.linspace(inner, outer, 20):
        for th in np.linspace(0, 2 * math.pi, 20, endpoint=False):
            z = rho * cmath.exp(1j * th)
            angles = realize_phases(spec, z, tol=1e-9)
            got = sum(ri * cmath.exp(1j * a)
                      for ri, a in zip(spec.radii, angles))
            assert abs(got - z) <= 1e-9
            assert all(0.0 <= a < 2 * math.pi for a in angles)


def test_rotation_invariance():
    spec = AnnulusSpec((1, 2, 5))
    z = 3.7 + 0.4j
    base = realize_phases(spec, z)
    for theta in (0.3, 1.7, 4.4):
        w = z * cmath.exp(1j * theta)
        rotated = realize_phases(spec, w)
        err_base = abs(sum(r * cmath.exp(1j * (a + theta))
                           for r, a in zip(spec.radii, base)) - w)
        err_rot = abs(sum(r * cmath.exp(1j * a)
                          for r, a in zip(spec.radii, rotated)) - w)
        assert err_base <= 1e-9 and err_rot <= 1e-9


@given(positive_radii, st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
@settings(max_examples=150, deadline=None)
def test_realize_round_trip(r, frac, theta):
    spec = AnnulusSpec(tuple(r))
    rho = spec.inner + frac * (spec.outer - spec.inner)
    z = rho * cmath.exp(1j * theta)
    angles = realize_phases(spec, z, tol=1e-8)
    got = sum(ri * cmath.exp(1j * a) for ri, a in zip(spec.radii, angles))
    assert abs(got - z) <= 1e-8


@given(positive_radii, st.randoms(use_true_random=False), st.floats(0.0, 1.0),
       st.floats(0.0, 2 * math.pi))
@settings(max_examples=150, deadline=None)
def test_angles_follow_the_order_of_the_radii(r, rnd, frac, theta):
    # each angle belongs to the radius at its position, whatever the order
    shuffled = list(r)
    rnd.shuffle(shuffled)
    spec = AnnulusSpec(tuple(shuffled))
    assert spec.radii == tuple(shuffled)
    rho = spec.inner + frac * (spec.outer - spec.inner)
    z = rho * cmath.exp(1j * theta)
    angles = realize_phases(spec, z, tol=1e-8)
    got = sum(ri * cmath.exp(1j * a) for ri, a in zip(shuffled, angles))
    assert abs(got - z) <= 1e-8
    got = sum(c * ri for c, ri in zip(realize(spec, z, tol=1e-8), shuffled))
    assert abs(got - z) <= 1e-8
    # the same (radius, angle) pairs as for the radii in sorted order
    ordered = AnnulusSpec(tuple(sorted(shuffled)))
    assert sorted(zip(shuffled, angles)) == \
        sorted(zip(ordered.radii, realize_phases(ordered, z, tol=1e-8)))
