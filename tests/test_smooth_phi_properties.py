"""Property-based invariants of the smooth phi-divergence worst cases.

For the built-in modified chi-square and KL balls and a user phi (solved
by the safeguarded Newton tilt, with c solved per row), on random
scenarios of up to 8 atoms:

- V(0) = E_p f, and V <= max f for every eps (up to the rounding of E_p f,
  as the probabilities sum to 1 only to rounding); on constant costs V is
  that cost exactly;
- V is non-decreasing and concave in eps;
- V(f + a) = V(f) + a and V(b f) = b V(f) for b > 0;
- worst_q is a distribution to 1e-12, lies in the ball (to 1e-12, or to
  the 1e-9 saturation band when the result is clamped) and reproduces V;
- V does not depend on the order of the atoms.

Modified chi-square also runs on skewed masses, p ~ w^k with k up to 8 and
masses from 1e-20 down to 1e-300 planted on the costliest atom: there
worst_q sums to 1 within n ulps and meets D = eps to 1e-12 eps, both
checked in fractions, and V is non-decreasing in eps.

Examples are derandomized, so every run checks the same cases.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import wcs
from wcs.core import PhiFunction

USER_PHI = PhiFunction(
    name="chi2-times-two",
    value=lambda z: (np.asarray(z, dtype=float) - 1.0) ** 2,
    inv_deriv=lambda zeta: 1.0 + 0.5 * np.asarray(zeta, dtype=float),
    zeta_floor=-2.0,
    curvature=2.0,
)
FAMILIES = (wcs.SmoothPhi(wcs.MODIFIED_CHI2), wcs.SmoothPhi(wcs.KL), wcs.SmoothPhi(USER_PHI))
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 8))
    costs = draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    return wcs.validate(costs, [w / total for w in weights])


families = st.sampled_from(FAMILIES)
radii = st.floats(0.0, 4.0)


def _tol(s) -> float:
    return 1e-12 * float(np.max(np.abs(s.costs)))


@PROPERTY_SETTINGS
@given(family=families, s=scenarios(), eps=radii)
def test_nominal_at_zero_and_below_the_max(family, s, eps):
    v0, v = family.worst_case(s, 0.0).value, family.worst_case(s, eps).value
    if s.is_constant():
        assert v0 == v == float(np.max(s.costs))
    else:
        assert v0 == wcs.mean(s)
        assert v <= float(np.max(s.costs)) + _tol(s)


@PROPERTY_SETTINGS
@given(family=families, s=scenarios(), a=radii, b=radii)
def test_monotone_in_eps(family, s, a, b):
    lo, hi = sorted((a, b))
    assert family.worst_case(s, lo).value <= family.worst_case(s, hi).value + _tol(s)


@PROPERTY_SETTINGS
@given(family=families, s=scenarios(), radii=st.lists(radii, min_size=3, max_size=3))
def test_concave_in_eps(family, s, radii):
    a, b, c = sorted(radii)
    if a < c:
        va, vb, vc = (family.worst_case(s, e).value for e in (a, b, c))
        assert vb >= ((c - b) * va + (b - a) * vc) / (c - a) - _tol(s)


@PROPERTY_SETTINGS
@given(
    family=families,
    s=scenarios(),
    eps=radii,
    shift=st.floats(-1e6, 1e6),
    scale=st.floats(1e-3, 1e3),
)
def test_translation_and_scale_equivariant(family, s, eps, shift, scale):
    v = family.worst_case(s, eps).value
    moved = family.worst_case(wcs.validate(s.costs + shift, s.probs), eps).value
    assert abs(moved - (v + shift)) <= _tol(s) + 1e-12 * abs(shift)
    scaled = family.worst_case(wcs.validate(scale * s.costs, s.probs), eps).value
    assert abs(scaled - scale * v) <= scale * _tol(s)


@PROPERTY_SETTINGS
@given(family=families, s=scenarios(), eps=radii)
def test_worst_q_is_feasible_and_reproduces_the_value(family, s, eps):
    r = family.worst_case(s, eps)
    q = r.worst_q
    assert np.all(q >= 0.0)
    assert abs(math.fsum(q.tolist()) - 1.0) <= 1e-12
    slack = 1e-9 * (1.0 + eps) if r.clamped else 1e-12
    assert family.phi.divergence(q, s.probs) <= eps + slack
    assert abs(math.fsum((q * s.costs).tolist()) - r.value) <= _tol(s)


@PROPERTY_SETTINGS
@given(family=families, s=scenarios(), eps=radii, data=st.data())
def test_invariant_under_permuting_atoms(family, s, eps, data):
    perm = np.array(data.draw(st.permutations(range(s.n))))
    moved = wcs.validate(s.costs[perm], s.probs[perm])
    v, w = family.worst_case(s, eps).value, family.worst_case(moved, eps).value
    assert abs(v - w) <= _tol(s)


@st.composite
def skewed_scenarios(draw):
    n = draw(st.integers(2, 8))
    costs = draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=n, max_size=n))
    k = draw(st.floats(1.0, 8.0))
    weights = [w**k for w in draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))]
    if draw(st.booleans()):
        planted = 10.0 ** -draw(st.floats(20.0, 300.0))
        weights[int(np.argmax(costs))] = planted * math.fsum(weights)
    total = math.fsum(weights)
    return wcs.validate(costs, [w / total for w in weights])


# below about 1e-8 the rounding of q alone moves D by more than 1e-12 eps
skewed_radii = st.floats(1e-3, 10.0)
CHI2 = wcs.SmoothPhi(wcs.MODIFIED_CHI2)


@PROPERTY_SETTINGS
@given(s=skewed_scenarios(), eps=skewed_radii)
def test_chi2_on_skewed_masses_is_feasible(s, eps):
    r = CHI2.worst_case(s, eps)
    if r.degenerate:
        return
    q = [Fraction(v) for v in r.worst_q.tolist()]
    p = [Fraction(v) for v in s.probs.tolist()]
    assert min(q) >= 0 and abs(sum(q) - 1) <= s.n * 2.0**-52
    d = sum(pi * (qi / pi - 1) ** 2 for qi, pi in zip(q, p)) / 2
    if r.clamped:
        assert d <= Fraction(eps) + 1e-9 * (1.0 + eps)
    else:
        assert abs(d - Fraction(eps)) <= 1e-12 * eps
    assert abs(math.fsum((r.worst_q * s.costs).tolist()) - r.value) <= _tol(s)
    assert float(np.min(s.costs)) - _tol(s) <= r.value <= float(np.max(s.costs)) + _tol(s)


@PROPERTY_SETTINGS
@given(s=skewed_scenarios(), a=skewed_radii, b=skewed_radii)
def test_chi2_on_skewed_masses_is_monotone_in_eps(s, a, b):
    lo, hi = sorted((a, b))
    assert CHI2.worst_case(s, lo).value <= CHI2.worst_case(s, hi).value + _tol(s)
