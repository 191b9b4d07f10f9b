"""Property-based invariants of the budgeted, TV, combination and box worst cases.

On random scenarios of up to 40 atoms, with costs drawn from a few values
(so ties are common) or from the reals:

- V(0) = E_p f, and V <= max f for every eps (up to the rounding of the
  fill, as the probabilities sum to 1 only to rounding); on constant costs
  V is that cost exactly;
- V is non-decreasing in eps;
- worst_q is a distribution to 1e-12, lies in the family's set (to 1e-12)
  and reproduces V;
- V does not depend on the order of the atoms;
- the batched ``worst_values`` returns ``.value`` bit for bit.

Each example runs with ``riskstats._SAMPLE`` lowered to 2, so scenarios of
4 atoms and more go through the sampled window and its widening rather
than a sort of every atom. Examples are derandomized, so every run checks
the same cases.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wcs
from wcs import riskstats

FAMILIES = (wcs.Budgeted(), wcs.TotalVariation(), wcs.Combination(0.6), wcs.SymmetricBox())
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 40))
    values = st.sampled_from([-2.0, -0.0, 0.0, 1.0, 3.0]) | st.floats(
        -1e6, 1e6, allow_subnormal=False
    )
    costs = draw(st.lists(values, min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    return wcs.validate(costs, [w / total for w in weights])


families = st.sampled_from(FAMILIES)


def radius(family, eps: float) -> float:
    """eps in [0, 4] mapped into the family's range: a mixing weight in [0, 1] for combination."""
    return eps / 4.0 if isinstance(family, wcs.Combination) else eps


def windowed(test):
    """Run the test with a two-atom sample, so small scenarios take the window path."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(riskstats, "_SAMPLE", 2)
            test(*args, **kwargs)

    return run


def _tol(s) -> float:
    return 1e-12 * float(np.max(np.abs(s.costs)))


def in_set(family, s, q, eps) -> bool:
    p, tol = s.probs, 1e-12
    if isinstance(family, wcs.Budgeted):
        return bool(np.all(q <= (1.0 + eps) * p + tol))
    if isinstance(family, wcs.TotalVariation):
        return math.fsum(np.abs(q - p).tolist()) <= eps + tol
    if isinstance(family, wcs.Combination):
        lo = (1.0 - eps) * p
        return bool(np.all(q >= lo - tol) and np.all(q <= lo + eps * p / (1.0 - family.alpha) + tol))
    low, high = p / (1.0 + eps), p * (1.0 + eps)
    return bool(np.all(q >= low - tol) and np.all(q <= high + tol))


@PROPERTY_SETTINGS
@given(family=families, s=scenarios(), eps=st.floats(0.0, 4.0))
@windowed
def test_nominal_at_zero_and_below_the_max(family, s, eps):
    v0, v = family.worst_case(s, 0.0).value, family.worst_case(s, radius(family, eps)).value
    if s.is_constant():
        assert v0 == v == float(np.max(s.costs))
    else:
        assert v0 == wcs.mean(s)
        assert v <= float(np.max(s.costs)) + _tol(s)


@PROPERTY_SETTINGS
@given(family=families, s=scenarios(), a=st.floats(0.0, 4.0), b=st.floats(0.0, 4.0))
@windowed
def test_monotone_in_eps(family, s, a, b):
    lo, hi = sorted((radius(family, a), radius(family, b)))
    assert family.worst_case(s, lo).value <= family.worst_case(s, hi).value + _tol(s)


@PROPERTY_SETTINGS
@given(family=families, s=scenarios(), eps=st.floats(0.0, 4.0))
@windowed
def test_worst_q_is_feasible_and_reproduces_the_value(family, s, eps):
    eps = radius(family, eps)
    r = family.worst_case(s, eps)
    q = r.worst_q
    assert np.all(q >= 0.0)
    assert abs(math.fsum(q.tolist()) - 1.0) <= 1e-12
    assert in_set(family, s, q, eps)
    assert abs(math.fsum((q * s.costs).tolist()) - r.value) <= _tol(s)


@PROPERTY_SETTINGS
@given(family=families, s=scenarios(), eps=st.floats(0.0, 4.0), data=st.data())
@windowed
def test_invariant_under_permuting_atoms(family, s, eps, data):
    eps = radius(family, eps)
    perm = np.array(data.draw(st.permutations(range(s.n))))
    moved = wcs.validate(s.costs[perm], s.probs[perm])
    v, w = family.worst_case(s, eps).value, family.worst_case(moved, eps).value
    assert abs(v - w) <= _tol(s)


@PROPERTY_SETTINGS
@given(family=families, s=scenarios(), eps=st.floats(0.0, 4.0))
@windowed
def test_batched_values_are_the_scalar_values(family, s, eps):
    eps = radius(family, eps)
    batch = family.worst_values(s.costs[None, :], s.probs, eps)[0]
    assert batch.hex() == family.worst_case(s, eps).value.hex()
