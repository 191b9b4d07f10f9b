"""Property-based invariants of the budgeted, TV, combination and box worst cases.

On random scenarios of up to 40 atoms, with costs drawn from a few values
(so ties are common) or from the reals:

- V(0) = E_p f, and V <= max f for every eps (up to the rounding of the
  fill, as the probabilities sum to 1 only to rounding); on constant costs
  V is that cost exactly;
- V is non-decreasing and concave in eps;
- V(f + a) = V(f) + a and V(b f) = b V(f) for b > 0;
- worst_q is a distribution to 1e-12, lies in the family's set (to 1e-12)
  and reproduces V;
- V does not depend on the order of the atoms;
- the family's ``block_reader`` returns ``.value`` bit for bit;
- ``Tail.dot`` is the dense sum of its fill, bit for bit, on any values.

Each example runs with ``riskstats._SAMPLE`` lowered to 2 and the window's
margin ``riskstats._Z`` to half a standard error, so scenarios of 4 atoms
and more go through the sampled window, the head ranked before it and the
window's widening rather than a sort of every atom (a check counts that
they do), and with ``riskstats.EXACT_SUM_CUTOFF`` lowered to 0, so
``Tail.dot`` sums the fill's support instead of the dense fill.
Examples are derandomized, so every run checks the same cases. A
deterministic case pins the zero-total fallback, and one at n = 1e5 (a
real head and window, summed in bins) compares every CVaR-type value with
the dense fill's fsum.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wcs
from wcs import riskstats
from wcs.core import exact_sum

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
    """Run the test with a two-atom sample and a narrow margin, so small scenarios take the window path.

    At two standard errors a sample of 2 or 3 atoms would put every atom in
    most first windows; half of one leaves a head and makes some miss. The
    zero cutoff makes ``Tail.dot`` sum the fill's support.
    """

    @functools.wraps(test)
    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(riskstats, "_SAMPLE", 2)
            mp.setattr(riskstats, "_Z", 0.5)
            mp.setattr(riskstats, "EXACT_SUM_CUTOFF", 0)
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
@given(family=families, s=scenarios(), radii=st.lists(st.floats(0.0, 4.0), min_size=3, max_size=3))
@windowed
def test_concave_in_eps(family, s, radii):
    a, b, c = sorted(radius(family, e) for e in radii)
    if a < c:
        va, vb, vc = (family.worst_case(s, e).value for e in (a, b, c))
        assert vb >= ((c - b) * va + (b - a) * vc) / (c - a) - _tol(s)


@PROPERTY_SETTINGS
@given(
    family=families,
    s=scenarios(),
    eps=st.floats(0.0, 4.0),
    shift=st.floats(-1e6, 1e6),
    scale=st.floats(1e-3, 1e3),
)
@windowed
def test_translation_and_scale_equivariant(family, s, eps, shift, scale):
    eps = radius(family, eps)
    v = family.worst_case(s, eps).value
    moved = family.worst_case(wcs.validate(s.costs + shift, s.probs), eps).value
    assert abs(moved - (v + shift)) <= _tol(s) + 1e-12 * abs(shift)
    scaled = family.worst_case(wcs.validate(scale * s.costs, s.probs), eps).value
    assert abs(scaled - scale * v) <= scale * _tol(s)


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
    batch = family.block_reader(s.probs, eps)(s.costs[None, :])[0]
    assert batch.hex() == family.worst_case(s, eps).value.hex()


@PROPERTY_SETTINGS
@given(s=scenarios(), level=st.floats(0.0, 0.999), strict=st.booleans(), data=st.data())
@windowed
def test_tail_dot_is_the_dense_sum_of_its_fill(s, level, strict, data):
    values = np.array(
        data.draw(
            st.lists(
                st.sampled_from([-2.0, -0.0, 0.0, 1.0]) | st.floats(-1e300, 1e300),
                min_size=s.n,
                max_size=s.n,
            )
        )
    )
    if strict:
        tail = riskstats.select_tail(s.costs, s.probs, 1.0 - level, strict=True)
    else:
        tail = riskstats.select_tail(s.costs, s.probs / (1.0 - level), 1.0)
    assert repr(tail.dot(values)) == repr(exact_sum(tail.fill() * values))


def test_windowed_examples_split_off_a_head_and_widen():
    """Windowed examples rank a head before the window and widen a window that misses, so the properties test both."""
    seen = {"head": 0, "widened": 0}
    split = riskstats._split

    @PROPERTY_SETTINGS
    @given(family=families, s=scenarios(), eps=st.floats(0.0, 4.0))
    @windowed
    def run(family, s, eps):
        splits = []

        def spy(costs, weights, target, widen, through_end):
            splits.append((widen, split(costs, weights, target, widen, through_end)))
            return splits[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(riskstats, "_split", spy)
            family.worst_case(s, radius(family, eps))
        seen["head"] += any(found.head.size for _, found in splits)
        seen["widened"] += any(widen > 1 for widen, _ in splits)

    run()
    assert seen["head"] >= 5 and seen["widened"] >= 5, seen


@pytest.mark.parametrize("cutoff", [0, None])
def test_a_zero_total_takes_the_sign_of_every_term(monkeypatch, cutoff):
    """Every support term is -0.0: the sum is fsum's -0.0 only if the zeros outside the support are too.

    math.fsum returns -0.0 for all -0.0 terms from Python 3.12 on, and 0.0 before.
    """
    n = 2048
    if cutoff is not None:
        monkeypatch.setattr(riskstats, "EXACT_SUM_CUTOFF", cutoff)
    s = wcs.validate(np.arange(n, 0.0, -1.0))
    tail = riskstats.cvar_tail(s, 0.5)  # the top half and a zero partial term
    values = np.full(n, -0.0)
    assert repr(tail.dot(values)) == repr(math.fsum([-0.0]))
    values[n // 2 + 1 :] = 1.0  # 0 * 1.0 = +0.0 outside the support
    assert np.signbit(tail.fill()[: n // 2 + 1] * values[: n // 2 + 1]).all()
    assert repr(tail.dot(values)) == repr(exact_sum(tail.fill() * values)) == "0.0"


def _dense(q, values) -> float:
    return math.fsum((q * values).tolist())


@pytest.mark.parametrize("kind", ["mixture", "ties"])
def test_tail_sums_match_the_dense_fill_at_1e5(kind):
    n = 100_000
    rng = np.random.default_rng(13)
    if kind == "ties":
        costs = rng.integers(-3, 4, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
    else:
        costs = rng.exponential(np.where(rng.random(n) < 0.9, 10.0, 100.0))
    weights = rng.exponential(1.0, n) + 0.05
    s = wcs.validate(costs, weights / math.fsum(weights.tolist()))
    mean = _dense(s.probs, s.costs)
    for alpha in (0.0, 0.1, 0.5, 0.9, 0.999):
        q = riskstats.cvar_distribution(s, alpha)
        assert repr(riskstats.cvar(s, alpha)) == repr(_dense(q, s.costs))
        c = s.costs - s.costs.min()
        dev = max(0.0, _dense(q, c) - _dense(s.probs, c))
        assert repr(riskstats.cvar_deviation(s, alpha)) == repr(dev)
        r = wcs.wc_combination(s, alpha, 0.5)
        assert repr(r.value) == repr(0.5 * mean + 0.5 * _dense(q, s.costs))
    for eps in (0.0, 0.5, 3.0):
        r = wcs.wc_budgeted(s, eps)
        assert repr(r.value) == repr(_dense(r.worst_q, s.costs))
    for nu in (0.5, 3.0):
        L, U = 1.0 / (1.0 + nu), 1.0 + nu
        q = riskstats.cvar_distribution(s, (U - 1.0) / (U - L))
        r = wcs.wc_box_symmetric(s, nu)
        assert repr(r.value) == repr(L * mean + (1.0 - L) * _dense(q, s.costs))
