"""Property-based checks of the binned exact sums, ``core.exact_total`` and ``core.exact_sum``.

The terms are the entries of one array a, or the products fl(a_i * b_i)
of two, formed by numpy as a * b forms them. For every draw:

- ``exact_total`` is the exact sum of the terms as an integer count of
  2^-1127, each term read as its exact ``Fraction`` (its integer ratio),
  or None when a term is not finite;
- ``exact_sum`` is ``math.fsum`` over the same terms, by repr (the sign of
  zero included), and follows fsum's inf and nan rules. Where fsum raises
  OverflowError because a partial sum overflowed, ``exact_sum`` on finite
  terms from ``EXACT_SUM_CUTOFF`` up returns the exact total rounded once,
  and raises only if that rounding overflows.

Sizes sit at ``EXACT_SUM_CUTOFF`` and at one and two chunks, each +-1, so
the first and last chunks are full and partial. Below ``_RATIO_CUTOFF``
terms, ``exact_total`` adds integer ratios in Python and must return the
binned kernel's integer, with and without b. The terms mix ±0.0,
subnormals, normal values over the whole exponent range, values of 2^1007
and above of both signs (the top bins, summed scaled), inf and nan. The
factor b lies in ±[0.5, 1], so no product overflows and every call runs
under the suite's warnings-as-errors. Examples are derandomized, so every
run checks the same cases.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcs import core
from wcs.core import EXACT_SUM_CUTOFF, exact_sum, exact_total

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
CHUNK = core._CHUNK
SIZES = sorted(
    {EXACT_SUM_CUTOFF + d for d in (-1, 0, 1)}
    | {CHUNK + d for d in (-1, 0, 1)}
    | {2 * CHUNK + d for d in (-1, 1)}
)
DBL_MAX = 1.7976931348623157e308
UNIT = 1 << 1127

special_values = st.sampled_from(
    [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        2.2250738585072014e-308,
        -1.5e-310,
        2.0**1007,
        -(2.0**1007),
        3.0 * 2.0**1010,
        -(2.0**1023),
        DBL_MAX,
        -DBL_MAX,
        1.0,
        math.inf,
        -math.inf,
        math.nan,
    ]
) | st.floats(allow_nan=False, allow_infinity=False)


def _bulk(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "zeros":
        return np.where(rng.random(n) < 0.5, 0.0, -0.0)
    if kind == "subnormal":
        return 5e-324 * rng.integers(-(1 << 52), 1 << 52, n)
    if kind == "huge":
        return rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n) * DBL_MAX
    # normal values over the whole exponent range, both signs
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


@st.composite
def operands(draw, sizes=SIZES):
    n = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = _bulk(rng, n, draw(st.sampled_from(["normal", "zeros", "subnormal", "huge"])))
    for at, value in draw(st.lists(st.tuples(st.integers(0, n - 1), special_values), max_size=12)):
        a[at] = value
    b = None
    if draw(st.booleans()):
        b = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n)
        b[rng.random(n) < 0.1] = 1.0
    return a, b


def _count(terms: list[float]) -> int:
    """The exact sum of finite doubles as an integer count of 2^-1127.

    Each double is the Fraction num / den with den a power of two no larger
    than 2^1074, so it counts num * (2^1127 // den) units exactly.
    """
    total = 0
    for x in terms:
        num, den = x.as_integer_ratio()
        total += num * (UNIT // den)
    return total


def _rounded(count: int) -> float | type:
    """The double nearest count * 2^-1127, or OverflowError."""
    try:
        return float(Fraction(count, UNIT))
    except OverflowError:
        return OverflowError


def _outcome(fn):
    try:
        return repr(fn())
    except (OverflowError, ValueError) as exc:
        return type(exc)


@PROPERTY_SETTINGS
@given(ab=operands())
def test_exact_total_is_the_fraction_sum_of_the_terms(ab):
    a, b = ab
    terms = a if b is None else a * b
    got = exact_total(a, b)
    if not np.isfinite(terms).all():
        assert got is None
        return
    want = _count(terms.tolist())
    assert got == want
    if b is not None:
        assert exact_total(terms) == want


@PROPERTY_SETTINGS
@given(ab=operands(range(1, core._RATIO_CUTOFF)))
def test_short_arrays_add_their_ratios_to_the_kernel_total(ab):
    a, b = ab
    b = np.ones_like(a) if b is None else b
    for factor in (None, b):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_RATIO_CUTOFF", 0)  # every size through the binned kernel
            kernel = exact_total(a, factor)
        assert exact_total(a, factor) == kernel


@PROPERTY_SETTINGS
@given(ab=operands())
def test_exact_sum_is_fsum_of_the_terms(ab):
    a, b = ab
    terms = a if b is None else a * b
    fsum = _outcome(lambda: math.fsum(terms.tolist()))
    got = _outcome(lambda: exact_sum(a, b))
    binned = terms.size >= EXACT_SUM_CUTOFF and np.isfinite(terms).all()
    if fsum is not OverflowError or not binned:
        assert got == fsum
    else:
        # a partial sum overflowed inside fsum: the binned exact total decides
        rounded = _rounded(_count(terms.tolist()))
        assert got == (rounded if rounded is OverflowError else repr(rounded))


@pytest.mark.parametrize("fused", [False, True])
def test_more_than_a_chunk_of_mixed_sign_terms_near_the_largest_double(fused):
    rng = np.random.default_rng(14)
    half = rng.uniform(0.5, 1.0, CHUNK + 500) * DBL_MAX
    # each term meets a partner of the other sign 2^-40 smaller, so the total is finite
    a = np.concatenate([half, -rng.permutation(half) * (1.0 - 2.0**-40)])
    rng.shuffle(a)
    b = np.where(rng.random(a.size) < 0.5, 1.0, 1.0 - 2.0**-30) if fused else None
    terms = a if b is None else a * b
    want = _count(terms.tolist())
    assert exact_total(a, b) == want
    assert repr(exact_sum(a, b)) == repr(_rounded(want))
    with pytest.raises(OverflowError):
        math.fsum(terms.tolist())
