"""Bit-identity of the binned sums at sizes the scenario goldens do not reach.

``tests/scenario_golden.json`` stops at n = 400, below ``EXACT_SUM_CUTOFF``,
where every sum is math.fsum. Here, at n = 1024 (the cutoff), one chunk of
the binned kernel +-1 and 1e5 (a sampled head and window), on non-uniform
probabilities with costs that tie or do not, each value is pinned by repr
against math.fsum over the dense products formed in the test: the mean,
the variance, the CVaR deviation, the budgeted sensitivity, the chi-square
closed form, the TV and budgeted worst cases and the budgeted slope.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import wcs
from wcs import core, riskstats
from wcs.worstcase import budgeted_slope

SIZES = (core.EXACT_SUM_CUTOFF, core._CHUNK - 1, core._CHUNK + 1, 100_000)


def _fsum(a: np.ndarray, b: np.ndarray) -> float:
    return math.fsum((a * b).tolist())


def _scenario(n: int, kind: str):
    rng = np.random.default_rng(n)
    if kind == "ties":
        costs = rng.integers(-3, 4, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
    else:
        costs = rng.exponential(np.where(rng.random(n) < 0.9, 10.0, 100.0))
    weights = rng.exponential(1.0, n) + 0.05
    return wcs.validate(costs, weights / math.fsum(weights.tolist()))


@pytest.fixture(
    params=[(n, kind) for n in SIZES for kind in ("mixture", "ties")], ids=lambda p: f"{p[0]}-{p[1]}"
)
def s(request):
    return _scenario(*request.param)


def test_mean_and_variance(s):
    p, f = s.probs, s.costs
    assert repr(wcs.mean(s)) == repr(_fsum(p, f))
    c = f - np.max(f)
    m = _fsum(p, c)
    assert repr(wcs.variance(s)) == repr(_fsum(p, (c - m) ** 2))


def test_cvar_deviation_and_budgeted_sensitivity(s):
    p, c = s.probs, s.costs - np.min(s.costs)
    assert repr(wcs.budgeted_sensitivity(s).value) == repr(_fsum(p, c))
    for alpha in (0.1, 0.5, 0.9):
        fill = riskstats.cvar_distribution(s, alpha)
        want = max(0.0, _fsum(fill, c) - _fsum(p, c))
        assert repr(riskstats.cvar_deviation(s, alpha)) == repr(want)


def test_chi2_closed_form(s):
    p, f = s.probs, s.costs
    top, bottom = float(np.max(f)), float(np.min(f))
    g = (f - top) / (top - bottom)
    # every atom active: q = p (g + 1 + t) / A, the offsets taken from the cheapest atom
    base = g + 1.0
    total = math.fsum(p.tolist())
    mu = _fsum(p, base) / total
    w = _fsum(p, (base - mu) ** 2)
    # half the largest eps at which the cheapest atom keeps a nonnegative tilt (t >= 0)
    eps = 0.25 * w / (total * mu) ** 2
    t = math.sqrt(w / (2.0 * eps)) / total - mu
    q = p * (base + t) / (total * (mu + t))
    r = wcs.wc_chi2(s, eps)
    assert repr(r.value) == repr(top + (top - bottom) * _fsum(q, g))
    assert r.worst_q.tobytes() == q.tobytes()


def test_tv_and_budgeted_worst_cases(s):
    p, f = s.probs, s.costs
    for eps in (0.2, 1.0):
        r = wcs.wc_tv(s, eps)
        assert repr(r.value) == repr(_fsum(r.worst_q, f))
    srt = core.sort_desc(s)
    for eps in (0.1, 0.5, 3.0):
        r = wcs.wc_budgeted(s, eps)
        assert repr(r.value) == repr(_fsum(r.worst_q, f))
        k = riskstats.partial_fill_rank(srt, eps / (1.0 + eps))
        fd, pd = srt.costs_desc, srt.probs_desc
        want = _fsum(pd[:k], fd[:k] - fd[k])
        assert repr(r.dual.slope) == repr(want)
        assert repr(budgeted_slope(s, eps)) == repr(want)
