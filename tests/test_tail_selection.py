"""The sort-free tail selection against a full stable sort, bit for bit.

Every solver built on ``riskstats.select_tail`` (CVaR, its maximizer, VaR,
the CVaR deviation, and the budgeted, total-variation, combination and box
worst cases) is compared with a reference kept here: a stable argsort of
the whole scenario, the greedy fill and the TV strip written as plain
loops over the sorted atoms, and math.fsum for every sum. Values, worst-case
distributions and duals must agree in every bit, the sign of zero included.

At n = 5000 the window is every atom; at 3e4 and up only a window is
sorted, and the spike scenarios put half the mass on one atom between the
sample's strides, so the first window misses the boundary and widens.
Past 2 ``_SAMPLE`` atoms, heavy-tailed weights, tie runs at the first
window's edge costs and boundaries in the first or last sample rank are
checked against the reference too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import wcs
from wcs import riskstats, worstcase


def _fsum(a) -> float:
    return math.fsum(np.asarray(a, dtype=float).tolist())


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def assert_same(got, want):
    assert np.array_equal(_bits(got), _bits(want)), (got, want)


class Sorted:
    """The scenario under a stable descending sort, and the sort-based reference solvers."""

    def __init__(self, s):
        self.s = s
        self.order = np.argsort(-s.costs, kind="stable")
        self.c = s.costs[self.order]
        self.p = s.probs[self.order]

    def unsort(self, v):
        out = np.empty(v.size)
        out[self.order] = v
        return out

    @staticmethod
    def rank(probs, target) -> int:
        """First index whose prefix sum reaches target, capped at the last."""
        k = int(np.searchsorted(np.cumsum(probs), target, side="left"))
        while k > 0 and _fsum(probs[:k]) >= target:
            k -= 1
        while k < probs.size and _fsum(probs[: k + 1]) < target:
            k += 1
        return min(k, probs.size - 1)

    @staticmethod
    def greedy(caps) -> np.ndarray:
        """Fill mass 1 in rank order under the caps: the last prefix whose sum stays <= 1."""
        k = int(np.searchsorted(np.cumsum(caps), 1.0, side="right"))
        while k > 0 and _fsum(caps[:k]) > 1.0:
            k -= 1
        while k < caps.size and _fsum(caps[: k + 1]) <= 1.0:
            k += 1
        q = np.zeros(caps.size)
        q[:k] = caps[:k]
        if k < caps.size:
            q[k] = 1.0 - _fsum(caps[:k])
        return q

    def cvar_fill(self, alpha) -> np.ndarray:
        return self.p.copy() if alpha == 0.0 else self.greedy(self.p / (1.0 - alpha))

    def cvar(self, alpha) -> tuple[float, np.ndarray]:
        q = self.cvar_fill(alpha)
        return _fsum(q * self.c), self.unsort(q)

    def var(self, alpha) -> float:
        return float(self.c[self.rank(self.p, 1.0 - alpha)])

    def deviation(self, alpha) -> float:
        c = self.c - self.c[-1]
        return max(0.0, _fsum(self.cvar_fill(alpha) * c) - _fsum(self.p * c))

    def slope(self, eps) -> float:
        alpha = eps / (1.0 + eps)
        k = self.rank(self.p, 1.0 - alpha)
        return 0.0 if k == 0 else _fsum(self.p[:k] * (self.c[:k] - self.c[k]))

    def budgeted(self, eps):
        sat = float(np.max(1.0 / self.s.probs - 1.0))
        e = min(eps, sat)
        value, q = self.cvar(e / (1.0 + e))
        return value, q, 0.0 if eps > sat else self.slope(e)

    def tv(self, eps):
        """The argmax atom gains need; the cheapest atoms give it up, one by one."""
        q = self.p.tolist()
        need = min(0.5 * min(eps, 2.0), 1.0 - q[0])
        q[0] += need
        for j in range(len(q) - 1, 0, -1):
            if need <= 0.0:
                break
            take = min(need, q[j])
            q[j] -= take
            need -= take
        q = self.unsort(np.array(q))
        return _fsum(q * self.s.costs), q, 0.5 * (self.c[0] + self.c[-1]), 0.5 * (self.c[0] - self.c[-1])

    def mixture(self, w_mean, w_cvar, alpha):
        """w_mean E_p f + w_cvar CVaR_alpha, and its distribution."""
        cv, g = self.cvar(alpha)
        q = w_mean * self.s.probs + w_cvar * g
        return w_mean * _fsum(self.s.probs * self.s.costs) + w_cvar * cv, q


def _spike(rng, n):
    """Half the mass on one atom that the stride sample skips, the rest spread thinly."""
    costs = rng.exponential(10.0, n)
    probs = np.full(n, 0.5 / (n - 1))
    probs[n // 3 + 1] = 0.5
    return costs, probs


def _wide(rng, n):
    """Signed-zero and integer ties; masses spread over 12 decades below a 0.5 atom on the stride."""
    costs = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], n)
    probs = 10.0 ** rng.uniform(-12.0, 0.0, n)
    probs *= 0.5 / _fsum(probs[1:])
    probs[0] = 0.5
    return costs, probs / _fsum(probs)


def _mixture(rng, n):
    costs = rng.exponential(np.where(rng.random(n) < 0.9, 10.0, 100.0))
    w = rng.exponential(1.0, n) + 0.05
    return costs, w / _fsum(w)


def _heavy(rng, n):
    """Pareto weights of index 0.7: a few atoms hold most of the mass, and the sample may miss them."""
    costs = rng.exponential(10.0, n)
    w = rng.pareto(0.7, n) + 1e-3
    return costs, w / _fsum(w)


SCENARIOS = {
    "mixture": _mixture,
    "integer_ties": lambda rng, n: (rng.integers(0, 7, n).astype(float), None),
    "wide_p_signed_zeros": _wide,
    "sorted": lambda rng, n: (np.sort(_mixture(rng, n)[0]), _mixture(rng, n)[1]),
    "reverse_sorted": lambda rng, n: (np.sort(_mixture(rng, n)[0])[::-1].copy(), None),
    "spike": _spike,
    "heavy_tailed": _heavy,
}
CASES = [(n, kind) for n in (5_000, 30_000) for kind in SCENARIOS] + [
    (100_000, kind) for kind in ("mixture", "wide_p_signed_zeros", "spike", "heavy_tailed")
]
ALPHAS = (0.0, 0.5, 0.9, 1.0 - 1e-9)


@pytest.fixture(scope="module", params=CASES, ids=[f"{kind}-{n}" for n, kind in CASES])
def ref(request):
    n, kind = request.param
    costs, probs = SCENARIOS[kind](np.random.default_rng(n), n)
    return Sorted(wcs.validate(costs, probs))


def test_cvar_family(ref):
    s = ref.s
    for alpha in ALPHAS:
        value, q = ref.cvar(alpha)
        assert_same(riskstats.cvar(s, alpha), value)
        assert_same(riskstats.cvar_distribution(s, alpha), q)
        assert_same(riskstats.var_quantile(s, alpha), ref.var(alpha))
        dev = ref.deviation(alpha)
        assert_same(riskstats.cvar_deviation(s, alpha), dev)
        assert_same(wcs.combination_sensitivity(s, alpha).value, dev)
    assert_same(wcs.symmetric_box_sensitivity(s).value, ref.deviation(0.5))


def test_budgeted(ref):
    s = ref.s
    sat = float(np.max(1.0 / s.probs - 1.0))
    for eps in (0.0, 1e-9, 0.5, sat, 2.0 * sat):
        value, q, slope = ref.budgeted(eps)
        r = wcs.wc_budgeted(s, eps)
        assert_same(r.value, value)
        assert_same(r.worst_q, q)
        assert_same(r.dual.slope, slope)
        assert r.clamped == (eps > sat)
    for eps in (1e-9, 0.5):
        assert_same(wcs.budgeted_slope(s, eps), ref.slope(eps))


def test_total_variation(ref):
    for eps in (0.0, 0.2, 2.0, 3.0):
        value, q, theta, lam = ref.tv(eps)
        r = wcs.wc_tv(ref.s, eps)
        assert_same(r.value, value)
        assert_same(r.worst_q, q)
        assert_same([r.dual.theta, r.dual.lam], [theta, lam])


def test_combination_and_box(ref):
    s = ref.s
    for alpha in (0.5, 1.0 - 1e-9):
        for eps in (0.5, 1.0):
            value, q = ref.mixture(1.0 - eps, eps, alpha)
            r = wcs.wc_combination(s, alpha, eps)
            assert_same(r.value, value)
            assert_same(r.worst_q, q)
    for nu in (0.5, 3.0):
        L, U = 1.0 / (1.0 + nu), 1.0 + nu
        value, q = ref.mixture(L, 1.0 - L, (U - 1.0) / (U - L))
        r = wcs.wc_box_symmetric(s, nu)
        assert_same(r.value, value)
        assert_same(r.worst_q, q)


def test_only_windows_are_sorted(monkeypatch):
    """At n = 1e5 no solver sorts the whole scenario: each sorts windows of at most 4% of it."""
    costs, probs = _mixture(np.random.default_rng(1), 100_000)
    s = wcs.validate(costs, probs)
    sizes = []
    desc_order = riskstats.desc_order

    def spy(costs):
        sizes.append(costs.size)
        return desc_order(costs)

    monkeypatch.setattr(riskstats, "desc_order", spy)
    monkeypatch.setattr(worstcase, "sort_desc", None)
    for solve in (
        lambda: wcs.wc_budgeted(s, 0.5),
        lambda: wcs.wc_combination(s, 0.9, 0.5),
        lambda: wcs.wc_box_symmetric(s, 0.5),
        lambda: wcs.combination_sensitivity(s, 0.9),
        lambda: wcs.var_quantile(s, 0.5),
    ):
        sizes.clear()
        solve()
        assert sizes and max(sizes) < s.n // 25
    sizes.clear()
    wcs.wc_tv(s, 0.2)  # the cheap side: a tenth of the mass and the window above it
    assert sizes and max(sizes) < s.n // 4


def test_widening_reaches_the_spike(monkeypatch):
    """The first window of the spike scenario misses its boundary, and the result still matches."""
    costs, probs = _spike(np.random.default_rng(0), 50_000)
    s = wcs.validate(costs, probs)
    widths = []
    split = riskstats._split

    def spy(costs, weights, target, widen, through_end):
        widths.append(widen)
        return split(costs, weights, target, widen, through_end)

    monkeypatch.setattr(riskstats, "_split", spy)
    r = wcs.wc_budgeted(s, 0.5)
    assert len(widths) > 1
    value, q, slope = Sorted(s).budgeted(0.5)
    assert_same([r.value, r.dual.slope], [value, slope])
    assert_same(r.worst_q, q)


def _flat(*parts) -> np.ndarray:
    return np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in parts])


def _wc(r, *dual) -> np.ndarray:
    return _flat(r.value, r.worst_q, *(getattr(r.dual, name) for name in dual))


def _box(ref, nu):
    L, U = 1.0 / (1.0 + nu), 1.0 + nu
    return _flat(*ref.mixture(L, 1.0 - L, (U - 1.0) / (U - L)))


# every consumer of the selection at nominal tail mass beta: (solve(s, beta), want(ref, beta));
# the box's tail mass is 1 / (2 + nu), so it runs only below 1/2
CONSUMERS = {
    "cvar": (
        lambda s, b: _flat(riskstats.cvar(s, 1.0 - b), riskstats.cvar_distribution(s, 1.0 - b)),
        lambda ref, b: _flat(*ref.cvar(1.0 - b)),
    ),
    "var": (lambda s, b: _flat(riskstats.var_quantile(s, 1.0 - b)), lambda ref, b: _flat(ref.var(1.0 - b))),
    "deviation": (
        lambda s, b: _flat(riskstats.cvar_deviation(s, 1.0 - b), wcs.combination_sensitivity(s, 1.0 - b).value),
        lambda ref, b: _flat(ref.deviation(1.0 - b), ref.deviation(1.0 - b)),
    ),
    "budgeted": (
        lambda s, b: _wc(wcs.wc_budgeted(s, 1.0 / b - 1.0), "slope"),
        lambda ref, b: _flat(*ref.budgeted(1.0 / b - 1.0)),
    ),
    "tv": (
        lambda s, b: _wc(wcs.wc_tv(s, 2.0 * (1.0 - b)), "theta", "lam"),
        lambda ref, b: _flat(*ref.tv(2.0 * (1.0 - b))),
    ),
    "combination": (
        lambda s, b: _wc(wcs.wc_combination(s, 1.0 - b, 0.5)),
        lambda ref, b: _flat(*ref.mixture(0.5, 0.5, 1.0 - b)),
    ),
    "box": (lambda s, b: _wc(wcs.wc_box_symmetric(s, 1.0 / b - 2.0)), lambda ref, b: _box(ref, 1.0 / b - 2.0)),
}


def _first_split(monkeypatch, solve) -> riskstats.Split:
    """The first split that solve() asks ``riskstats._split`` for."""
    splits = []
    split = riskstats._split

    def spy(*args):
        splits.append(split(*args))
        return splits[-1]

    with monkeypatch.context() as m:
        m.setattr(riskstats, "_split", spy)
        solve()
    return splits[0]


@pytest.mark.parametrize("edge", ["top", "bottom"])
@pytest.mark.parametrize("name", CONSUMERS)
def test_ties_at_the_window_edges(monkeypatch, name, edge):
    """A tie run at the cost of the first window's top or bottom sample atom stays in one block of ranks."""
    solve, want = CONSUMERS[name]
    beta = 0.3
    costs, probs = _mixture(np.random.default_rng(3), 40_000)
    first = _first_split(monkeypatch, lambda: solve(wcs.validate(costs, probs), beta))
    at = costs[first.window[0 if edge == "top" else -1]]
    # atoms off the stride sample take that cost, so the sample and the window's edges stay put
    stride = costs.size // riskstats._SAMPLE
    off = np.flatnonzero(np.arange(costs.size) % stride)
    costs = costs.copy()
    costs[np.random.default_rng(4).choice(off, 300, replace=False)] = at
    s = wcs.validate(costs, probs)
    tied = _first_split(monkeypatch, lambda: solve(s, beta))
    assert s.costs[tied.window[0 if edge == "top" else -1]] == at
    assert_same(solve(s, beta), want(Sorted(s), beta))


# the box's tail mass stays below 1/2, so it cannot reach the last rank
END_RANKS = [(name, rank) for name in CONSUMERS for rank in ("first", "last") if (name, rank) != ("box", "last")]


@pytest.mark.parametrize("name, rank", END_RANKS, ids=[f"{name}-{rank}" for name, rank in END_RANKS])
def test_boundary_in_an_end_sample_rank(name, rank):
    """The boundary on the costliest sampled atom, ranked first, or on the cheapest one, ranked last."""
    solve, want = CONSUMERS[name]
    n = 40_000
    stride = n // riskstats._SAMPLE
    costs, w = _mixture(np.random.default_rng(5), n)
    costs[0], costs[stride] = costs.max() + 1.0, costs.min() - 1.0
    w[0] = w[stride] = 1.0
    probs = w / _fsum(w)
    if rank == "first":
        beta, at = 0.5 * probs[0], 0
    else:
        beta, at = 1.0 - 0.5 * probs[stride], n - 1
    ref = Sorted(wcs.validate(costs, probs))
    assert ref.order[at] == (0 if rank == "first" else stride)
    assert Sorted.rank(ref.p, beta) == at
    assert_same(solve(ref.s, beta), want(ref, beta))


def test_first_window_from_the_sample_error(monkeypatch):
    """At n = 1e5 the first window spans at most half the sample ranks of a fixed _SAMPLE // 32 a side."""
    n = 100_000
    stride = n // riskstats._SAMPLE
    costs, probs = _mixture(np.random.default_rng(1), n)
    mixture, uniform = wcs.validate(costs, probs), wcs.validate(costs)
    for s, solve in (
        (mixture, lambda: riskstats.cvar(mixture, 0.9)),
        (mixture, lambda: wcs.wc_combination(mixture, 0.9, 0.5)),
        (mixture, lambda: wcs.var_quantile(mixture, 0.8)),
        (uniform, lambda: wcs.var_quantile(uniform, 0.5)),
        (uniform, lambda: wcs.wc_budgeted(uniform, 1.0)),
    ):
        first = _first_split(monkeypatch, solve)
        sampled = np.count_nonzero(first.window % stride == 0)
        assert first.head.size and not first.through_end
        assert sampled <= riskstats._SAMPLE // 32
