"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Tolerances are fixed here, not calibrated.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

import wcs
from wcs import dro, oracle
from wcs.cli import main as cli_main
from wcs.core import interpolated_cost
from wcs.rng import SplitMix64


def report(num: int, label: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


def wasserstein_interp_measure(s: wcs.Scenario) -> float:
    pts = np.arange(s.n, dtype=float)
    cost = interpolated_cost(pts, s.costs)
    return wcs.wasserstein_sensitivity(pts, s.probs, cost.ratio_from).value


def test_criterion_1_deviation_axioms():
    t0 = time.time()
    measures = {
        "phi-chi2": lambda s: wcs.smooth_phi_sensitivity(s, wcs.MODIFIED_CHI2).value,
        "phi-kl": lambda s: wcs.smooth_phi_sensitivity(s, wcs.KL).value,
        "tv": lambda s: wcs.tv_sensitivity(s).value,
        "budgeted": lambda s: wcs.budgeted_sensitivity(s).value,
        "combo-0.5": lambda s: wcs.combination_sensitivity(s, 0.5).value,
        "combo-0.9": lambda s: wcs.combination_sensitivity(s, 0.9).value,
        "box": lambda s: wcs.symmetric_box_sensitivity(s).value,
        "wasserstein": wasserstein_interp_measure,
    }
    failures = []
    for name, m in measures.items():
        rep = oracle.deviation_axioms(m, trials=1000, seed=1001, rtol=1e-8)
        if not rep.all_passed:
            failures.append(name)
    pen = oracle.deviation_axioms(
        lambda s: wcs.penalty_phi_sensitivity(s, wcs.MODIFIED_CHI2).value,
        trials=1000,
        seed=1001,
        homogeneity_degree=2.0,
        rtol=1e-8,
    )
    if not pen.all_passed:
        failures.append("penalty-phi")
    elapsed = time.time() - t0
    report(
        1,
        "deviation axioms on 1000 seeded instances for all measures",
        not failures and elapsed < 5.0,
        f"failures={failures}, {elapsed:.2f}s",
    )


def test_criterion_2_closed_form_vs_fd():
    t0 = time.time()
    rng = SplitMix64(2002)
    worst = {}

    def check(name, closed, vfun, growth, eps_seq):
        est = oracle.fd_sensitivity(vfun, growth, eps_seq).estimate
        gap = abs(est - closed) / max(abs(closed), 1e-9)
        worst[name] = max(worst.get(name, 0.0), gap)

    for _ in range(200):
        s = oracle.random_scenario(rng, 2, 4, min_prob=1e-3)
        sqrt_eps = [10.0**-k for k in range(2, 9)]
        lin_eps = [10.0**-k for k in range(2, 6)]
        check(
            "phi-chi2",
            wcs.smooth_phi_sensitivity(s, wcs.MODIFIED_CHI2).value,
            lambda e, s=s: wcs.wc_chi2(s, e).value,
            "sqrt",
            sqrt_eps,
        )
        check(
            "phi-kl",
            wcs.smooth_phi_sensitivity(s, wcs.KL).value,
            lambda e, s=s: wcs.wc_smooth_phi(s, wcs.KL, e).value,
            "sqrt",
            sqrt_eps,
        )
        check(
            "tv",
            wcs.tv_sensitivity(s).value,
            lambda e, s=s: wcs.wc_tv(s, e).value,
            "linear",
            [float(np.min(s.probs)) * 10.0**-k for k in range(1, 5)],
        )
        check(
            "budgeted",
            wcs.budgeted_sensitivity(s).value,
            lambda e, s=s: wcs.wc_budgeted(s, e).value,
            "linear",
            lin_eps,
        )
        alpha = 0.3 + 0.6 * rng.uniform()
        check(
            "combo",
            wcs.combination_sensitivity(s, alpha).value,
            lambda e, s=s, a=alpha: wcs.wc_combination(s, a, e).value,
            "linear",
            lin_eps,
        )
        check(
            "box",
            wcs.symmetric_box_sensitivity(s).value,
            lambda e, s=s: wcs.wc_box_symmetric(s, e).value,
            "linear",
            lin_eps,
        )
        # transport family on a random inventory cost at a random interior point
        r = 2.0 + 8.0 * rng.uniform()
        c = r * (0.1 + 0.8 * rng.uniform())
        q = c * 0.9 * rng.uniform()
        sp = 6.0 * rng.uniform()
        params = dro.NewsvendorParams(r=r, c=c, q=q, s=sp)
        atoms = sorted(1.0 + 50.0 * rng.uniform() for _ in range(rng.randint(2, 4)))
        x = atoms[0] + (atoms[-1] - atoms[0]) * (0.2 + 0.6 * rng.uniform())
        curve = dro.demand_cost_curve(params, x)
        probs = np.full(len(atoms), 1.0 / len(atoms))
        closed = wcs.wasserstein_sensitivity(atoms, probs, curve.ratio_from).value
        check(
            "wasserstein",
            closed,
            lambda e, a=atoms, p=probs, cu=curve: wcs.wc_wasserstein_pl(a, p, cu, e).value,
            "linear",
            lin_eps,
        )
    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v > 1e-3}
    report(
        2,
        "closed forms match fd estimates of exact V(eps), 200 instances/family",
        not bad and elapsed < 30.0,
        f"worst gaps={ {k: f'{v:.2e}' for k, v in worst.items()} }, {elapsed:.2f}s",
    )


def test_criterion_3_worst_case_lp_exactness():
    rng = SplitMix64(3003)
    worst_lp = 0.0
    worst_chi2 = 0.0
    for _ in range(500):
        s = oracle.random_scenario(rng, 2, 5)
        eps_tv = 2.0 * rng.uniform()
        worst_lp = max(
            worst_lp,
            abs(
                wcs.wc_tv(s, eps_tv).value
                - oracle.brute_force_wc(s, polytope=oracle.TvPolytope(eps_tv))
            ),
        )
        eps_b = 2.5 * rng.uniform()
        e_eff = min(eps_b, float(np.max(1.0 / s.probs - 1.0)))
        worst_lp = max(
            worst_lp,
            abs(
                wcs.wc_budgeted(s, eps_b).value
                - oracle.brute_force_wc(s, polytope=oracle.budgeted_polytope(s, e_eff))
            ),
        )
        alpha = 0.9 * rng.uniform()
        eps_c = rng.uniform()
        worst_lp = max(
            worst_lp,
            abs(
                wcs.wc_combination(s, alpha, eps_c).value
                - oracle.brute_force_wc(
                    s, polytope=oracle.combination_polytope(s, alpha, eps_c)
                )
            ),
        )
        L, U = rng.uniform(), 1.0 + 2.0 * rng.uniform()
        worst_lp = max(
            worst_lp,
            abs(
                wcs.wc_box(s, wcs.BoxParams(L, U)).value
                - oracle.brute_force_wc(s, polytope=oracle.box_polytope(s, L, U))
            ),
        )
        eps_phi = 1.5 * rng.uniform() + 1e-4
        worst_chi2 = max(
            worst_chi2,
            abs(
                wcs.wc_chi2(s, eps_phi).value
                - wcs.wc_smooth_phi(s, wcs.MODIFIED_CHI2, eps_phi).value
            ),
        )

    # independent 1-d tilting-equation solve for KL on f=(0,10), eps=0.02
    def kl_gap(t):
        return t * math.log(2 * t) + (1 - t) * math.log(2 * (1 - t)) - 0.02

    lo, hi = 0.5 + 1e-12, 1 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if kl_gap(mid) < 0 else (lo, mid)
    v_tilt = 10 * 0.5 * (lo + hi)
    v_kl = wcs.wc_smooth_phi(wcs.validate([0, 10]), wcs.KL, 0.02).value
    kl_ok = abs(v_kl - v_tilt) <= 1e-3 and abs(v_kl - 5.997) <= 1e-3

    report(
        3,
        "LP families match vertex oracle 1e-10; chi2 paths agree 1e-8; KL matches tilt solve",
        worst_lp <= 1e-10 and worst_chi2 <= 1e-8 and kl_ok,
        f"lp={worst_lp:.2e}, chi2={worst_chi2:.2e}, |V_kl - tilt|={abs(v_kl - v_tilt):.2e}",
    )


def test_criterion_4_budgeted_piecewise_structure():
    rng = SplitMix64(4004)
    worst_slope = 0.0
    cvar_exact = True
    for _ in range(100):
        s = oracle.random_scenario(rng, 2, 6, min_prob=5e-3)
        srt = wcs.sort_desc(s)
        cums = np.cumsum(srt.probs_desc)[:-1]
        kinks = sorted({(1.0 - c) / c for c in cums.tolist()})
        grid = [0.0] + kinks
        for a, b in zip(grid, grid[1:]):
            if b - a < 1e-6:
                continue
            m1 = a + (b - a) / 3.0
            m2 = a + 2.0 * (b - a) / 3.0
            v1, v2 = wcs.wc_budgeted(s, m1), wcs.wc_budgeted(s, m2)
            if v1.value != wcs.cvar(s, m1 / (1.0 + m1)):
                cvar_exact = False
            measured = (v2.value - v1.value) / (m2 - m1)
            worst_slope = max(
                worst_slope,
                abs(measured - v1.dual.slope),
                abs(measured - wcs.budgeted_slope(s, m2)),
            )
    report(
        4,
        "V_b equals CVaR at eps/(1+eps) exactly; piecewise slopes match within 1e-9",
        cvar_exact and worst_slope <= 1e-9,
        f"worst slope gap={worst_slope:.2e}",
    )


def test_criterion_5_c_alpha_n_tightness_and_bounds():
    worst_ratio = 0.0
    for n in range(3, 13):
        for alpha in (0.5, 0.7, 0.75, 0.9):
            z = wcs.tight_cvar_vector(n, alpha)
            s = wcs.validate(z)
            ratio = wcs.cvar_deviation(s, alpha) / math.sqrt(wcs.variance(s))
            worst_ratio = max(worst_ratio, abs(ratio - wcs.c_alpha_n(n, alpha)))
    rng = SplitMix64(5005)
    bound_426 = bound_413 = True
    for _ in range(1000):
        n = rng.randint(2, 6)
        s = wcs.validate([-10.0 + 20.0 * rng.uniform() for _ in range(n)])
        alpha = 0.05 + 0.9 * rng.uniform()
        sd = math.sqrt(wcs.variance(s))
        lhs = wcs.combination_sensitivity(s, alpha).value
        rhs = (
            wcs.c_alpha_n(n, alpha)
            * math.sqrt(wcs.MODIFIED_CHI2.curvature / 2.0)
            * wcs.smooth_phi_sensitivity(s, wcs.MODIFIED_CHI2).value
        )
        if lhs > rhs + 1e-9:
            bound_426 = False
        if sd > wcs.tv_sensitivity(s).value + 1e-9:
            bound_413 = False
    report(
        5,
        "tight vector attains c_alpha_n within 1e-9; CVaR-deviation and range bounds hold",
        worst_ratio <= 1e-9 and bound_426 and bound_413,
        f"worst ratio gap={worst_ratio:.2e}",
    )


def test_criterion_6_newsvendor():
    rng = SplitMix64(6006)
    quantile_exact = True
    for _ in range(500):
        r = 1.0 + 9.0 * rng.uniform()
        c = r * (0.05 + 0.9 * rng.uniform())
        q = c * 0.9 * rng.uniform()
        sp = 5.0 * rng.uniform()
        params = dro.NewsvendorParams(r=r, c=c, q=q, s=sp)
        n = rng.randint(2, 9)
        d = wcs.demand_scenario(sorted(100.0 * rng.uniform() for _ in range(n)))
        if dro.saa_newsvendor(params, d) != dro.demand_quantile(d, params.critical_fractile):
            quantile_exact = False

    params = dro.NewsvendorParams(r=10, c=2, q=0, s=4)
    d2 = wcs.demand_scenario([10.0, 20.0])
    sol = dro.dro_newsvendor(params, d2, wcs.Budgeted(), 1.0)
    worked_ok = (
        abs(sol.x - 90.0 / 7.0) <= 1e-9 and abs(sol.worst_case.value + 520.0 / 7.0) <= 1e-9
    )

    d5 = wcs.demand_scenario([10.0, 20.0, 30.0, 40.0, 50.0])
    wass_exact = all(
        wcs.wasserstein_sensitivity(
            d5.costs, d5.probs, dro.demand_cost_curve(params, float(x)).ratio_from
        ).value
        == max(params.r - params.q, params.s)
        for x in np.linspace(10.5, 49.5, 20)
    )
    report(
        6,
        "SAA = critical-fractile quantile (500x); worked budgeted instance; transport "
        "sensitivity = max(r-q, s)",
        quantile_exact and worked_ok and wass_exact,
        f"x*={sol.x!r}",
    )


def test_criterion_7_qualitative_inventory_experiment():
    t0 = time.time()
    demand = wcs.demand_scenario(dro.gen_mixture_demand(100, 10.0, 100.0, 0.9, seed=42))
    params4 = dro.NewsvendorParams(r=10, c=2, q=0, s=4)
    saa4 = dro.saa_newsvendor(params4, demand)

    xb = [dro.dro_newsvendor(params4, demand, wcs.Budgeted(), e).x for e in (0.1, 0.2, 0.3, 0.4, 0.5)]
    budg_ok = all(b <= a + 1e-9 for a, b in zip(xb, xb[1:])) and all(x <= saa4 + 1e-9 for x in xb)

    def certified(sol):
        """The smooth-phi solve's weak-duality gap is within the tie tolerance."""
        return abs(sol.gap) <= 1e-12 * (1.0 + abs(sol.worst_case.value))

    chi2 = wcs.SmoothPhi(wcs.MODIFIED_CHI2)
    sols = [dro.dro_newsvendor(params4, demand, chi2, e) for e in (0.5, 1.0, 1.5, 2.0)]
    xc = [sol.x for sol in sols]
    chi_ok = all(b >= a - 1e-6 for a, b in zip(xc, xc[1:])) and all(x >= saa4 - 1e-6 for x in xc)
    chi_ok = chi_ok and all(map(certified, sols))

    params0 = dro.NewsvendorParams(r=10, c=2, q=0, s=0)
    sweeps = {
        "budgeted": (wcs.Budgeted(), (0.1, 0.3, 0.5)),
        "chi2": (chi2, (0.5, 1.0, 2.0)),
        "tv": (wcs.TotalVariation(), (0.1, 0.3, 0.5)),
        "combo": (wcs.Combination(0.8), (0.2, 0.5, 0.8)),
        "box": (wcs.SymmetricBox(), (0.5, 1.0)),
    }
    s0_ok = True
    for fam, eps_list in sweeps.values():
        sols = [dro.dro_newsvendor(params0, demand, fam, e) for e in eps_list]
        xs = [sol.x for sol in sols]
        s0_ok = s0_ok and all(b <= a + 1e-6 for a, b in zip(xs, xs[1:]))
        s0_ok = s0_ok and (fam is not chi2 or all(map(certified, sols)))
    elapsed = time.time() - t0
    report(
        7,
        "seeded mixture: budgeted shrinks below SAA, chi2 grows above SAA (gap-certified), all "
        "shrink at s=0",
        budg_ok and chi_ok and s0_ok and elapsed < 60.0,
        f"saa={saa4:.3f}, budgeted={ [round(x,2) for x in xb] }, chi2={ [round(x,2) for x in xc] }, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_logistic_regression():
    ds = dro.gen_synth_classification(60, 3, 0.7, seed=11)
    saa = dro.logreg_saa(ds, tol=1e-8)
    fit0, rep0 = dro.logreg_wasserstein(ds, 0.0, tol=1e-8)
    gap_ok = abs(fit0.objective - saa.objective) <= 1e-6

    toy = dro.labeled_dataset([[1, 1], [1, 1], [-1, 1], [-1, 1]], [1, 1, -1, -1])
    zero_ok = all(
        np.array_equal(dro.logreg_wasserstein(toy, e)[0].w, np.zeros(2))
        for e in (0.5, 0.75, 1.0)
    )

    norms = []
    sens_ok = True
    for eps in np.linspace(0.0, 0.4, 10):
        fit, rep = dro.logreg_wasserstein(ds, float(eps), tol=1e-8)
        norms.append(float(np.linalg.norm(fit.w)))
        sens_ok = sens_ok and rep.value == float(np.linalg.norm(saa.w))
    mono_ok = all(b <= a + 1e-6 for a, b in zip(norms, norms[1:]))
    report(
        8,
        "eps=0 recovers SAA (1e-6); toy zeroes at eps>=0.5; norm path non-increasing; "
        "sensitivity = ||w_SAA||",
        gap_ok and zero_ok and mono_ok and sens_ok,
        f"norms={ [round(v,4) for v in norms] }",
    )


def test_criterion_9_cli_golden_stability(tmp_path):
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        return code, out.getvalue(), err.getvalue()

    invocations = [
        ["sensitivity", "--family", "tv", "--costs", "1,5,3"],
        ["worst-case", "--family", "budgeted", "--eps", "0.4", "--costs", "0,10"],
        ["sensitivity", "--family", "tv", "--costs", "1,5", "--probs", "1,0"],
    ]
    stable = all(run(argv) == run(argv) for argv in invocations)
    first = run(invocations[0])
    content_ok = first == (0, '{"value": 2.0, "family": "tv", "growth": "linear"}\n', "")
    err_run = run(invocations[2])
    error_ok = err_run[0] == 3 and '"code": "NonPositiveProbability"' in err_run[2]

    frontier = [
        "frontier", "--family", "budgeted", "--measure", "budgeted", "--eps-list",
        "0,0.5,1", "--r", "10", "--c", "2", "--q", "0", "--s", "4", "--gen",
        "12,10,100,0.9,42",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(frontier + ["--out", str(a)])
    run(frontier + ["--out", str(b)])
    csv_ok = a.read_bytes() == b.read_bytes()
    report(
        9,
        "example invocations byte-identical across runs",
        stable and content_ok and error_ok and csv_ok,
    )
