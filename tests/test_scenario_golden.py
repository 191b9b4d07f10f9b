"""Bit-identity golden for the scenario layers.

Every public ``riskstats`` function, every scenario sensitivity, every
``wc_*`` solver, ``budgeted_slope``, ``cost_scenario`` and ``dro_newsvendor``
run over a seeded battery of scenarios: ties, constant costs, costs around
1e150 and 1e-200, uniform and non-uniform probabilities, and eps in
{0, 0.05, 0.7, 5}. Each result is reduced to exact float reprs, the dual's
fields, the flags, and a blake2b digest of any returned array, and must
match ``scenario_golden.json`` bit for bit. An error is recorded by its
class name, so error behaviour is pinned too.

All inputs come from ``SplitMix64``, which is bit-reproducible across
platforms and numpy versions. To regenerate the file after an intended
change of numbers:

    PYTHONPATH=src python tests/test_scenario_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import wcs
from wcs import dro, riskstats, sensitivity, worstcase
from wcs.rng import SplitMix64

GOLDEN_FILE = Path(__file__).with_name("scenario_golden.json")

EPS = (0.0, 0.05, 0.7, 5.0)
ALPHAS = (0.0, 0.5, 0.9)
BOXES = ((0.3, 2.5), (0.0, 1.5), (1.0, 3.0), (0.5, 1.0))
TRANSPORT_MAX_N = 50


def _probs(rng: SplitMix64, n: int) -> list[float]:
    w = [rng.exponential(1.0) + 0.05 for _ in range(n)]
    total = math.fsum(w)
    return [v / total for v in w]


def _battery() -> dict[str, tuple[list[float], list[float] | None]]:
    """name -> (costs, probs or None for uniform), drawn in a fixed order."""
    rng = SplitMix64(20201)
    out: dict[str, tuple[list[float], list[float] | None]] = {}
    out["single"] = ([3.5], None)
    out["two"] = ([0.0, 10.0], None)
    out["uniform"] = ([rng.gauss_pair()[0] for _ in range(7)], None)
    out["nonuniform"] = ([5.0 + 3.0 * rng.gauss_pair()[0] for _ in range(9)], _probs(rng, 9))
    out["ties"] = ([float(math.floor(4.0 * rng.uniform())) for _ in range(12)], _probs(rng, 12))
    out["ties_uniform"] = ([2.0, 1.0, 2.0, 0.0, 1.0, 2.0], None)
    out["constant"] = ([2.5] * 5, _probs(rng, 5))
    out["mixed_sign"] = ([-50.0 + 100.0 * rng.uniform() for _ in range(8)], _probs(rng, 8))
    out["huge"] = ([1e150 * rng.exponential(1.0) for _ in range(6)], _probs(rng, 6))
    out["tiny"] = ([1e-200 * rng.exponential(1.0) for _ in range(6)], None)
    out["n400"] = (
        [rng.exponential(10.0 if rng.uniform() < 0.9 else 100.0) for _ in range(400)],
        _probs(rng, 400),
    )
    return out


def _digest(a) -> str:
    a = np.asarray(a)
    h = hashlib.blake2b(digest_size=8)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _num(v) -> str:
    return repr(float(v)) if isinstance(v, (float, np.floating)) else repr(v)


def _describe(out) -> dict:
    if isinstance(out, worstcase.WorstCaseResult):
        dual = out.dual
        if dataclasses.is_dataclass(dual):
            dual = {type(dual).__name__: {k: _num(v) for k, v in dataclasses.asdict(dual).items()}}
        rec = {
            "value": _num(out.value),
            "worst_q": _digest(out.worst_q),
            "dual": repr(dual),
            "degenerate": bool(out.degenerate),
            "clamped": bool(out.clamped),
        }
        if out.support_points is not None:
            rec["support"] = _digest(out.support_points) + _digest(out.support_costs)
        return rec
    if isinstance(out, sensitivity.SensitivityReport):
        return {"value": _num(out.value), "growth": out.growth}
    if isinstance(out, wcs.Scenario):
        return {"costs": _digest(out.costs), "probs": _digest(out.probs)}
    if isinstance(out, np.ndarray):
        return {"array": _digest(out)}
    return {"value": _num(out)}


def _record(fn, *args) -> dict:
    try:
        out = fn(*args)
    except Exception as exc:  # the error class is part of what is pinned
        return {"raises": type(exc).__name__}
    return _describe(out)


def _scenario_records(name: str, costs, probs) -> dict[str, dict]:
    s = wcs.validate(costs, probs)
    pts = np.arange(s.n, dtype=float)
    curve = wcs.interpolated_cost(pts, s.costs)
    calls: list[tuple[str, object, tuple]] = [
        ("mean", riskstats.mean, (s,)),
        ("variance", riskstats.variance, (s,)),
    ]
    for a in ALPHAS:
        calls += [
            (f"cvar/{a}", riskstats.cvar, (s, a)),
            (f"cvar_distribution/{a}", riskstats.cvar_distribution, (s, a)),
            (f"var_quantile/{a}", riskstats.var_quantile, (s, a)),
            (f"cvar_deviation/{a}", riskstats.cvar_deviation, (s, a)),
            (f"partial_fill_rank/{a}", riskstats.partial_fill_rank, (wcs.sort_desc(s), a)),
            (f"greedy_fill/{a}", riskstats.greedy_fill, (wcs.sort_desc(s).probs_desc / (1.0 - a),)),
        ]
    calls += [
        ("smooth_phi_sensitivity/chi2", sensitivity.smooth_phi_sensitivity, (s, wcs.MODIFIED_CHI2)),
        ("smooth_phi_sensitivity/kl", sensitivity.smooth_phi_sensitivity, (s, wcs.KL)),
        ("penalty_phi_sensitivity/chi2", sensitivity.penalty_phi_sensitivity, (s, wcs.MODIFIED_CHI2)),
        ("tv_sensitivity", sensitivity.tv_sensitivity, (s,)),
        ("budgeted_sensitivity", sensitivity.budgeted_sensitivity, (s,)),
        ("combination_sensitivity/0.5", sensitivity.combination_sensitivity, (s, 0.5)),
        ("combination_sensitivity/0.9", sensitivity.combination_sensitivity, (s, 0.9)),
        ("symmetric_box_sensitivity", sensitivity.symmetric_box_sensitivity, (s,)),
    ]
    # the transport ratio scan is cubic in n on interpolated costs
    transport = s.n <= TRANSPORT_MAX_N
    if transport:
        ratio = curve.ratio_from
        calls.append(
            ("wasserstein_sensitivity", sensitivity.wasserstein_sensitivity, (pts, s.probs, ratio))
        )
    for eps in EPS:
        calls += [
            (f"wc_chi2/{eps}", worstcase.wc_chi2, (s, eps)),
            (f"wc_smooth_phi/chi2/{eps}", worstcase.wc_smooth_phi, (s, wcs.MODIFIED_CHI2, eps)),
            (f"wc_smooth_phi/kl/{eps}", worstcase.wc_smooth_phi, (s, wcs.KL, eps)),
            (f"wc_tv/{eps}", worstcase.wc_tv, (s, eps)),
            (f"wc_budgeted/{eps}", worstcase.wc_budgeted, (s, eps)),
            (f"budgeted_slope/{eps}", worstcase.budgeted_slope, (s, eps)),
            (f"wc_combination/0.8/{eps}", worstcase.wc_combination, (s, 0.8, eps)),
            (f"wc_box_symmetric/{eps}", worstcase.wc_box_symmetric, (s, eps)),
        ]
        if transport:
            calls.append(
                (f"wc_wasserstein_pl/{eps}", worstcase.wc_wasserstein_pl, (pts, s.probs, curve, eps))
            )
    for lo, hi in BOXES:
        calls.append((f"wc_box/{lo}/{hi}", worstcase.wc_box, (s, worstcase.BoxParams(lo, hi))))
    return {f"{name}/{label}": _record(fn, *args) for label, fn, args in calls}


def _kappa_records() -> dict[str, dict]:
    out = {}
    for n in (1, 2, 3, 5, 400):
        for a in (0.0, 0.5, 0.9, 0.999):
            out[f"kappa/c_alpha_n/{n}/{a}"] = _record(riskstats.c_alpha_n, n, a)
            out[f"kappa/tight_cvar_vector/{n}/{a}"] = _record(riskstats.tight_cvar_vector, n, a)
    return out


NEWSVENDOR_FAMILIES = {
    "budgeted": wcs.Budgeted(),
    "tv": wcs.TotalVariation(),
    "combo": wcs.Combination(0.8),
    "box": wcs.SymmetricBox(),
    "chi2": wcs.SmoothPhi(wcs.MODIFIED_CHI2),
    "kl": wcs.SmoothPhi(wcs.KL),
    "wasserstein": wcs.WassersteinL1(),
}


def _newsvendor_records() -> dict[str, dict]:
    rng = SplitMix64(7)
    demands = {
        "uniform8": wcs.demand_scenario(dro.gen_mixture_demand(8, seed=42)),
        "nonuniform6": wcs.validate([rng.exponential(30.0) for _ in range(6)], _probs(rng, 6)),
    }
    setups = (
        ("uniform8", dro.NewsvendorParams(r=10, c=2, q=0, s=4), 0.3),
        ("nonuniform6", dro.NewsvendorParams(r=10, c=2, q=0, s=0), 0.7),
    )
    out = {}
    for dname, params, eps in setups:
        demand = demands[dname]
        for x in (0.0, float(demand.costs[0]), 25.5):
            out[f"newsvendor/{dname}/cost_scenario/{x}"] = _record(
                dro.cost_scenario, params, demand, x
            )
        for fname, family in NEWSVENDOR_FAMILIES.items():
            for e in (0.0, eps) if fname == "budgeted" else (eps,):
                try:
                    sol = dro.dro_newsvendor(params, demand, family, e)
                except Exception as exc:
                    rec = {"raises": type(exc).__name__}
                else:
                    rec = {"x": _num(sol.x), **_describe(sol.worst_case)}
                out[f"newsvendor/{dname}/{fname}/{e}"] = rec
    return out


def _group_records(group: str) -> dict[str, dict]:
    if group == "kappa":
        return _kappa_records()
    if group == "newsvendor":
        return _newsvendor_records()
    costs, probs = _battery()[group]
    return _scenario_records(group, costs, probs)


GROUPS = list(_battery()) + ["kappa", "newsvendor"]


@pytest.mark.parametrize("group", GROUPS)
def test_scenario_layers_bit_identical(group):
    golden = json.loads(GOLDEN_FILE.read_text())
    expected = {k: v for k, v in golden.items() if k.split("/", 1)[0] == group}
    got = _group_records(group)
    assert sorted(got) == sorted(expected)
    diff = {k: (got[k], expected[k]) for k in got if got[k] != expected[k]}
    assert not diff, f"{len(diff)} records changed, e.g. {next(iter(diff.items()))}"


def test_chi2_routes_agree_on_the_battery():
    # wc_chi2, wc_smooth_phi with the built-in chi2 and the family descriptor are one route
    chi2 = wcs.SmoothPhi()
    for name, (costs, probs) in _battery().items():
        s = wcs.validate(costs, probs)
        for eps in (*EPS, 1e-40):
            want = _record(worstcase.wc_chi2, s, eps)
            assert _record(worstcase.wc_smooth_phi, s, wcs.MODIFIED_CHI2, eps) == want, (name, eps)
            assert _record(chi2.worst_case, s, eps) == want, (name, eps)


def _write_golden() -> None:
    records = {}
    for group in GROUPS:
        records.update(_group_records(group))
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in records.items()]
    GOLDEN_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(records)} records to {GOLDEN_FILE}")


if __name__ == "__main__":
    _write_golden()
