"""Command-line surface.

Results go to stdout as JSON (frontier tables optionally to --out as CSV).
Exit codes: 0 success, 2 usage error, 3 domain error. Domain errors emit a
JSON payload {"code": <error class>, "message": ...} on stderr.

Input file schemas (CSV with header row):
  cost file:           cost[,prob]       missing prob column means uniform
  demand file:         demand[,prob]
  classification file: label,x1,...,xd   labels +-1

The environment variable WCS_SEED overrides the default --seed of the
generating subcommands when --seed is not given explicitly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import dro, families, oracle, riskstats, sensitivity, worstcase
from .core import PHI_BY_NAME, PiecewiseLinearCost, Scenario, interpolated_cost, validate
from .errors import InputFileError, WcsError
from .families import WassersteinL1
from .rng import SplitMix64


def _default_seed() -> int:
    return int(os.environ.get("WCS_SEED", "0"))


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(_jsonable(payload)) + "\n")


def _read_csv(path: str, primary: str, schema: str) -> tuple[list[str], list[list[str]]]:
    """Header and non-blank data rows; the header's first column must be ``primary``."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeError, csv.Error) as exc:
        raise InputFileError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    if not rows or not rows[0] or rows[0][0].strip() != primary:
        raise WcsError(f"{path}: expected header '{schema}'")
    return rows[0], [row for row in rows[1:] if row]


def _numbers(path: str, row: list[str], width: int) -> list[float]:
    """The first ``width`` cells of a data row as floats."""
    try:
        return [float(row[i]) for i in range(width)]
    except (IndexError, ValueError):
        raise InputFileError(f"{path}: expected {width} numbers in row {','.join(row)!r}") from None


def _read_two_column(path: str, primary: str) -> tuple[list[float], list[float] | None]:
    header, rows = _read_csv(path, primary, f"{primary}[,prob]")
    has_prob = len(header) > 1 and header[1].strip() == "prob"
    table = [_numbers(path, row, 2 if has_prob else 1) for row in rows]
    return [r[0] for r in table], ([r[1] for r in table] if has_prob else None)


def _read_classification(path: str) -> dro.LabeledDataset:
    header, rows = _read_csv(path, "label", "label,x1,...,xd")
    table = [_numbers(path, row, len(header)) for row in rows]
    labels = [r.pop(0) for r in table]  # in place: the rows become the features
    return dro.labeled_dataset(table, labels)


def _scenario_from_args(args) -> Scenario:
    if args.costs is not None:
        probs = _floats(args.probs) if args.probs else None
        return validate(_floats(args.costs), probs)
    vals, probs = _read_two_column(args.cost_file, "cost")
    return validate(vals, probs)


def _family_from_args(args) -> families.UncertaintyFamily:
    return families.build_family(args.family, PHI_BY_NAME[args.phi], args.alpha)


def _transport_geometry(args, s: Scenario) -> tuple[np.ndarray, PiecewiseLinearCost]:
    """Support points (--points, default 0..n-1) and the costs interpolated over them."""
    pts = np.array(_floats(args.points)) if args.points else np.arange(s.n, dtype=float)
    if pts.size != s.n:
        raise WcsError(f"{pts.size} support points for {s.n} costs")
    return pts, interpolated_cost(pts, s.costs)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sensitivity(args) -> int:
    s = _scenario_from_args(args)
    fam = _family_from_args(args)
    if isinstance(fam, WassersteinL1):
        pts, cost = _transport_geometry(args, s)
        rep = sensitivity.wasserstein_sensitivity(pts, s.probs, cost.ratio_from)
    else:
        rep = fam.sensitivity(s)
    _emit({"value": rep.value, "family": fam.name, "growth": rep.growth})
    return 0


def _dual_payload(dual) -> dict | None:
    if dual is None:
        return None
    # keys in field order; the field `lam` prints as "lambda", a Python keyword
    return {("lambda" if k == "lam" else k): v for k, v in dataclasses.asdict(dual).items()}


def _cmd_worst_case(args) -> int:
    s = _scenario_from_args(args)
    fam = _family_from_args(args)
    if isinstance(fam, WassersteinL1):
        pts, cost = _transport_geometry(args, s)
        res = worstcase.wc_wasserstein_pl(pts, s.probs, cost, args.eps)
    else:
        res = worstcase.worst_case(s, fam, args.eps)
    _emit(
        {
            "family": fam.name,
            "eps": args.eps,
            "value": res.value,
            "q": res.worst_q,
            "dual": _dual_payload(res.dual),
            "degenerate": res.degenerate,
            "clamped": res.clamped,
        }
    )
    return 0


def _demand_from_args(args) -> Scenario:
    if args.demand_file:
        vals, probs = _read_two_column(args.demand_file, "demand")
        return validate(vals, probs)
    if not args.gen:
        raise WcsError("need --demand-file or --gen n,muL,muH,pL,seed")
    parts = args.gen.split(",")
    n = int(parts[0])
    mu_low = float(parts[1]) if len(parts) > 1 else 10.0
    mu_high = float(parts[2]) if len(parts) > 2 else 100.0
    p_low = float(parts[3]) if len(parts) > 3 else 0.9
    seed = int(parts[4]) if len(parts) > 4 else _default_seed()
    return dro.demand_scenario(dro.gen_mixture_demand(n, mu_low, mu_high, p_low, seed))


def _params_from_args(args) -> dro.NewsvendorParams:
    return dro.NewsvendorParams(r=args.r, c=args.c, q=args.q, s=args.s)


def _eps_list_from_args(args) -> list[float]:
    if args.eps_list:
        return _floats(args.eps_list)
    if args.eps_geom:
        start, stop, count = args.eps_geom.split(":")
        return list(np.geomspace(float(start), float(stop), int(count)))
    raise WcsError("need --eps-list or --eps-geom start:stop:count")


def _cmd_frontier(args) -> int:
    fam = _family_from_args(args)
    eps_list = _eps_list_from_args(args)
    if args.data_file or args.gen_class:
        problem, data = _classification_from_args(args), None
    elif args.r is None or args.c is None:
        raise WcsError("newsvendor frontier needs --r and --c (or use --data-file/--gen-class)")
    else:
        problem, data = _params_from_args(args), _demand_from_args(args)
    points = dro.frontier(
        problem, data, fam, eps_list, args.measure, phi=PHI_BY_NAME[args.phi], alpha=args.alpha
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            # vector decisions (weight fits) summarize to their 2-norm in CSV
            fh.write("eps,decision,nominal_mean,sensitivity\n")
            for pt in points:
                dec = pt.decision
                scalar = float(np.linalg.norm(dec)) if isinstance(dec, np.ndarray) else float(dec)
                fh.write(
                    f"{float(pt.eps)!r},{scalar!r},"
                    f"{float(pt.nominal_mean)!r},{float(pt.sensitivity)!r}\n"
                )
    else:
        _emit(
            {
                "family": args.family,
                "measure": args.measure,
                "points": [
                    {
                        "eps": pt.eps,
                        "decision": pt.decision,
                        "nominal_mean": pt.nominal_mean,
                        "sensitivity": pt.sensitivity,
                    }
                    for pt in points
                ],
            }
        )
    return 0


def _cmd_solve_newsvendor(args) -> int:
    params = _params_from_args(args)
    demand = _demand_from_args(args)
    if args.family is None:
        x = dro.saa_newsvendor(params, demand)
        s_x = dro.cost_scenario(params, demand, x)
        _emit({"x": x, "value": riskstats.mean(s_x), "eps": 0.0, "family": "saa"})
        return 0
    if args.eps is None:
        raise WcsError("--eps is required with --family")
    sol = dro.dro_newsvendor(params, demand, _family_from_args(args), args.eps)
    _emit({"x": sol.x, "value": sol.worst_case.value, "eps": args.eps, "family": args.family})
    return 0


def _classification_from_args(args) -> dro.LabeledDataset:
    if args.data_file:
        return _read_classification(args.data_file)
    if args.gen_class:
        parts = args.gen_class.split(",")
        n, d = int(parts[0]), int(parts[1])
        margin = float(parts[2]) if len(parts) > 2 else 1.0
        seed = int(parts[3]) if len(parts) > 3 else _default_seed()
        return dro.gen_synth_classification(n, d, margin, seed)
    raise WcsError("need --data-file or --gen-class n,d,margin,seed")


def _cmd_solve_logreg(args) -> int:
    data = _classification_from_args(args)
    fit, rep = dro.logreg_wasserstein(data, args.eps, tol=args.tol)
    _emit(
        {
            "eps": args.eps,
            "w": fit.w,
            "objective": fit.objective,
            "grad_norm": fit.grad_norm,
            "separable": fit.separable,
            "sensitivity": rep.value,
        }
    )
    return 0


def _cmd_verify(args) -> int:
    trials = args.trials
    seed = args.seed if args.seed is not None else _default_seed()
    report: dict = {}

    # the degree-2 penalty form after the deviation measures
    measures = sorted(
        (families.build_family(name, alpha=0.5) for name in families.SCENARIO_NAMES),
        key=lambda fam: fam.homogeneity,
    )
    axioms = {
        fam.name: oracle.deviation_axioms(
            lambda s: fam.sensitivity(s).value, trials, seed, homogeneity_degree=fam.homogeneity
        ).all_passed
        for fam in measures
    }
    report["axioms"] = axioms

    rng = SplitMix64(seed + 1)
    fd_ok = True
    worst_gap = 0.0
    for _ in range(min(trials, 50)):
        s = oracle.random_scenario(rng, 2, 4, min_prob=1e-3)
        checks = [
            (families.SmoothPhi(), [10.0**-k for k in range(2, 9)]),
            (families.TotalVariation(), [float(np.min(s.probs)) * 10.0**-k for k in range(1, 5)]),
            (families.Budgeted(), [10.0**-k for k in range(2, 6)]),
        ]
        for fam, eps_seq in checks:
            closed = fam.sensitivity(s).value
            est = oracle.fd_sensitivity(
                lambda e: fam.worst_case(s, e).value, fam.growth, eps_seq
            ).estimate
            gap = abs(est - closed) / max(1.0, abs(closed))
            worst_gap = max(worst_gap, gap)
            fd_ok = fd_ok and gap <= 1e-3
    report["closed_form_vs_fd"] = {"passed": fd_ok, "worst_relative_gap": worst_gap}

    rng = SplitMix64(seed + 2)
    bounds_ok = True
    for _ in range(trials):
        n = rng.randint(2, 6)
        s = validate([-10.0 + 20.0 * rng.uniform() for _ in range(n)])
        sv = math.sqrt(riskstats.variance(s))
        if sv > sensitivity.tv_sensitivity(s).value + 1e-9:
            bounds_ok = False
        alpha = 0.5 + 0.45 * rng.uniform()
        dev = riskstats.cvar_deviation(s, alpha)
        if dev > riskstats.c_alpha_n(n, alpha) * sv + 1e-9:
            bounds_ok = False
    report["bounds"] = {"passed": bounds_ok}

    passed = all(axioms.values()) and fd_ok and bounds_ok
    report["passed"] = passed
    _emit(report)
    if not passed:
        raise WcsError("verification failed; see report")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_scenario_flags(p: argparse.ArgumentParser):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--costs", help="comma-separated cost vector")
    p.add_argument("--probs", help="comma-separated probabilities (default uniform)")
    source.add_argument("--cost-file", help="CSV with header cost[,prob]")
    p.add_argument("--phi", choices=("chi2", "kl"), default="chi2")
    p.add_argument("--alpha", type=float, default=0.95, help="CVaR level for combo")
    p.add_argument("--points", help="support points for wasserstein (default 0..n-1)")
    p.set_defaults(scenario_parser=p)


def _add_newsvendor_flags(p: argparse.ArgumentParser, required: bool = True):
    p.add_argument("--r", type=float, required=required, help="unit revenue")
    p.add_argument("--c", type=float, required=required, help="unit order cost")
    p.add_argument("--q", type=float, default=0.0, help="unit salvage value")
    p.add_argument("--s", type=float, default=0.0, help="unit shortage penalty")
    p.add_argument("--demand-file", help="CSV with header demand[,prob]")
    p.add_argument("--gen", help="synthetic demand: n,muL,muH,pL,seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wcs",
        description="Worst-case sensitivities, worst-case distributions, and "
        "mean-sensitivity frontiers for DRO over discrete scenarios.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sensitivity", help="Table of closed-form worst-case sensitivities")
    p.add_argument("--family", choices=tuple(families.FAMILIES), required=True)
    _add_scenario_flags(p)
    p.set_defaults(fn=_cmd_sensitivity)

    p = sub.add_parser("worst-case", help="exact V(eps), q(eps) and dual certificate")
    p.add_argument("--family", choices=families.WORST_CASE_NAMES, required=True)
    p.add_argument("--eps", type=float, required=True)
    _add_scenario_flags(p)
    p.set_defaults(fn=_cmd_worst_case)

    p = sub.add_parser("frontier", help="mean-sensitivity frontier sweep")
    p.add_argument("--family", choices=families.WORST_CASE_NAMES, required=True)
    p.add_argument("--eps-list", help="comma-separated ascending eps values")
    p.add_argument("--eps-geom", help="start:stop:count geometric eps grid")
    p.add_argument("--measure", choices=tuple(families.FAMILIES), required=True)
    p.add_argument("--phi", choices=("chi2", "kl"), default="chi2")
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument(
        "--out",
        help="write CSV (eps,decision,nominal_mean,sensitivity) here; vector "
        "decisions are summarized by their 2-norm",
    )
    _add_newsvendor_flags(p, required=False)
    p.add_argument("--data-file", help="CSV label,x1..xd: sweep the robust logistic fit instead")
    p.add_argument("--gen-class", help="synthetic classification data: n,d,margin,seed")
    p.set_defaults(fn=_cmd_frontier)

    p = sub.add_parser("solve-newsvendor", help="SAA or DRO order quantity")
    _add_newsvendor_flags(p)
    p.add_argument("--family", choices=families.WORST_CASE_NAMES)
    p.add_argument("--eps", type=float)
    p.add_argument("--phi", choices=("chi2", "kl"), default="chi2")
    p.add_argument("--alpha", type=float, default=0.95)
    p.set_defaults(fn=_cmd_solve_newsvendor)

    p = sub.add_parser("solve-logreg", help="norm-regularized (transport-robust) logistic fit")
    p.add_argument("--data-file", help="CSV with header label,x1,...,xd")
    p.add_argument("--gen-class", help="synthetic data: n,d,margin,seed")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_solve_logreg)

    p = sub.add_parser("verify", help="axioms, oracle-vs-closed-form, and bound checks")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # a cost file carries its own prob column; --probs would be ignored
    if getattr(args, "probs", None) is not None and args.costs is None:
        args.scenario_parser.error("argument --probs: not allowed with argument --cost-file")
    try:
        return args.fn(args)
    except (WcsError, ValueError) as exc:
        payload = {"code": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
