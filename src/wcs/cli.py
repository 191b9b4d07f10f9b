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
import itertools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import families, riskstats, sensitivity, worstcase
from .core import PHI_BY_NAME, Scenario, interpolated_cost, validate
from .errors import InputFileError, InvalidEpsList, InvalidGeneratorArgs, LengthMismatch, WcsError

if TYPE_CHECKING:
    from . import dro


def _seed(seed: int | None) -> int:
    """seed, or where it is None the environment's WCS_SEED (default 0)."""
    return int(os.environ.get("WCS_SEED", "0")) if seed is None else seed


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {x}")
    return x


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _fields(flag: str, text: str, schema: str, types: tuple, defaults: tuple, error) -> list:
    """The fields of a compound flag's value, split as ``schema`` ("n,d,margin,seed") is and
    each read by its type. The last len(defaults) may be left off for those defaults; a wrong
    count or a field its reader rejects raises ``error`` naming the flag and the reader's reason."""
    parts = text.split(":" if ":" in schema else ",")
    missing = len(types) - len(parts)
    reason = ""
    if 0 <= missing <= len(defaults):
        try:
            values = [read(part) for read, part in zip(types, parts)]
        except (ValueError, argparse.ArgumentTypeError) as exc:
            reason = f": {exc}"
        else:
            return values + list(defaults[len(defaults) - missing :])
    raise error(f"{flag} expects {schema}, got {text!r}{reason}")


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(_jsonable(payload)) + "\n")


def _rows(fh):
    """The rows of ``fh`` as csv.reader's default dialect reads them, ``[]`` for a blank line.

    A plain line is split at commas. From the first line holding a quote or NUL character, or
    longer than csv's field size limit (where csv.reader raises), csv.reader reads the rest: it
    keeps no state between rows, and splits a plain line the same way.
    """
    limit = csv.field_size_limit()
    for raw in fh:
        line = raw.rstrip("\r\n")
        if '"' in line or "\0" in line or len(line) > limit:
            yield from csv.reader(itertools.chain([raw], fh))
            return
        yield line.split(",") if line else []


def _read_table(path: str, primary: str, schema: str, width_of) -> np.ndarray:
    """The first width_of(header) cells of each non-blank data row, as an (n, width) float array.

    The file is read once, a row at a time (``_rows``), each cell parsed by ``float`` straight
    into the array, so neither its text nor a list of its rows is held. A header not opening
    with ``primary``, a short row or a cell ``float`` rejects is raised only after the rest of
    the file is read, so a decode or csv error anywhere in it is the one raised.
    """
    row: list[str] = []  # the data row being parsed, named by its error

    def cut(cells: list[str]) -> list[str]:
        nonlocal row
        row = cells
        if len(cells) < width:
            raise ValueError("short row")
        return cells[:width]

    try:
        with open(path, newline="") as fh:
            rows = _rows(fh)
            header = next(rows, [])
            error = WcsError(f"{path}: expected header '{schema}'")
            if header and header[0].strip() == primary:
                width = width_of(header)
                try:
                    cells = itertools.chain.from_iterable(map(cut, filter(None, rows)))
                    return np.fromiter(map(float, cells), np.float64).reshape(-1, width)
                except UnicodeError:  # a ValueError, but the file's and not the row's
                    raise
                except ValueError:
                    error = InputFileError(f"{path}: expected {width} numbers in row {','.join(row)!r}")
            for _ in rows:
                pass
            raise error
    except (OSError, UnicodeError, csv.Error) as exc:
        raise InputFileError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _read_two_column(path: str, primary: str) -> tuple[np.ndarray, np.ndarray | None]:
    def width(header):  # two columns where the header names a prob column
        return 1 + (len(header) > 1 and header[1].strip() == "prob")

    table = _read_table(path, primary, f"{primary}[,prob]", width)
    return table[:, 0], (table[:, 1] if table.shape[1] == 2 else None)


def _read_classification(path: str) -> dro.LabeledDataset:
    from . import dro

    table = _read_table(path, "label", "label,x1,...,xd", len)
    # C-ordered copies, as a nested list gave: matmul may sum a strided block in another order
    return dro.labeled_dataset(table[:, 1:].copy(), table[:, 0].copy())


def _scenario_from_args(args) -> Scenario:
    if args.costs is not None:
        probs = _floats(args.probs) if args.probs else None
        s = validate(_floats(args.costs), probs)
    else:
        s = validate(*_read_two_column(args.cost_file, "cost"))
    if args.family != "wasserstein":
        return s
    # transport geometry: support points (--points, default 0..n-1), costs interpolated over them
    pts = np.array(_floats(args.points)) if args.points else np.arange(s.n, dtype=float)
    if pts.size != s.n:
        raise LengthMismatch(f"--points expects one point per cost, got {pts.size} for {s.n}")
    return dataclasses.replace(s, points=pts, curve=interpolated_cost(pts, s.costs))


def _family_from_args(args, name: str) -> families.UncertaintyFamily:
    return families.build_family(name, PHI_BY_NAME[args.phi], args.alpha)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sensitivity(args) -> int:
    s = _scenario_from_args(args)
    fam = _family_from_args(args, args.family)
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
    fam = _family_from_args(args, args.family)
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
    from . import dro

    if args.demand_file:
        vals, probs = _read_two_column(args.demand_file, "demand")
        return validate(vals, probs)
    if not args.gen:
        raise WcsError("need --demand-file or --gen n,muL,muH,pL,seed")
    *gen, seed = _fields(
        "--gen", args.gen, "n,muL,muH,pL,seed", (int, float, float, float, int),
        (10.0, 100.0, 0.9, None), InvalidGeneratorArgs,
    )
    return dro.demand_scenario(dro.gen_mixture_demand(*gen, _seed(seed)))


def _params_from_args(args) -> dro.NewsvendorParams:
    from . import dro

    return dro.NewsvendorParams(r=args.r, c=args.c, q=args.q, s=args.s)


def _eps_list_from_args(args) -> list[float]:
    if args.eps_list:
        try:
            return _floats(args.eps_list)
        except ValueError:
            raise InvalidEpsList(f"--eps-list expects numbers, got {args.eps_list!r}") from None
    if args.eps_geom:
        # both ends finite and > 0 (a geometric grid cannot reach 0), and at least one point
        grid = _fields(
            "--eps-geom", args.eps_geom, "start:stop:count",
            (_positive_float, _positive_float, _positive_int), (), InvalidEpsList,
        )
        return list(np.geomspace(*grid))
    raise WcsError("need --eps-list or --eps-geom start:stop:count")


def _cmd_frontier(args) -> int:
    from . import dro

    fam = _family_from_args(args, args.family)
    eps_list = _eps_list_from_args(args)
    if args.data_file or args.gen_class:
        problem, data = _classification_from_args(args), None
    elif args.r is None or args.c is None:
        raise WcsError("newsvendor frontier needs --r and --c (or use --data-file/--gen-class)")
    else:
        problem, data = _params_from_args(args), _demand_from_args(args)
    points = dro.frontier(problem, data, fam, eps_list, _family_from_args(args, args.measure))
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
    from . import dro

    params = _params_from_args(args)
    demand = _demand_from_args(args)
    if args.family is None:
        x = dro.saa_newsvendor(params, demand)
        s_x = dro.cost_scenario(params, demand, x)
        _emit({"x": x, "value": riskstats.mean(s_x), "eps": 0.0, "family": "saa"})
        return 0
    if args.eps is None:
        raise WcsError("--eps is required with --family")
    sol = dro.dro_newsvendor(params, demand, _family_from_args(args, args.family), args.eps)
    _emit({"x": sol.x, "value": sol.worst_case.value, "eps": args.eps, "family": args.family})
    return 0


def _classification_from_args(args) -> dro.LabeledDataset:
    from . import dro

    if args.data_file:
        return _read_classification(args.data_file)
    if args.gen_class:
        *gen, seed = _fields(
            "--gen-class", args.gen_class, "n,d,margin,seed", (int, int, float, int), (1.0, None),
            InvalidGeneratorArgs,
        )
        return dro.gen_synth_classification(*gen, _seed(seed))
    raise WcsError("need --data-file or --gen-class n,d,margin,seed")


def _cmd_solve_logreg(args) -> int:
    from . import dro

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
    from . import oracle
    from .rng import SplitMix64

    trials = args.trials
    seed = _seed(args.seed)
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
    p.add_argument("--points", help="support points for wasserstein (default 0..n-1)")
    p.set_defaults(scenario_parser=p)


def _add_family_flags(p: argparse.ArgumentParser, choices: Sequence[str], required: bool = True):
    p.add_argument("--family", choices=choices, required=required)
    p.add_argument("--phi", choices=("chi2", "kl"), default="chi2")
    p.add_argument("--alpha", type=float, default=0.95, help="CVaR level for combo")


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
    _add_family_flags(p, tuple(families.FAMILIES))
    _add_scenario_flags(p)
    p.set_defaults(fn=_cmd_sensitivity)

    p = sub.add_parser("worst-case", help="exact V(eps), q(eps) and dual certificate")
    _add_family_flags(p, families.WORST_CASE_NAMES)
    p.add_argument("--eps", type=float, required=True)
    _add_scenario_flags(p)
    p.set_defaults(fn=_cmd_worst_case)

    p = sub.add_parser("frontier", help="mean-sensitivity frontier sweep")
    _add_family_flags(p, families.WORST_CASE_NAMES)
    p.add_argument("--eps-list", help="comma-separated ascending eps values")
    p.add_argument("--eps-geom", help="start:stop:count geometric eps grid")
    p.add_argument("--measure", choices=tuple(families.FAMILIES), required=True)
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
    _add_family_flags(p, families.WORST_CASE_NAMES, required=False)
    p.add_argument("--eps", type=float)
    p.set_defaults(fn=_cmd_solve_newsvendor)

    p = sub.add_parser("solve-logreg", help="norm-regularized (transport-robust) logistic fit")
    p.add_argument("--data-file", help="CSV with header label,x1,...,xd")
    p.add_argument("--gen-class", help="synthetic data: n,d,margin,seed")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
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
