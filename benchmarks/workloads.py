"""The three benchmark workloads: inventory, large_n and cli.

Each workload builds its inputs from the benchmark seed with numpy's own
generator (never ``wcs.rng``), so the program under test receives only
arrays or files. A workload is a fixed list of ops, run closed loop by one
caller. Every op has a correctness check that does not depend on the seed's
particular values; the runner applies it to each op's first result and
requires later passes to reproduce that result exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _close(a: float, b: float, rtol: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= rtol * (scale + abs(a) + abs(b))


def child_env(root: Path) -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Workload:
    """Defaults shared by the workloads; each sets name and min_passes."""

    spawns = False  # whether ops run in child processes

    def check_pass(self, results: list) -> dict[int, str]:
        """Checks across the ops of one pass, as {op index: problem}."""
        return {}

    def check_run(self) -> list[str]:
        """Checks made once per run, outside any op."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# inventory: the criterion-7 newsvendor experiment
# ---------------------------------------------------------------------------


class Inventory(Workload):
    """23 ``dro_newsvendor`` solves at n = 100 on mixture demand.

    Tens of thousands of tiny worst-case evaluations per pass, so per-call
    overhead in core, riskstats and worstcase dominates, along with the dro
    candidate scan. s = 4 adds the O(n^2) crossing points (about 5.4k
    candidates per solve); s = 0 has none (about 0.5k).
    """

    name = "inventory"
    # three passes, so each solve's median latency discards one outlier
    min_passes = 3
    N = 100
    # (params key, family key, eps sweep), in the order of the criterion-7 test
    SWEEPS = (
        ("s4", "budgeted", (0.1, 0.2, 0.3, 0.4, 0.5)),
        ("s4", "chi2", (0.5, 1.0, 1.5, 2.0)),
        ("s0", "budgeted", (0.1, 0.3, 0.5)),
        ("s0", "chi2", (0.5, 1.0, 2.0)),
        ("s0", "tv", (0.1, 0.3, 0.5)),
        ("s0", "combo", (0.2, 0.5, 0.8)),
        ("s0", "box", (0.5, 1.0)),
    )
    PIECEWISE_LINEAR = ("budgeted", "tv", "combo", "box")

    def __init__(self, wcs, root: Path):
        self.wcs = wcs
        dro = wcs.dro
        self.params = {
            "s4": dro.NewsvendorParams(r=10, c=2, q=0, s=4),
            "s0": dro.NewsvendorParams(r=10, c=2, q=0, s=0),
        }
        self.families = {
            "budgeted": wcs.Budgeted(),
            "chi2": wcs.SmoothPhi(wcs.MODIFIED_CHI2),
            "tv": wcs.TotalVariation(),
            "combo": wcs.Combination(0.8),
            "box": wcs.SymmetricBox(),
        }
        self._saa: dict[str, float] = {}

    def build(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        means = np.where(rng.random(self.N) < 0.9, 10.0, 100.0)
        self.demand = self.wcs.validate(rng.exponential(means))

    def ops(self, in_process: bool) -> list[Op]:
        dro = self.wcs.dro
        out = []
        for pkey, fkey, sweep in self.SWEEPS:
            for eps in sweep:
                params, family = self.params[pkey], self.families[fkey]
                out.append(
                    Op(
                        f"{pkey}/{fkey}/eps={eps}",
                        lambda p=params, f=family, e=eps: dro.dro_newsvendor(p, self.demand, f, e),
                        lambda sol, p=pkey, f=fkey, e=eps: self._check(sol, p, f, e),
                    )
                )
        return out

    def digest(self, sol):
        return (sol.x, sol.worst_case.value)

    def _value_at(self, pkey: str, fkey: str, eps: float, x: float) -> float:
        dro = self.wcs.dro
        cost = dro.cost_scenario(self.params[pkey], self.demand, x)
        return self.wcs.worst_case(cost, self.families[fkey], eps).value

    def _check(self, sol, pkey, fkey, eps) -> str | None:
        v = sol.worst_case.value
        if not 0.0 <= sol.x <= 1.5 * float(np.max(self.demand.costs)):
            return f"x* = {sol.x!r} outside the scanned range"
        again = self._value_at(pkey, fkey, eps, sol.x)
        if not _close(v, again, 1e-12):
            return f"reported V = {v!r} but worst_case(cost_scenario(x*)) = {again!r}"
        if pkey not in self._saa:
            self._saa[pkey] = self.wcs.dro.saa_newsvendor(self.params[pkey], self.demand)
        # the SAA order is a demand atom, and every atom is a scan candidate
        v_saa = self._value_at(pkey, fkey, eps, self._saa[pkey])
        if v > v_saa + 1e-9 * (1.0 + abs(v_saa)):
            return f"V(x*) = {v!r} exceeds V(x_SAA) = {v_saa!r}"
        return None

    def check_pass(self, results: list) -> dict[int, str]:
        """V*(eps) must not decrease along each sweep.

        For the piecewise-linear families the candidate set holds every kink
        of V(x), so the scan is exact up to rounding. For chi2 the scan can
        miss the minimum by at most L * pitch, where L = max(c - q, r + s - c)
        bounds |dV/dx| and pitch = 1.5 max(y) / 399 is the coarse grid step.
        """
        problems = {}
        i = 0
        top = 1.5 * float(np.max(self.demand.costs))
        for pkey, fkey, sweep in self.SWEEPS:
            p = self.params[pkey]
            if fkey in self.PIECEWISE_LINEAR:
                slack = 0.0
            else:
                slack = max(p.c - p.q, p.r + p.s - p.c) * top / 399.0
            for k in range(1, len(sweep)):
                a, b = results[i + k - 1], results[i + k]
                if a is None or b is None:
                    continue
                va, vb = a.worst_case.value, b.worst_case.value
                if vb < va - slack - 1e-9 * (1.0 + abs(va)):
                    problems[i + k] = f"V* fell from {va!r} to {vb!r} along the {pkey}/{fkey} sweep"
            i += len(sweep)
        return problems

    def check_run(self) -> list[str]:
        """The worked two-atom instance: x* = 90/7 and V = -520/7 to 1e-9."""
        wcs = self.wcs
        sol = wcs.dro.dro_newsvendor(
            self.params["s4"], wcs.demand_scenario([10.0, 20.0]), wcs.Budgeted(), 1.0
        )
        if abs(sol.x - 90.0 / 7.0) > 1e-9 or abs(sol.worst_case.value + 520.0 / 7.0) > 1e-9:
            return [f"worked instance: x* = {sol.x!r}, V = {sol.worst_case.value!r}"]
        return []


# ---------------------------------------------------------------------------
# large_n: exact solvers and sensitivities on big non-uniform scenarios
# ---------------------------------------------------------------------------


def _nonuniform_scenario(wcs, rng, n: int):
    costs = rng.exponential(np.where(rng.random(n) < 0.9, 10.0, 100.0))
    weights = rng.exponential(1.0, n) + 0.05
    return wcs.validate(costs, weights / math.fsum(weights.tolist()))


def _cvar_reference(costs: np.ndarray, probs: np.ndarray, alpha: float) -> float:
    """CVaR_alpha by sorting and capping in numpy, independent of wcs."""
    order = np.argsort(-costs, kind="stable")
    caps = probs[order] / (1.0 - alpha)
    before = np.cumsum(caps) - caps
    q = np.minimum(caps, np.maximum(0.0, 1.0 - before))
    return float(q @ costs[order])


class LargeN(Workload):
    """Each exact solver and closed-form sensitivity, called directly.

    Few calls on 8 MB vectors, larger than the L2 cache, so vectorised
    throughput and memory dominate: the same layers as inventory in the
    opposite regime. dro is bypassed.
    """

    name = "large_n"
    min_passes = 3
    N_BIG = 1_000_000
    N_MID = 100_000  # the bisection paths

    def __init__(self, wcs, root: Path):
        self.wcs = wcs

    def build(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.big = _nonuniform_scenario(self.wcs, rng, self.N_BIG)
        self.mid = _nonuniform_scenario(self.wcs, rng, self.N_MID)
        self.eps_chi2_open = 0.5 * self._chi2_closed_form_limit(self.big)
        self.eps_chi2_clamped = 2.0 * self._chi2_closed_form_limit(self.mid)

    @staticmethod
    def _chi2_closed_form_limit(s) -> float:
        """Largest eps at which the chi2 closed-form tilt keeps every q_i >= 0."""
        m = float(s.probs @ s.costs)
        var = float(s.probs @ (s.costs - m) ** 2)
        return var / (2.0 * (m - float(np.min(s.costs))) ** 2)

    def ops(self, in_process: bool) -> list[Op]:
        wc, sens, wcs = self.wcs.worstcase, self.wcs.sensitivity, self.wcs
        big, mid = self.big, self.mid

        def solver(label, call, s, eps, phi=None, budgeted=False):
            return Op(label, call, lambda r: self._check_wc(r, s, eps, phi, budgeted))

        def sensitivity(label, call, reference):
            return Op(label, call, lambda r: self._check_sens(r, reference))

        chi2, kl = wcs.MODIFIED_CHI2, wcs.KL
        return [
            solver("wc_budgeted", lambda: wc.wc_budgeted(big, 0.5), big, 0.5, budgeted=True),
            solver("wc_tv", lambda: wc.wc_tv(big, 0.2), big, 0.2),
            solver("wc_combination", lambda: wc.wc_combination(big, 0.9, 0.5), big, 0.5),
            solver("wc_box_symmetric", lambda: wc.wc_box_symmetric(big, 0.5), big, 0.5),
            solver(
                "wc_chi2/closed_form",
                lambda: wc.wc_chi2(big, self.eps_chi2_open),
                big, self.eps_chi2_open, phi=chi2,
            ),
            sensitivity(
                "smooth_phi_sensitivity",
                lambda: sens.smooth_phi_sensitivity(big, chi2),
                lambda: math.sqrt(2.0 * self._ref_var()),
            ),
            sensitivity(
                "tv_sensitivity",
                lambda: sens.tv_sensitivity(big),
                lambda: 0.5 * (float(np.max(big.costs)) - float(np.min(big.costs))),
            ),
            sensitivity(
                "budgeted_sensitivity",
                lambda: sens.budgeted_sensitivity(big),
                lambda: float(big.probs @ (big.costs - np.min(big.costs))),
            ),
            sensitivity(
                "combination_sensitivity",
                lambda: sens.combination_sensitivity(big, 0.9),
                lambda: _cvar_reference(big.costs, big.probs, 0.9) - self._ref_mean(),
            ),
            sensitivity(
                "symmetric_box_sensitivity",
                lambda: sens.symmetric_box_sensitivity(big),
                lambda: _cvar_reference(big.costs, big.probs, 0.5) - self._ref_mean(),
            ),
            solver("wc_smooth_phi/kl", lambda: wc.wc_smooth_phi(mid, kl, 0.1), mid, 0.1, phi=kl),
            solver(
                "wc_chi2/clamped",
                lambda: wc.wc_chi2(mid, self.eps_chi2_clamped),
                mid, self.eps_chi2_clamped, phi=chi2,
            ),
        ]

    def _ref_mean(self) -> float:
        return float(self.big.probs @ self.big.costs)

    def _ref_var(self) -> float:
        return float(self.big.probs @ (self.big.costs - self._ref_mean()) ** 2)

    def digest(self, res):
        q = getattr(res, "worst_q", None)
        return (res.value, None if q is None else hashlib.blake2b(q.tobytes()).hexdigest())

    def _check_wc(self, res, s, eps, phi, budgeted) -> str | None:
        q, f, v = res.worst_q, s.costs, res.value
        if q.shape != f.shape:
            return f"worst_q has shape {q.shape}, scenario has {f.shape}"
        if not np.all(q >= 0.0):
            return f"negative worst-case mass {float(np.min(q))!r}"
        if abs(float(np.sum(q)) - 1.0) > 1e-9:
            return f"sum q = {float(np.sum(q))!r}"
        qf = float(q @ f)
        if not _close(qf, v, 1e-9, float(np.abs(q) @ np.abs(f))):
            return f"q.f = {qf!r} but V = {v!r}"
        tol = 1e-9 * float(np.max(np.abs(f)))
        if not float(s.probs @ f) - tol <= v <= float(np.max(f)) + tol:
            return f"V = {v!r} outside [E_p f, max f]"
        if budgeted:
            cv = self.wcs.riskstats.cvar(s, eps / (1.0 + eps))
            if not _close(v, cv, 1e-12):
                return f"budgeted V = {v!r} but cvar(s, eps/(1+eps)) = {cv!r}"
        if phi is not None:
            # the outer bisection stops at 1e-12 relative in delta
            d = phi.divergence(q, s.probs)
            if abs(d - eps) > 1e-8 * eps:
                return f"divergence(q, p) = {d!r}, eps = {eps!r}"
        return None

    def _check_sens(self, rep, reference) -> str | None:
        ref = reference()
        scale = float(np.max(np.abs(self.big.costs)))
        if not rep.value >= 0.0 or not _close(rep.value, ref, 1e-9, scale):
            return f"sensitivity {rep.value!r}, numpy reference {ref!r}"
        return None


# ---------------------------------------------------------------------------
# cli: a fixed script of `python -m wcs.cli` processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


# Closed-form calls on literal inputs and their exact output bytes.
GOLDEN = (
    (
        ["sensitivity", "--family", "tv", "--costs", "1,5,3"],
        b'{"value": 2.0, "family": "tv", "growth": "linear"}\n',
    ),
    (
        ["worst-case", "--family", "budgeted", "--eps", "0.4", "--costs", "0,10"],
        b'{"family": "budgeted", "eps": 0.4, "value": 7.000000000000001, '
        b'"q": [0.29999999999999993, 0.7000000000000001], "dual": {"slope": 5.0}, '
        b'"degenerate": false, "clamped": false}\n',
    ),
    (
        ["sensitivity", "--family", "phi", "--costs", "1,5,3"],
        b'{"value": 2.309401076758503, "family": "phi", "growth": "sqrt"}\n',
    ),
    (
        ["worst-case", "--family", "tv", "--eps", "0.5", "--costs", "1,5,3", "--probs", "0.2,0.3,0.5"],
        b'{"family": "tv", "eps": 0.5, "value": 4.1, "q": [0.0, 0.55, 0.45], '
        b'"dual": {"theta": 3.0, "lambda": 2.0}, "degenerate": false, "clamped": false}\n',
    ),
)


class Cli(Workload):
    """The only workload that pays process start-up, argparse, the CSV
    readers and JSON emit, and the only one that runs oracle, rng (through
    verify) and the logistic solver."""

    name = "cli"
    # four passes give the tail 12 samples of the three slow ops, so it
    # falls among them and not on the noisy top of the start-up cluster
    min_passes = 4
    spawns = True  # the traced run calls cli.main in-process instead
    N_COSTS = 8
    N_DEMAND = 100
    N_ROWS, N_FEATURES = 20_000, 20
    LOGREG_EPS = (0.0, 0.05)
    KL_EPS = (0.05, 0.2)
    NEWSVENDOR = ("--r", "10", "--c", "2", "--q", "0", "--s", "4")

    def __init__(self, wcs, root: Path):
        self.wcs = wcs
        self.root = root
        self.dir = root / ".bench_out" / "cli"
        self.env = child_env(root)

    def build(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cost_file = self.dir / "costs.csv"
        self.demand_file = self.dir / "demand.csv"
        self.data_file = self.dir / "classification.csv"

        costs = (10.0 * rng.standard_normal(self.N_COSTS)).tolist()
        weights = rng.exponential(1.0, self.N_COSTS) + 0.05
        probs = (weights / math.fsum(weights.tolist())).tolist()
        self.cost_file.write_text("cost,prob\n" + "".join(f"{c!r},{p!r}\n" for c, p in zip(costs, probs)))
        self.costs = self.wcs.validate(costs, probs)

        demand = rng.exponential(np.where(rng.random(self.N_DEMAND) < 0.9, 10.0, 100.0)).tolist()
        self.demand_file.write_text("demand\n" + "".join(f"{d!r}\n" for d in demand))
        self.demand = self.wcs.validate(demand)

        labels = np.where(rng.random(self.N_ROWS) < 0.5, 1.0, -1.0)
        feats = rng.standard_normal((self.N_ROWS, self.N_FEATURES))
        feats[:, 0] += 0.5 * labels
        table = np.column_stack([labels, feats, np.ones(self.N_ROWS)])
        header = "label," + ",".join(f"x{j + 1}" for j in range(self.N_FEATURES + 1))
        np.savetxt(self.data_file, table, fmt="%.17g", delimiter=",", header=header, comments="")

    def _argvs(self) -> list[tuple[list[str], Callable[[dict], str | None] | bytes]]:
        cf, seed = str(self.cost_file), str(self.seed)
        script: list = [(argv, golden) for argv, golden in GOLDEN]
        script += [
            (["sensitivity", "--family", "budgeted", "--cost-file", cf], self._budgeted_sens),
            (["sensitivity", "--family", "combo", "--alpha", "0.5", "--cost-file", cf], self._combo_sens),
            (["worst-case", "--family", "phi", "--phi", "kl", "--eps", "0.1", "--cost-file", cf], self._kl_wc),
            (["worst-case", "--family", "budgeted", "--eps", "0.3", "--cost-file", cf], self._budgeted_wc),
            (["verify", "--trials", "200", "--seed", seed], self._verify),
            (
                ["frontier", "--family", "wasserstein", "--measure", "wasserstein",
                 "--eps-list", ",".join(map(str, self.LOGREG_EPS)), "--data-file", str(self.data_file)],
                self._logreg_frontier,
            ),
            (
                ["frontier", "--family", "phi", "--phi", "kl", "--measure", "phi",
                 "--eps-list", ",".join(map(str, self.KL_EPS)), *self.NEWSVENDOR,
                 "--demand-file", str(self.demand_file)],
                self._kl_frontier,
            ),
        ]
        return script

    def ops(self, in_process: bool) -> list[Op]:
        run = self._call_main if in_process else self._spawn
        return [
            Op(" ".join(argv[:3]), lambda a=argv: run(a), lambda r, e=expect: self._check(r, e))
            for argv, expect in self._argvs()
        ]

    def _spawn(self, argv: list[str]) -> CliResult:
        proc = subprocess.run(
            [sys.executable, "-m", "wcs.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, timeout=150,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def _call_main(self, argv: list[str]) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.wcs.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return CliResult(code, out.getvalue().encode(), err.getvalue().encode())

    def digest(self, res: CliResult):
        return (res.code, res.stdout)

    def _check(self, res: CliResult, expect) -> str | None:
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr[-300:]!r}"
        if isinstance(expect, bytes):
            return None if res.stdout == expect else f"golden bytes differ: {res.stdout[:200]!r}"
        try:
            payload = json.loads(res.stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        return expect(payload)

    def _budgeted_sens(self, out: dict) -> str | None:
        want = self.wcs.sensitivity.budgeted_sensitivity(self.costs).value
        return None if out["value"] == want else f"value {out['value']!r}, library {want!r}"

    def _combo_sens(self, out: dict) -> str | None:
        want = self.wcs.sensitivity.combination_sensitivity(self.costs, 0.5).value
        return None if out["value"] == want else f"value {out['value']!r}, library {want!r}"

    def _same_worst_case(self, out: dict, res) -> str | None:
        if out["value"] != res.value or out["q"] != res.worst_q.tolist():
            return f"value {out['value']!r}, library {res.value!r}"
        return None

    def _kl_wc(self, out: dict) -> str | None:
        return self._same_worst_case(out, self.wcs.worstcase.wc_smooth_phi(self.costs, self.wcs.KL, 0.1))

    def _budgeted_wc(self, out: dict) -> str | None:
        return self._same_worst_case(out, self.wcs.worstcase.wc_budgeted(self.costs, 0.3))

    def _verify(self, out: dict) -> str | None:
        return None if out.get("passed") is True else f"verify failed: {out!r}"

    def _logreg_frontier(self, out: dict) -> str | None:
        pts = out["points"]
        if [p["eps"] for p in pts] != list(self.LOGREG_EPS):
            return f"frontier eps {[p['eps'] for p in pts]!r}"
        norms = [float(np.linalg.norm(p["decision"])) for p in pts]
        for p, nw in zip(pts, norms):
            if not _close(p["sensitivity"], nw, 1e-12):
                return f"sensitivity {p['sensitivity']!r} != ||w|| {nw!r}"
        if any(b > a + 1e-6 for a, b in zip(norms, norms[1:])):
            return f"||w|| grew along eps: {norms!r}"
        # eps = 0 is the SAA fit, which minimizes the nominal loss
        if any(p["nominal_mean"] < pts[0]["nominal_mean"] - 1e-9 for p in pts):
            return "a robust fit has lower nominal loss than the SAA fit"
        return None

    def _kl_frontier(self, out: dict) -> str | None:
        wcs = self.wcs
        params = wcs.dro.NewsvendorParams(r=10, c=2, q=0, s=4)
        top = 1.5 * float(np.max(self.demand.costs))
        pts = out["points"]
        if [p["eps"] for p in pts] != list(self.KL_EPS):
            return f"frontier eps {[p['eps'] for p in pts]!r}"
        for p in pts:
            if not 0.0 <= p["decision"] <= top:
                return f"order {p['decision']!r} outside [0, {top!r}]"
            s_x = wcs.dro.cost_scenario(params, self.demand, p["decision"])
            sens = wcs.sensitivity.smooth_phi_sensitivity(s_x, wcs.KL).value
            if p["sensitivity"] != sens or p["nominal_mean"] != wcs.riskstats.mean(s_x):
                return f"point at eps={p['eps']!r} disagrees with the library at its decision"
        return None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (Inventory, LargeN, Cli)}
