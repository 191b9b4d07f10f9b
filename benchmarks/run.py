"""Benchmark for the wcs toolkit.

    python3 benchmarks/run.py --workload {inventory,large_n,cli} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it finds the package in ``src/`` next to this
directory and needs nothing installed. Every workload is closed loop with
one caller: the next op starts only after the previous one returns.

``--trace 0`` measures the end-to-end metrics: passes over the workload's
op list are repeated for about ``--seconds`` seconds (at least the
workload's ``min_passes``). The process and its children are pinned to one
CPU, and every timing is scaled to a reference speed (see
``ReferenceClock``). ``--trace 1`` alternates untraced passes with two
passes in which every public wcs function is wrapped in a span, and reports
per-layer counts and self times; its exact counts must repeat between the
two traced passes.

Outputs are checked for correctness as they arrive. The last line of
stdout is one JSON object with keys correct, attempted, failed and metrics;
the lines before it are a readable report. A copy of the report, with the
environment record, goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in every child process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
TRACED_PASSES = 2
TAIL_BEYOND = 10


def load_wcs():
    """Import wcs from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wcs

        for layer in LAYERS:
            importlib.import_module(f"wcs.{layer}")
    except ImportError as exc:
        sys.stderr.write(f"cannot import wcs from {src}: {exc}\n")
        sys.exit(2)
    if not Path(wcs.__file__).resolve().is_relative_to(src.resolve()):
        sys.stderr.write(f"imported wcs from {wcs.__file__}, not from {src}\n")
        sys.exit(2)
    return wcs


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind in ("Data", "Unified"):
                sizes[f"L{level}" + ("d" if kind == "Data" else "")] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "git_commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# set-up and the closed loop
# ---------------------------------------------------------------------------


class ReferenceClock:
    """Wall time rescaled to a fixed reference speed of the machine.

    On a shared host one vCPU's speed drifts by tens of percent within
    seconds: the same inventory solve has taken 0.6 s and 1.1 s in
    consecutive passes, and run medians swung by over 20% between seeds.
    That swamps any change worth measuring. So a fixed kernel of
    interpreter and numpy work runs right before and right after each timed
    interval, and the interval is scaled by REFERENCE_S over the mean kernel
    time around it. Each kernel time is the median of three short runs, so
    a brief stall during one run does not skew an op. Both values are kept;
    the metrics use the scaled one.
    """

    REFERENCE_S = 0.005  # about the kernel's time on a quiet 2-core Xeon VM

    def __init__(self):
        self._data = np.random.default_rng(0).random(100_000)

    def kernel(self) -> float:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0.0
            for i in range(35_000):
                acc += i * 0.5
            for _ in range(3):
                np.sort(self._data)
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)

    def measure(self, fn):
        """Run fn() between two kernels; return (result, wall s, scaled s)."""
        before = self.kernel()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = self.kernel()
        return result, wall, wall * self.REFERENCE_S / (0.5 * (before + after))


def measure_setup(workload, seed: int, clock: ReferenceClock) -> float:
    """Median import time of wcs in a fresh interpreter plus median build time."""
    probe = "import time; t = time.perf_counter(); import wcs; print(time.perf_counter() - t)"
    imports, builds = [], []

    def import_wcs():
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(ROOT), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(proc.stdout)

    for _ in range(SETUP_REPEATS):
        inner, wall, scaled = clock.measure(import_wcs)
        imports.append(inner * scaled / wall)
        builds.append(clock.measure(lambda: workload.build(seed))[2])
    return statistics.median(imports) + statistics.median(builds)


class Ledger:
    """Per-op verdicts: the first result is checked in full, later ones must
    reproduce its digest exactly."""

    def __init__(self, workload):
        self.workload = workload
        self.digests: dict[int, object] = {}
        self.verdicts: dict[int, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, i: int, op, result, error: str | None) -> str | None:
        if error is not None:
            return error
        try:
            digest = self.workload.digest(result)
            if i not in self.digests:
                self.digests[i] = digest
                self.verdicts[i] = op.check(result)
                return self.verdicts[i]
        except Exception:
            return "check raised:\n" + traceback.format_exc()
        if digest != self.digests[i]:
            return "output differs from the first pass"
        return self.verdicts[i]

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")


class Pass(NamedTuple):
    scaled: list[float]  # per-op latency at the reference speed
    wall: list[float]  # per-op wall time


def _call(op):
    try:
        return op.call(), None
    except Exception:
        return None, "raised:\n" + traceback.format_exc()


def run_pass(ops, ledger: Ledger, clock: ReferenceClock, tracer: Tracer | None = None, op_base: int = 0) -> Pass:
    timed = Pass([], [])
    results, problems = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_base + i
        (result, error), wall, scaled = clock.measure(lambda: _call(op))
        if tracer is not None:
            tracer.op = -1
        timed.scaled.append(scaled)
        timed.wall.append(wall)
        results.append(result)
        problems.append(ledger.judge(i, op, result, error))
    for i, problem in ledger.workload.check_pass(results).items():
        problems[i] = problems[i] or problem
    for op, problem in zip(ops, problems):
        ledger.record(op.label, problem)
    return timed


def run_untraced(workload, ops, ledger: Ledger, clock: ReferenceClock, seconds: float) -> list[Pass]:
    passes: list[Pass] = []
    start = time.perf_counter()
    last = 0.0
    while len(passes) < workload.min_passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, ledger, clock))
        last = time.perf_counter() - t0
    return passes


def tail_percentile(workload, n_ops: int) -> int:
    """Highest whole percentile leaving TAIL_BEYOND samples above it in a
    run of min_passes passes; fixed per workload so runs compare."""
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / (workload.min_passes * n_ops)))


def nearest_rank(values: list[float], pct: int) -> tuple[float, int]:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, setup_s: float, passes: list[Pass], ledger: Ledger):
    n_ops = len(passes[0].scaled)
    lat = [x for p in passes for x in p.scaled]
    pct = tail_percentile(workload, n_ops)
    tail, beyond = nearest_rank(lat, pct)
    wall = statistics.median(sum(p.wall) for p in passes)
    # each op's median over passes first: the fast and slow ops of a workload
    # form clusters, and a median over raw samples at their edge would pick
    # up single outliers
    per_op = [statistics.median(p.scaled[i] for p in passes) for i in range(n_ops)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(sum(p.scaled) for p in passes), "s"),
        "ops_per_s": ((ledger.attempted - ledger.failed) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    notes = {
        "op_tail_s": f"p{pct}, {beyond} of {len(lat)} samples beyond",
        "pass_s": f"median of {len(passes)} passes of {len(passes[0].scaled)} ops; wall {wall:.4g} s",
        "failed_ratio": f"{ledger.failed} / {ledger.attempted}",
    }
    shown = dict(metrics, failed_ratio=(ledger.failed / ledger.attempted, "ratio"))
    return metrics, shown, notes


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------


def _is(name):
    return lambda n: n == name


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, kept: dict, labels: list[str]) -> tuple[dict, dict]:
    """Counts, self times and ratios of one traced pass, with ratio bases."""
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        in_layer = lambda n, p=layer + ".": n.startswith(p)  # noqa: E731
        m[f"{layer}.calls"] = (spans.count(in_layer), "count")
        m[f"{layer}.self_s"] = (spans.self_s(in_layer), "s")
        m[f"{layer}.errors"] = (spans.errors(in_layer), "count")
    for fn in ("core.validate", "core.sort_desc", "core.PhiFunction.divergence",
               "worstcase.wc_smooth_phi", "dro.dro_newsvendor"):
        m[f"{fn}.calls"] = (spans.count(_is(fn)), "count")
    for fn in ("core.validate", "core.sort_desc",
               "riskstats.mean", "riskstats.variance", "riskstats.cvar", "riskstats.cvar_distribution",
               "worstcase.wc_budgeted", "worstcase.budgeted_slope", "worstcase.wc_chi2",
               "worstcase.wc_smooth_phi", "worstcase.wc_tv", "worstcase.wc_wasserstein_pl",
               "dro.dro_newsvendor", "dro.cost_scenario", "dro.logreg_wasserstein", "dro.logreg_saa",
               "oracle.deviation_axioms", "oracle.fd_sensitivity", "cli.main"):
        m[f"{fn}.self_s"] = (spans.self_s(_is(fn)), "s")

    bases = {}
    solves = spans.count(_is("dro.dro_newsvendor"))
    is_eval = spans.mask(lambda n: n in ("worstcase.worst_case", "worstcase.wc_wasserstein_pl"))
    is_eval &= spans.under(_is("dro.dro_newsvendor"))
    evals = int(np.count_nonzero(is_eval))
    by_op = np.bincount(spans.ops[is_eval] % len(labels), minlength=len(labels))
    m["dro.evals_per_solve"] = (_ratio(evals, solves), "ratio")
    bases["dro.evals_per_solve"] = (
        f"{evals} worst_case + wc_wasserstein_pl calls under {solves} dro_newsvendor calls; by op: "
        + ", ".join(f"{label} {count}" for label, count in zip(labels, by_op.tolist()) if count)
    )

    is_wc = lambda n: n.startswith("worstcase.wc_")  # noqa: E731
    under_wc = spans.under(is_wc)
    sorts = spans.count(_is("core.sort_desc"), where=under_wc)
    outer = spans.count(is_wc, where=~under_wc)
    m["worstcase.sorts_per_call"] = (_ratio(sorts, outer), "ratio")
    bases["worstcase.sorts_per_call"] = f"{sorts} sort_desc calls under {outer} outermost wc_* calls"
    under_b = spans.under(_is("worstcase.wc_budgeted"))
    b_sorts, b_calls = spans.count(_is("core.sort_desc"), where=under_b), spans.count(_is("worstcase.wc_budgeted"))
    m["worstcase.wc_budgeted.sorts_per_call"] = (_ratio(b_sorts, b_calls), "ratio")
    bases["worstcase.wc_budgeted.sorts_per_call"] = f"{b_sorts} sort_desc calls under {b_calls} wc_budgeted calls"

    divs, phi = spans.count(_is("core.PhiFunction.divergence")), spans.count(_is("worstcase.wc_smooth_phi"))
    m["worstcase.divergence_evals_per_phi_solve"] = (_ratio(divs, phi), "ratio")
    bases["worstcase.divergence_evals_per_phi_solve"] = f"{divs} divergence calls / {phi} wc_smooth_phi calls"

    fits = [r for r in kept["dro.logreg_saa"]] + [r[0] for r in kept["dro.logreg_wasserstein"]]
    unique = [f for k, f in enumerate(fits) if not any(f is g for g in fits[:k])]
    iters = sum(f.iterations for f in unique)
    m["dro.logreg_iterations"] = (iters, "count")
    bases["dro.logreg_iterations"] = f"summed over {len(unique)} distinct LogregFit results"
    return m, bases


EXACT_SUFFIXES = (".calls", ".errors", "evals_per_solve", "sorts_per_call", "per_phi_solve", "logreg_iterations")


def run_traced(wcs, workload, ledger: Ledger):
    """Untraced and traced passes alternate, so drift hits both alike."""
    clock = ReferenceClock()
    spawned = workload.ops(in_process=False)
    base = run_pass(spawned, ledger, clock).scaled
    in_process = workload.ops(in_process=True)
    first_in_process = run_pass(in_process, ledger, clock).scaled if workload.spawns else base
    untraced, walls, per_pass, last = [sum(first_in_process)], [], [], None
    tracer = Tracer(wcs)
    for k in range(TRACED_PASSES):
        if k:
            untraced.append(sum(run_pass(in_process, ledger, clock).scaled))
        tracer.clear()
        tracer.install()
        try:
            walls.append(sum(run_pass(in_process, ledger, clock, tracer, op_base=k * len(in_process)).scaled))
        finally:
            tracer.restore()
        last = tracer.spans()
        per_pass.append(layer_metrics(last, tracer.kept, [op.label for op in in_process]))

    (first, bases), (second, _) = per_pass[0], per_pass[1]
    for name, (value, _unit) in first.items():
        if name.endswith(EXACT_SUFFIXES) and value != second[name][0]:
            ledger.problems.append(f"exact counter {name} changed between traced passes: {value} vs {second[name][0]}")
    metrics = {
        name: (value if name.endswith(EXACT_SUFFIXES) else statistics.median([value, second[name][0]]), unit)
        for name, (value, unit) in first.items()
    }
    overhead = [s - i for s, i in zip(base, first_in_process)] if workload.spawns else [0.0]
    metrics["cli.process_overhead_s"] = (statistics.median(overhead), "s")
    traced_s, untraced_s = statistics.median(walls), statistics.median(untraced)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    bases["trace.overhead_ratio"] = f"median traced pass {traced_s:.3f} s / untraced {untraced_s:.3f} s"
    bases["spans"] = f"{len(last)} spans in the last traced pass"
    OUT.mkdir(exist_ok=True)
    last.save(OUT / f"{workload.name}.spans.npz")
    return metrics, bases


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one CPU for this process and its children, so the reference kernel
    # runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wcs = load_wcs()
    workload = WORKLOADS[args.workload](wcs, ROOT)
    env = environment(args)
    print("# environment " + json.dumps(env, sort_keys=True))
    ledger = Ledger(workload)

    latencies = {}
    if args.trace:
        workload.build(args.seed)
        metrics, notes = run_traced(wcs, workload, ledger)
        shown = metrics
    else:
        clock = ReferenceClock()
        setup_s = measure_setup(workload, args.seed, clock)
        ops = workload.ops(in_process=False)
        passes = run_untraced(workload, ops, ledger, clock, args.seconds)
        metrics, shown, notes = end_to_end(workload, setup_s, passes, ledger)
        latencies = {
            op.label: {"scaled": [p.scaled[i] for p in passes], "wall": [p.wall[i] for p in passes]}
            for i, op in enumerate(ops)
        }
    ledger.problems += workload.check_run()

    for name, (value, unit) in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:<10} {name:<44} {value:>16.6g} {unit}{note}")
    for name, note in notes.items():
        if name not in shown:
            print(f"{args.workload:<10} {name:<44} {note}")
    for problem in ledger.problems:
        print(f"# problem: {problem}")

    correct = not ledger.problems
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    report = dict(result, environment=env, notes=notes, problems=ledger.problems, op_latencies_s=latencies)
    suffix = ".trace" if args.trace else ""
    (OUT / f"{args.workload}{suffix}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
