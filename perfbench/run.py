#!/usr/bin/env python3
"""spinmix benchmark: one workload, one client, closed loop.

Each op is a call of ``spinmix.cli.main(argv)`` in this process with stdout
captured; the next op starts when the previous one has returned and its
output has been checked against closed forms.  Ops run in whole passes of
stratified rounds, as many passes as fit ``--seconds`` of summed op time
best (at least one).

    python3 perfbench/run.py --workload exact_distances --seed 1 --seconds 20 --trace 0

Prints a report line (provenance, tail percentile, failures) and, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 1`` every op runs twice in a row, untraced and then with every
layer's entry points rebound to timing wrappers, and the metrics are the
per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import inspect
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from tracing import Tracer, per_layer
from workloads import CAP_S, PASS_ROUNDS, ROUNDS, CheckError, probe_op, round_rng

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15
# Op times are scaled to a machine on which reference_seconds() takes this long
# (about its median on the 2-vCPU reference machine).
REFERENCE_NOMINAL_S = 0.003
CONCURRENCY = (
    "one client in a closed loop; ops run one at a time in this process and start no "
    "threads or processes; effectively single-threaded, since the Jacobi solver and the "
    "Monte Carlo sampler are pure Python (BLAS threads only inside numpy calls)"
)


@dataclass(frozen=True)
class OpResult:
    kind: str
    seconds: float
    error: str | None
    wrong: str | None
    trials: int
    reference_s: float

    @property
    def ok(self) -> bool:
        return self.error is None and self.wrong is None


def reference_seconds() -> float:
    """Time of a fixed mix of interpreter-bound work: a pure-Python loop and
    small numpy slice updates, the two kinds of work spinmix's hot loops do.
    The host's speed drifts by up to 2x over minutes; op time over this
    reference drifts by a third as much or less."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        s = 0
        for i in range(25_000):
            s += i * i
        a = np.zeros((64, 64))
        for p in range(300):
            x, y = a[:, p % 64].copy(), a[:, (p + 1) % 64].copy()
            a[:, p % 64] = 0.6 * x - 0.8 * y
        best = min(best, perf_counter() - t0)
    return best


def run_op(cli, op) -> tuple[OpResult, str]:
    # Every op starts from an empty collector, as it would in a fresh CLI
    # process, so collections fall at the same points of the op every time.
    gc.collect()
    before = reference_seconds()
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(op.argv)
        if status != 0:
            error = f"exit status {status}: {err.getvalue().strip()[:200]}"
    except SystemExit as exc:
        error = f"SystemExit({exc.code!r}): {err.getvalue().strip()[:200]}"
    except Exception as exc:  # the op boundary: record and go on
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    reference = (before + reference_seconds()) / 2
    text = out.getvalue()
    wrong = None
    if error is None:
        try:
            op.check(text)
        except CheckError as exc:
            wrong = str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            wrong = f"malformed output: {exc!r}"
    return OpResult(op.kind, seconds, error, wrong, op.trials, reference), text


def run_passes(cli, workload: str, seed: int, budget: float, tracer: Tracer | None = None):
    """Whole passes, as many as fit `budget` seconds of summed op time best.

    A pass is PASS_ROUNDS[workload] stratified rounds, so every pass runs the
    same multiset of ops and its percentiles rank the same op kinds.  With a
    tracer, every op runs a second time right after the first, with the
    tracer installed, so both runs see the same machine state."""
    untraced: list[list[OpResult]] = []
    traced: list[list[OpResult]] = []
    busy, r = 0.0, 0
    while not untraced or busy + busy / len(untraced) / 2 < budget:
        untraced.append([])
        traced.append([])
        for _ in range(PASS_ROUNDS[workload]):
            for op in ROUNDS[workload](round_rng(seed, r), r):
                res, _ = run_op(cli, op)
                untraced[-1].append(res)
                busy += res.seconds
                if tracer is not None:
                    with tracer.installed():
                        traced[-1].append(run_op(cli, op)[0])
            r += 1
    return untraced, traced


def raw_seconds(r: OpResult) -> float:
    return r.seconds


def scaled_seconds(r: OpResult) -> float:
    """Op time at the nominal machine speed."""
    return r.seconds * REFERENCE_NOMINAL_S / r.reference_s


def summarize(passes: list[list[OpResult]], cap: float, time_of=scaled_seconds) -> dict:
    """Latency percentiles charge a failed op its time plus the cap; they are
    taken per pass, and the median over passes is reported."""
    p50s, tails = [], []
    for results in passes:
        charged = sorted(time_of(r) + (0.0 if r.ok else cap) for r in results)
        p50s.append(statistics.median(charged))
        tails.append(charged[max(0, len(charged) - 11)])  # ten samples above it
    n = len(passes[0])
    flat = [r for results in passes for r in results]
    ok = sum(r.ok for r in flat)
    busy = sum(time_of(r) for r in flat)
    return {
        "passes": len(passes),
        "ops": len(flat),
        "op_s_p50": statistics.median(p50s),
        "op_s_tail": statistics.median(tails),
        "op_s_tail_percentile": 100.0 * max(1, n - 10) / n,
        "op_s_tail_samples": n,
        "ops_per_s": ok / busy,
        "success_rate": ok / len(flat),
        "error_rate": 1 - ok / len(flat),
        "trials_per_s": sum(r.trials for r in flat if r.ok) / busy,
        "summed_op_s": busy,
        "reference_s_median": statistics.median(r.reference_s for r in flat),
    }


def setup_seconds() -> float:
    """Median wall time of fresh interpreters that import spinmix.cli and
    build its parser.  The first, unrecorded run fills the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import spinmix.cli as c; c.build_parser()"]
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times[1:])


def determinism_probe(cli, seed: int) -> dict:
    """Replay one seeded Monte Carlo op; its output must repeat byte for byte."""
    op = probe_op(random.Random(seed))
    first, text1 = run_op(cli, op)
    second, text2 = run_op(cli, op)
    problem = first.error or first.wrong or second.error or second.wrong
    if problem is None and text1 != text2:
        problem = "output differs between replays"
    return {"argv": op.argv, "bytes": len(text1), "ok": problem is None, "problem": problem}


def workers2_speedup():
    """run_experiments time at workers=1 over workers=2, while it takes workers."""
    from spinmix import ensembles, measurement, spin

    fn = getattr(measurement, "run_experiments", None)
    if fn is None or "workers" not in inspect.signature(fn).parameters:
        return None
    spec = ensembles.parse_ensemble("S", 10)

    def median_time(workers):
        times = []
        for _ in range(3):
            t0 = perf_counter()
            fn(spec, spin.Z_AXIS, 3000, 11, workers=workers)
            times.append(perf_counter() - t0)
        return statistics.median(times)

    return median_time(1) / median_time(2)


# ------------------------------------------------------------ provenance


def blas_threads():
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def cache_sizes() -> dict:
    def read(index, name):
        with open(os.path.join(index, name)) as f:
            return f.read().strip()

    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            sizes[f"L{read(index, 'level')} {read(index, 'type')}"] = read(index, "size")
        except OSError:
            continue
    return sizes


def git_commit():
    """HEAD of the checkout, read from .git when there is one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "caches": cache_sizes(),
        "git_commit": git_commit(),
        "concurrency": CONCURRENCY,
    }


# ------------------------------------------------------------------ main


END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinmix", "cli.py")):
        print(f"error: no spinmix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spinmix.cli as cli

    cap = CAP_S[args.workload]
    setup = setup_seconds() if not args.trace else None
    probe = determinism_probe(cli, args.seed)
    for warm in (["rho", "--k", "2"], ["distinguish", "--a", "A", "--b", "B", "--kmax", "2"]):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(warm)

    tracer = Tracer() if args.trace else None
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, traced = run_passes(cli, args.workload, args.seed, budget, tracer)
    summary = summarize(passes, cap)
    report = {"provenance": provenance(args.workload, args.seed), "cap_s": cap,
              "reference_nominal_s": REFERENCE_NOMINAL_S, "determinism_probe": probe,
              "untraced": summary, "untraced_raw": summarize(passes, cap, raw_seconds)}
    if tracer is not None:
        report["traced"] = summarize(traced, cap)
        trials = sum(r.trials for results in traced for r in results)
        layers = per_layer(tracer, trials, summary, report["traced"], workers2_speedup())
        report["not_observed"] = sorted(k for k, (v, _) in layers.items() if v is None)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        values = dict(summary, setup_s=setup,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    attempted = [r for results in passes + traced for r in results]

    report["failures"] = Counter(f"{r.kind}: {r.error or r.wrong}" for r in attempted if not r.ok)
    wrong = [r for r in attempted if r.wrong is not None]
    print(json.dumps(report))
    print(json.dumps({
        "correct": probe["ok"] and not wrong,
        "attempted": len(attempted),
        "failed": sum(not r.ok for r in attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
