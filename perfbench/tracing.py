"""Per-layer spans, recorded from outside the package.

Each layer's public entry points are rebound, in every module that imported
them, to timing wrappers.  A wrapper keeps a stack of child time, so a span's
self time is its duration minus the spans it caused.  Spans are folded into
per-name totals as they close; per-trial functions make far too many spans
to keep one by one.  Recursive helpers (such as the CLI's JSON writer) are
timed only through their public caller: wrapping them inflates what they
measure.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

# (span name, where the name is looked up, attribute, how to record it).
# "span" times the call; "count" only counts it (too cheap and too frequent
# to time without distorting its caller).
BINDINGS = [
    ("cli.main", "spinmix.cli", "main", "span"),
    ("cli.cmd", "spinmix.cli", "cmd_rho", "span"),
    ("cli.cmd", "spinmix.cli", "cmd_pmf", "span"),
    ("cli.cmd", "spinmix.cli", "cmd_urn", "span"),
    ("cli.cmd", "spinmix.cli", "cmd_distinguish", "span"),
    ("discrimination.build_report", "spinmix.cli", "build_report", "span"),
    ("discrimination.pairwise_trace_distances", "spinmix.discrimination",
     "pairwise_trace_distances", "span"),
    ("discrimination.monte_carlo_discrimination", "spinmix.discrimination",
     "monte_carlo_discrimination", "span"),
    ("ensembles.reduced_density_matrix", "spinmix.cli", "reduced_density_matrix", "span"),
    ("ensembles.reduced_density_matrix", "spinmix.discrimination",
     "reduced_density_matrix", "span"),
    ("ensembles.binomial_pmf", "spinmix.measurement", "binomial_pmf", "span"),
    ("ensembles.binomial_pmf", "spinmix.ensembles", "binomial_pmf", "span"),
    ("measurement.exact_count_pmf", "spinmix.cli", "exact_count_pmf", "span"),
    ("measurement.exact_count_pmf", "spinmix.discrimination", "exact_count_pmf", "span"),
    ("measurement.mc", "spinmix.cli", "monte_carlo_count_pmf", "span"),
    ("measurement.trial_stream", "spinmix.measurement", "trial_stream", "span"),
    ("measurement.trial_stream", "spinmix.discrimination", "trial_stream", "span"),
    ("measurement.sample_realization", "spinmix.measurement", "sample_realization", "span"),
    ("measurement.sample_realization", "spinmix.discrimination", "sample_realization", "span"),
    ("measurement.measure_realization", "spinmix.measurement", "measure_realization", "span"),
    ("measurement.measure_realization", "spinmix.discrimination", "measure_realization", "span"),
    ("spin.transition_probability", "spinmix.measurement", "transition_probability", "count"),
    ("spin.axis_basis_matrix", "spinmix.cli", "axis_basis_matrix", "span"),
    ("linalg.hermitian_eigenvalues", "spinmix.linalg", "hermitian_eigenvalues", "span"),
    ("linalg.DensityMatrix", "spinmix.linalg", "DensityMatrix.__post_init__", "span"),
]

# Arguments recorded per call: span name -> (parameter, accumulator, how).
ARGUMENTS = {
    "linalg.hermitian_eigenvalues": ("m", "max_dim", lambda m: len(m)),
    "ensembles.reduced_density_matrix": ("k", "bytes", lambda k: 16 * 4**k),
    "measurement.mc": ("trials", "trials", int),
    "discrimination.monte_carlo_discrimination": ("trials", "trials", int),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.extra: defaultdict = defaultdict(int)
        self.found: set[str] = set()
        self._children: list[float] = []

    def span(self, name: str, fn):
        children = self._children
        recorded = ARGUMENTS.get(name)
        signature = inspect.signature(fn) if recorded else None

        def timed(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                dt = perf_counter() - t0
                own = dt - children.pop()
                if children:
                    children[-1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_s[name] += own
                if recorded:
                    self._record(name, recorded, signature, args, kwargs)
            if name == "cli.cmd":
                self.extra["cli.output_bytes"] += len(result)
            return result

        return timed

    def _record(self, name, recorded, signature, args, kwargs) -> None:
        param, key, how = recorded
        value = signature.bind(*args, **kwargs).arguments.get(param)
        if value is None:
            return
        value = how(value)
        metric = f"{name}.{key}"
        if key.startswith("max_"):
            self.extra[metric] = max(self.extra[metric], value)
        else:
            self.extra[metric] += value

    def count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Rebind every entry point for the duration of the block."""
        undo = []
        try:
            for name, module, path, how in BINDINGS:
                *parents, attr = path.split(".")
                try:
                    owner = importlib.import_module(module)
                    for p in parents:
                        owner = getattr(owner, p)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                self.found.add(name)
                wrapper = self.span(name, fn) if how == "span" else self.count(name, fn)
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def observed(self, name: str) -> bool:
        return name in self.found


def per_layer(tracer: Tracer, mc_trials: int, untraced: dict, traced: dict,
              workers2_speedup) -> dict:
    """Every per-layer metric; a name the package no longer has is None.
    `untraced` and `traced` summarize the same ops run both ways."""
    t = tracer
    out: dict = {}

    def put(metric, value, unit, *names):
        out[metric] = (value if all(t.observed(n) for n in names) else None, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    for name in ("linalg.hermitian_eigenvalues", "ensembles.reduced_density_matrix",
                 "ensembles.binomial_pmf", "measurement.exact_count_pmf",
                 "measurement.trial_stream", "spin.transition_probability",
                 "spin.axis_basis_matrix", "linalg.DensityMatrix"):
        put(f"{name}.calls", t.calls[name], "count", name)
    for name in ("linalg.hermitian_eigenvalues", "linalg.DensityMatrix",
                 "ensembles.reduced_density_matrix", "measurement.exact_count_pmf",
                 "measurement.mc", "measurement.trial_stream", "measurement.sample_realization",
                 "measurement.measure_realization", "spin.axis_basis_matrix",
                 "discrimination.pairwise_trace_distances",
                 "discrimination.monte_carlo_discrimination", "discrimination.build_report",
                 "cli.cmd", "cli.main"):
        put(f"{name}.self_s", t.self_s[name], "s", name)
    for name in ("ensembles.binomial_pmf", "measurement.exact_count_pmf"):
        put(f"{name}.failed", t.failed[name], "count", name)
    for name, (_, key, _) in ARGUMENTS.items():
        metric = f"{name}.{key}"
        put(metric, t.extra[metric], "B" if key == "bytes" else "count", name)

    mc, disc = "measurement.mc", "discrimination.monte_carlo_discrimination"
    put(f"{mc}.trials_per_s", ratio(t.extra[f"{mc}.trials"], t.total[mc]), "1/s", mc)
    put("measurement.streams_per_trial", ratio(t.calls["measurement.trial_stream"], mc_trials),
        "ratio", "measurement.trial_stream")
    put("spin.transition_probability.calls_per_trial",
        ratio(t.calls["spin.transition_probability"], mc_trials), "ratio",
        "spin.transition_probability")
    out[f"{mc}.workers2_speedup"] = (workers2_speedup, "ratio")
    put("discrimination.monte_carlo_discrimination.trials_per_s",
        ratio(t.extra[f"{disc}.trials"], t.total[disc]), "1/s", disc)

    put("cli.output_bytes", t.extra["cli.output_bytes"], "B", "cli.cmd")
    put("cli.output_mb_per_s", ratio(t.extra["cli.output_bytes"] / 1e6, t.self_s["cli.cmd"]),
        "MB/s", "cli.cmd")
    before, after = untraced["summed_op_s"], traced["summed_op_s"]
    out["trace.summed_op_s_untraced"] = (before, "s")
    out["trace.summed_op_s_traced"] = (after, "s")
    out["trace.overhead_pct"] = (100.0 * ratio(after - before, before), "%")
    out["trace.op_s_p50_untraced"] = (untraced["op_s_p50"], "s")
    out["trace.op_s_p50_traced"] = (traced["op_s_p50"], "s")
    return out
