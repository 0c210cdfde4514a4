"""Spans around paretocoal's public calls, installed from outside.

`install()` replaces each traced function or method by a wrapper that
records a span (name, start, end, parent span, work count). The wrapper is
put in every paretocoal namespace that holds the original object, so calls
inside the package (e.g. `regression` calling `estimate_c_N_conditional`,
`rates` calling `rate_row`) are traced too. The special functions are only
replaced in `rates`, so `specfun` spans are the ones made from there.
Spans stay in memory; `Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name, work count taken from the result)
TRACED = (
    ("finite_mc", "estimate_p_row", "finite_mc.estimate_p_row", None),
    ("finite_mc", "estimate_c_N_conditional", "finite_mc.estimate_c_N_conditional", None),
    ("finite_mc", "run_discrete_coalescent", "finite_mc.run_discrete_coalescent", lambda out: out.steps),
    ("finite_mc", "PartitionModel.draw", "finite_mc.PartitionModel.draw", lambda out: out.size),
    ("weighted", "RatioAccumulator.add", "weighted.RatioAccumulator.add", None),
    ("weighted", "RatioAccumulator.estimates", "weighted.RatioAccumulator.estimates", None),
    ("regression", "fit_c_N_scaling", "regression.fit_c_N_scaling", None),
    ("rates", "comes_down_diagnostic", "rates.comes_down_diagnostic", None),
    ("rates", "build_rate_table", "rates.build_rate_table", None),
    ("rates", "rate_row", "rates.rate_row", lambda out: out.size),
    ("rates", "xi_transition_matrix", "rates.xi_transition_matrix", None),
    ("rates", "stirling_case_matrix", "rates.stirling_case_matrix", None),
    ("simulate", "simulate_lambda", "simulate.simulate_lambda", lambda out: out[1].collisions),
    ("simulate", "simulate_xi", "simulate.simulate_xi", lambda out: out[1].steps),
    ("simulate", "functional_scaling_report", "simulate.functional_scaling_report", None),
    ("forward", "trajectory", "forward.trajectory", lambda out: len(out) - 1),
    ("forward", "speed_estimate", "forward.speed_estimate", None),
    ("forward", "increments", "forward.increments", lambda out: out.size),
    ("cli", "main", "cli.main", None),
)
# specfun names as `rates` imports them; replaced in `rates` only.
SPECFUN_IN_RATES = ("log_gamma", "log_beta", "log_binomial")

# Per-layer metrics, in BENCHMARK.json order: name -> unit.
LAYER_UNITS = {
    "finite_mc.p_row.self_s": "s",
    "finite_mc.c_N.self_s": "s",
    "finite_mc.draw.self_s": "s",
    "finite_mc.ns_per_element": "ns",
    "finite_mc.discrete.us_per_step": "us",
    "weighted.add.self_s": "s",
    "weighted.ess_ratio": "1",
    "regression.fit.self_s": "s",
    "specfun.self_s": "s",
    "rates.rate_row.calls": "count",
    "rates.rate_row.self_s": "s",
    "rates.comes_down_s": "s",
    "simulate.lambda.us_per_event": "us",
    "simulate.row_doubles": "count",
    "simulate.report_s": "s",
    "rates.xi_matrix_s": "s",
    "simulate.xi.us_per_step": "us",
    "forward.us_per_generation": "us",
    "forward.speed.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

_SIMULATE_ROOTS = (
    "simulate.simulate_lambda",
    "simulate.simulate_xi",
    "simulate.functional_scaling_report",
)


class Tracer:
    """In-memory span list; each span is [name, start, end, parent, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if count is not None:
                rec[4] = count(out)
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "count"],
                 "spans": self.spans},
                fh,
            )


def install() -> Tracer:
    """Wrap every TRACED callable in the imported paretocoal package."""
    import paretocoal

    tracer = Tracer()
    modules = [paretocoal] + [
        importlib.import_module(f"paretocoal.{m}")
        for m in ("cli", "finite_mc", "forward", "rates", "regression",
                  "samplers", "simulate", "specfun", "weighted")
    ]
    for mod_name, attr, span_name, count in TRACED:
        mod = importlib.import_module(f"paretocoal.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(span_name, getattr(cls, meth), count))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(span_name, orig, count)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
    rates = importlib.import_module("paretocoal.rates")
    for attr in SPECFUN_IN_RATES:
        setattr(rates, attr, tracer.wrap(f"specfun.{attr}", getattr(rates, attr)))
    return tracer


def layer_metrics(spans, rounds: int) -> tuple[dict, dict]:
    """Per-layer figures per round, plus the bases of the ratios.

    Self time is a span's duration minus the durations of its direct
    children (children nest inside their parent, so they never overlap).
    """
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)      # inclusive seconds per span name
    self_s = defaultdict(float)     # self seconds per span name
    counts = defaultdict(int)       # summed work counts per span name
    calls = defaultdict(int)
    kernel_elements = 0
    sim_doubles = 0
    for k, (name, start, end, parent, count) in enumerate(spans):
        dur = end - start
        total[name] += dur
        self_s[name] += dur - child[k]
        counts[name] += count
        calls[name] += 1
        if name == "finite_mc.PartitionModel.draw" and _has_ancestor(
            spans, parent, ("finite_mc.estimate_p_row", "finite_mc.estimate_c_N_conditional")
        ):
            kernel_elements += count
        elif name == "rates.rate_row" and _has_ancestor(spans, parent, _SIMULATE_ROOTS):
            sim_doubles += count

    def ratio(num, den, scale):
        return scale * num / den if den else 0.0

    kernel_s = total["finite_mc.estimate_p_row"] + total["finite_mc.estimate_c_N_conditional"]
    r = max(rounds, 1)
    metrics = {
        "finite_mc.p_row.self_s": self_s["finite_mc.estimate_p_row"] / r,
        "finite_mc.c_N.self_s": self_s["finite_mc.estimate_c_N_conditional"] / r,
        "finite_mc.draw.self_s": self_s["finite_mc.PartitionModel.draw"] / r,
        "finite_mc.ns_per_element": ratio(kernel_s, kernel_elements, 1e9),
        "finite_mc.discrete.us_per_step": ratio(
            total["finite_mc.run_discrete_coalescent"],
            counts["finite_mc.run_discrete_coalescent"], 1e6),
        "weighted.add.self_s": self_s["weighted.RatioAccumulator.add"] / r,
        "regression.fit.self_s": self_s["regression.fit_c_N_scaling"] / r,
        "specfun.self_s": sum(self_s[f"specfun.{a}"] for a in SPECFUN_IN_RATES) / r,
        "rates.rate_row.calls": calls["rates.rate_row"] / r,
        "rates.rate_row.self_s": self_s["rates.rate_row"] / r,
        "rates.comes_down_s": total["rates.comes_down_diagnostic"] / r,
        "simulate.lambda.us_per_event": ratio(
            self_s["simulate.simulate_lambda"], counts["simulate.simulate_lambda"], 1e6),
        "simulate.row_doubles": sim_doubles / r,
        "simulate.report_s": total["simulate.functional_scaling_report"] / r,
        "rates.xi_matrix_s": (total["rates.xi_transition_matrix"]
                              + total["rates.stirling_case_matrix"]) / r,
        "simulate.xi.us_per_step": ratio(
            total["simulate.simulate_xi"], counts["simulate.simulate_xi"], 1e6),
        "forward.us_per_generation": ratio(
            total["forward.trajectory"], counts["forward.trajectory"], 1e6),
        "forward.speed.self_s": self_s["forward.speed_estimate"] / r,
        "cli.self_s": self_s["cli.main"] / r,
    }
    bases = {
        "kernel_s": kernel_s / r,
        "kernel_elements": kernel_elements / r,
        "discrete_steps": counts["finite_mc.run_discrete_coalescent"] / r,
        "lambda_events": counts["simulate.simulate_lambda"] / r,
        "xi_steps": counts["simulate.simulate_xi"] / r,
        "forward_generations": counts["forward.trajectory"] / r,
        "top_level_s": sum(e - s for _, s, e, p, _ in spans if p < 0) / r,
    }
    return metrics, bases


def _has_ancestor(spans, k, names) -> bool:
    while k >= 0:
        if spans[k][0] in names:
            return True
        k = spans[k][3]
    return False
