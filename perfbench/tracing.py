"""Spans around the public calls into each layer, and the layer metrics they give.

The tracer replaces each traced function by a wrapper on its module, so it
sees every call made through the module attribute.  Calls made through a
name bound elsewhere escape it and land in the caller's self time:
``riccati_variance`` imported by name in ``bank_partial`` and ``simulate``,
``log_likelihood`` imported by name in ``calibrate``, and the perturbed
solves ``bank_partial.elasticity`` makes through its default argument
``solver=penalty_solve`` (those are counted from the configuration).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import asdict, dataclass, field

from sc_control import bank_full, bank_partial, calibrate, cli, filtering, retire, simulate


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _partial_counts(fn, args, kwargs, sol):
    return {"iterations": sol.iterations, "line_sup_error": sol.line_sup_error}


def _retire_counts(fn, args, kwargs, sol):
    return {"steps": sol.iterations, "residual": sol.residual}


def _bank_paths(fn, args, kwargs, bundle):
    return {"path_steps": (bundle.times.size - 1) * bundle.true_equity.shape[0]}


def _retire_paths(fn, args, kwargs, stats):
    a = _args(fn, args, kwargs)
    # shocks are drawn for all paths on every step until the time cap,
    # but only paths still working are advanced
    return {"path_steps": sum(s.expected_time * s.n_paths / a["dt"] for s in stats),
            "path_steps_drawn": 2 * a["n_paths"] * simulate.RETIRE_TIME_CAP / a["dt"]}


def _particles(fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    n = a["cfg"].n_particles
    return {"particle_steps": (len(a["series"]) - 1) * n,
            "n_resamples": result["n_resamples"],
            "ess_frac": result["effective_size"] / n}


def _filter_steps(fn, args, kwargs, states):
    return {"steps": len(states)}


# (module, function, counts taken from the call's arguments and result)
TRACED = (
    (cli, "run", None),
    (filtering, "filter_series", _filter_steps),
    (filtering, "log_likelihood", None),
    (calibrate, "estimate_theta", _particles),
    (bank_full, "solve_barriers", None),
    (bank_partial, "penalty_solve", _partial_counts),
    (bank_partial, "elasticity", None),
    (retire, "penalty_solve_retire", _retire_counts),
    (retire, "epstein_zin_solve", _retire_counts),
    (retire, "finite_horizon_solve", _retire_counts),
    (simulate, "simulate_bank", _bank_paths),
    (simulate, "simulate_retirement", _retire_paths),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: str | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def s(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None   # operation id stamped on new spans
        self._stack: list[int] = []
        self._saved = []

    def _wrap(self, module, name, counter):
        original = getattr(module, name)
        span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(span_name, time.perf_counter(),
                        self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(original, args, kwargs, result)
            return result

        self._saved.append((module, name, original))
        setattr(module, name, traced)

    def __enter__(self):
        for module, name, counter in TRACED:
            self._wrap(module, name, counter)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        return False

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        return span.s - sum(c.s for c in self.spans if c.parent == index)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) | {"id": i} for i, s in enumerate(self.spans)], fh)


def layer_metrics(tracer: Tracer, hidden_solves: int, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(tracer.spans):
        by_name.setdefault(span.name, []).append(i)

    def spans(name, op=None):
        return [tracer.spans[i] for i in by_name.get(name, [])
                if op is None or tracer.spans[i].op == op]

    def total(name, key=None):
        return sum(s.counts[key] if key else s.s for s in spans(name))

    def self_s(name):
        return sum(tracer.self_time(i) for i in by_name.get(name, []))

    m = {"cli.self_s": (self_s("cli.run"), "s"),
         "cli.bytes_written": (bytes_written, "B"),
         "bank_full.solve_barriers.calls": (len(spans("bank_full.solve_barriers")), "count"),
         "bank_full.solve_barriers.s": (total("bank_full.solve_barriers"), "s")}

    name = "bank_partial.penalty_solve"
    iters = total(name, "iterations")
    m |= {f"{name}.calls": (len(spans(name)), "count"),
          f"{name}.s": (total(name), "s"),
          f"{name}.iterations": (iters, "count"),
          f"{name}.s_per_iteration": (total(name) / iters, "s"),
          "bank_partial.line_sup_error": (max(s.counts["line_sup_error"]
                                              for s in spans(name, "solve_bank_partial")), "ratio"),
          "bank_partial.elasticity.self_s": (self_s("bank_partial.elasticity"), "s"),
          "bank_partial.elasticity.hidden_solves": (hidden_solves, "count")}

    for fn in ("penalty_solve_retire", "epstein_zin_solve", "finite_horizon_solve"):
        name = f"retire.{fn}"
        steps = total(name, "steps")
        m |= {f"{name}.calls": (len(spans(name)), "count"),
              f"{name}.s": (total(name), "s"),
              f"{name}.steps": (steps, "count"),
              f"{name}.s_per_step": (total(name) / steps, "s")}
    m["retire.residual"] = (max(s.counts["residual"]
                                for s in spans("retire.penalty_solve_retire", "solve_retire")
                                + spans("retire.epstein_zin_solve", "solve_retire_ez")), "ratio")

    for fn in ("simulate_bank", "simulate_retirement"):
        name = f"simulate.{fn}"
        steps = total(name, "path_steps")
        m |= {f"{name}.s": (total(name), "s"),
              f"{name}.path_steps": (steps, "count"),
              f"{name}.path_steps_per_s": (steps / total(name), "1/s")}
    name = "simulate.simulate_retirement"
    m[f"{name}.active_share"] = (total(name, "path_steps") / total(name, "path_steps_drawn"),
                                 "ratio")

    name = "calibrate.estimate_theta"
    steps = total(name, "particle_steps")
    m |= {f"{name}.s": (total(name), "s"),
          f"{name}.particle_steps": (steps, "count"),
          f"{name}.particle_steps_per_s": (steps / total(name), "1/s"),
          f"{name}.n_resamples": (total(name, "n_resamples"), "count"),
          "calibrate.ess_frac": (sum(s.counts["ess_frac"] for s in spans(name))
                                 / len(spans(name)), "ratio")}

    name = "filtering.filter_series"
    m |= {f"{name}.s": (total(name), "s"),
          f"{name}.steps_per_s": (total(name, "steps") / total(name), "1/s"),
          "filtering.log_likelihood.s": (total("filtering.log_likelihood"), "s")}
    return m
