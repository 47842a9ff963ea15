"""Span tracing of the bicone package from outside, and per-layer metrics.

``instrument`` replaces the public functions and methods of each module
(layer) with wrappers that record a span while the tracer is recording:
every import site of a wrapped function is patched too, since ``cli``,
``energy`` and ``continuity`` import what they call by name.  Spans are kept
in memory; ``summarize`` turns them into the per-layer metrics.  A span's
self time is its duration minus the durations of its direct children.

Layers and span names:

  cli           cli.main (argument parsing, report building, JSON emit)
  continuity    continuity.<function>
  energy        energy.quad.<function> for the tensor quadratures,
                energy.mc for the Monte-Carlo estimator
  deformations  deformations.forward / .jacobian / .inverse (ConeMap) and
                deformations.glued (GluedMap); the root solver runs inside
                deformations.inverse and is part of its self time
  moduli        moduli.phi.<method> (ModulusFunction) and moduli.<function>
  geometry      geometry.<function>

Work done inside a span that has to be measured (points inverted, their
residual) is computed after the span closes with the clock paused, so it
costs no span any time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

# A lane whose preimage height is below this sits at the float floor: its
# true preimage is not representable, so it has no meaningful residual.
FLOOR_HEIGHT = 1e-300

PHI_METHODS = ("__call__", "derivative", "second_derivative", "chord_slope",
               "elasticity", "profile_log", "invert")
MODULI_FUNCTIONS = ("measured_constants", "check_admissibility",
                    "modulus_energy", "modulus_energy_detailed",
                    "energy_tail_bound", "doubling_constant",
                    "quasi_inverse_defect")
UNITS = {
    "deformations.inverse.total_s": "s",
    "deformations.inverse.self_s": "s",
    "deformations.inverse.calls": "count",
    "deformations.inverse.points": "count",
    "deformations.inverse.phi_evals_per_call": "evals/call",
    "deformations.inverse.lane_evals_per_point": "evals/point",
    "deformations.inverse.max_rel_residual": "ratio",
    "deformations.jacobian.self_s": "s",
    "deformations.forward.self_s": "s",
    "geometry.self_s": "s",
    "geometry.sample_cone_interior.self_s": "s",
    "geometry.sample_cone_interior.acceptance_rate": "ratio",
    "geometry.sample_cone_sphere.self_s": "s",
    "geometry.sample_cone_sphere.calls": "count",
    "moduli.self_s": "s",
    "moduli.calls": "count",
    "moduli.points": "count",
    "energy.quad.self_s": "s",
    "energy.quad.nodes": "count",
    "energy.mc.self_s": "s",
    "continuity.self_s": "s",
    "continuity.calls": "count",
    "cli.self_s": "s",
    "trace.attributed_share": "ratio",
}
# Metrics that depend on timing; a traced run reports the mean of its two passes.
TIMED = {name for name, unit in UNITS.items() if unit == "s"} | {"trace.attributed_share"}

QUAD_FUNCTIONS = ("conformal_energy_H", "inner_distortion_integral",
                  "biconformal_energy", "energy_modulus_ratio")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int                     # index of the enclosing span, -1 at top
    end: float = math.nan
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans against a clock that excludes paused intervals."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._paused_total = 0.0
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self.recording = False

    def now(self) -> float:
        return self._clock() - self._paused_total

    def open(self, name: str) -> Span:
        span = Span(name, self.now(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.now()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Stop recording and the clock while instrumentation does its work."""
        was_recording, self.recording = self.recording, False
        started = self._clock()
        try:
            yield
        finally:
            self._paused_total += self._clock() - started
            self.recording = was_recording

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


def traced(tracer: Tracer, name: str, fn, probe=None):
    """Wrap ``fn`` in a span; ``probe(args, result)`` adds span attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if probe is not None:
            with tracer.paused():
                span.attrs.update(probe(args, result))
        return result

    return wrapper


# -- probes -----------------------------------------------------------------------

def _points(args, result) -> dict:
    return {"points": int(np.size(args[1]))}


def _quad_nodes(args, result) -> dict:
    return {"nodes": int(result.samples_or_nodes)}


def _acceptance(args, result) -> dict:
    return {"attempts": int(result.attempts),
            "accepted": int(round(result.acceptance_rate * result.attempts))}


def _inverse_probe(args, result) -> dict:
    """Points inverted and the worst relative height residual among them."""
    cone, Y = args[0], np.atleast_2d(np.asarray(args[1], dtype=float))
    X = np.atleast_2d(np.asarray(result, dtype=float))
    tau, T = Y[:, -1], X[:, -1]
    ok = (tau > 0) & (T > FLOOR_HEIGHT)
    resid = 0.0
    if ok.any():
        s = np.linalg.norm(X[ok, :-1], axis=1) + T[ok]
        height = T[ok] * cone.phi(s) / s
        resid = float(np.max(np.abs(height - tau[ok]) / tau[ok]))
    return {"points": Y.shape[0], "max_rel_residual": resid}


# -- instrumentation -----------------------------------------------------------------

def _functions(module) -> list[str]:
    return [f for f in module.__all__ if not isinstance(getattr(module, f), type)]


def instrument(tracer: Tracer, package):
    """Wrap the package's layer boundaries; returns a function that undoes it."""
    mods = {name: importlib.import_module(f"{package.__name__}.{name}")
            for name in ("cli", "continuity", "energy", "deformations",
                         "moduli", "geometry")}
    probes = {"conformal_energy_H": _quad_nodes,
              "inner_distortion_integral": _quad_nodes,
              "sample_cone_interior": _acceptance}
    functions = [(mods["cli"], "main", "cli.main")]
    functions += [(mods["continuity"], f, f"continuity.{f}")
                  for f in _functions(mods["continuity"])]
    functions += [(mods["energy"], f, f"energy.quad.{f}") for f in QUAD_FUNCTIONS]
    functions.append((mods["energy"], "energy_F_monte_carlo", "energy.mc"))
    functions += [(mods["moduli"], f, f"moduli.{f}") for f in MODULI_FUNCTIONS]
    functions += [(mods["geometry"], f, f"geometry.{f}")
                  for f in _functions(mods["geometry"])]

    deformations = mods["deformations"]
    methods = [(mods["moduli"].ModulusFunction, m, f"moduli.phi.{m}", _points)
               for m in PHI_METHODS]
    methods += [(deformations.ConeMap, "__call__", "deformations.forward", None),
                (deformations.ConeMap, "jacobian", "deformations.jacobian", None),
                (deformations.ConeMap, "inverse", "deformations.inverse",
                 _inverse_probe),
                (deformations.GluedMap, "__call__", "deformations.glued", None),
                (deformations.GluedMap, "inverse", "deformations.glued", None)]

    undo = []
    sites = [vars(m) for m in list(mods.values()) + [package]]
    for module, attr, name in functions:
        original = getattr(module, attr)
        wrapper = traced(tracer, name, original, probes.get(attr))
        for namespace in sites:
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    undo.append((namespace, key, original))
    for cls, attr, name, probe in methods:
        original = cls.__dict__[attr]
        setattr(cls, attr, traced(tracer, name, original, probe))
        undo.append((cls, attr, original))

    def restore():
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    return restore


# -- metrics ------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def summarize(spans: list[Span], op_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the exact counts behind them.

    ``moduli.calls``/``.points`` count evaluations: ``moduli.phi.*`` spans not
    nested in another one, since the methods call each other.  Counts inside
    ``deformations.inverse`` are taken over its whole subtree, and its
    ``total_s`` is inclusive: the inverse never nests in itself.
    """
    selfs = self_times(spans)

    def self_s(prefix):
        return sum(t for s, t in zip(spans, selfs) if _under(s.name, prefix))

    def named(prefix):
        return [s for s in spans if _under(s.name, prefix)]

    def inside_inverse(span):
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == "deformations.inverse":
                return True
        return False

    evals = [s for s in spans if s.name.startswith("moduli.phi.")
             and not (s.parent >= 0 and spans[s.parent].name.startswith("moduli.phi."))]
    inverse = named("deformations.inverse")
    inverse_evals = [s for s in evals if inside_inverse(s)]
    interior = named("geometry.sample_cone_interior")
    counts = {
        "deformations.inverse.calls": len(inverse),
        "deformations.inverse.points": sum(s.attrs["points"] for s in inverse),
        "deformations.inverse.phi_evals": len(inverse_evals),
        "deformations.inverse.lane_evals": sum(s.attrs["points"] for s in inverse_evals),
        "geometry.sample_cone_interior.accepted": sum(s.attrs["accepted"] for s in interior),
        "geometry.sample_cone_interior.attempts": sum(s.attrs["attempts"] for s in interior),
        "geometry.sample_cone_sphere.calls": len(named("geometry.sample_cone_sphere")),
        "moduli.calls": len(evals),
        "moduli.points": sum(s.attrs["points"] for s in evals),
        "energy.quad.nodes": sum(s.attrs.get("nodes", 0) for s in named("energy.quad")),
        "continuity.calls": len(named("continuity")),
    }
    calls, points = counts["deformations.inverse.calls"], counts["deformations.inverse.points"]
    metrics = {
        "deformations.inverse.total_s": sum(s.end - s.start for s in inverse),
        "deformations.inverse.self_s": self_s("deformations.inverse"),
        "deformations.inverse.calls": calls,
        "deformations.inverse.points": points,
        "deformations.inverse.phi_evals_per_call":
            counts["deformations.inverse.phi_evals"] / calls if calls else 0.0,
        "deformations.inverse.lane_evals_per_point":
            counts["deformations.inverse.lane_evals"] / points if points else 0.0,
        "deformations.inverse.max_rel_residual":
            max((s.attrs["max_rel_residual"] for s in inverse), default=0.0),
        "deformations.jacobian.self_s": self_s("deformations.jacobian"),
        "deformations.forward.self_s": self_s("deformations.forward"),
        "geometry.self_s": self_s("geometry"),
        "geometry.sample_cone_interior.self_s": self_s("geometry.sample_cone_interior"),
        "geometry.sample_cone_interior.acceptance_rate":
            counts["geometry.sample_cone_interior.accepted"]
            / counts["geometry.sample_cone_interior.attempts"]
            if counts["geometry.sample_cone_interior.attempts"] else 0.0,
        "geometry.sample_cone_sphere.self_s": self_s("geometry.sample_cone_sphere"),
        "geometry.sample_cone_sphere.calls": counts["geometry.sample_cone_sphere.calls"],
        "moduli.self_s": self_s("moduli"),
        "moduli.calls": counts["moduli.calls"],
        "moduli.points": counts["moduli.points"],
        "energy.quad.self_s": self_s("energy.quad"),
        "energy.quad.nodes": counts["energy.quad.nodes"],
        "energy.mc.self_s": self_s("energy.mc"),
        "continuity.self_s": self_s("continuity"),
        "continuity.calls": counts["continuity.calls"],
        "cli.self_s": self_s("cli"),
        "trace.attributed_share":
            sum(t for s, t in zip(spans, selfs) if _layer(s.name) != "cli") / op_wall_s,
    }
    return metrics, counts
