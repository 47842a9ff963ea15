"""The package surface the benchmark harness in bench/ relies on.

bench/spans.py wraps named functions and methods of the package, and
bench/run.py builds maps and calls library functions directly, so removing
or renaming any of them breaks ``bench/run.py --trace 1`` or a workload.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import bicone
from bicone import (ConeMap, GluedMap, ModulusFunction, inner_distortion_integral,
                    quasi_inverse_check)

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = ("cli", "continuity", "deformations", "energy", "geometry", "moduli",
           "reports")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _surface():
    """Every attribute of the package's modules and of the classes spans wraps."""
    namespaces = [bicone] + [importlib.import_module(f"bicone.{m}") for m in MODULES]
    attrs = {(id(ns), k): v for ns in namespaces for k, v in vars(ns).items()}
    for cls in (ModulusFunction, ConeMap, GluedMap):
        attrs.update({(id(cls), k): v for k, v in vars(cls).items()})
    return attrs


def test_instrument_wraps_every_named_boundary_and_restores(spans):
    # instrument looks every name in spans' lists up, so a missing one raises
    before = _surface()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, bicone)
    try:
        assert bicone.cli.main is not before[(id(bicone.cli), "main")]
        phi_key = id(ModulusFunction)
        for name in spans.PHI_METHODS:
            assert ModulusFunction.__dict__[name] is not before[(phi_key, name)]
        tracer.recording = True
        phi = ModulusFunction.iterlog(2, 1.0, 2)
        g = GluedMap(phi, n=phi.n)
        g.inverse(g(np.array([0.2, 0.3])))
        tracer.recording = False
        names = {span.name for span in tracer.spans}
        assert {"deformations.glued", "moduli.phi.profile_log"} <= names
    finally:
        restore()
    after = _surface()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _traced_edges(spans, work):
    """The (parent span, span) name pairs recorded while ``work`` runs."""
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, bicone)
    try:
        tracer.recording = True
        work()
    finally:
        tracer.recording = False
        restore()
    recorded = tracer.take()
    return {(recorded[s.parent].name if s.parent >= 0 else None, s.name)
            for s in recorded}


def test_the_trace_sees_the_cone_map_inside_the_glued_map(spans):
    g = GluedMap(ModulusFunction.iterlog(2, 1.0, 2), n=2)
    X = np.array([[0.2, 0.3], [0.2, -0.3]])          # one row in each half
    edges = _traced_edges(spans, lambda: g.inverse(g(X)))
    assert {("deformations.glued", "deformations.forward"),
            ("deformations.glued", "deformations.inverse")} <= edges


def test_the_trace_sees_the_cone_map_inside_the_monte_carlo_energy(spans):
    cone = ConeMap(ModulusFunction.iterlog(2, 1.0, 3), n=3)
    edges = _traced_edges(spans, lambda: bicone.energy_F_monte_carlo(cone, 1000))
    assert {("energy.mc", "deformations.inverse"),
            ("energy.mc", "deformations.jacobian")} <= edges


@pytest.mark.parametrize("suite, span", [
    ("conditions", "moduli.check_admissibility"),
    ("main-theorem", "continuity.verify_main_theorem"),
    ("global-h", "continuity.verify_global_modulus_H"),
    ("global-f", "continuity.verify_global_modulus_F"),
    ("averaging", "continuity.verify_averaging")])
def test_the_trace_sees_each_verify_suite_under_the_cli(spans, suite, span, capsys):
    # the suites' runs must look the library functions up when called
    argv = ["verify", suite, "--phi", "iterlog:k=1,alpha=1,n=2"]
    argv += {"main-theorem": ["--count", "8", "--radii", "0.1,0.5"],
             "conditions": []}.get(suite, ["--pairs", "20"])
    edges = _traced_edges(spans, lambda: bicone.cli.main(argv))
    assert ("cli.main", span) in edges
    capsys.readouterr()


@pytest.mark.parametrize("k, n", [(1, 2), (2, 3)])
def test_maps_build_as_the_harness_builds_them(k, n):
    phi = ModulusFunction.iterlog(k, 1.0, n)
    cone = ConeMap(phi, n=phi.n)
    res = inner_distortion_integral(cone, tol=1e-6)
    assert res.status == "converged" and np.isfinite(res.value)
    g = GluedMap(phi, n=phi.n)
    q = quasi_inverse_check(g, g.inverted(), 0.0, np.geomspace(1e-4, 0.5, 3),
                            norm="cone", count=16, seed=1)
    assert q.map_after_inverse.shape == (3,)


@pytest.mark.parametrize("module", ("bicone",) + tuple(f"bicone.{m}" for m in MODULES))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.__all__ names missing {name!r}"
