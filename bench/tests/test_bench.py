"""Tests of the benchmark itself: op lists, oracles and span arithmetic.

    python3 -m pytest bench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailure, Op, judge  # noqa: E402


# -- op lists -------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_lists_are_deterministic_for_a_seed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.cycle(7, 2) == wl.cycle(7, 2)
    for c in range(3):
        ops = wl.cycle(7, c)
        assert len(ops) == wl.ops_per_cycle
        assert all(op.check in workloads.CHECKS for op in ops)
        for i, op in enumerate(ops):
            seed = op.params.get("seed")
            if "--seed" in op.argv:
                seed = int(op.argv[op.argv.index("--seed") + 1])
            if seed is not None:
                assert seed == 7 + c * wl.ops_per_cycle + i
    labels = [op.label for op in wl.cycle(7, 0)]
    assert labels == [op.label for op in wl.cycle(8, 5)]


def test_seed_changes_inputs_of_seeded_ops():
    wl = workloads.WORKLOADS["bulk_mc_energy"]
    assert wl.cycle(1, 0) != wl.cycle(2, 0)


def test_known_defect_ops_stay_in_their_workloads():
    probes = workloads.WORKLOADS["origin_probes"].cycle(0, 0)
    quad = workloads.WORKLOADS["certified_quadrature"].cycle(0, 0)
    trips = [op for op in probes if op.known_defect]
    assert [op.params["point"] for op in trips] == ["0.3,1e-9", "0.3,1e-13", "0.3,-1e-10"]
    depth4 = [op for op in quad if op.known_defect]
    assert len(depth4) == 6 and all("k=4" in op.label for op in depth4)


# -- oracles -----------------------------------------------------------------------

def _energy_json(status="converged", value=16.8, err="Infinity"):
    return ('{"result": {"error_estimate": %s, "method": "tensor_quadrature", '
            '"status": "%s", "value": %r}}' % (err, status, value))


def _energy_op(defect="x"):
    return Op("energy", "cli", (), "certified_energy", {"tol": 1e-6}, known_defect=defect)


def test_strict_json_rejects_non_finite_constants():
    for text in ('{"a": Infinity}', '{"a": -Infinity}', '{"a": NaN}'):
        with pytest.raises(CheckFailure) as info:
            workloads.strict_json(text)
        assert info.value.kind == "json"
    assert workloads.strict_json('{"a": "inf"}') == {"a": "inf"}


def test_depth4_energy_reported_as_converged_is_flagged():
    op = _energy_op()
    failure = judge(op, [(0, _energy_json())], {})
    assert failure is not None and failure.kind == "json"
    assert workloads.expected(op, failure)
    # the same output through a serializer that writes "inf" still fails
    failure = judge(op, [(0, _energy_json(err='"inf"'))], {})
    assert failure is not None and failure.kind == "oracle"


def test_energy_oracle_accepts_certified_and_honest_outputs():
    assert judge(_energy_op(""), [(0, _energy_json(err="1e-9"))], {}) is None
    assert judge(_energy_op(), [(1, _energy_json("truncated", err='"inf"'))], {}) is None
    loose = judge(_energy_op(""), [(0, _energy_json(err="1e-3"))], {})
    assert loose is not None and loose.kind == "oracle"
    crash = judge(_energy_op(""), [(1, _energy_json("truncated", err='"inf"'))], {})
    assert crash.kind == "exit" and not workloads.expected(_energy_op(""), crash)


def test_round_trip_oracle_uses_relative_error():
    op = workloads.WORKLOADS["origin_probes"].cycle(0, 0)[-3]
    invert = (0, json.dumps({"result": {"images": [[0.3, 6.2e-10]]}}))
    good = (0, json.dumps({"result": {"images": [[0.3, 1e-9 * (1 + 1e-12)]]}}))
    bad = (0, json.dumps({"result": {"images": [[0.3, 0.9996e-9]]}}))
    assert judge(op, [invert, good], {}) is None
    failure = judge(op, [invert, bad], {})
    assert failure.kind == "oracle" and workloads.expected(op, failure)


def test_mc_oracle_compares_against_quadrature():
    op = workloads.WORKLOADS["bulk_mc_energy"].cycle(5, 0)[0]
    refs = {op.params["map"]: (2.145876, 1e-14)}

    def output(value):
        return [(0, json.dumps({"result": {
            "value": value, "error_estimate": 1e-3, "method": "monte_carlo",
            "samples_or_nodes": workloads.MC_SAMPLES, "seed": 5,
            "status": "converged"}}))]

    assert judge(op, output(2.1462), refs) is None
    failure = judge(op, output(2.16), refs)
    assert failure.kind == "oracle" and not workloads.expected(op, failure)


def test_reference_modulus_matches_the_package():
    from bicone import ModulusFunction

    for k in (1, 2, 3):
        for n in (2, 3):
            phi = ModulusFunction.iterlog(k, 1.0, n)
            for s in (1e-12, 1e-5, 0.3, 0.9):
                assert math.isclose(workloads.iterlog_phi(k, n, s), float(phi(s)),
                                    rel_tol=1e-13)


# -- spans and metrics ----------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_times_subtract_direct_children_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    a = tracer.open("cli.main")
    clock.t = 1.0
    b = tracer.open("energy.quad.x")
    clock.t = 3.0
    tracer.close(b)
    clock.t = 4.0
    c = tracer.open("continuity.y")
    clock.t = 4.5
    d = tracer.open("moduli.phi.__call__")
    clock.t = 5.0
    tracer.close(d)
    clock.t = 6.0
    tracer.close(c)
    with tracer.paused():          # excluded from every open span
        clock.t = 8.0
    clock.t = 12.0
    tracer.close(a)
    recorded = tracer.take()
    assert [s.end - s.start for s in recorded] == [10.0, 2.0, 2.0, 0.5]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.5, 0.5]


def _span(name, start, end, parent, **attrs):
    return spans.Span(name, start, parent, end, attrs)


def test_summarize_counts_evaluations_inside_the_inverse():
    recorded = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("deformations.inverse", 1.0, 9.0, 0, points=100, max_rel_residual=1e-3),
        _span("moduli.phi.__call__", 2.0, 3.0, 1, points=100),
        _span("moduli.phi.chord_slope", 4.0, 6.0, 1, points=100),
        _span("moduli.phi.__call__", 4.5, 5.5, 3, points=100),   # nested: not an eval
        _span("moduli.phi.profile_log", 9.5, 9.75, 0, points=7),
    ]
    metrics, counts = spans.summarize(recorded, op_wall_s=10.0)
    assert counts["deformations.inverse.phi_evals"] == 2
    assert metrics["deformations.inverse.phi_evals_per_call"] == 2.0
    assert metrics["deformations.inverse.lane_evals_per_point"] == 2.0
    assert metrics["moduli.calls"] == 3 and metrics["moduli.points"] == 207
    assert metrics["deformations.inverse.total_s"] == 8.0
    assert metrics["deformations.inverse.self_s"] == 8.0 - 1.0 - 2.0
    assert metrics["moduli.self_s"] == 1.0 + 1.0 + 1.0 + 0.25
    assert metrics["cli.self_s"] == 10.0 - 8.0 - 0.25
    assert metrics["trace.attributed_share"] == (10.0 - 1.75) / 10.0
    assert set(metrics) == set(spans.UNITS)


def test_instrumented_ops_repeat_their_counts_and_restore():
    import bicone
    from bicone import cli, continuity, deformations

    originals = (cli.main, continuity.sample_cone_sphere, deformations.ConeMap.inverse)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, bicone)
    client = run.Client(bicone)
    ops = [Op("m", "cli", ("modulus", "--map", "glued:phi=iterlog:k=2,alpha=1,n=2",
                           "--count", "16", "--radii", "log:1e-6..0.5:4"), "modulus"),
           workloads.WORKLOADS["origin_probes"].cycle(0, 0)[-1]]
    try:
        results = []
        for _ in range(2):
            tracer.recording = True
            tally = run.Tally()
            wall = run.run_ops(client, ops, {}, tally, tracer.now)
            tracer.recording = False
            results.append(spans.summarize(tracer.take(), wall))
    finally:
        tracer.recording = False
        restore()
    assert (cli.main, continuity.sample_cone_sphere,
            deformations.ConeMap.inverse) == originals
    (first, counts_a), (_, counts_b) = results
    assert counts_a == counts_b
    assert first["geometry.sample_cone_sphere.calls"] == 4
    assert first["deformations.inverse.calls"] > 0
    assert first["deformations.inverse.max_rel_residual"] > 1e-9   # the known defect
    assert 0.0 < first["trace.attributed_share"] <= 1.0


def test_p50_is_the_harrell_davis_median():
    assert run.p50([7.0]) == 7.0
    assert math.isclose(run.p50([3.0, 1.0, 2.0]), 2.0, rel_tol=1e-9)
    # scipy.stats.mstats.hdquantiles gives 5.04032 for these values
    assert math.isclose(run.p50([16.0, 1.0, 2.0, 8.0, 4.0]), 5.04032, rel_tol=1e-6)


def test_tail_percentile_keeps_ten_ops_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(i) for i in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0)


def test_benchmark_json_names_the_metrics_the_runner_emits():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {**spans.UNITS, "trace.overhead": "ratio"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
