import json
import math
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bicone import cli
from bicone.cli import (SpecError, main, parse_center, parse_family, parse_map,
                        parse_points, parse_radii)
from bicone.continuity import verify_global_modulus_F, verify_global_modulus_H
from bicone.deformations import ConeMap, GluedMap, RadialMap
from bicone.moduli import ModulusFunction


# -- spec parsing ---------------------------------------------------------

def test_parse_radii_log_grid():
    r = parse_radii("log:1e-3..0.5")
    assert r.size == 24 and abs(r[0] - 1e-3) < 1e-18 and abs(r[-1] - 0.5) < 1e-15
    assert np.allclose(r, np.geomspace(1e-3, 0.5, 24))
    assert parse_radii("log:0.1..0.9:5").size == 5
    assert np.array_equal(parse_radii("0.1,0.2,0.5"), [0.1, 0.2, 0.5])


@pytest.mark.parametrize("bad", [
    "log:0.5..0.1", "log:0..1", "log:1e-3..0.5:1", "log:abc..1",
    "0.1,-0.2", "", "log:", "1e-3,nan", "1e-3,inf", "log:1e-3..inf:4",
    "log:1e-3..nan:4", "log:1e-3..1:x",
])
def test_parse_radii_rejects_garbage(bad):
    with pytest.raises(SpecError):
        parse_radii(bad)


def test_parse_family_specs():
    phi = parse_family("identity")
    assert phi.family == "identity" and phi.n == 2
    phi = parse_family("power:eps=0.25,n=3")
    assert phi.family == "power" and phi.eps == 0.25 and phi.n == 3
    phi = parse_family("iterlog:k=2,alpha=1,n=3")
    assert phi.family == "iterlog" and phi.depth == 2 and phi.n == 3


@pytest.mark.parametrize("bad", [
    "nope", "power", "power:eps=0", "power:eps=2", "power:eps=0.5,junk=1",
    "iterlog:k=2,alpha=1",          # n is required
    "identity:x=1", "identity,n=abc", "power:eps=0.5,n=1",
])
def test_parse_family_rejects_garbage(bad):
    with pytest.raises(SpecError):
        parse_family(bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_family_spec_parses_back_to_its_modulus(n):
    for phi in (ModulusFunction.identity(n), ModulusFunction.power(0.5, n),
                ModulusFunction.iterlog(depth=2, alpha=0.7, n=n)):
        assert parse_family(phi.describe()) == phi


def test_parse_map_specs():
    m = parse_map("cone:phi=power:eps=0.5,n=2")
    assert isinstance(m, ConeMap) and m.n == 2
    g = parse_map("glued:phi=iterlog:k=2,alpha=1,n=3")
    assert isinstance(g, GluedMap) and g.n == 3
    h = parse_map("radial:power:eps=0.5")
    assert isinstance(h, RadialMap) and h.n == 2
    h = parse_map("radial:logexample:beta=1,n=3")
    assert isinstance(h, RadialMap) and h.n == 3


@pytest.mark.parametrize("bad", ["mystery:phi=identity", "cone:psi=identity",
                                 "radial:power:eps=1.5", "glued:"])
def test_parse_map_rejects_garbage(bad):
    with pytest.raises(SpecError):
        parse_map(bad)


def test_parse_points_and_center():
    pts = parse_points("0.1,0.2;0.3,-0.4", n=2)
    assert pts.shape == (2, 2) and pts[1, 1] == -0.4
    assert np.array_equal(parse_center("0", n=3), np.zeros(3))
    assert np.array_equal(parse_center("0.1,0.2", n=2), [0.1, 0.2])
    with pytest.raises(SpecError):
        parse_points("0.1,0.2;0.3", n=2)
    with pytest.raises(SpecError):
        parse_center("0.1,0.2", n=3)


# -- end-to-end runs ---------------------------------------------------------

def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_energy_identity_json(capsys):
    code, out = run(["energy", "--map", "cone:phi=identity,n=2",
                     "--method", "quad", "--tol", "1e-8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["config"]["map"] == "cone:phi=identity,n=2"
    assert abs(doc["result"]["value"] - 2.0) <= 1e-6


def test_energy_divergent_exits_one(capsys):
    code, out = run(["energy", "--map", "cone:phi=iterlog:k=1,alpha=0.4,n=2"],
                    capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["status"] == "divergent"


def test_energy_below_the_threshold_fails_only_forward(capsys):
    # iterlog k=1, alpha=0.3 at n=2: E[phi] diverges, E[F] = 3.60256706912399
    # (20-digit mpmath, oracles.inverse_energy in tests/oracles.py)
    phi = "phi=iterlog:k=1,alpha=0.3,n=2"
    code, out = run(["energy", "--integrand", "inverse", "--map", f"cone:{phi}"], capsys)
    result = json.loads(out)["result"]
    assert code == 0 and result["status"] == "converged"
    assert abs(result["value"] - 3.60256706912399) <= 1e-6 * 3.6
    for integrand, spec in (("forward", "cone"), ("bi", "glued")):
        code, out = run(["energy", "--integrand", integrand, "--map", f"{spec}:{phi}"],
                        capsys)
        divergent = json.loads(out)["result"]
        assert code == 1 and divergent["status"] == "divergent"
    # the bi output names the finite side: the K_H result under "inverse"
    assert divergent["inverse"] == result
    assert abs(divergent["inverse"]["value"] - 3.60256706912399) <= 1e-6 * 3.60256706912399


def _strict(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_emit_json_prints_non_finite_floats_as_strings(capsys):
    args = cli.build_parser().parse_args(["invert", "--map", "x", "--point", "0"])
    cli._emit(args, {"ratios": [1.5, math.inf, -math.inf, math.nan],
                     "value": np.float64(math.nan), "nested": {"top": math.inf}})
    result = json.loads(capsys.readouterr().out, parse_constant=_strict)["result"]
    assert result == {"ratios": [1.5, "inf", "-inf", "nan"], "value": "nan",
                      "nested": {"top": "inf"}}


@pytest.mark.parametrize("integrand,spec", [
    ("inverse", "cone:phi=power:eps=1e-200,n=3"),
    ("inverse", "cone:phi=power:eps=1e-60,n=7"),
    ("bi", "glued:phi=power:eps=1e-300,n=3"),
])
def test_an_overflowing_inverse_tail_constant_still_certifies(integrand, spec, capsys):
    # eps^(1-n) of the K_H tail majorant overflows a float; the run prints
    # strict JSON with finite numbers, nothing on stderr, and its exit code
    # matches its status
    code = main(["energy", "--integrand", integrand, "--map", spec])
    captured = capsys.readouterr()
    result = json.loads(captured.out, parse_constant=_strict)["result"]
    assert captured.err == ""
    assert math.isfinite(result["value"]) and math.isfinite(result["error_estimate"])
    assert (code, result["status"]) == (0, "converged")


@pytest.mark.parametrize("integrand", ["forward", "inverse"])
def test_a_one_sided_energy_of_a_glued_map_is_its_cone_maps(integrand, capsys):
    phi = "phi=iterlog:k=2,alpha=1,n=2"
    results = []
    for spec in (f"glued:{phi}", f"cone:{phi}"):
        code, out = run(["energy", "--integrand", integrand, "--map", spec], capsys)
        assert code == 0
        results.append(json.loads(out, parse_constant=_strict)["result"])
    assert results[0] == results[1] and results[0]["status"] == "converged"


@pytest.mark.parametrize("args", [
    ["--map", "cone:phi=iterlog:k=4,alpha=1,n=2"],
    ["--integrand", "bi", "--map", "glued:phi=iterlog:k=4,alpha=1,n=2"],
])
def test_energy_truncated_exits_one(args, capsys):
    # tol 1e-15 lies below the 8 eps rounding floor of the |DH|^n part, so
    # the certified bound cannot meet it
    code, out = run(["energy", *args, "--tol", "1e-15"], capsys)
    assert code == 1
    doc = json.loads(out, parse_constant=_strict)
    assert doc["result"]["status"] == "truncated"
    assert doc["result"]["error_estimate"] > 1e-15 * doc["result"]["value"]


@pytest.mark.parametrize("args", [
    ["--map", "cone:phi=iterlog:k=4,alpha=1,n=2"],
    ["--integrand", "bi", "--map", "glued:phi=iterlog:k=4,alpha=1,n=2"],
])
def test_energy_depth4_certifies(args, capsys):
    code, out = run(["energy", *args], capsys)
    assert code == 0
    assert json.loads(out, parse_constant=_strict)["result"]["status"] == "converged"


def test_eval_csv_columns(capsys):
    code, out = run(["eval", "--phi", "iterlog:k=2,alpha=1,n=2",
                     "--points", "0.01,0.1", "--out", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# schema_version=1"
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",") == ["s", "phi", "derivative", "chord_slope",
                                 "elasticity"]
    row = lines[lines.index(header) + 1].split(",")
    assert abs(float(row[1]) - 0.22686220204460533) < 1e-15


def test_eval_phi_json_rows(capsys):
    # phi = sqrt on (0, 1], one-sided at s = 1 and the identity beyond it
    code, out = run(["eval", "--phi", "power:eps=0.5", "--points", "0.25,1,4"],
                    capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["columns"] == ["s", "phi", "derivative", "chord_slope",
                                 "elasticity"]
    assert result["rows"] == [[0.25, 0.5, 1.0, 2.0, 0.5],
                              [1.0, 1.0, 0.5, 1.0, 0.5],
                              [4.0, 4.0, 1.0, 1.0, 1.0]]


def test_invert_radial_power(capsys):
    code, out = run(["invert", "--map", "radial:power:eps=0.5",
                     "--point", "0.25,0"], capsys)
    assert code == 0
    doc = json.loads(out)
    got = np.array(doc["result"]["images"])
    assert np.allclose(got, [[0.0625, 0.0]], atol=1e-14)


def test_eval_map_prints_the_images_as_json(capsys):
    # the map's own bits, one row per point: the lower row goes through the
    # glued map's reflected cone inverse
    spec = "glued:phi=iterlog:k=2,alpha=1,n=2"
    code, out = run(["eval", "--map", spec, "--points", "0.1,0.2;0,-0.3"], capsys)
    assert code == 0
    doc = json.loads(out, parse_constant=_strict)
    assert doc["config"] == {"command": "eval", "map": spec, "out": "json",
                             "phi": None, "points": "0.1,0.2;0,-0.3"}
    pts = np.array([[0.1, 0.2], [0.0, -0.3]])
    assert doc["result"] == {"points": pts.tolist(),
                             "images": parse_map(spec)(pts).tolist()}


def test_verify_conditions_exit_codes(capsys):
    code, out = run(["verify", "conditions", "--phi", "iterlog:k=2,alpha=1,n=2"],
                    capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["pass"] is True
    code, out = run(["verify", "conditions",
                     "--phi", "iterlog:k=1,alpha=0.4,n=2"], capsys)
    assert code == 1
    doc = json.loads(out)
    failed = [c["condition"] for c in doc["result"]["checks"] if not c["pass"]]
    assert failed == ["finite energy (C3)"]


def test_verify_conditions_reports_an_unbounded_sandwich_constant(capsys):
    # phi'^2 underflows on the whole grid: the report still prints, with C2
    # failing at M = inf
    code, out = run(["verify", "conditions",
                     "--phi", "iterlog:k=1,alpha=1e-200,n=2"], capsys)
    assert code == 1
    result = json.loads(out)["result"]
    c2 = next(c for c in result["checks"] if c["condition"] == "derivative sandwich (C2)")
    assert c2["pass"] is False and c2["measured_constant"] == "inf"
    assert result["metadata"]["M"] == "inf"


def test_main_theorem_names_an_unbounded_sandwich_constant_without_a_warning():
    # The axis inversion of this modulus meets a zero Newton slope; with
    # warnings as errors the suite must still reach its M = inf refusal.
    # A subprocess, so that -W error covers the whole command.
    done = subprocess.run([sys.executable, "-W", "error", "-m", "bicone.cli", "verify",
                           "main-theorem", "--phi", "iterlog:k=1,alpha=1e-200,n=2",
                           "--count", "16"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert done.returncode == 1
    assert "M = inf" in done.stderr and "Warning" not in done.stderr


def test_verify_conditions_csv_rows(capsys):
    code, out = run(["verify", "conditions", "--phi", "iterlog:k=2,alpha=1,n=2",
                     "--out", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema_version=1" and "# suite=conditions" in lines
    header = lines.index("condition,status,measured,tolerance")
    rows = [line.split(",") for line in lines[header + 1:]]
    assert [r[:2] for r in rows] == [["endpoints (C1)", "pass"],
                                     ["derivative sandwich (C2)", "pass"],
                                     ["finite energy (C3)", "pass"],
                                     ["concavity near 0 (C4)", "pass"]]
    assert rows[2][2:] == ["2.0", "1e-06"]       # E[phi] = 2 at tolerance 1e-6
    assert rows[1][3] == ""                      # no tolerance: an empty cell


@pytest.mark.parametrize("suite,check", [("global-h", verify_global_modulus_H),
                                         ("global-f", verify_global_modulus_F)])
def test_verify_global_suites_run_the_library_check(suite, check, capsys):
    phi = "iterlog:k=2,alpha=1,n=2"
    code, out = run(["verify", suite, "--phi", phi, "--pairs", "1000"], capsys)
    assert code == 0
    expected = check(ConeMap(parse_family(phi)), pairs=1000, seed=0)
    assert json.loads(out)["result"] == json.loads(json.dumps(expected.to_dict()))
    assert expected.passed and expected.sample_count == 1000


def test_numerical_failure_exits_one_with_its_error(capsys):
    # the point lies outside the upper cone: a numerical failure, not a usage error
    assert main(["invert", "--map", "cone:phi=identity", "--point", "0.9,0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bicone: DomainError: ")


@pytest.mark.parametrize("phi,energy", [("power:eps=0.5,n=3", 1.0 / (3 * 0.5)),
                                        ("identity,n=4", 1.0 / 4)])
def test_verify_conditions_integrates_at_the_spec_dimension(phi, energy, capsys):
    # E[phi] = 1/(n eps) for the power family, the identity being eps = 1
    code, out = run(["verify", "conditions", "--phi", phi], capsys)
    assert code == 0
    assert json.loads(out)["result"]["metadata"]["energy_value"] == energy


@pytest.mark.parametrize("phi,worst,equality", [
    ("identity,n=2", 2.220446049250313e-16, 0.0),
    ("iterlog:k=2,alpha=1,n=2", -0.6631032019860053, 4.440892098500626e-16),
    ("iterlog:k=4,alpha=1,n=4", -1.1823957932124114, 0.0),
])
def test_verify_averaging_keeps_its_seeded_defects(phi, worst, equality, capsys):
    # exact floats: the suite's segment quadrature must keep every bit
    code, out = run(["verify", "averaging", "--phi", phi, "--pairs", "50"], capsys)
    assert code == 0
    checks = json.loads(out)["result"]["checks"]
    assert [c["measured_constant"] for c in checks] == [worst, equality]


def test_verify_main_theorem_small(capsys):
    code, out = run(["verify", "main-theorem", "--phi", "iterlog:k=2,alpha=1,n=2",
                     "--count", "64", "--radii", "log:1e-3..0.9:6"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["pass"] is True


def test_dilatation_reports_violation(capsys):
    # an estimate command: the verdict lives in the payload, exit stays 0
    code, out = run(["dilatation", "--map", "glued:phi=iterlog:k=2,alpha=1,n=2",
                     "--radii", "log:1e-12..0.1:8", "--count", "64"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "qc_violated"
    assert "inf" in doc["result"]["ratios"]


@pytest.mark.parametrize("threshold,verdict", [("10", "qc_violated"),
                                                ("1e308", "qc_consistent")])
def test_dilatation_threshold_flips_the_verdict(capsys, threshold, verdict):
    # finite ratios from 1.857 to 2.33e19: only the threshold decides
    code, out = run(["dilatation", "--map", "glued:phi=iterlog:k=2,alpha=1,n=2",
                     "--radii", "log:0.05..0.5:8", "--count", "64",
                     "--threshold", threshold], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "inf" not in doc["result"]["ratios"]
    assert doc["result"]["verdict"] == verdict


def test_modulus_csv_replay_is_byte_identical(tmp_path):
    args = ["modulus", "--map", "glued:phi=iterlog:k=2,alpha=1,n=2",
            "--radii", "log:1e-4..0.5:6", "--count", "128", "--seed", "7",
            "--out", "csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"# schema_version=1")


def test_an_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    assert main(["eval", "--phi", "identity", "--points", "0.5",
                 "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not target.exists()
    assert captured.err.startswith(f"bicone: error: cannot write --output '{target}'")


def test_usage_errors_exit_two(capsys):
    assert main(["energy", "--map", "cone:phi=mystery"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["energy", "--frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["not-a-command"])
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ["modulus", "--radii", "1e-3,nan"],
    ["modulus", "--radii", "log:1e-3..inf:4"],
    ["modulus", "--center", "nan,0", "--radii", "1e-3,1e-2"],
    ["eval", "--points", "inf,0"],
    ["invert", "--point", "nan,0.1"]])
def test_non_finite_input_is_a_usage_error(argv, capsys):
    assert main([*argv, "--map", "glued:phi=iterlog:k=2,alpha=1,n=2"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("message, argv", [
    ("verify conditions needs --phi", ["verify", "conditions"]),
    ("eval needs --phi or --map", ["eval", "--points", "0.1"]),
    ("--integrand bi needs a glued: map",
     ["energy", "--integrand", "bi", "--map", "cone:phi=identity"]),
    ("--method mc estimates the inverse-map energy",
     ["energy", "--method", "mc", "--integrand", "forward",
      "--map", "cone:phi=identity"]),
    ("center must be a single point",
     ["modulus", "--map", "cone:phi=identity", "--center", "0.1,0.1;0.2,0.2"]),
    ("bad point list", ["eval", "--map", "cone:phi=identity", "--points", "0.1,x"]),
    ("expected key=value", ["energy", "--map", "cone:phi=power:eps"]),
    ("unknown radial kind",
     ["invert", "--map", "radial:spiral:eps=0.5", "--point", "0.1,0.1"]),
    ("identity takes no parameters", ["energy", "--map", "cone:phi=identity:eps=1"]),
    ("bad family spec 'power:eps=2': power family needs eps",
     ["energy", "--map", "cone:phi=power:eps=2"]),
    ("iterlog needs n=", ["verify", "conditions", "--phi", "iterlog:k=2"]),
    ("eval --map prints JSON only",
     ["eval", "--map", "cone:phi=identity", "--points", "0.3,0.1", "--out", "csv"]),
    ("energy integrals are defined for cone/glued maps",
     ["energy", "--map", "radial:power:eps=0.5"]),
    ("repeated parameter 'eps'", ["eval", "--phi", "power:eps=0.5,eps=0.7",
                                  "--points", "0.25"]),
    ("repeated parameter 'n'",
     ["invert", "--map", "radial:power:eps=0.5,n=2,n=3", "--point", "0.1,0.1"]),
    ("repeated parameter 'n'", ["verify", "conditions", "--phi", "identity,n=2,n=3"])])
def test_malformed_requests_are_usage_errors(message, argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bicone: error: {message}")


@pytest.mark.parametrize("argv", [
    ["dilatation", "--map", "radial:power:eps=0.5,n=1", "--count", "8", "--radii", "0.1,0.01"],
    ["invert", "--map", "radial:power:eps=0.5,n=0", "--point", "0.25"],
    ["invert", "--map", "radial:logexample:beta=1,n=1", "--point", "0.25"]])
def test_a_radial_map_below_dimension_two_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bicone: error: bad map spec")
    assert "dimension n must be an integer >= 2" in captured.err


@pytest.mark.parametrize("beta", ["nan", "inf"])
@pytest.mark.parametrize("command,points", [("eval", "--points"), ("invert", "--point")])
def test_a_logexample_beta_that_is_not_finite_is_a_usage_error(command, points, beta, capsys):
    # beta = nan used to print NaN images (eval) or a non-preimage (invert)
    # with exit 0, and beta = inf mapped (0.3, 0.4) to the origin
    assert main([command, "--map", f"radial:logexample:beta={beta},n=2",
                 points, "0.3,0.4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bicone: error: bad map spec")
    assert "needs a finite beta > 1/n" in captured.err


PHI = "iterlog:k=2,alpha=1,n=2"


@pytest.mark.parametrize("argv", [
    ["energy", "--map", f"cone:phi={PHI}", "--out", "csv"],
    ["invert", "--map", f"cone:phi={PHI}", "--point", "0.3,0.1", "--seed", "1"],
    ["eval", "--phi", PHI, "--points", "0.1", "--seed", "1"],
    ["verify", "conditions", "--phi", PHI, "--seed", "1"],
    ["verify", "main-theorem", "--phi", PHI, "--pairs", "5"],
    ["verify", "global-h", "--phi", PHI, "--tol", "1e-3"],
    ["verify", "averaging", "--phi", PHI, "--count", "5"],
    ["modulus", "--map", f"glued:phi={PHI}", "--coun", "8"]])
def test_an_option_the_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("suite, read", [
    ("conditions", []), ("main-theorem", ["count", "radii", "seed"]),
    ("global-h", ["pairs", "seed"]), ("global-f", ["pairs", "seed"]),
    ("averaging", ["pairs", "seed", "tol"])])
def test_verify_echoes_only_the_options_its_suite_reads(suite, read):
    args = cli.build_parser().parse_args(["verify", suite, "--phi", PHI])
    assert sorted(cli._config_echo(args)) == sorted(["command", "suite", "phi", *read])


@pytest.mark.parametrize("method, option, argv", [
    ("quad", "samples", ["--samples", "2000"]),
    ("quad", "seed", ["--seed", "1"]),
    ("mc", "tol", ["--integrand", "inverse", "--tol", "1e-6"])])
def test_an_option_of_the_other_energy_method_is_a_usage_error(method, option, argv,
                                                                capsys):
    assert main(["energy", "--map", "cone:phi=identity", "--method", method, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"bicone: error: --method {method} does not read --{option}")


@pytest.mark.parametrize("method, argv, read", [
    ("quad", [], {"tol": 1e-6}),
    ("mc", ["--samples", "1000"], {"samples": 1000.0, "seed": 42})])
def test_energy_echoes_only_the_options_its_method_reads(method, argv, read, capsys):
    code, out = run(["energy", "--map", "cone:phi=identity", "--method", method,
                     "--integrand", "inverse", *argv], capsys)
    assert code == 0
    assert json.loads(out)["config"] == {
        "command": "energy", "integrand": "inverse", "map": "cone:phi=identity",
        "method": method, "out": "json", **read}


def _readme_cli_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("bicone ")]


def test_every_readme_cli_example_exits_0(capsys):
    examples = _readme_cli_examples()
    assert len(examples) == 10
    for argv in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv


GLUED = "glued:phi=iterlog:k=1,alpha=1,n=2"
MC = ["energy", "--map", "cone:phi=iterlog:k=1,alpha=1,n=2", "--method", "mc",
      "--integrand", "inverse"]


@pytest.mark.parametrize("option, argv", [
    ("--tol", ["energy", "--integrand", "bi", "--map", GLUED, "--tol", "inf"]),
    ("--tol", ["energy", "--integrand", "bi", "--map", GLUED, "--tol", "nan"]),
    ("--tol", ["energy", "--integrand", "bi", "--map", GLUED, "--tol", "-1"]),
    ("--tol", ["invert", "--map", GLUED, "--point", "0.3,0.1", "--tol", "nan"]),
    ("--tol", ["verify", "averaging", "--phi", "iterlog:k=1,alpha=1,n=2",
               "--tol", "0"]),
    ("--threshold", ["dilatation", "--map", GLUED, "--threshold", "nan"]),
    ("--threshold", ["dilatation", "--map", GLUED, "--threshold", "inf"]),
    ("--samples", [*MC, "--samples", "nan"]),
    ("--samples", [*MC, "--samples", "inf"]),
    ("--samples", [*MC, "--samples", "1500.7"]),
    ("--count", ["modulus", "--map", GLUED, "--count", "0"]),
    ("--count", ["dilatation", "--map", GLUED, "--count", "0"]),
    ("--count", ["verify", "main-theorem", "--phi", "iterlog:k=1,alpha=1,n=2",
                 "--count", "0"]),
    ("--pairs", ["verify", "averaging", "--phi", "iterlog:k=1,alpha=1,n=2",
                 "--pairs", "0"]),
    ("--pairs", ["verify", "global-f", "--phi", "iterlog:k=1,alpha=1,n=2",
                 "--pairs", "0"]),
    ("--samples", [*MC, "--samples", "500"]),
    ("--samples", [*MC, "--samples", "-5"]),
    # numpy's generators refuse a negative seed
    ("--seed", ["modulus", "--map", GLUED, "--seed", "-1"]),
    ("--seed", ["dilatation", "--map", GLUED, "--seed", "-1"]),
    ("--seed", [*MC, "--seed", "-1"]),
    *(("--seed", ["verify", suite, "--phi", "iterlog:k=1,alpha=1,n=2", "--seed", "-1"])
      for suite in ("main-theorem", "global-h", "global-f", "averaging"))])
def test_unusable_numbers_are_usage_errors(option, argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bicone: error: {option} must be ")


def test_main_reuses_one_parser_with_a_fresh_parsers_bytes(capsys):
    calls = [["modulus", "--map", "glued:phi=iterlog:k=2,alpha=1,n=2",
              "--radii", "log:1e-4..0.5:4", "--count", "32"],
             ["energy", "--frobnicate"],                 # usage error: SystemExit
             ["modulus", "--map", "cone:phi=mystery"],   # SpecError: exit 2
             ["dilatation", "--map", "glued:phi=iterlog:k=2,alpha=1,n=2",
              "--radii", "log:1e-6..0.1:5", "--count", "32", "--out", "csv"],
             ["modulus", "--map", "glued:phi=iterlog:k=2,alpha=1,n=2",
              "--radii", "log:1e-4..0.5:4", "--count", "32"]]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = ("exit", stop.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._parser.cache_clear()
    fresh = []
    for argv in calls:
        fresh.append(outcome(argv))
        cli._parser.cache_clear()
    reused = [outcome(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, ("exit", 2), 2, 0, 0]
    assert fresh[0][1] == fresh[-1][1]


def test_mc_energy_seeded(capsys):
    args = ["energy", "--map", "cone:phi=iterlog:k=1,alpha=1,n=2",
            "--method", "mc", "--integrand", "inverse",
            "--samples", "20000", "--seed", "42"]
    code, out = run(args, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == 2.145355864723833
    assert doc["result"]["method"] == "monte_carlo"


def test_mc_energy_is_an_estimate_that_exits_0(capsys):
    # the MC error bar is an estimate, not a certificate, so the status says
    # so; "estimated" exits 0 like "converged", even with an error above --tol
    code, out = run([*MC, "--samples", "1000", "--seed", "3"], capsys)
    doc = json.loads(out)["result"]
    assert (code, doc["status"]) == (0, "estimated")
    assert doc["error_estimate"] > 1e-6


@pytest.mark.parametrize("spec", ["cone:phi=identity,n=2", "cone:phi=identity,n=3",
                                  "cone:phi=power:eps=0.5,n=2"])
def test_a_nan_energy_is_never_converged(spec):
    # Far out (u > 372) s^2 + R^2 and P^2 of these maps both underflow, so
    # their ratio would be 0/0; the K_H cells, formed from sigma = s/phi and
    # z, stay finite.  The result is a number, with nothing on stderr, and
    # tol 1e-300 comes out "truncated" with exit 1, never "converged" with
    # exit 0.  A subprocess, so that a warning would show.
    done = subprocess.run([sys.executable, "-m", "bicone.cli", "energy",
                           "--integrand", "inverse", "--map", spec, "--tol", "1e-300"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    doc = json.loads(done.stdout)["result"]
    assert done.returncode == 1 and done.stderr == ""
    assert doc["status"] == "truncated"
    assert all(isinstance(doc[key], float) and math.isfinite(doc[key])
               for key in ("value", "error_estimate"))


def _src_env(**extra):
    """os.environ with this checkout's src/ first on PYTHONPATH, plus extra."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def _blas_kernel_is_switchable() -> bool:
    """OPENBLAS_CORETYPE can pick both kernels below: an x86-64 CPU with AVX2
    and FMA (Haswell's), under a numpy whose OpenBLAS has DYNAMIC_ARCH."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except (TypeError, KeyError, ImportError):      # numpy 1.x: too old to ask
        return False
    return (platform.machine().lower() in ("x86_64", "amd64")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and cpu.get("AVX2", False) and cpu.get("FMA3", False))


@pytest.mark.skipif(not _blas_kernel_is_switchable(),
                    reason="needs x86-64 with AVX2 and an OpenBLAS with DYNAMIC_ARCH")
def test_verify_averaging_replays_under_any_blas_kernel():
    # The suite's dots and norms add in coordinate order, so no BLAS kernel
    # choice can move a seeded byte of its output.
    argv = [sys.executable, "-m", "bicone.cli", "verify", "averaging",
            "--phi", "iterlog:k=2,alpha=1,n=4", "--pairs", "2000"]
    outs = [subprocess.run(argv, capture_output=True, check=True, timeout=120,
                           env=_src_env(OPENBLAS_CORETYPE=core)).stdout
            for core in ("Prescott", "Haswell")]
    assert outs[0] == outs[1]


def test_invert_radial_logexample_honours_tol(capsys):
    h = RadialMap("logexample", beta=1.0, n=2)
    images = {}
    for tol in ("1e-2", "1e-12"):
        code, out = run(["invert", "--map", "radial:logexample:beta=1,n=2",
                         "--point", "0.3,0.4", "--tol", tol], capsys)
        assert code == 0
        images[tol] = np.array(json.loads(out)["result"]["images"][0])
        # relative residual of stress(|x|) = |y| = 0.5
        residual = abs(np.log(h.stress(np.linalg.norm(images[tol])) / 0.5))
        assert residual <= float(tol)
    assert not np.array_equal(images["1e-2"], images["1e-12"])
