"""Workloads of the bicone benchmark: seeded op lists and their oracle checks.

An op is one in-process ``bicone`` CLI invocation, except where the package
has no command for a public function (``quasi_inverse_check``) or where the
check needs two invocations (the invert/eval round trip).  Each workload is a
fixed cycle of ops; the runner repeats whole cycles, so every run measures
the same mix.  The op at global index i gets the seed ``seed + i``.

Every op's stdout is parsed as strict JSON (a bare ``Infinity`` or ``NaN``
fails) and checked against an oracle:

  bulk_mc_energy        |mc - quad| <= mc error + quad error, with the
                        tensor-quadrature value computed outside the timing
  origin_probes         optimal moduli equal phi, composed moduli equal
                        phi(phi(s))/s, relative round-trip error <= 1e-9
  certified_quadrature  converged with a finite error <= tol * max(1, |value|)

The reference modulus ``iterlog_phi`` is written out here from the family's
definition, so the origin checks do not use the package's own evaluator.

Ops marked ``known_defect`` expose a defect listed in ROADMAP.md.  They stay
in their cycles and count against ``success_rate``; a failure of theirs is
only "unexpected" (and makes the run incorrect) when it is a crash or a
wrong exit code rather than the known wrong output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

# 1e5 samples (0.8 MB per array) keep an op near a second, so a run holds
# dozens of them with reference-work samples in between (see run.py); at
# 1e6 an op took 7-21 s and a run's figures rested on three of them.
MC_SAMPLES = 100_000
MC_MAPS = ((1, 2), (2, 2), (2, 3))              # iterlog (k, n), alpha = 1
MC_REFERENCE_TOL = 1e-8

PROBE_MAPS = tuple((k, n) for k in (1, 2, 3) for n in (2, 3))
PROBE_COUNT = 512
MODULUS_RADII = (1e-8, 0.5, 24)
DILATATION_RADII = (1e-12, 0.1, 10)
QUASI_RADII = (1e-8, 0.5, 24)
ROUND_TRIPS = (("cone", "0.3,1e-9"), ("cone", "0.3,1e-13"),
               ("glued", "0.3,-1e-10"))
ROUND_TRIP_FAMILY = (2, 2)
PROBE_REL_TOL = 1e-9

QUAD_FAMILIES = ("identity", "power:eps=0.5", "iterlog:k=1,alpha=1",
                 "iterlog:k=2,alpha=1", "iterlog:k=3,alpha=1",
                 "iterlog:k=4,alpha=1")
QUAD_DIMS = (2, 3, 4)
QUAD_TOLS = ("1e-6", "1e-10")
AVERAGING_PAIRS = 50

INVERSE_DEFECT = "absolute-tolerance inverse at small heights"
STATUS_DEFECT = "truncated energy reported as converged"


@dataclass(frozen=True)
class Op:
    """One unit of client work and the oracle that judges its output."""

    label: str                      # the op's place in its cycle
    kind: str                       # "cli", "round_trip" or "quasi_inverse"
    argv: tuple[str, ...]
    check: str                      # key into CHECKS
    params: dict = field(default_factory=dict)
    known_defect: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_cycle: int
    warmup: tuple[tuple[str, ...], ...]     # run once during set-up
    trace_cycles: int                       # cycles in each traced pass
    sizes: dict                             # points per op, for provenance

    def cycle(self, seed: int, index: int) -> list[Op]:
        """The ops of cycle ``index``; op i of the run has seed ``seed + i``."""
        return _CYCLES[self.name](seed + index * self.ops_per_cycle)


class CheckFailure(Exception):
    """An op's output failed its check; ``kind`` is "exit", "json" or "oracle"."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# -- op lists -----------------------------------------------------------------

def _iterlog(k: int, n: int) -> str:
    return f"iterlog:k={k},alpha=1,n={n}"


def _grid_spec(grid: tuple[float, float, int]) -> str:
    lo, hi, count = grid
    return f"log:{lo!r}..{hi!r}:{count}"


def _bulk_cycle(first_seed: int) -> list[Op]:
    ops = []
    for i, (k, n) in enumerate(MC_MAPS):
        spec = f"cone:phi={_iterlog(k, n)}"
        seed = first_seed + i
        ops.append(Op(f"mc {spec}", "cli",
                      ("energy", "--map", spec, "--method", "mc",
                       "--integrand", "inverse", "--samples", str(MC_SAMPLES),
                       "--seed", str(seed)),
                      "mc_energy", {"map": spec, "seed": seed}))
    return ops


def _probe_cycle(first_seed: int) -> list[Op]:
    ops = []
    seed = first_seed
    for k, n in PROBE_MAPS:
        family = _iterlog(k, n)
        glued = f"glued:phi={family}"
        ref = {"k": k, "n": n}
        ops.append(Op(f"main-theorem {family}", "cli",
                      ("verify", "main-theorem", "--phi", family,
                       "--count", str(PROBE_COUNT), "--seed", str(seed)),
                      "report", ref))
        ops.append(Op(f"modulus {glued}", "cli",
                      ("modulus", "--map", glued, "--count", str(PROBE_COUNT),
                       "--radii", _grid_spec(MODULUS_RADII),
                       "--seed", str(seed + 1)),
                      "modulus", ref))
        ops.append(Op(f"dilatation {glued}", "cli",
                      ("dilatation", "--map", glued,
                       "--radii", _grid_spec(DILATATION_RADII),
                       "--seed", str(seed + 2)),
                      "dilatation", ref))
        ops.append(Op(f"quasi-inverse {glued}", "quasi_inverse", (),
                      "quasi_inverse", {**ref, "seed": seed + 3}))
        seed += 4
    k, n = ROUND_TRIP_FAMILY
    for kind, point in ROUND_TRIPS:
        spec = f"{kind}:phi={_iterlog(k, n)}"
        ops.append(Op(f"round-trip {spec} at ({point})", "round_trip",
                      ("invert", "--map", spec, "--point", point),
                      "round_trip", {"map": spec, "point": point},
                      known_defect=INVERSE_DEFECT))
    return ops


def _quadrature_cycle(first_seed: int) -> list[Op]:
    ops = []
    for i, family in enumerate(QUAD_FAMILIES):
        defect = STATUS_DEFECT if family.startswith("iterlog:k=4") else ""
        for n in QUAD_DIMS:
            phi = f"{family},n={n}"
            for tol in QUAD_TOLS:
                ops.append(Op(f"energy bi glued:phi={phi} tol={tol}", "cli",
                              ("energy", "--integrand", "bi",
                               "--map", f"glued:phi={phi}", "--tol", tol),
                              "certified_energy", {"tol": float(tol)},
                              known_defect=defect))
            ops.append(Op(f"conditions {phi}", "cli",
                          ("verify", "conditions", "--phi", phi), "report"))
        phi = f"{family},n={QUAD_DIMS[i % len(QUAD_DIMS)]}"
        ops.append(Op(f"averaging {phi}", "cli",
                      ("verify", "averaging", "--phi", phi,
                       "--pairs", str(AVERAGING_PAIRS),
                       "--seed", str(first_seed + len(ops))),
                      "report"))
    return ops


_CYCLES = {
    "bulk_mc_energy": _bulk_cycle,
    "origin_probes": _probe_cycle,
    "certified_quadrature": _quadrature_cycle,
}

WORKLOADS = {
    "bulk_mc_energy": Workload(
        "bulk_mc_energy", len(MC_MAPS),
        warmup=tuple(("verify", "conditions", "--phi", _iterlog(k, n))
                     for k, n in MC_MAPS),
        trace_cycles=4,
        sizes={"mc_samples_per_op": MC_SAMPLES}),
    "origin_probes": Workload(
        "origin_probes", 4 * len(PROBE_MAPS) + len(ROUND_TRIPS),
        warmup=tuple(("verify", "conditions", "--phi", _iterlog(k, n))
                     for k, n in PROBE_MAPS),
        trace_cycles=1,
        sizes={"sphere_points": PROBE_COUNT,
               "modulus_radii": MODULUS_RADII[2],
               "dilatation_radii": DILATATION_RADII[2],
               "dilatation_sphere_points": 256,
               "quasi_inverse_radii": QUASI_RADII[2],
               "round_trip_points": 1}),
    "certified_quadrature": Workload(
        "certified_quadrature",
        len(QUAD_FAMILIES) * (len(QUAD_DIMS) * (len(QUAD_TOLS) + 1) + 1),
        warmup=tuple(("verify", "conditions", "--phi", f"{f},n={n}")
                     for f in QUAD_FAMILIES for n in QUAD_DIMS),
        trace_cycles=4,
        sizes={"energy_tols": [float(t) for t in QUAD_TOLS],
               "averaging_pairs": AVERAGING_PAIRS}),
}


# -- reference modulus ----------------------------------------------------------

_EXP_TOWER = (0.0, 1.0, math.e, math.exp(math.e))


def iterlog_phi(k: int, n: int, s: float) -> float:
    """The iterlog modulus with alpha = 1, from its definition:

    phi(s) = prod_{j<=k} (1 + a_j L_j(s))^(-beta_j), where L_j is the
    (j-1)-fold logarithm of e_{j-1} + log(1/s) with e_0 = 0, e_1 = 1,
    e_2 = e (so L_j(1) = 0), a_j = (1 - 1/n)^(j-1), beta_j = 1/n for j < k
    and beta_k = 1.
    """
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return s
    u = -math.log(s)
    log_phi = 0.0
    for j in range(1, k + 1):
        level = _EXP_TOWER[j - 1] + u
        for _ in range(j - 1):
            level = math.log(level)
        beta = 1.0 / n if j < k else 1.0
        log_phi -= beta * math.log1p((1.0 - 1.0 / n) ** (j - 1) * level)
    return math.exp(log_phi)


def log_grid(grid: tuple[float, float, int]) -> list[float]:
    lo, hi, count = grid
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(count)]


# -- checks ---------------------------------------------------------------------

def _reject_constant(name: str):
    raise CheckFailure("json", f"non-strict JSON constant {name}")


def strict_json(text: str):
    """Parse JSON as RFC 8259 has it: Infinity and NaN are errors."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as bad:
        raise CheckFailure("json", f"unparseable output: {bad}") from None


def _result(output: tuple[int, str], allowed=(0,)) -> dict:
    code, text = output
    if code not in allowed:
        raise CheckFailure("exit", f"exit code {code}")
    return strict_json(text)["result"]


def _close(value: float, reference: float, what: str) -> None:
    if not abs(value - reference) <= PROBE_REL_TOL * abs(reference):
        raise CheckFailure("oracle", f"{what}: {value!r} vs reference "
                                     f"{reference!r}")


def _check_mc_energy(op: Op, outputs, refs) -> None:
    res = _result(outputs[0])
    if res.get("method") != "monte_carlo" or res.get("seed") != op.params["seed"] \
            or res.get("samples_or_nodes") != MC_SAMPLES:
        raise CheckFailure("oracle", f"wrong provenance echo {res}")
    quad_value, quad_err = refs[op.params["map"]]
    gap = abs(res["value"] - quad_value)
    if not gap <= res["error_estimate"] + quad_err:
        raise CheckFailure("oracle", f"|mc - quad| = {gap:.3e} exceeds the "
                                     f"error estimates")


def _check_report(op: Op, outputs, refs) -> None:
    res = _result(outputs[0])
    failed = [c["condition"] for c in res["checks"] if not c["pass"]]
    if failed or not res["pass"]:
        raise CheckFailure("oracle", f"failed checks {failed}")


def _check_modulus(op: Op, outputs, refs) -> None:
    res = _result(outputs[0])
    radii = log_grid(MODULUS_RADII)
    if len(res["values"]) != len(radii):
        raise CheckFailure("oracle", "wrong number of radii")
    k, n = op.params["k"], op.params["n"]
    for r, value in zip(radii, res["values"]):
        _close(value, iterlog_phi(k, n, r), f"modulus at r={r:.3e}")


def _check_dilatation(op: Op, outputs, refs) -> None:
    res = _result(outputs[0])
    if len(res["ratios"]) != DILATATION_RADII[2] or res["verdict"] != "qc_violated":
        raise CheckFailure("oracle", f"verdict {res['verdict']!r} on "
                                     f"{len(res['ratios'])} radii")


def _check_quasi_inverse(op: Op, outputs, refs) -> None:
    res = strict_json(outputs[0][1])
    k, n = op.params["k"], op.params["n"]
    radii = log_grid(QUASI_RADII)
    for key in ("map_after_inverse", "inverse_after_map"):
        values = res[key]
        for r, value in zip(radii, values):
            _close(value, iterlog_phi(k, n, iterlog_phi(k, n, r)) / r,
                   f"{key} at s={r:.3e}")
        if not all(a > b for a, b in zip(values, values[1:])):
            raise CheckFailure("oracle", f"{key} does not grow as s -> 0")


def _check_round_trip(op: Op, outputs, refs) -> None:
    if len(outputs) != 2:
        raise CheckFailure("exit", f"invert exit code {outputs[0][0]}")
    _result(outputs[0])
    back = _result(outputs[1])["images"][0]
    point = [float(v) for v in op.params["point"].split(",")]
    err = max(abs(b - p) / abs(p) for p, b in zip(point, back) if p != 0.0)
    if not err <= PROBE_REL_TOL:
        raise CheckFailure("oracle", f"relative round-trip error {err:.3e}")


def _check_certified_energy(op: Op, outputs, refs) -> None:
    # A known-defect op also passes by declining honestly: a non-converged
    # status with exit code 1 is correct output for an uncertifiable integral.
    allowed = (0, 1) if op.known_defect else (0,)
    res = _result(outputs[0], allowed)
    if outputs[0][0] == 1 and res.get("status") != "converged":
        return
    value, err = res.get("value"), res.get("error_estimate")
    if res.get("status") != "converged" or outputs[0][0] != 0:
        raise CheckFailure("oracle", f"status {res.get('status')!r} with exit "
                                     f"code {outputs[0][0]}")
    if not (isinstance(value, (int, float)) and isinstance(err, (int, float))
            and math.isfinite(value) and math.isfinite(err)
            and err <= op.params["tol"] * max(1.0, abs(value))):
        raise CheckFailure("oracle", f"error estimate {err!r} for value {value!r}")


CHECKS = {
    "mc_energy": _check_mc_energy,
    "report": _check_report,
    "modulus": _check_modulus,
    "dilatation": _check_dilatation,
    "quasi_inverse": _check_quasi_inverse,
    "round_trip": _check_round_trip,
    "certified_energy": _check_certified_energy,
}


def judge(op: Op, outputs, refs) -> CheckFailure | None:
    """Run the op's oracle on its ``(exit code, stdout)`` outputs."""
    try:
        CHECKS[op.check](op, outputs, refs)
    except CheckFailure as failure:
        return failure
    except (KeyError, TypeError, IndexError, ValueError) as bad:
        return CheckFailure("json", f"malformed output: {type(bad).__name__}: {bad}")
    return None


def expected(op: Op, failure: CheckFailure) -> bool:
    """A known-defect op failing with wrong output (not a crash) is expected."""
    return bool(op.known_defect) and failure.kind in ("json", "oracle")
