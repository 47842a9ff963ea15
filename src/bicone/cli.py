"""Command-line interface: seeded, replayable runs emitting JSON or CSV.

Spec strings:
  modulus family   identity | power:eps=0.5 | iterlog:k=2,alpha=1.0,n=2
  map              cone:phi=<family>[,n=N] | glued:phi=<family>[,n=N]
                   | radial:power:eps=0.5[,n=N] | radial:logexample:beta=1,n=2
  radius grid      log:a..b[:N]  (N log-spaced points, default 24)
                   or a plain comma-separated list of radii
  points           comma-separated coordinates; semicolons separate rows

Each command, verify suite and energy method accepts only its own options.
Every run echoes those, fully resolved (defaults included), into the output
header, so outputs are self-describing and byte-identical under replay with
the same seed.  Exit status: 0 all-pass, 1 verification or numerical
failure (the failing report is still emitted), 2 usage error (an option
the command does not read, a malformed spec, or a numeric option outside
its usable values, such as a negative seed).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .continuity import (linear_dilatation, modulus_profile,
                         verify_averaging, verify_global_modulus_F,
                         verify_global_modulus_H, verify_main_theorem)
from .deformations import ConeMap, GluedMap, RadialMap
from .energy import (_MC_MIN_SAMPLES, biconformal_energy, conformal_energy_H,
                     energy_F_monte_carlo, inner_distortion_integral)
from .moduli import EnergyDivergenceError, ModulusFunction, check_admissibility
from .reports import SCHEMA_VERSION, _jsonable


class SpecError(ValueError):
    """A malformed family/map/grid specification (a usage error)."""


def _parse_kv(body: str) -> dict:
    out = {}
    for item in body.split(","):
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise SpecError(f"expected key=value, got {item!r}")
        if key in out:
            raise SpecError(f"repeated parameter {key!r} in {body!r}")
        out[key] = value
    return out


def _no_extras(name: str, kv: dict) -> None:
    if kv:
        raise SpecError(f"{name} spec has unknown parameters {sorted(kv)}")


@contextlib.contextmanager
def _spec_errors(what: str, name: str, spec: str):
    """Turn a constructor's KeyError, TypeError or ValueError into a SpecError."""
    try:
        yield
    except KeyError as missing:
        raise SpecError(f"{what} {name!r} is missing parameter {missing}") from None
    except SpecError:
        raise
    except (TypeError, ValueError) as bad:        # a constructor's range check
        raise SpecError(f"bad {what} spec {spec!r}: {bad}") from None


def parse_family(spec: str) -> ModulusFunction:
    """Parse a modulus-family spec; its n= (2 if absent) is the family's dimension."""
    name, colon, body = spec.partition(":")
    if "," in name:          # bare family with trailing params: identity,n=2
        name, _, extra = name.partition(",")
        body = extra + ("," + body if colon else "")
    kv = _parse_kv(body)
    n_given = "n" in kv
    with _spec_errors("family", name, spec):
        n = int(kv.pop("n", 2))
        if name == "identity":
            if kv:
                raise SpecError(f"identity takes no parameters, got {kv}")
            return ModulusFunction.identity(n)
        if name == "power":
            eps = float(kv.pop("eps"))
            _no_extras(name, kv)
            return ModulusFunction.power(eps, n)
        if name == "iterlog":
            depth = int(kv.pop("k"))
            alpha = float(kv.pop("alpha", 1.0))
            _no_extras(name, kv)
            if not n_given:
                raise SpecError("iterlog needs n=, e.g. iterlog:k=2,alpha=1,n=2")
            return ModulusFunction.iterlog(depth=depth, alpha=alpha, n=n)
    raise SpecError(f"unknown family {name!r} (identity, power, iterlog)")


def parse_map(spec: str):
    """Parse a map spec into a ConeMap, GluedMap, or RadialMap."""
    kind, _, rest = spec.partition(":")
    with _spec_errors("map", kind, spec):
        if kind in ("cone", "glued"):
            if not rest.startswith("phi="):
                raise SpecError(f"{kind} map needs phi=<family>, got {spec!r}")
            phi = parse_family(rest[len("phi="):])
            return ConeMap(phi) if kind == "cone" else GluedMap(phi)
        if kind == "radial":
            sub, _, body = rest.partition(":")
            kv = _parse_kv(body)
            n = int(kv.pop("n", 2))
            if sub == "power":
                eps = float(kv.pop("eps"))
                _no_extras("radial:power", kv)
                return RadialMap("power", eps=eps, n=n)
            if sub == "logexample":
                beta = float(kv.pop("beta", 1.0))
                _no_extras("radial:logexample", kv)
                return RadialMap("logexample", beta=beta, n=n)
            raise SpecError(f"unknown radial kind {sub!r} (power, logexample)")
    raise SpecError(f"unknown map kind {kind!r} (cone, glued, radial)")


def parse_radii(spec: str) -> np.ndarray:
    if spec.startswith("log:"):
        body = spec[len("log:"):]
        parts = body.split(":")
        if len(parts) not in (1, 2) or ".." not in parts[0]:
            raise SpecError(f"radius grid must be log:a..b[:N], got {spec!r}")
        a_str, _, b_str = parts[0].partition("..")
        try:
            a, b = float(a_str), float(b_str)
            count = int(parts[1]) if len(parts) == 2 else 24
        except ValueError:
            raise SpecError(f"bad radius grid {spec!r}") from None
        if not (0 < a < b < math.inf) or count < 2:
            raise SpecError("radius grid needs 0 < a < b < inf and N >= 2")
        return np.geomspace(a, b, count)
    try:
        radii = np.array([float(v) for v in spec.split(",")])
    except ValueError:
        raise SpecError(f"bad radius list {spec!r}") from None
    if radii.size == 0 or not np.all(np.isfinite(radii) & (radii > 0)):
        raise SpecError("radii must be positive and finite")
    return radii


def parse_points(spec: str, n: int) -> np.ndarray:
    try:
        rows = [[float(v) for v in row.split(",")] for row in spec.split(";")]
    except ValueError:
        raise SpecError(f"bad point list {spec!r}") from None
    if len({len(r) for r in rows}) != 1:
        raise SpecError(f"rows of {spec!r} have mixed lengths")
    arr = np.array(rows)
    if arr.shape[1] != n:
        raise SpecError(f"points must have {n} coordinates, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise SpecError("point coordinates must be finite")
    return arr


def parse_center(spec: str, n: int) -> np.ndarray:
    if spec.strip() == "0":
        return np.zeros(n)
    center = parse_points(spec, n)
    if center.shape[0] != 1:
        raise SpecError("center must be a single point")
    return center[0]


# The numeric options, each with the values a run can use; an option a
# command lacks is skipped.
_FINITE_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_NUMBER_RULES = {"tol": _FINITE_POSITIVE, "threshold": _FINITE_POSITIVE,
                 "samples": (lambda v: v.is_integer() and v >= _MC_MIN_SAMPLES,
                             f"a whole number >= {_MC_MIN_SAMPLES}"),
                 "count": _AT_LEAST_ONE, "pairs": _AT_LEAST_ONE,
                 "seed": (lambda v: v >= 0, ">= 0")}


def _check_numbers(args: argparse.Namespace) -> None:
    """Raise SpecError on a numeric option outside its usable values."""
    for name, (usable, what) in _NUMBER_RULES.items():
        value = getattr(args, name, None)
        if value is not None and not usable(value):
            raise SpecError(f"--{name} must be {what}, got {value!r}")


# -- output plumbing -------------------------------------------------------

def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func", "output", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, result: dict, table: tuple | None = None) -> None:
    """Print a run's result under its resolved options, to --output or stdout.

    JSON is strict: non-finite floats print as strings.  With --out csv the
    command's ``table`` prints instead, a (header, rows) pair whose floats
    print by repr.  A command without --out prints JSON.
    """
    config = {**_config_echo(args), "out": getattr(args, "out", "json")}
    if config["out"] == "csv":
        header, rows = table
        lines = [f"# schema_version={SCHEMA_VERSION}",
                 *(f"# {k}={v}" for k, v in config.items()), ",".join(header)]
        lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                  for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = _jsonable({"schema_version": SCHEMA_VERSION, "config": config,
                             "result": result})
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.output:
        try:
            fh = open(args.output, "w")
        except OSError as bad:
            raise SpecError(f"cannot write --output {args.output!r}: {bad.strerror}") from None
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -----------------------------------------------------------

def _cmd_modulus(args) -> int:
    m = parse_map(args.map)
    center = parse_center(args.center, m.n)
    est = modulus_profile(m, center, parse_radii(args.radii), norm=args.norm,
                          count=args.count, seed=args.seed)
    _emit(args, dataclasses.asdict(est),
          (["radius", "value"], zip(est.radii.tolist(), est.values.tolist())))
    return 0


# Each energy method's options and defaults.  The energy parser takes them all
# unset; _cmd_energy refuses another method's and fills in its own method's.
_ENERGY_METHODS = {"quad": {"tol": 1e-6}, "mc": {"samples": 1e6, "seed": 42}}
_ENERGY_OPTIONS = [option for options in _ENERGY_METHODS.values() for option in options]


def _cmd_energy(args) -> int:
    own = _ENERGY_METHODS[args.method]
    stray = [o for o in _ENERGY_OPTIONS if o in vars(args) and o not in own]
    if stray:
        raise SpecError(f"--method {args.method} does not read --{stray[0]}")
    for option, default in own.items():
        vars(args).setdefault(option, default)
    m = parse_map(args.map)
    if args.integrand == "bi" and not isinstance(m, GluedMap):
        raise SpecError("--integrand bi needs a glued: map")
    if isinstance(m, GluedMap) and args.integrand != "bi":
        m = m.cone
    if isinstance(m, RadialMap):
        raise SpecError("energy integrals are defined for cone/glued maps")
    try:
        if args.method == "quad":
            res = {"forward": conformal_energy_H,
                   "inverse": inner_distortion_integral,
                   "bi": biconformal_energy}[args.integrand](m, tol=args.tol)
        else:
            if args.integrand != "inverse":
                raise SpecError("--method mc estimates the inverse-map energy; "
                                "use --integrand inverse")
            res = energy_F_monte_carlo(m, samples=int(args.samples),
                                       seed=args.seed)
    except EnergyDivergenceError as diverged:
        result = {"status": "divergent", "detail": str(diverged)}
        if args.integrand == "bi":      # E[F] is finite for every phi: print it
            result["inverse"] = dataclasses.asdict(
                inner_distortion_integral(m.cone, tol=args.tol))
        _emit(args, result)
        return 1
    _emit(args, dataclasses.asdict(res))
    return 0 if res.status in ("converged", "estimated") else 1


# Each suite: its help, its run (called with the args and the parsed --phi;
# it looks the library functions up in this module's globals, so a wrapper
# patched in there is seen) and its options besides --phi and --out.
_SUITES = {
    "conditions": ("the admissibility conditions (C1)-(C4) of phi",
                   lambda a, phi: check_admissibility(phi), {}),
    "main-theorem": (
        "the glued pair's fixed origin, identity regions, optimal moduli "
        "phi(r) and axis images",
        lambda a, phi: verify_main_theorem(
            GluedMap(phi), radii=parse_radii(a.radii) if a.radii else None,
            count=a.count, seed=a.seed),
        {"radii": None, "count": 512, "seed": 0}),
    "global-h": ("|H(X) - H(X')| <= 4 phi(|X - X'|) on random cone pairs",
                 lambda a, phi: verify_global_modulus_H(
                     ConeMap(phi), pairs=a.pairs, seed=a.seed),
                 {"pairs": 100_000, "seed": 0}),
    "global-f": ("the 3 M phi modulus of F = H^-1 near the origin, on random pairs",
                 lambda a, phi: verify_global_modulus_F(
                     ConeMap(phi), pairs=a.pairs, seed=a.seed),
                 {"pairs": 100_000, "seed": 0}),
    "averaging": ("the averaging inequality for phi' and its equality case",
                  lambda a, phi: verify_averaging(
                      phi, pairs=a.pairs, seed=a.seed, tol=a.tol),
                  {"pairs": 100_000, "seed": 0, "tol": 1e-10}),
}


def _cmd_verify(args) -> int:
    if not args.phi:
        raise SpecError(f"verify {args.suite} needs --phi")
    report = _SUITES[args.suite][1](args, parse_family(args.phi))
    rows = [(c.condition, "pass" if c.passed else "fail",
             "" if c.measured_constant is None else float(c.measured_constant),
             "" if c.tolerance is None else float(c.tolerance))
            for c in report.checks]
    _emit(args, report.to_dict(),
          (["condition", "status", "measured", "tolerance"], rows))
    return 0 if report.passed else 1


def _cmd_dilatation(args) -> int:
    m = parse_map(args.map)
    center = parse_center(args.center, m.n)
    est = linear_dilatation(m, center, parse_radii(args.radii),
                            count=args.count, seed=args.seed,
                            threshold=args.threshold)
    _emit(args, dataclasses.asdict(est),
          (["radius", "ratio"], zip(est.radii.tolist(), est.ratios.tolist())))
    return 0


def _cmd_invert(args) -> int:
    m = parse_map(args.map)
    pts = parse_points(args.point, m.n)
    img = np.atleast_2d(m.inverse(pts, tol=args.tol))
    _emit(args, {"points": pts.tolist(), "images": img.tolist()})
    return 0


def _cmd_eval(args) -> int:
    if args.phi:
        phi = parse_family(args.phi)
        s = parse_radii(args.points)
        rows = list(zip(s.tolist(), phi(s).tolist(), phi.derivative(s).tolist(),
                        phi.chord_slope(s).tolist(), phi.elasticity(s).tolist()))
        header = ["s", "phi", "derivative", "chord_slope", "elasticity"]
        _emit(args, {"columns": header, "rows": rows}, (header, rows))
        return 0
    if args.map:
        if args.out == "csv":
            raise SpecError("eval --map prints JSON only; --out csv needs --phi")
        m = parse_map(args.map)
        pts = parse_points(args.points, m.n)
        img = np.atleast_2d(m(pts))
        _emit(args, {"points": pts.tolist(), "images": img.tolist()})
        return 0
    raise SpecError("eval needs --phi or --map")


# -- parser ----------------------------------------------------------------

# Each option's argparse settings.  A row of _COMMANDS, _SUITES or
# _ENERGY_METHODS maps the options it reads to their defaults (... marks a
# required option); every command also reads --output.
_OPTIONS = {
    "map": {}, "phi": {}, "center": {}, "radii": {}, "point": {}, "points": {},
    "norm": {"choices": ("cone", "euclid")},
    "method": {"choices": tuple(_ENERGY_METHODS)},
    "integrand": {"choices": ("forward", "inverse", "bi")},
    "count": {"type": int}, "pairs": {"type": int}, "seed": {"type": int},
    "tol": {"type": float, "help": "the certified bound (energy), the relative "
            "residual of the root solve (invert) or the slack (verify averaging)"},
    "samples": {"type": float}, "threshold": {"type": float},
    "out": {"choices": ("json", "csv")}, "output": {"metavar": "PATH"},
}

_COMMANDS = {
    "modulus": (_cmd_modulus, "sampled modulus of continuity profile",
                {"map": ..., "center": "0", "radii": "log:1e-6..1", "norm": "cone",
                 "count": 4096, "seed": 1, "out": "json"}),
    "energy": (_cmd_energy, "conformal/distortion energy of a map",
               {"map": ..., "method": "quad", "integrand": "forward",
                **dict.fromkeys(_ENERGY_OPTIONS, argparse.SUPPRESS)}),
    "dilatation": (_cmd_dilatation, "linear dilatation probe",
                   {"map": ..., "center": "0", "radii": "log:1e-10..0.1",
                    "count": 256, "threshold": 1e3, "seed": 0, "out": "json"}),
    "invert": (_cmd_invert, "apply the inverse map to points",
               {"map": ..., "point": ..., "tol": 1e-12}),
    "eval": (_cmd_eval, "evaluate a family (JSON or CSV) or a map (JSON) pointwise",
             {"phi": None, "map": None, "points": ..., "out": "json"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicone",
        description="Deformations of the double cone with prescribed moduli "
                    "of continuity: moduli, energies, verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    suites = sub.add_parser("verify", help="run a verification suite").add_subparsers(
        dest="suite", required=True)
    rows = [(sub, name, *row) for name, row in _COMMANDS.items()]
    rows += [(suites, name, _cmd_verify, summary, {"phi": None, **options, "out": "json"})
             for name, (summary, _, options) in _SUITES.items()]
    for parent, name, func, summary, options in rows:
        p = parent.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        for option, default in {**options, "output": None}.items():
            given = {"required": True} if default is ... else {"default": default}
            p.add_argument(f"--{option}", **_OPTIONS[option], **given)
    return parser


# main parses with one parser per process; parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        return args.func(args)
    except SpecError as bad:
        sys.stderr.write(f"{parser.prog}: error: {bad}\n")
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as failure:
        sys.stderr.write(f"{parser.prog}: {type(failure).__name__}: {failure}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
