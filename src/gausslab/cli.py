"""Command-line front end.

Ingests chart configs, runs the verifiers and solvers, and emits the
classification tables as JSON or CSV on standard output. Diagnostics
(including wall-clock duration) go to standard error so that identical
inputs produce byte-identical standard output.

Exit codes: 0 success, 2 config or schema error, 3 expression parse error,
4 numerical failure. A substantive verdict never changes the exit code;
an Inconclusive verdict does, since it reports that numerics failed on
too many sample points to decide.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import sys
import time
from fractions import Fraction
from typing import Any, NamedTuple, Sequence

from . import __version__

__all__ = ["main", "SurfaceConfig", "ConfigError",
           "EXIT_OK", "EXIT_CONFIG", "EXIT_PARSE", "EXIT_NUMERIC"]


def _lazy_module(name: str):
    """The module `name`, executed on its first attribute access (the
    `importlib.util.LazyLoader` recipe). It sits in `sys.modules` and on its
    package from the start, as after a plain import; the benchmark's tracer
    looks it up there by name."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


# Every library module loads on first use, so that a command executes only
# the modules it runs: the jet layer (numpy, jets, geometry, residuals)
# serves verify, verify-link and check cone-r4; roots alone serves the roots
# command; hypercone (with the R^3 certificate) and isoparametric serve
# solve, report and check cone-r3. Calls go through the module attributes,
# which the benchmark's tracer patches in place.
biharmonic = _lazy_module("gausslab.biharmonic")
exprjet = _lazy_module("gausslab.exprjet")
geometry = _lazy_module("gausslab.geometry")
hypercone = _lazy_module("gausslab.hypercone")
isoparametric = _lazy_module("gausslab.isoparametric")
roots = _lazy_module("gausslab.roots")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """A config file or command argument violates the schema."""


# ---------------------------------------------------------------------------
# Surface configs


_REQUIRED_FIELDS = ("name", "dim", "ambient", "variables", "components", "domain")
_OPTIONAL_FIELDS = ("samples", "orientation", "tolerances")


class SurfaceConfig(NamedTuple):
    """Validated chart description as read from a JSON config file."""

    name: str
    dim: int
    ambient: str
    variables: tuple[str, ...]
    components: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    sample_counts: tuple[int, ...] | None
    explicit_points: tuple[tuple[float, ...], ...] | None
    orientation: int
    tolerances: dict[str, float] | None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def parse_config(raw: Any) -> SurfaceConfig:
    """Strict schema validation: unknown fields are rejected, since a typo in
    an expression-bearing config silently changes what gets verified."""
    if not isinstance(raw, dict):
        raise ConfigError("config top level must be a JSON object")
    unknown = sorted(set(raw) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    missing = sorted(set(_REQUIRED_FIELDS) - set(raw))
    if missing:
        raise ConfigError(f"missing config fields: {', '.join(missing)}")

    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError("name must be a non-empty string")
    dim = raw["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ConfigError("dim must be a positive integer")
    ambient = raw["ambient"]
    if ambient not in ("euclidean", "sphere"):
        raise ConfigError('ambient must be "euclidean" or "sphere"')

    variables = raw["variables"]
    if (not isinstance(variables, list) or len(variables) != dim
            or not all(isinstance(v, str) and v.isidentifier() for v in variables)
            or len(set(variables)) != dim):
        raise ConfigError(f"variables must be {dim} distinct identifier strings")
    variables = tuple(variables)

    expected = dim + (1 if ambient == "euclidean" else 2)
    components = raw["components"]
    if (not isinstance(components, list) or len(components) != expected
            or not all(isinstance(c, str) for c in components)):
        raise ConfigError(
            f"components must be a list of {expected} expression strings "
            f"({ambient} ambient over {dim} variables)")
    components = tuple(components)

    domain_raw = raw["domain"]
    if not isinstance(domain_raw, dict) or set(domain_raw) != set(variables):
        raise ConfigError("domain must map every variable (and nothing else) to [min, max]")
    domain = []
    for v in variables:
        iv = domain_raw[v]
        if (not isinstance(iv, list) or len(iv) != 2
                or not all(_is_number(x) for x in iv) or not iv[0] < iv[1]):
            raise ConfigError(f"domain[{v!r}] must be [min, max] with finite min < max")
        domain.append((float(iv[0]), float(iv[1])))

    sample_counts = explicit_points = None
    if "samples" in raw:
        samples = raw["samples"]
        if isinstance(samples, dict):
            if set(samples) != set(variables):
                raise ConfigError("sample counts must cover every variable exactly")
            counts = []
            for v in variables:
                c = samples[v]
                if not isinstance(c, int) or isinstance(c, bool) or c < 2:
                    raise ConfigError("per-variable sample counts must be integers >= 2")
                counts.append(c)
            sample_counts = tuple(counts)
        elif isinstance(samples, list):
            if not samples:
                raise ConfigError("explicit sample point list must not be empty")
            if len(samples) > geometry._SAMPLE_CAP:
                raise ConfigError(f"explicit sample point list has {len(samples)} points,"
                                  f" more than {geometry._SAMPLE_CAP}")
            pts = []
            for p in samples:
                if (not isinstance(p, list) or len(p) != dim
                        or not all(_is_number(x) for x in p)):
                    raise ConfigError(f"explicit sample points must be length-{dim} number lists")
                pts.append(tuple(float(x) for x in p))
            explicit_points = tuple(pts)
        else:
            raise ConfigError("samples must be a per-variable count object or a list of points")

    orientation = raw.get("orientation", 1)
    if isinstance(orientation, bool) or orientation not in (1, -1):
        raise ConfigError("orientation must be 1 or -1")

    tolerances = None
    if "tolerances" in raw:
        tol_raw = raw["tolerances"]
        if not isinstance(tol_raw, dict):
            raise ConfigError("tolerances must be an object")
        bad = sorted(set(tol_raw) - set(biharmonic.Tolerances._fields))
        if bad:
            raise ConfigError(f"unknown tolerance fields: {', '.join(bad)}")
        for key, val in tol_raw.items():
            if not _is_number(val) or val <= 0:
                raise ConfigError(f"tolerance {key} must be a positive number")
        tolerances = {k: float(v) for k, v in sorted(tol_raw.items())}

    return SurfaceConfig(name, dim, ambient, variables, components, tuple(domain),
                         sample_counts, explicit_points, int(orientation), tolerances)


def load_config(path: str) -> tuple[dict, SurfaceConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return raw, parse_config(raw)


def build_chart(cfg: SurfaceConfig) -> geometry.ImmersionChart:
    sampling = geometry.SamplingSpec(counts=cfg.sample_counts) if cfg.sample_counts else None
    try:
        return geometry.chart_from_strings(cfg.name, cfg.variables, cfg.components,
                                           cfg.domain, ambient=cfg.ambient, sampling=sampling)
    except exprjet.ExpressionError:
        raise
    except geometry.GeometryError as exc:
        raise ConfigError(str(exc)) from exc


def _tolerances(cfg: SurfaceConfig) -> biharmonic.Tolerances:
    return biharmonic.Tolerances(**(cfg.tolerances or {}))


def _note_thinned_grid(command: str, cfg: SurfaceConfig, chart, default_count: int):
    """One stderr line when the sample grid is cut to the point cap: its
    requested and its sampled counts per variable."""
    if cfg.explicit_points is not None:
        return
    requested, sampled = chart.grid_counts(default_count)
    if requested != sampled:
        print(f"{command}: sample grid {'x'.join(map(str, requested))} -> "
              f"{'x'.join(map(str, sampled))} (cap {geometry._SAMPLE_CAP} points)",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# Serialization


def _is_record(obj) -> bool:
    """Whether `obj` is one of the package's NamedTuple records rather than
    a plain tuple."""
    return isinstance(obj, tuple) and hasattr(obj, "_fields")


def _sanitize(obj):
    """JSON-safe copy: records to dicts of their fields, fractions to
    exact strings, non-finite floats to null, tuples to lists. Output
    ordering is left to the sorted-keys dump."""
    if hasattr(obj, "item") and not isinstance(obj, (list, tuple, dict)):
        obj = obj.item()  # numpy scalar
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, Fraction):
        return str(obj)
    if _is_record(obj):
        return {k: _sanitize(v) for k, v in obj._asdict().items()}
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return str(obj)


def _digest(command: str, inputs: dict) -> str:
    canonical = json.dumps({"command": command, "inputs": _sanitize(inputs)},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _csv_cell(value) -> str:
    if hasattr(value, "item") and not isinstance(value, (list, tuple)):
        value = value.item()  # numpy scalar
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value)) if math.isfinite(value) else ""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)) and not _is_record(value):
        return json.dumps(_sanitize(value))
    return str(value)


def _emit_csv(tables: dict[str, tuple[list[str], list[list]]]):
    writer = csv.writer(sys.stdout)
    first = True
    for name, (headers, rows) in tables.items():
        if not first:
            sys.stdout.write("\r\n")
        first = False
        writer.writerow(["table"] + headers)
        for row in rows:
            writer.writerow([name] + [_csv_cell(v) for v in row])


class _Outcome(NamedTuple):
    command: str
    inputs: dict
    results: Any
    exit_code: int = EXIT_OK
    tables: dict[str, tuple[list[str], list[list]]] | None = None


# ---------------------------------------------------------------------------
# Handlers


def _cmd_verify(args) -> _Outcome:
    raw, cfg = load_config(args.config)
    if cfg.ambient != "euclidean":
        raise ConfigError('verify needs ambient "euclidean" (use verify-link for links)')
    chart = build_chart(cfg)
    _note_thinned_grid("verify", cfg, chart, biharmonic._GRID_COUNT)
    report = biharmonic.hypersurface_residual(chart, points=cfg.explicit_points,
                                              orientation=cfg.orientation,
                                              tolerances=_tolerances(cfg))
    headers = list(cfg.variables) + ["ok", "f", "grad_f_norm", "residual_norm",
                                     "near_minimal", "error", "verdict"]
    rows = [[*p.point, p.ok, p.f, p.grad_f_norm, p.residual_norm,
             p.near_minimal, p.error or "", report.verdict]
            for p in report.points]
    code = EXIT_NUMERIC if report.verdict == biharmonic.INCONCLUSIVE else EXIT_OK
    return _Outcome("verify", {"config": raw}, report.as_dict(), code,
                    tables={"points": (headers, rows)})


def _cmd_verify_link(args) -> _Outcome:
    raw, cfg = load_config(args.config)
    if cfg.ambient != "sphere":
        raise ConfigError('verify-link needs ambient "sphere"')
    chart = build_chart(cfg)
    _note_thinned_grid("verify-link", cfg, chart, biharmonic._LINK_COUNT)
    report = biharmonic.link_residual_system(chart, points=cfg.explicit_points,
                                             orientation=cfg.orientation,
                                             tolerances=_tolerances(cfg))
    code = EXIT_NUMERIC if report.verdict == biharmonic.INCONCLUSIVE else EXIT_OK
    return _Outcome("verify-link", {"config": raw}, report.as_dict(), code)


def _cmd_sphere_cone(args) -> _Outcome:
    try:
        sol = hypercone.sphere_link_solver(args.m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if sol is None:
        results = {"m": args.m, "solution": None,
                   "note": "no admissible radius: the condition needs m > 2"}
    else:
        results = sol
    return _Outcome("solve sphere-cone", {"m": args.m}, results)


def _cmd_clifford_cone(args) -> _Outcome:
    try:
        found = hypercone.clifford_link_solver(args.m, args.m1)
    except ValueError as exc:
        if "no real solutions" in str(exc):
            return _Outcome("solve clifford-cone", {"m": args.m, "m1": args.m1},
                            {"m": args.m, "m1": args.m1, "m2": args.m - args.m1,
                             "roots": [], "note": str(exc)})
        raise ConfigError(str(exc)) from exc
    results = {"m": args.m, "m1": args.m1, "m2": args.m - args.m1,
               "roots": found}
    return _Outcome("solve clifford-cone", {"m": args.m, "m1": args.m1}, results)


def _iso_spec_from_args(args) -> isoparametric.IsoparametricSpec:
    given = {k for k in ("q", "m1", "m2", "mult") if getattr(args, k) is not None}
    needed = {1: ({"m1"}, "--l 1 takes --m1 (the single multiplicity)"),
              2: ({"m1", "m2"}, "--l 2 takes --m1 and --m2"),
              3: ({"q"}, "--l 3 takes --q (multiplicities are 2^q)"),
              4: ({"m1", "m2"}, "--l 4 takes --m1 and --m2"),
              6: ({"mult"}, "--l 6 takes --mult (1 or 2)")}
    if args.ell not in needed:
        raise ConfigError("--l must be one of 1, 2, 3, 4, 6")
    required, usage = needed[args.ell]
    if given != required:
        raise ConfigError(usage)
    Spec = isoparametric.IsoparametricSpec
    try:
        if args.ell == 1:
            return Spec.type1(args.m1)
        if args.ell == 2:
            return Spec.type2(args.m1, args.m2)
        if args.ell == 3:
            return Spec.type3(args.q)
        if args.ell == 4:
            return Spec.type4(args.m1, args.m2)
        return Spec.type6(args.mult)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_isoparametric(args) -> _Outcome:
    spec = _iso_spec_from_args(args)
    inputs = {"l": args.ell}
    for k in ("q", "m1", "m2", "mult"):
        if getattr(args, k) is not None:
            inputs[k] = getattr(args, k)
    try:
        found = isoparametric.classify_type(spec)
    except ValueError as exc:
        if "no real solutions" in str(exc):
            found = []
        else:
            raise ConfigError(str(exc)) from exc
    results = {"ell": spec.ell, "multiplicities": list(spec.multiplicities),
               "m": spec.m, "roots": found}
    if spec.ell in (3, 4, 6):
        poly = isoparametric.condition_polynomial(spec).content_normalized()
        results["condition_coefficients"] = [str(c) for c in poly.coeffs]
    if not found:
        results["note"] = "no real roots"
    return _Outcome("solve isoparametric", inputs, results)


def _cmd_takagi(args) -> _Outcome:
    try:
        sols = isoparametric.takagi_solver(args.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    results = {"n": args.n,
               "sin_sq_2theta": [s.sin_sq_2theta for s in sols],
               "solutions": sols}
    if not sols:
        results["note"] = "no real roots"
    return _Outcome("solve takagi", {"n": args.n}, results)


_R3_PROBES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
              (0.5, -2.0), (-1.5, 0.3))


def _cmd_check_r3(args) -> _Outcome:
    certificate = {
        "system": ["k''' + k' = 0", "k*(3 + k^2) + 3*k'' = 0"],
        "eliminations": [
            "differentiate the second equation: 3*k''' + k'*(3 + 3*k^2) = 0",
            "substitute k''' = -k' from the first: 3 * k' * k^2 = 0",
            "so k' k^2 = 0; differentiate: k''*k^2 + 2*k*k'^2 = 0",
            "differentiate once more (k''' = -k'): -k'*k^2 + 6*k*k'*k'' + 2*k'^3 = 0",
        ],
        "conclusion": "k' k^2 = 0 together with its prolongations forces "
                      "k = k' = 0, hence k == 0: the Gauss map of such a cone "
                      "is harmonic, never proper biharmonic",
    }
    probes = [hypercone.r3_ode_check(k0, k0_dot) for k0, k0_dot in _R3_PROBES]
    only_trivial = probes[0].consistent and not any(p.consistent for p in probes[1:])
    results = {"certificate": certificate,
               "probes": probes,
               "only_trivial_consistent": only_trivial}
    code = EXIT_OK if only_trivial else EXIT_NUMERIC
    return _Outcome("check cone-r3", {}, results, code)


def _cmd_check_r4(args) -> _Outcome:
    raw, cfg = load_config(args.config)
    if cfg.ambient != "sphere" or cfg.dim != 2:
        raise ConfigError("cone-r4 needs a 2d sphere-ambient link chart")
    chart = build_chart(cfg)
    obstruction = biharmonic.r4_obstruction(chart)
    return _Outcome("check cone-r4", {"config": raw}, obstruction.as_dict())


# Longest rational token, its exponent counted as digits: below Python's
# 4300-digit int <-> str limit, so every accepted number builds fast and prints.
_MAX_DIGITS = 4000


def _rational(token: str, what: str) -> Fraction:
    """The rational number a token spells (an integer, a decimal with an
    optional exponent, or a/b), checked for size before it is built."""
    exponent = token.lower().partition("e")[2].lstrip("+-")
    if len(exponent) >= 10 or len(token) + (
            int(exponent) if exponent.isdecimal() else 0) > _MAX_DIGITS:
        raise ConfigError(f"bad {what}: more than {_MAX_DIGITS} digits, exponent included")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _cmd_roots(args) -> _Outcome:
    coeffs = [_rational(t.strip(), "coefficient") for t in args.coeffs.split(",")]
    if not coeffs or all(c == 0 for c in coeffs):
        raise ConfigError("the zero polynomial has no isolated roots")
    poly = roots.Polynomial.from_coeffs(coeffs)
    lo, hi = roots.NEG_INF, roots.POS_INF
    lo_s, hi_s = "-inf", "inf"
    inputs = {"coeffs": [str(c) for c in coeffs], "range": None}
    if args.range_spec is not None:
        parts = args.range_spec.split(",")
        if len(parts) != 2:
            raise ConfigError("--range needs two comma-separated endpoints")
        lo_f, hi_f = (_rational(t.strip(), "range endpoint") for t in parts)
        if not lo_f < hi_f:
            raise ConfigError("--range needs a < b")
        lo, hi = lo_f, hi_f
        lo_s, hi_s = str(lo_f), str(hi_f)
        inputs["range"] = [lo_s, hi_s]
    intervals = roots.isolate_and_refine(poly, lo, hi)
    results = {
        "coefficients": [str(c) for c in coeffs],
        "degree": poly.degree,
        "range": [lo_s, hi_s],
        "count": len(intervals),
        "roots": [{"lo": float(iv.lo), "hi": float(iv.hi),
                   "value": iv.value, "certified": iv.certified}
                  for iv in intervals],
    }
    return _Outcome("roots", inputs, results)


_SPHERE_HEADERS = ["m", "a", "a_sq_exact", "shape_norm_sq", "f_value", "theta",
                   "identity_exact"]
_CLIFFORD_HEADERS = ["m", "m1", "m2", "r1_sq", "r2_sq", "shape_norm_sq", "k1",
                     "theta", "minimal", "theorem_ok", "proposition_ok", "flag"]
_CLASSIFIED_HEADERS = ["ell", "multiplicities", "variable", "value", "k1",
                       "theta", "shape_norm_sq", "minimal", "flag"]
_TAKAGI_HEADERS = ["n", "sin_sq_2theta", "exact", "theta", "lam",
                   "quartic_residual", "cot_sq_theta", "minimal"]


def _rows(items, headers):
    return [[getattr(it, h) for h in headers] for it in items]


def _cmd_report(args) -> _Outcome:
    if not args.all:
        raise ConfigError("report requires --all")
    n_max = args.n_max
    if n_max < 9:
        raise ConfigError("--n-max must be at least 9")
    Spec = isoparametric.IsoparametricSpec
    classify = isoparametric.classify_type
    sphere = [hypercone.sphere_link_solver(m) for m in range(3, 13)]
    clifford = [r for m in range(4, 13) for m1 in range(1, m)
                for r in hypercone.clifford_link_solver(m, m1) if r.flag == "valid"]
    l3 = [r for q in range(4) for r in classify(Spec.type3(q)) if not r.minimal]
    l4_homogeneous = [r for pair in ((2, 2), (4, 5))
                      for r in classify(Spec.type4(*pair)) if not r.minimal]
    l4_takagi = [s for n in range(9, n_max + 1, 2)
                 for s in isoparametric.takagi_solver(n) if not s.minimal]
    l6 = [r for mult in (1, 2) for r in classify(Spec.type6(mult)) if not r.minimal]
    results = {
        "sphere_links": sphere,
        "clifford_links": clifford,
        "isoparametric_l3": l3,
        "isoparametric_l4_homogeneous": l4_homogeneous,
        "isoparametric_l4_takagi": l4_takagi,
        "isoparametric_l6": l6,
    }
    tables = {
        "sphere_links": (_SPHERE_HEADERS, _rows(sphere, _SPHERE_HEADERS)),
        "clifford_links": (_CLIFFORD_HEADERS, _rows(clifford, _CLIFFORD_HEADERS)),
        "isoparametric_l3": (_CLASSIFIED_HEADERS, _rows(l3, _CLASSIFIED_HEADERS)),
        "isoparametric_l4_homogeneous":
            (_CLASSIFIED_HEADERS, _rows(l4_homogeneous, _CLASSIFIED_HEADERS)),
        "isoparametric_l4_takagi": (_TAKAGI_HEADERS, _rows(l4_takagi, _TAKAGI_HEADERS)),
        "isoparametric_l6": (_CLASSIFIED_HEADERS, _rows(l6, _CLASSIFIED_HEADERS)),
    }
    return _Outcome("report --all", {"n_max": n_max}, results, tables=tables)


# ---------------------------------------------------------------------------
# Parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausslab",
        description="Verify harmonicity and biharmonicity of Gauss maps of "
                    "parametrized hypersurfaces, and solve the hypercone "
                    "link conditions.")
    parser.add_argument("--version", action="version",
                        version=f"gausslab {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("verify", help="residual report for a euclidean chart config")
    p.add_argument("--config", required=True, metavar="FILE")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("verify-link", help="coupled link system for a sphere chart config")
    p.add_argument("--config", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_verify_link)

    solve = sub.add_parser("solve", help="closed-form link solvers")
    ssub = solve.add_subparsers(dest="family")

    p = ssub.add_parser("sphere-cone", help="small-sphere link radius")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_sphere_cone)

    p = ssub.add_parser("clifford-cone", help="product-of-spheres link radii")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--m1", type=int, required=True)
    p.set_defaults(handler=_cmd_clifford_cone)

    p = ssub.add_parser("isoparametric", help="isoparametric link condition roots")
    p.add_argument("--l", dest="ell", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--mult", type=int, default=None)
    p.set_defaults(handler=_cmd_isoparametric)

    p = ssub.add_parser("takagi", help="homogeneous family with n - 2 and 2 multiplicities")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_takagi)

    check = sub.add_parser("check", help="non-existence certificates")
    csub = check.add_subparsers(dest="what")

    p = csub.add_parser("cone-r3", help="planar-cone elimination certificate")
    p.set_defaults(handler=_cmd_check_r3)

    p = csub.add_parser("cone-r4", help="integral obstruction for a 2d link")
    p.add_argument("--config", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_check_r4)

    p = sub.add_parser("roots", help="isolate real roots of a rational polynomial")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated, constant term first; rationals like 1/3 allowed")
    p.add_argument("--range", dest="range_spec", default=None, metavar="A,B")
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser("report", help="regenerate the full hypercone catalog")
    p.add_argument("--all", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--n-max", dest="n_max", type=int, default=13,
                   help="largest n for the homogeneous family rows (default 13)")
    p.set_defaults(handler=_cmd_report)

    return parser


# flags whose values may start with '-' (negative leading coefficients,
# negative range endpoints); joined with '=' so argparse does not read the
# value as an option token
_VALUE_FLAGS = ("--coeffs", "--range")


def _join_value_flags(argv: Sequence[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_value_flags(list(argv)))
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    start = time.perf_counter()
    try:
        outcome = args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except exprjet.ExpressionError as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (geometry.GeometryError, exprjet.DomainError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # a fault of the program: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    if getattr(args, "format", "json") == "csv" and outcome.tables is not None:
        _emit_csv(outcome.tables)
    else:
        payload = {
            "command": outcome.command,
            "digest": _digest(outcome.command, outcome.inputs),
            "inputs": _sanitize(outcome.inputs),
            "results": _sanitize(outcome.results),
            "version": __version__,
        }
        print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    elapsed = time.perf_counter() - start
    print(f"{outcome.command}: elapsed {elapsed:.3f} s", file=sys.stderr)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
