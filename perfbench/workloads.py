"""Seeded inputs and operations of the four workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs come only from the seed; the
program sees nothing but the generated inputs. Imports of gausslab happen
inside the builders, so that a fresh interpreter can time them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle

WORKLOADS = ("cli-readme", "catalog", "cone-gallery", "link-grid")

# The command lines of the README's CLI section, in README order
# (perfbench/tests/test_selfcheck.py keeps this list in step with the README).
README_COMMANDS = (
    ("verify", "--config", "configs/sphere_S2.json"),
    ("verify", "--config", "configs/cone_S3.json", "--format", "csv"),
    ("verify-link", "--config", "configs/sphere_link_S3.json"),
    ("solve", "sphere-cone", "--m", "3"),
    ("solve", "clifford-cone", "--m", "4", "--m1", "1"),
    ("solve", "isoparametric", "--l", "3", "--q", "2"),
    ("solve", "isoparametric", "--l", "1", "--m1", "3"),
    ("solve", "takagi", "--n", "9"),
    ("check", "cone-r3"),
    ("check", "cone-r4", "--config", "configs/torus_link.json"),
    ("roots", "--coeffs", "-6,11,-6,1", "--range", "0,5/2"),
    ("report", "--all"),
    ("report", "--all", "--format", "csv", "--n-max", "15"),
)

# In-process catalog calls. All of them run on every pass (the seed sets
# their order), so the work per pass does not depend on the seed. With the
# README roots call and ROOT_SHAPES a pass has an odd number (33) of calls,
# so the median call is one call's latency, not the mean of two neighbours.
CATALOG_REPORTS = (
    ("report", "--all"),
    ("report", "--all", "--format", "csv"),
    ("report", "--all", "--n-max", "17"),
    ("report", "--all", "--format", "csv", "--n-max", "17"),
)
CATALOG_SOLVES = (
    *(("solve", "isoparametric", "--l", "1", "--m1", str(m)) for m in (2, 3, 4, 5)),
    *(("solve", "isoparametric", "--l", "2", "--m1", str(a), "--m2", str(b))
      for a, b in ((1, 2), (2, 3), (3, 3), (1, 5))),
    *(("solve", "isoparametric", "--l", "3", "--q", str(q)) for q in range(4)),
    *(("solve", "isoparametric", "--l", "4", "--m1", str(a), "--m2", str(b))
      for a, b in ((2, 2), (4, 5), (1, 2), (3, 4))),
    *(("solve", "isoparametric", "--l", "6", "--mult", str(k)) for k in (1, 2)),
    *(("solve", "takagi", "--n", str(n)) for n in (9, 11, 13, 15, 17, 19)),
)
# (rational roots, quadratic-irrational pairs, restricted --range) per
# generated roots polynomial; degrees 4, 5, 3 and 6
ROOT_SHAPES = ((2, 1, False), (1, 2, True), (3, 0, True), (2, 2, False))
SQUAREFREE = (2, 3, 5, 6, 7, 10, 11)

LINK_GRID = 4  # samples per axis of the S^1 x S^3 link grid
OP_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One closed-loop operation: ``run`` returns the output that ``check``
    judges; ``check`` returns None when the output is correct, else why not.
    ``dim`` is the chart dimension of a single-point residual op; ``points``
    the residual sample points the op evaluates; ``pooled`` marks an op
    whose work runs in the program's pool workers."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    dim: int | None = None
    points: int = 0
    meta: dict = field(default_factory=dict)
    pooled: bool = False


# ---------------------------------------------------------------------------
# Seeded inputs


def _root_case(rng: random.Random, n_rational: int, n_pairs: int, ranged: bool):
    """A polynomial with known distinct roots: rationals p/q and pairs
    a +- sqrt(b) with b square-free, so the root count is known by
    construction. Coefficients are scaled to coprime integers."""
    rationals: set[Fraction] = set()
    while len(rationals) < n_rational:
        rationals.add(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    pairs: set[tuple[Fraction, int]] = set()
    while len(pairs) < n_pairs:
        pairs.add((Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))),
                   rng.choice(SQUAREFREE)))
    coeffs = [Fraction(1)]
    factors = [[-r, Fraction(1)] for r in sorted(rationals)]
    factors += [[a * a - b, -2 * a, Fraction(1)] for a, b in sorted(pairs)]
    for f in factors:
        out = [Fraction(0)] * (len(coeffs) + len(f) - 1)
        for i, c in enumerate(coeffs):
            for j, d in enumerate(f):
                out[i + j] += c * d
        coeffs = out
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    roots = sorted([float(r) for r in rationals]
                   + [float(a) + s * math.sqrt(b) for a, b in pairs for s in (-1, 1)])
    argv = ["roots", "--coeffs", ",".join(str(c) for c in ints)]
    if ranged:
        # endpoints are rationals strictly inside gaps between known roots
        gaps = ([(roots[0] - 2.0, roots[0])] + list(zip(roots, roots[1:]))
                + [(roots[-1], roots[-1] + 2.0)])
        i = rng.randrange(0, len(gaps) - 1)
        j = rng.randrange(i + 1, len(gaps))
        lo, hi = (_rational_inside(*gaps[i]), _rational_inside(*gaps[j]))
        argv += ["--range", f"{lo},{hi}"]
        roots = [r for r in roots if float(lo) < r <= float(hi)]
    return {"argv": argv, "roots": roots}


def _rational_inside(x: float, y: float) -> Fraction:
    mid = Fraction((x + y) / 2.0)
    for den in (1, 2, 4, 8, 16, 64, 1024, 2 ** 20):
        r = Fraction(round(mid * den), den)
        if x + 1e-9 < r < y - 1e-9:
            return r
    return mid


def _uniform(rng, lo, hi, margin=0.05):
    pad = margin * (hi - lo)
    return rng.uniform(lo + pad, hi - pad)


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a run feeds the program, drawn from the seed alone."""
    rng = random.Random(f"gausslab-bench/{workload}/{seed}")
    if workload == "cli-readme":
        order = list(range(len(README_COMMANDS)))
        rng.shuffle(order)
        return {"order": order}
    if workload == "catalog":
        calls = [list(c) for c in CATALOG_REPORTS + CATALOG_SOLVES]
        calls += [list(README_COMMANDS[10])]
        roots = [_root_case(rng, *shape) for shape in ROOT_SHAPES]
        items = [{"argv": c} for c in calls] + roots
        rng.shuffle(items)
        return {"calls": items}
    if workload == "cone-gallery":
        return {"rng_state": rng.getrandbits(64)}
    if workload == "link-grid":
        return {"offsets": [rng.uniform(0.05, 0.95) for _ in range(4)]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# CLI operations


@contextlib.contextmanager
def _captured_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        yield out


def cli_in_process(argv):
    """gausslab.cli.main with stdout captured: (exit code, stdout)."""
    from gausslab import cli

    with _captured_stdout() as out:
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_subprocess(argv, root, env, trace_out=None):
    """A fresh ``python -m gausslab.cli`` (or the traced bootstrap when
    ``trace_out`` names a span file): (exit code, stdout)."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "gausslab.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "trace_cli.py"),
               trace_out, *argv]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stdout.decode("utf-8")


def _cli_op(argv, runner, golden, expected_roots=None):
    key = " ".join(argv)

    def check(result):
        code, stdout = result
        if expected_roots is not None:
            return oracle.check_roots(code, stdout, expected_roots)
        return oracle.check_cli(key, code, stdout, golden)

    return Op(key, lambda: runner(argv), check)


# ---------------------------------------------------------------------------
# Builders


def _warm_tables(chart):
    """Fill exprjet's index, multiplication and derivative tables for the
    chart's dimension at every order the residual uses."""
    point = tuple((lo + hi) / 2.0 for lo, hi in chart.domain)
    for order in range(6):
        jets = chart.component_jets(point, order)
        if order:
            for var in range(chart.dim):
                jets[0].derivative(var)


def _gallery():
    """Operations, each a list of (label, expected verdict, chart factory,
    fresh chart per call) items. Catalog cones must come out
    ProperBiharmonicGauss, controls not. The cheap charts of dimensions 2-4
    share one operation per dimension, so that the median operation is a
    dimension-5 point rather than the edge between two dimensions."""
    from gausslab.biharmonic import HARMONIC, NOT_BIHARMONIC, PROPER_BIHARMONIC
    from gausslab.hypercone import (
        build_cone_chart,
        clifford_link_chart,
        clifford_link_solver,
        polynomial_curvature_cylinder,
        sphere_link_chart,
        sphere_link_solver,
    )

    def sphere_cone(m, a_sq=None):
        a_sq = sphere_link_solver(m).a_sq_exact if a_sq is None else a_sq
        return build_cone_chart(sphere_link_chart(m, a_sq))

    def clifford_cone(m, m1, index, r1_sq=None):
        if r1_sq is None:
            valid = [r for r in clifford_link_solver(m, m1) if r.flag == "valid"]
            r1_sq = valid[index].r1_sq
        return build_cone_chart(clifford_link_chart(m1, m - m1, r1_sq))

    return [
        # cylinders over arc-length curves with curvature k(s): proper
        # biharmonic exactly when k''' = 0 and k is not constant
        [("cylinder k=1+s+s^2", PROPER_BIHARMONIC,
          lambda: polynomial_curvature_cylinder((1.0, 1.0, 1.0)), True),
         ("cylinder k=2", HARMONIC, lambda: polynomial_curvature_cylinder((2.0,)), True),
         ("cylinder k=s^3", NOT_BIHARMONIC,
          lambda: polynomial_curvature_cylinder((0.0, 0.0, 0.0, 1.0)), True)],
        # no cone in R^4 has proper biharmonic Gauss map
        [("cone over S^2(sqrt(1/2))", NOT_BIHARMONIC,
          lambda: sphere_cone(2, Fraction(1, 2)), False),
         ("cone over S^2(0.6)", NOT_BIHARMONIC, lambda: sphere_cone(2, 0.36), False)],
        [("cone over S^3 catalog", PROPER_BIHARMONIC, lambda: sphere_cone(3), False),
         ("cone over S^3(0.8)", NOT_BIHARMONIC, lambda: sphere_cone(3, 0.64), False)],
        [("cone over S^4 catalog", PROPER_BIHARMONIC, lambda: sphere_cone(4), False)],
        [("cone over S^1xS^3 root 0", PROPER_BIHARMONIC,
          lambda: clifford_cone(4, 1, 0), False)],
        [("cone over S^2xS^2 root 1", PROPER_BIHARMONIC,
          lambda: clifford_cone(4, 2, 1), False)],
        [("cone over S^1xS^3 r1^2=0.3", NOT_BIHARMONIC,
          lambda: clifford_cone(4, 1, 0, 0.3), False)],
        [("cone over S^5 catalog", PROPER_BIHARMONIC, lambda: sphere_cone(5), False)],
        [("cone over S^2xS^3 root 0", PROPER_BIHARMONIC,
          lambda: clifford_cone(5, 2, 0), False)],
        [("cone over S^5(0.7)", NOT_BIHARMONIC, lambda: sphere_cone(5, 0.49), False)],
        [("cone over S^6 catalog", PROPER_BIHARMONIC, lambda: sphere_cone(6), False)],
    ]


def _gallery_point(rng, chart, label):
    if label == "cylinder k=s^3":
        # keep |f| = |s|^3 / 2 well above the near-minimal cut-off
        s = rng.uniform(0.3, 0.9) * rng.choice((-1.0, 1.0))
        return (s, _uniform(rng, -1.0, 1.0))
    return tuple(_uniform(rng, lo, hi) for lo, hi in chart.domain)


def _residual_op(calls):
    """Serial single-point residuals, one per (label, verdict, chart, point,
    factory) call; a ``factory`` gives every call a fresh chart, since
    quadrature-backed components cache positions."""
    from gausslab.biharmonic import hypersurface_residual

    def run():
        return [hypersurface_residual(factory() if factory else chart, points=[point],
                                      workers=1)
                for _, _, chart, point, factory in calls]

    def check(reports):
        for (label, verdict, *_), report in zip(calls, reports):
            reason = oracle.check_residual(report, verdict, 1)
            if reason:
                return f"{label}: {reason}"
        return None

    return Op(" + ".join(c[0] for c in calls), run, check, dim=calls[0][2].dim,
              points=len(calls))


def build(workload: str, inputs: dict, root: str, golden: dict,
          env: dict | None = None, trace_dir: str | None = None) -> list[Op]:
    """Construct the operations of one pass: charts, solvers and warm jet
    tables are made here, so their cost is set-up, not measured work."""
    if workload == "cli-readme":
        ops = []
        for i in inputs["order"]:
            out = None if trace_dir is None else os.path.join(trace_dir, f"cli-{i}.json")
            runner = functools.partial(cli_subprocess, root=root, env=env, trace_out=out)
            op = _cli_op(README_COMMANDS[i], runner, golden)
            op.meta["trace_file"] = out
            ops.append(op)
        return ops

    import gausslab.cli  # noqa: F401  (the import every user call pays)

    if workload == "catalog":
        return [_cli_op(item["argv"], cli_in_process, golden, item.get("roots"))
                for item in inputs["calls"]]

    if workload == "cone-gallery":
        rng = random.Random(inputs["rng_state"])
        ops = []
        for group in _gallery():
            calls = []
            for label, verdict, factory, per_call in group:
                chart = factory()
                _warm_tables(chart)
                point = _gallery_point(rng, chart, label)
                calls.append((label, verdict, chart, point, factory if per_call else None))
            ops.append(_residual_op(calls))
        return ops

    if workload == "link-grid":
        from gausslab.biharmonic import link_residual_system, r4_obstruction
        from gausslab.cli import build_chart, load_config
        from gausslab.hypercone import clifford_link_chart, clifford_link_solver

        root_sol = [r for r in clifford_link_solver(4, 1) if r.flag == "valid"][0]
        link = clifford_link_chart(1, 3, root_sol.r1_sq)
        axes = []
        for (lo, hi), off in zip(link.domain, inputs["offsets"]):
            step = (hi - lo) / LINK_GRID
            axes.append([lo + (k + off) * step for k in range(LINK_GRID)])
        points = [(a, b, c, d) for a in axes[0] for b in axes[1]
                  for c in axes[2] for d in axes[3]]
        _, cfg = load_config(os.path.join(root, "configs", "torus_link.json"))
        torus = build_chart(cfg)
        for chart in (link, torus):
            _warm_tables(chart)
        grid_points = 24 * 24
        return [
            Op("link system S^1xS^3", lambda: link_residual_system(link, points=points),
               lambda rep: oracle.check_link(rep, len(points)), dim=4,
               points=len(points), meta={"chart": link, "points": points},
               pooled=True),
            Op("r4_obstruction torus_link", lambda: r4_obstruction(torus),
               lambda obs: oracle.check_r4(obs, golden), dim=2, points=grid_points),
        ]
    raise ValueError(f"unknown workload {workload!r}")
