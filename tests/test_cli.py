"""Command-line interface: exit codes, payload schema, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gausslab.cli import load_config, main
from gausslab.exprjet import FUNCTIONS, Num, _subtrees, parse_expression

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def write_config(tmp_path, name="tmp", **overrides):
    cfg = {
        "name": name,
        "dim": 2,
        "ambient": "euclidean",
        "variables": ["u", "v"],
        "components": ["u", "v", "u*v"],
        "domain": {"u": [-1.0, 1.0], "v": [-1.0, 1.0]},
        "samples": {"u": 3, "v": 3},
    }
    cfg.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# verify


def test_verify_sphere_harmonic(capsys):
    code, payload, err = run_json(
        capsys, "verify", "--config", str(CONFIGS / "sphere_S2.json"))
    assert code == 0
    assert sorted(payload) == ["command", "digest", "inputs", "results",
                               "version"]
    res = payload["results"]
    assert res["verdict"] == "HarmonicGauss"
    assert res["sample_count"] == 64
    assert res["failed_points"] == 0
    assert "elapsed" in err


def test_verify_cone_proper_biharmonic(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--config", str(CONFIGS / "cone_S3.json"))
    assert code == 0
    assert payload["results"]["verdict"] == "ProperBiharmonicGauss"
    assert payload["results"]["max_residual"] < 1e-8


def test_verify_output_is_deterministic(capsys):
    args = ("verify", "--config", str(CONFIGS / "sphere_S2.json"))
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args_csv = args + ("--format", "csv")
    _, first_csv, _ = run(capsys, *args_csv)
    _, second_csv, _ = run(capsys, *args_csv)
    assert first_csv == second_csv
    assert first_csv != first


def test_verify_csv_table(capsys):
    code, out, _ = run(capsys, "verify", "--config",
                       str(CONFIGS / "sphere_S2.json"), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["table", "u", "v", "ok", "f", "grad_f_norm",
                       "residual_norm", "near_minimal", "error", "verdict"]
    body = [r for r in rows[1:] if r]
    assert len(body) == 64
    assert all(r[0] == "points" and r[3] == "true" for r in body)
    assert all(r[-1] == "HarmonicGauss" for r in body)


def test_verify_rejects_sphere_ambient_config(capsys):
    code, _, err = run(capsys, "verify", "--config",
                       str(CONFIGS / "sphere_link_S3.json"))
    assert code == 2
    assert "euclidean" in err


def test_verify_inconclusive_is_numeric_failure(capsys, tmp_path):
    path = write_config(tmp_path, name="pinch",
                        components=["u^3", "v", "0"],
                        samples={"u": 5, "v": 4})
    code, out, _ = run(capsys, "verify", "--config", path)
    assert code == 4
    payload = json.loads(out)
    assert payload["results"]["verdict"] == "Inconclusive"
    assert payload["results"]["failed_points"] == 4


def test_verify_parse_error_in_component(capsys, tmp_path):
    path = write_config(tmp_path, name="broken",
                        components=["cos(u)*", "v", "0"])
    code, _, err = run(capsys, "verify", "--config", path)
    assert code == 3
    assert "offset 7" in err


@pytest.mark.parametrize("component", [
    "u^(sqrt(0-1))",    # math domain error while folding the exponent
    "u^((0-1)^0.5)",    # complex exponent
    "u^(1/0)",          # division by zero while folding the exponent
    "1e400*u",          # literal overflows to inf
])
def test_verify_non_finite_constant_is_parse_error(capsys, tmp_path, component):
    path = write_config(tmp_path, name="constant",
                        components=[component, "v", "0"])
    code, out, err = run(capsys, "verify", "--config", path)
    assert code == 3
    assert out == ""
    assert err.startswith("expression error:")
    assert "Traceback" not in err


def _nodes(node):
    """Every sub-tree of an AST, the tree itself first."""
    yield node
    for sub in _subtrees(node):
        yield from _nodes(sub)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("component, kept", [
    ("u + 0*log(0-1)", "log(0-1)"),  # a domain error
    ("(1e308*10)*u", "1e308*10"),     # overflows to inf
    ("2^1e10*u", "2^1e10"),           # an integer power that overflows
    ("u/(1-1)", "u/(1-1)"),           # division by a constant zero
    ("cot(0)*u+v", "cot(0)"),         # a pole
])
def test_verify_unfoldable_constant_fails_its_points(capsys, tmp_path, component, kept):
    # a constant that does not fold to a finite number stays in the tree, with
    # no numpy warning at parse time, and fails the points that evaluate it
    tree = parse_expression(kept, ("u", "v"))
    assert not isinstance(tree, Num)
    assert tree in _nodes(parse_expression(component, ("u", "v")))
    path = write_config(tmp_path, name="unfoldable", components=[component, "v", "0"])
    code, out, _ = run(capsys, "verify", "--config", path)
    assert code == 4
    assert json.loads(out)["results"]["verdict"] == "Inconclusive"


@pytest.mark.parametrize("component", ["u^1e10", "u^(0-1e300)", "u^40000"])
def test_verify_huge_integer_power_finishes(tmp_path, component):
    path = write_config(tmp_path, name="power", components=["u", "v", component],
                        domain={"u": [0.1, 0.9], "v": [-1.0, 1.0]},
                        samples={"u": 2, "v": 2})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gausslab.cli", "verify", "--config", path],
                          capture_output=True, text=True, timeout=60, env=env)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode in (0, 3, 4)
    assert "Traceback" not in proc.stderr


def test_verify_overflowing_power_fails_points_without_numpy_warning(tmp_path):
    path = write_config(tmp_path, name="power", components=["u", "v", "u^(0-1e300)"],
                        domain={"u": [0.1, 0.9], "v": [-1.0, 1.0]},
                        samples={"u": 2, "v": 2})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "gausslab.cli", "verify", "--config", path],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["results"]["verdict"] == "Inconclusive"
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_non_finite_rows_fail_their_points(capsys, tmp_path):
    # the component jets and the metric of 1e308 u^2 are finite at u = 0,
    # but its curvature overflows there: each point fails, and no row is a
    # verdict
    samples = [[0.0, 0.3], [0.0, -0.2], [0.0, 0.5]]
    path = write_config(tmp_path, name="huge", components=["u", "v", "1e308*u*u"],
                        samples=samples)
    code, payload, _ = run_json(capsys, "verify", "--config", path)
    assert code == 4
    res = payload["results"]
    assert (res["verdict"], res["failed_points"]) == ("Inconclusive", 3)
    assert [p["error"] for p in res["points"]] == [
        f"row fields are not finite at {tuple(p)}" for p in samples]


def test_verify_names_the_base_value_of_an_overflowing_series(capsys, tmp_path):
    # exp(u) overflows at u = 800 alone: its batch pass fails, and the
    # point's row carries the one-point error, which names the base value
    samples = [[0.1 * k, 0.2] for k in range(10)] + [[800.0, 0.3]]
    path = write_config(tmp_path, name="overflow", components=["u", "v", "exp(u)*v"],
                        samples=samples)
    code, payload, _ = run_json(capsys, "verify", "--config", path)
    res = payload["results"]
    assert (code, res["failed_points"]) == (0, 1)
    assert [p["error"] for p in res["points"]] == [None] * 10 + ["exp(800.0) is not finite"]


def test_verify_past_the_jet_table_bound_is_numeric_failure(tmp_path):
    # order-5 jet tables key multi-indices in base 6, and 6^25 overflows a
    # machine integer: the run stops before any table is built
    names = [f"x{i}" for i in range(25)]
    path = write_config(tmp_path, name="dim25", dim=25, variables=names,
                        components=names + ["0"],
                        domain={n: [-1.0, 1.0] for n in names}, samples=[[0.5] * 25])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gausslab.cli", "verify", "--config", path],
                          capture_output=True, text=True, timeout=60, env=env)
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == 4
    assert "dimension 25 at order 5" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("component", [
    "(" * 3000 + "u" + ")" * 3000,  # nested parentheses
    "-" * 5000 + "u",               # unary minuses
    "+".join(["u"] * 20000),        # a left-deep sum
])
def test_verify_deeply_nested_expression_is_parse_error(tmp_path, component):
    cfg = json.loads((CONFIGS / "sphere_S2.json").read_text())
    cfg["components"][0] = component
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "gausslab.cli", "verify", "--config",
                           str(path)], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("expression error:")
    assert "deeper than 100 levels" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("component", ["2\u00b2*u", "\u0663*u"])
def test_verify_non_ascii_digit_is_parse_error(tmp_path, component):
    cfg = json.loads((CONFIGS / "sphere_S2.json").read_text())
    cfg["components"][0] = component
    path = tmp_path / "digit.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "gausslab.cli", "verify", "--config",
                           str(path)], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("expression error:")
    assert "Traceback" not in proc.stderr


# the exact commands run on Fractions and integers; every library module
# loads on first use, while the modules sit in sys.modules from the start,
# where the benchmark's tracer looks them up by name. `roots` executes the
# roots module alone, and no exact command loads numpy or `dataclasses`
# (whose import brings `inspect`)
def test_exact_commands_do_not_load_numpy():
    roots = ["roots", "--coeffs", "-6,11,-6,1", "--range", "0,5/2"]
    exact = [["solve", "sphere-cone", "--m", "3"],
             ["solve", "clifford-cone", "--m", "4", "--m1", "1"],
             ["solve", "isoparametric", "--l", "3", "--q", "2"],
             ["solve", "takagi", "--n", "9"],
             ["check", "cone-r3"],
             ["report", "--all"],
             ["report", "--all", "--format", "csv"]]
    verify = ["verify", "--config", str(CONFIGS / "sphere_S2.json")]
    script = ("import contextlib, importlib.util, io, sys\n"
              "from gausslab.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = main({roots!r})\n"
              "print(code, [type(sys.modules[f'gausslab.{m}']) is importlib.util._LazyModule\n"
              "             for m in ('hypercone', 'isoparametric', 'roots')])\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [main(argv) for argv in {exact!r}]\n"
              "print(codes, [m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')],\n"
              "      all(f'gausslab.{m}' in sys.modules\n"
              "          for m in ('exprjet', 'geometry', 'biharmonic')))\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = main({verify!r})\n"
              "print(code, 'numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 [True, True, False]",
                                        f"{[0] * len(exact)} [False, False, False] True",
                                        "0 True"]


def _fresh_python(script):
    """stdout lines of `script` run in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# the digest is the only use of hashlib, which loads OpenSSL, and CSV output
# the only use of csv: importing the CLI loads neither, and a CSV command
# loads no hashlib
def test_cli_import_loads_no_hashlib_or_csv():
    verify = ["verify", "--config", str(CONFIGS / "cone_S3.json"), "--format", "csv"]
    script = ("import contextlib, io, sys\n"
              "from gausslab.cli import main\n"
              "heavy = ('hashlib', '_hashlib', 'csv')\n"
              "print([m for m in heavy if m in sys.modules])\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = main({verify!r})\n"
              "print(code, [m for m in heavy if m in sys.modules])\n")
    assert _fresh_python(script) == ["[]", "0 ['csv']"]


# the benchmark's tracer (perfbench/tracing.py) looks `r3_ode_check` up in
# gausslab.biharmonic and patches the function it finds wherever it sits, so
# that name must resolve to the one `check cone-r3` calls
def test_biharmonic_resolves_the_r3_certificate_of_hypercone():
    import gausslab.biharmonic
    import gausslab.hypercone

    assert gausslab.biharmonic.r3_ode_check is gausslab.hypercone.r3_ode_check
    assert gausslab.biharmonic.R3CheckResult is gausslab.hypercone.R3CheckResult


# JSON stdout recorded before the hypersurface and link residuals shared one
# kernel; the torus link is NotBiharmonic, so its scalar link residuals are
# non-zero
@pytest.mark.parametrize("command, config, recorded", [
    ("verify", "sphere_S2.json", "verify_sphere_S2.json"),
    ("verify-link", "sphere_link_S3.json", "verify_link_sphere_link_S3.json"),
    ("verify-link", "torus_link.json", "verify_link_torus_link.json"),
])
def test_verify_output_matches_recorded(capsys, command, config, recorded):
    code, payload, _ = run_json(capsys, command, "--config", str(CONFIGS / config))
    assert code == 0
    expected = json.loads((DATA / recorded).read_text())
    _assert_close(_roundoff_parts(payload), _roundoff_parts(expected), "$")


def _roundoff_parts(payload):
    """The payload with `residual_threshold` = eps_abs + eps_rel * scale
    replaced by its part eps_rel * scale. That part is roundoff-sized where
    the residual terms vanish (1.2e-19 on sphere_S2), so it is compared by
    the rule for values below 1e-10 rather than to 1e-12 of eps_abs."""
    results = payload["results"]
    if "residual_threshold" not in results:
        return payload
    eps_abs = results["tolerances"]["eps_abs"]
    results = dict(results, residual_threshold=results["residual_threshold"] - eps_abs)
    return dict(payload, results=results)


def _assert_close(new, old, where):
    """Same keys and lengths everywhere; floats to 1e-12 relative, with two
    values both below 1e-10 in magnitude counted as equal."""
    if isinstance(old, dict):
        assert isinstance(new, dict) and sorted(new) == sorted(old), where
        for key in old:
            _assert_close(new[key], old[key], f"{where}.{key}")
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), where
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_close(a, b, f"{where}[{i}]")
    elif isinstance(old, float):
        assert isinstance(new, (int, float)) and not isinstance(new, bool), where
        if max(abs(new), abs(old)) >= 1e-10:
            assert abs(new - old) <= 1e-12 * max(abs(new), abs(old)), (where, new, old)
    else:
        assert new == old, where


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--config",
                       str(tmp_path / "nope.json"))
    assert code == 2


def test_verify_malformed_json(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--config", str(path))
    assert code == 2


@pytest.mark.parametrize("overrides", [
    {"extra_field": 1},
    {"dim": -2},
    {"variables": ["u", "u"]},
    {"components": ["u", "v"]},
    {"domain": {"u": [-1, 1]}},
    {"domain": {"u": [1, -1], "v": [-1, 1]}},
    {"samples": {"u": 1, "v": 3}},
    {"orientation": 0},
    {"tolerances": {"eps_abs": -1.0}},
    {"tolerances": {"bogus": 1.0}},
])
def test_verify_config_schema_rejections(capsys, tmp_path, overrides):
    path = write_config(tmp_path, **overrides)
    code, _, err = run(capsys, "verify", "--config", path)
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("count, code", [(10_000, None), (10_001, 2)])
def test_explicit_sample_list_is_capped_at_10000_points(capsys, tmp_path, count, code):
    path = write_config(tmp_path, samples=[[0.5, 0.25]] * count)
    if code is None:  # accepted; parsed only, as verify would run every point
        _, cfg = load_config(path)
        assert len(cfg.explicit_points) == count
        return
    got, out, err = run(capsys, "verify", "--config", path)
    assert (got, out) == (code, "")
    assert "more than 10000" in err and "Traceback" not in err


# A count grid past the cap is thinned with one stderr line naming the
# requested and the sampled counts; a grid within the cap gives no such line
def test_a_thinned_grid_is_reported_on_stderr(capsys, tmp_path):
    code, payload, err = run_json(capsys, "verify", "--config", write_config(
        tmp_path, name="big", samples={"u": 150, "v": 150}))
    assert code == 0 and payload["results"]["sample_count"] == 10_000
    assert [line for line in err.splitlines() if "sample grid" in line] == [
        "verify: sample grid 150x150 -> 100x100 (cap 10000 points)"]
    code, _, err = run_json(capsys, "verify", "--config", write_config(tmp_path))
    assert code == 0 and "sample grid" not in err


# Counts are at least 2 per variable, so from dimension 14 up even the
# thinnest grid (2^14 = 16,384 points) is past the 10,000 cap: the run stops
# before any point is evaluated, with default counts and with explicit ones
@pytest.mark.parametrize("command, ambient, samples", [
    ("verify", "euclidean", None),
    ("verify", "euclidean", 2),
    ("verify-link", "sphere", None),
])
def test_a_grid_past_the_cap_at_dimension_14_is_numeric_failure(capsys, tmp_path, command,
                                                                ambient, samples):
    names = [f"x{i}" for i in range(14)]
    extra = ["0"] if ambient == "euclidean" else ["0", "1"]
    cfg = {"name": "dim14", "dim": 14, "ambient": ambient, "variables": names,
           "components": names + extra, "domain": dict.fromkeys(names, [-1.0, 1.0])}
    if samples is not None:
        cfg["samples"] = dict.fromkeys(names, samples)
    path = tmp_path / "dim14.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--config", str(path))
    assert time.perf_counter() - start < 10.0
    assert (code, out) == (4, "")
    assert "2^14 points, more than the cap of 10000; give explicit samples" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify-link


def test_verify_link_proper(capsys):
    code, payload, _ = run_json(
        capsys, "verify-link", "--config", str(CONFIGS / "sphere_link_S3.json"))
    assert code == 0
    assert payload["results"]["verdict"] == "ProperBiharmonicGauss"


def test_verify_link_config_tolerances_reach_the_verdict(capsys, tmp_path):
    # the S^3 link's vector residual is roundoff, 1.5e-14, far above a
    # threshold of 1e-30 + 1e-30 * scale
    cfg = json.loads((CONFIGS / "sphere_link_S3.json").read_text())
    path = write_config(tmp_path, **cfg, tolerances={"eps_abs": 1e-30, "eps_rel": 1e-30})
    code, payload, _ = run_json(capsys, "verify-link", "--config", path)
    assert code == 0
    results = payload["results"]
    assert results["verdict"] == "NotBiharmonic"
    assert results["tolerances"] == {"eps_abs": 1e-30, "eps_rel": 1e-30,
                                     "grad_rel": 1e-7, "near_minimal_f": 1e-10}
    assert results["max_vector_residual"] > results["vector_threshold"]


def test_verify_link_torus_not_biharmonic(capsys):
    code, payload, _ = run_json(
        capsys, "verify-link", "--config", str(CONFIGS / "torus_link.json"))
    assert code == 0
    assert payload["results"]["verdict"] == "NotBiharmonic"


def test_verify_link_rejects_euclidean_config(capsys):
    code, _, err = run(capsys, "verify-link", "--config",
                       str(CONFIGS / "sphere_S2.json"))
    assert code == 2


# ---------------------------------------------------------------------------
# solvers


def test_solve_sphere_cone(capsys):
    code, payload, _ = run_json(capsys, "solve", "sphere-cone", "--m", "3")
    assert code == 0
    res = payload["results"]
    assert res["a_sq_exact"] == "1/2"
    assert res["a"] == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert res["identity_exact"] is True


def test_solve_sphere_cone_no_solution(capsys):
    code, payload, _ = run_json(capsys, "solve", "sphere-cone", "--m", "2")
    assert code == 0
    assert payload["results"]["solution"] is None
    assert "note" in payload["results"]


def test_solve_clifford_cone(capsys):
    code, payload, _ = run_json(capsys, "solve", "clifford-cone",
                                "--m", "4", "--m1", "1")
    assert code == 0
    roots = payload["results"]["roots"]
    assert [r["flag"] for r in roots] == ["valid", "valid"]
    assert sorted(r["r1_sq"] for r in roots) == pytest.approx(
        [(8 - math.sqrt(24)) / 20, (8 + math.sqrt(24)) / 20], rel=1e-12)


def test_solve_isoparametric_l3_zero_roots(capsys):
    code, payload, _ = run_json(capsys, "solve", "isoparametric",
                                "--l", "3", "--q", "0")
    assert code == 0
    res = payload["results"]
    assert res["roots"] == []
    assert res["note"] == "no real roots"
    assert res["condition_coefficients"] == ["1", "0", "21", "0", "-9",
                                             "0", "3"]


def test_solve_isoparametric_l1_delegates(capsys):
    code, payload, _ = run_json(capsys, "solve", "isoparametric",
                                "--l", "1", "--m1", "3")
    assert code == 0
    roots = payload["results"]["roots"]
    assert len(roots) == 1
    assert roots[0]["value"] == pytest.approx(0.5)


def test_solve_isoparametric_missing_flag(capsys):
    code, _, err = run(capsys, "solve", "isoparametric", "--l", "3")
    assert code == 2


def test_solve_takagi(capsys):
    code, payload, _ = run_json(capsys, "solve", "takagi", "--n", "9")
    assert code == 0
    sols = payload["results"]["solutions"]
    assert [s["exact"] for s in sols] == ["7/11", "2/3"]
    assert all(abs(s["quartic_residual"]) < 1e-9 for s in sols)
    assert payload["results"]["sin_sq_2theta"] == pytest.approx(
        [7 / 11, 2 / 3], rel=1e-9)


def test_solve_takagi_even_n_rejected(capsys):
    code, _, err = run(capsys, "solve", "takagi", "--n", "8")
    assert code == 2
    assert "odd" in err


# ---------------------------------------------------------------------------
# certificates


def test_check_cone_r3_certificate(capsys):
    code, payload, _ = run_json(capsys, "check", "cone-r3")
    assert code == 0
    res = payload["results"]
    assert res["only_trivial_consistent"] is True
    cert = res["certificate"]
    assert any("3 * k' * k^2 = 0" in line for line in cert["eliminations"])
    assert "k == 0" in cert["conclusion"]
    probes = res["probes"]
    trivial = [p for p in probes if p["k0"] == 0.0 and p["k0_dot"] == 0.0]
    assert all(p["consistent"] for p in trivial)
    assert all(not p["consistent"] for p in probes if p not in trivial)


def test_check_cone_r4_torus(capsys):
    code, payload, _ = run_json(capsys, "check", "cone-r4", "--config",
                                str(CONFIGS / "torus_link.json"))
    assert code == 0
    res = payload["results"]
    assert res["obstruction_holds"] is True
    assert res["closures"] == ["periodic", "periodic"]
    assert abs(res["integral_laplacian"]) < 1e-8 * max(res["area"], 1.0)
    assert res["integral_weighted_f"] > 0


def test_check_cone_r4_rejects_euclidean(capsys):
    code, _, err = run(capsys, "check", "cone-r4", "--config",
                       str(CONFIGS / "sphere_S2.json"))
    assert code == 2


# ---------------------------------------------------------------------------
# roots


def test_roots_cubic(capsys):
    code, payload, _ = run_json(capsys, "roots", "--coeffs", "-6,11,-6,1")
    assert code == 0
    roots = payload["results"]["roots"]
    assert [r["value"] for r in roots] == pytest.approx([1.0, 2.0, 3.0],
                                                        abs=1e-12)


def test_roots_with_rational_range(capsys):
    code, payload, _ = run_json(capsys, "roots", "--coeffs", "-6,11,-6,1",
                                "--range", "0,5/2")
    assert code == 0
    roots = payload["results"]["roots"]
    assert [r["value"] for r in roots] == pytest.approx([1.0, 2.0], abs=1e-12)


def test_roots_zero_polynomial_rejected(capsys):
    code, _, err = run(capsys, "roots", "--coeffs", "0,0")
    assert code == 2


def test_roots_bad_range_rejected(capsys):
    code, _, err = run(capsys, "roots", "--coeffs", "1,1", "--range", "2,1")
    assert code == 2


def test_roots_with_a_coefficient_past_the_float_range(capsys):
    # 1 + 10^400 x: the exact isolation holds, the float polish is skipped
    code, data, err = run_json(capsys, "roots", "--coeffs", "1,1e400")
    assert code == 0
    assert data["results"]["count"] == 1
    (root,) = data["results"]["roots"]
    assert root["certified"] and root["lo"] <= root["value"] <= root["hi"] == 0.0
    assert -1e-12 <= root["lo"]


@pytest.mark.parametrize("coeffs", ["1e3990,1", "1,1e-400", "-1e700,0,1"])
def test_roots_past_the_float_range_say_so(capsys, coeffs):
    code, out, err = run(capsys, "roots", "--coeffs", coeffs)
    assert (code, out) == (4, "")
    assert "outside the float range" in err and "Traceback" not in err


def test_a_range_end_root_past_the_float_range_says_so(capsys):
    # the root 10^400 is the range's right end, reported as the degenerate
    # interval [b, b], whose value is no float
    code, out, err = run(capsys, "roots", "--coeffs", "-1e400,1", "--range", "0,1e400")
    assert (code, out) == (4, "")
    assert err == "numerical failure: a root lies outside the float range (|x| > 1.8e308)\n"


@pytest.mark.parametrize("argv", [
    ("--coeffs", "1e5000,1"),
    ("--coeffs", "1e-5000,1"),
    ("--coeffs", "1e10000000,1"),
    ("--coeffs", "1,1", "--range", "0,1e5000"),
    ("--coeffs", "1,1", "--range", f"{'9' * 5000},{'9' * 5001}"),
])
def test_roots_oversized_rational_is_config_error(capsys, argv):
    # past Python's int-to-str digit limit the number could not be printed;
    # at 1e10000000 it also took seconds to build
    start = time.perf_counter()
    code, out, err = run(capsys, "roots", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "more than 4000 digits" in err


# ---------------------------------------------------------------------------
# report


def test_report_all_counts(capsys):
    code, payload, _ = run_json(capsys, "report", "--all")
    assert code == 0
    res = payload["results"]
    assert len(res["sphere_links"]) == 10
    assert len(res["clifford_links"]) == 126
    assert all(r["flag"] == "valid" for r in res["clifford_links"])
    assert len(res["isoparametric_l3"]) == 4
    assert res["isoparametric_l4_homogeneous"] == []
    assert len(res["isoparametric_l4_takagi"]) == 6
    assert res["isoparametric_l6"] == []


def test_report_n_max_extends_takagi(capsys):
    code, payload, _ = run_json(capsys, "report", "--all", "--n-max", "15")
    assert code == 0
    assert len(payload["results"]["isoparametric_l4_takagi"]) == 8


# time and output grow linearly with --n-max: the cap is accepted, one past
# it is a config error before any solving
def test_report_n_max_is_capped(capsys, monkeypatch):
    from gausslab import cli

    code, payload, _ = run_json(capsys, "report", "--all", "--n-max", str(cli._N_MAX_CAP))
    assert code == 0
    assert payload["results"]["isoparametric_l4_takagi"][-1]["n"] == cli._N_MAX_CAP
    monkeypatch.setattr(cli.hypercone, "sphere_link_solver", None)
    code, out, err = run(capsys, "report", "--all", "--n-max", str(cli._N_MAX_CAP + 1))
    assert (code, out) == (2, "")
    assert f"at most {cli._N_MAX_CAP}" in err


def test_report_csv_has_one_block_per_family(capsys):
    code, out, _ = run(capsys, "report", "--all", "--format", "csv")
    assert code == 0
    blocks = [b for b in out.split("\r\n\r\n") if b.strip()]
    assert len(blocks) == 6
    assert blocks[0].splitlines()[0].startswith("table,m,a")


# SHA-256 of stdout, recorded before the exact root kernel moved to integer
# arithmetic; any change in the catalog bytes between versions shows here
@pytest.mark.parametrize("argv, digest", [
    (("report", "--all"),
     "383c56e41029e86ee6e3a1988f8ae574aa6f5c1811de4df0b06763bc11619fe3"),
    (("report", "--all", "--format", "csv", "--n-max", "17"),
     "b501e99c021c9810d6bb04b417319d4dee8c3d54a9072f3e15ef5104d496a658"),
    (("roots", "--coeffs", "-6,11,-6,1", "--range", "0,5/2"),
     "f76c98ad400fb3464376d1499c1c28fabf2aacad89f752d1ba3664e71fdaca8c"),
    # recorded while the result types were still dataclasses: the records
    # reach the JSON payload through `_sanitize` as objects of their fields
    (("check", "cone-r3"),
     "dcb244a9b3e8486c8ec759d26d5abde1ce452eea9455ce68f64dfd5b4316222d"),
    (("solve", "sphere-cone", "--m", "3"),
     "7585c142b6716e67f7c67b7295cdbe5a2bb206b224805dca835aceb0b6a77c63"),
    (("solve", "clifford-cone", "--m", "4", "--m1", "1"),
     "3baa4cf9b83bf83f4b83d6a28735963d9d00db31e8616cf1450330ff4d5bfd76"),
    (("solve", "isoparametric", "--l", "3", "--q", "2"),
     "6bb46a8ac93e400a41ff276a0a415a6a75900d8fa7390305678bce42757e1fbb"),
    (("solve", "isoparametric", "--l", "1", "--m1", "3"),
     "2c5defb20f450c72f0faf33112b47eca17b894b4161632e236062a3fe9e7d565"),
    (("solve", "takagi", "--n", "9"),
     "3f0ebbeea4d3cf0fbb819708b222a3e9f0dd38b2d000440fc326910191120661"),
])
def test_catalog_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of stdout, recorded while refinement still halved each isolating
# interval: the final cell it now names from an estimate is the same
@pytest.mark.parametrize("argv, digest", [
    (("roots", "--coeffs", "-1e616,0,1"),
     "f5a2744b214d14de01b3b27c13a81a8847119ac97b67b41a05c0f263aef2acb1"),
    (("roots", "--coeffs", "-1e300,0,0,1"),
     "dd6aa6f2765e42668de2375b38efcb02afa0f5bef1f8107922c90272170b3355"),
])
def test_large_coefficient_roots_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_report_is_deterministic(capsys):
    _, a, _ = run(capsys, "report", "--all")
    _, b, _ = run(capsys, "report", "--all")
    assert a == b


# ---------------------------------------------------------------------------
# plumbing


def test_digest_depends_on_inputs_only(capsys):
    _, p1, _ = run_json(capsys, "solve", "sphere-cone", "--m", "3")
    _, p2, _ = run_json(capsys, "solve", "sphere-cone", "--m", "3")
    _, p3, _ = run_json(capsys, "solve", "sphere-cone", "--m", "4")
    assert p1["digest"] == p2["digest"]
    assert p1["digest"] != p3["digest"]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_no_subcommand_prints_usage(capsys):
    code, out, err = run(capsys)
    assert code == 2


# `main` builds its parsers on the first call and reuses them: importing the
# CLI builds none, and a second command builds none again
def test_the_parser_is_built_once_per_process():
    script = ("import argparse, contextlib, io\n"
              "built = []\n"
              "init = argparse.ArgumentParser.__init__\n"
              "def counted(self, *args, **kwargs):\n"
              "    built.append(self)\n"
              "    init(self, *args, **kwargs)\n"
              "argparse.ArgumentParser.__init__ = counted\n"
              "from gausslab.cli import main\n"
              "print(len(built))\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(['solve', 'sphere-cone', '--m', '3'])\n"
              "    first = len(built)\n"
              "    code += main(['roots', '--coeffs', '-2,0,1'])\n"
              "print(code, first > 0, len(built) == first)\n")
    assert _fresh_python(script) == ["0", "0 True True"]


# handlers are looked up by name at call time, so a handler patched after
# the parser was built is the one that runs
def test_a_handler_patched_after_the_first_call_runs(capsys, monkeypatch):
    import gausslab.cli as cli

    assert run(capsys, "roots", "--coeffs", "-2,0,1")[0] == 0
    monkeypatch.setattr(cli, "_cmd_roots",
                        lambda args: cli._Outcome("roots", {"patched": True}, None))
    code, payload, _ = run_json(capsys, "roots", "--coeffs", "-2,0,1")
    assert code == 0 and payload["inputs"] == {"patched": True}


# an argparse error leaves the reused parser as it was: the next command
# prints the bytes pinned in test_catalog_stdout_is_pinned
def test_a_command_after_an_argparse_error_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "takagi"])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err
    code, out, _ = run(capsys, "solve", "takagi", "--n", "9")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3f0ebbeea4d3cf0fbb819708b222a3e9f0dd38b2d000440fc326910191120661")


# SHA-256 of the help text at 80 columns, recorded while the parser was
# still built on every call; the reused parser prints it unchanged each time
@pytest.mark.parametrize("argv, digest", [
    (("--help",), "a72355e10b23f470c408cb84a35ddb2cdd20180eee6729f47bc8ba02e0cc5ff1"),
    (("solve", "isoparametric", "--help"),
     "fded4ecc38b3bad1debfcee933f4f276a372be92191b1cfca114e00433a7207e"),
])
def test_help_is_pinned_on_repeated_calls(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "gausslab.cli", "solve", "sphere-cone",
         "--m", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"]["a_sq_exact"] == "5/14"
    assert "elapsed" in proc.stderr


# ---------------------------------------------------------------------------
# non-finite jets and the worker count of the R^4 obstruction


# (component, u interval, u from which the cause is a non-finite value);
# below it the metric is finite but far past the conditioning gate. The
# sine case used to give a NotBiharmonic verdict from rows of NaN.
@pytest.mark.parametrize("component, lo, hi, non_finite_from", [
    ("exp(exp(u))", 6.0, 7.0, 6.0),
    ("exp(exp(u))", 5.5, 6.0, 6.0),
    ("sin(1e300*u*u)", 1.0, 2.0, 1.0),
])
def test_verify_overflowing_component_fails_points_not_the_run(tmp_path, component, lo,
                                                               hi, non_finite_from):
    path = write_config(tmp_path, name="overflow", components=["u", "v", component],
                        domain={"u": [lo, hi], "v": [-1.0, 1.0]},
                        samples={"u": 3, "v": 2})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "gausslab.cli", "verify", "--config", path],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 4
    results = json.loads(proc.stdout)["results"]
    assert results["verdict"] == "Inconclusive"
    assert not any(p["ok"] for p in results["points"])
    for p in results["points"]:
        if p["point"][0] >= non_finite_from:
            assert "not finite" in p["error"], p
        else:
            assert "metric condition number" in p["error"], p
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("error", [ValueError("operands could not be broadcast"),
                                   IndexError("index 3 is out of bounds")])
def test_unexpected_exception_is_one_line_internal_error(capsys, monkeypatch, error):
    import gausslab.cli as cli

    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_roots", fail)
    code, out, err = run(capsys, "roots", "--coeffs", "-2,0,1")
    assert code == 4
    assert out == ""
    assert err == f"internal error: {type(error).__name__}: {error}\n"


# ---------------------------------------------------------------------------
# the expression grammar, fuzzed through `verify`

_NUMBERS = st.one_of(
    st.integers(0, 10 ** 6).map(str),
    st.floats(0.0, 1e6, allow_nan=False).map(repr),
    st.builds(lambda m, sign, k: f"{m}e{sign}{k}",
              st.sampled_from(["1", "2.5", "0.0", "7."]),
              st.sampled_from(["", "+", "-"]), st.integers(0, 400)),
)
_NAMES = st.sampled_from(["u", "v", "pi", "e", "w", "x1", "sinh2", "U", "cosu"])
_OPERATORS = st.sampled_from(["+", "-", "*", "/", "^"])


def _balanced(leaves):
    """Expressions with balanced parentheses, built from `leaves`."""
    return st.one_of(
        st.builds(lambda a, op, b: f"{a}{op}{b}", leaves, _OPERATORS, leaves),
        st.builds(lambda a: f"({a})", leaves),
        st.builds(lambda fn, a: f"{fn}({a})", st.sampled_from(FUNCTIONS), leaves),
        st.builds(lambda op, a: f"{op}{a}", st.sampled_from(["-", "+"]), leaves),
    )


_TOKENS = st.one_of(_NUMBERS, _NAMES, _OPERATORS, st.sampled_from(["(", ")"]),
                    st.sampled_from(FUNCTIONS).map(lambda fn: f"{fn}("))
_COMPONENTS = st.one_of(
    st.recursive(st.one_of(_NUMBERS, _NAMES), _balanced, max_leaves=12),
    st.lists(_TOKENS, min_size=1, max_size=12).flatmap(
        lambda tokens: st.sampled_from(["", " "]).map(lambda sep: sep.join(tokens))),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_COMPONENTS)
def test_fuzzed_component_gives_a_documented_exit_code(tmp_path, component):
    path = write_config(tmp_path, name="fuzz", components=["u", "v", component],
                        samples=[[0.25, -0.5], [-0.75, 0.125]])
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--config", path])
    assert time.perf_counter() - start < 5.0
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert "internal error:" not in err.getvalue()
