"""Self-check of the benchmark: the oracle rejects wrong outputs, the printer
emits every metric BENCHMARK.json names, and the command refuses to run
without the program. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return oracle.load_golden()


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _flip_one_byte(text, index):
    ch = text[index]
    return text[:index] + ("1" if ch != "1" else "2") + text[index + 1:]


def test_readme_commands_match_the_readme():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip().startswith("gausslab ")]
    readme = [tuple(re.findall(r'"[^"]*"|\S+', line)[1:]) for line in lines]
    readme = [tuple(tok.strip('"') for tok in cmd) for cmd in readme]
    assert readme == list(workloads.README_COMMANDS)


def test_recorded_outputs_pass(golden):
    for argv in (("solve", "sphere-cone", "--m", "3"), ("check", "cone-r3"),
                 ("verify-link", "--config", "configs/sphere_link_S3.json")):
        code, stdout = workloads.cli_in_process(argv)
        assert oracle.check_cli(" ".join(argv), code, stdout, golden) is None


def test_one_byte_change_is_a_failure(golden):
    argv = ("solve", "sphere-cone", "--m", "3")
    key = " ".join(argv)
    code, stdout = workloads.cli_in_process(argv)
    changed = _flip_one_byte(stdout, stdout.index('"m": 3') + 5)
    assert oracle.check_cli(key, code, changed, golden) is not None


def test_wrong_verdict_is_a_failure(golden):
    key = "verify-link --config configs/sphere_link_S3.json"
    stdout = golden[key]["stdout"].replace(oracle.PROPER, "NotBiharmonic")
    assert oracle.check_cli(key, 0, stdout, golden) is not None

    class Report:
        verdict = "NotBiharmonic"
        points = [object()]
        failed_points = 0
        max_residual = 1.0

    assert oracle.check_residual(Report, oracle.PROPER, 1) is not None


def test_roundoff_and_relative_tolerance():
    assert oracle.close(1.0, 1.0 + 1e-12)
    assert not oracle.close(1.0, 1.0 + 1e-6)
    assert oracle.close(3e-14, -2e-13)  # roundoff-level residuals
    assert not oracle.close(0.0, 1e-8)


def test_failures_count_in_the_error_rate(golden):
    key = "solve sphere-cone --m 3"
    code, stdout = workloads.cli_in_process(key.split())
    verdict_key = "verify-link --config configs/sphere_link_S3.json"
    wrong_verdict = golden[verdict_key]["stdout"].replace(oracle.PROPER, "NotBiharmonic")
    ops = [
        workloads.Op("good", lambda: (code, stdout),
                     lambda r: oracle.check_cli(key, *r, golden)),
        workloads.Op("one byte", lambda: (code, _flip_one_byte(stdout, 10)),
                     lambda r: oracle.check_cli(key, *r, golden)),
        workloads.Op("verdict", lambda: (0, wrong_verdict),
                     lambda r: oracle.check_cli(verdict_key, *r, golden)),
        workloads.Op("raises", lambda: 1 / 0, lambda r: None),
    ]
    result = run.measure(ops, seconds=0.0, timeout=10, reference=lambda: 0.02)
    assert len(result["samples"]) == 4
    assert [f.split(":")[0] for f in result["failures"]] == ["one byte", "verdict", "raises"]


def test_known_root_counts():
    for seed in range(20):
        for item in workloads.make_inputs("catalog", seed)["calls"]:
            if "roots" in item:
                code, stdout = workloads.cli_in_process(item["argv"])
                assert oracle.check_roots(code, stdout, item["roots"]) is None, item


def test_end_to_end_printer_emits_every_metric(spec):
    ops = [workloads.Op("a", lambda: None, lambda r: None, dim=2, points=1)]
    result = run.measure(ops, seconds=0.0, timeout=10, reference=lambda: 0.02)
    setup = ({"setup_s": 1.0, "import_s": 0.5}, {"setup_s": 1.0, "import_s": 0.5})
    metrics, _ = run.end_to_end("catalog", setup, 100.0, result)
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())


def test_latency_order_statistics_do_not_depend_on_the_pass_count():
    fast, slow = (workloads.Op(label, lambda: None, lambda r: None) for label in "ab")
    setup = ({"setup_s": 1.0, "import_s": 0.5}, {"setup_s": 1.0, "import_s": 0.5})

    def latencies(passes):
        samples = [(op, lat, lat / 0.02) for _ in range(passes)
                   for op, lat in ((fast, 0.1), (slow, 2.0))]
        run_ = {"samples": samples, "failures": [], "pass_times": [2.1] * passes,
                "pass_relative": [105.0] * passes, "references": [0.02] * (2 * passes + 1),
                "elapsed": 2.1 * passes}
        metrics, _ = run.end_to_end("link-grid", setup, 100.0, run_)
        return metrics["cmd_p50_s"]["value"], metrics["cmd_tail_s"]["value"]

    assert latencies(1) == latencies(6) == (pytest.approx(1.05), pytest.approx(2.0))


def test_tail_is_the_mean_of_the_slowest_quarter():
    ops = [workloads.Op(str(k), lambda: None, lambda r: None) for k in range(13)]
    run_ = {"samples": [(op, 0.0, float(k)) for k, op in enumerate(ops)],
            "pass_times": [0.0], "pass_relative": [78.0]}
    assert run.tail_count(13) == 4 and run.tail_count(2) == 1
    assert run.latency_metrics(run_, 2)["cmd_tail_s"] == pytest.approx((9 + 10 + 11 + 12) / 4)


def test_pooled_operations_are_timed_against_the_speed_probe():
    op = workloads.Op("pooled", lambda: time.sleep(0.35), lambda r: None, pooled=True)
    result = run.measure([op], seconds=0.0, timeout=10, reference=lambda: 1e6)
    (_, latency, relative), = result["samples"]
    assert relative > 1.0 > latency / 1e6


def test_layer_printer_emits_every_metric(spec):
    from gausslab.biharmonic import hypersurface_residual
    from gausslab.cli import build_chart, load_config

    _, cfg = load_config(os.path.join(ROOT, "configs", "sphere_S2.json"))
    chart = build_chart(cfg)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation(1, "two points"):
            hypersurface_residual(chart, points=[(0.1, 0.2), (0.3, 0.4)], workers=1)
    finally:
        tracer.uninstall()
    values = run.layer_metrics("cone-gallery", tracer, [1], [1], tracer.counts, 1.0,
                               {"cli.import_ms": 1.0, "cli.import_scipy_ms": 0.5})
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    assert values["exprjet.jet_mul_calls.dim2"] > 0
    assert values["geometry.fundamental_data_ms.dim2"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60)
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
